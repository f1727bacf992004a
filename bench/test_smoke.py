"""Smoke test of the benchmark itself: every workload at a tiny size runs,
emits every named metric, and passes its checks.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, per_layer_units  # noqa: E402
from passrun import WORKLOAD_IDS  # noqa: E402


def run(workload, trace):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", "0", "--trace", str(trace), "--size", "smoke"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOAD_IDS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks(workload, trace):
    res = run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], res
    assert res["attempted"] >= 1
    expected = dict(END_TO_END) if trace == 0 else per_layer_units()
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    else:
        assert 0.9 <= res["metrics"]["trace.accounted_frac"]["value"] <= 1.0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "gh-pairs",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
