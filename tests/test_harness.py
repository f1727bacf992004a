import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fragbox import ArgumentError
from fragbox.harness import (ChiSquareReport, ExperimentConfig, _chi2_sf,
                             chi_square_gof, csv_text, derive_seed, gof_gate,
                             rng_for, run_experiment)


def test_chi_square_exact_fit():
    rep = chi_square_gof([50, 30, 20], [0.5, 0.3, 0.2])
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0


def test_chi_square_gross_misfit():
    rep = chi_square_gof([100, 0, 0, 0], [0.25, 0.25, 0.25, 0.25])
    assert rep.p_value < 1e-10


def test_chi_square_calibration():
    # correct-model draws give a healthy p-value
    rng = np.random.default_rng(0)
    probs = [0.4, 0.3, 0.2, 0.1]
    draws = rng.choice(4, size=10_000, p=probs)
    obs = [int(np.sum(draws == i)) for i in range(4)]
    rep = chi_square_gof(obs, probs)
    assert rep.p_value > 1e-3


def test_chi_square_pools_rare_categories():
    # one tiny-expectation category gets pooled, not divided by ~0
    rep = chi_square_gof([990, 9, 1], [0.99, 0.0099, 0.0001])
    assert all(e >= 5 for e in rep.expected)


def test_chi_square_argument_errors():
    with pytest.raises(ArgumentError):
        chi_square_gof([1, 2], [0.5, 0.3, 0.2])
    with pytest.raises(ArgumentError):
        chi_square_gof([10, 20], [0.5, 0.5])  # fewer than 100 observations


@settings(max_examples=500)
@given(st.integers(1, 400), st.floats(0.0, 1.0))
def test_chi2_sf_matches_scipy(k, u):
    x = u * (4 * k + 50)
    want = stats.chi2.sf(x, k)
    if want > 1e-300:
        assert abs(_chi2_sf(x, k) - want) <= 1e-11 * want, (x, k)


def test_chi2_sf_edge_cases():
    for k in (1, 2, 7, 400):
        assert _chi2_sf(0.0, k) == 1.0
    for x in (1e-8, 0.3, 4.0, 50.0, 600.0):
        assert _chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-14)
        assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-14)
    # far in the tail e^(-x/2) alone underflows, but the p-value does not
    x = 1800.0
    assert math.exp(-x / 2) == 0.0
    p = _chi2_sf(x, 210)
    assert 1e-251 < p < 1e-249
    assert p == pytest.approx(stats.chi2.sf(x, 210), rel=1e-11)


def test_grow_gate_p_value_matches_scipy():
    # the Tier-1 grow gate at its defaults: the closed form moves its p-value
    # by at most 1e-12 relative against scipy on the same statistic
    b = run_experiment(ExperimentConfig("grow"))
    rows = b["tables"]["frequencies.csv"].strip().split("\n")[1:]
    p, stat = b["summary"]["p_value"], b["summary"]["statistic"]
    assert stat > 0 and len(rows) >= 2
    want = stats.chi2.sf(stat, len(rows) - 1)
    assert abs(p - want) <= 1e-12 * want


def test_gof_gate_strikes():
    calls = []

    def always_bad(rng):
        calls.append(1)
        return ChiSquareReport([], [], [], 100.0, 1, 1e-9)

    passed, reports = gof_gate(always_bad, 0, "bad")
    assert not passed and len(reports) == 3

    def good(rng):
        return ChiSquareReport([], [], [], 0.0, 1, 0.9)

    passed, reports = gof_gate(good, 0, "good")
    assert passed and len(reports) == 1


def test_derive_seed_deterministic():
    assert derive_seed(7, "x", 3) == derive_seed(7, "x", 3)
    assert derive_seed(7, "x", 3) != derive_seed(7, "x", 4)
    assert derive_seed(7, "x", 3) != derive_seed(8, "x", 3)
    a = rng_for(1, "t", 0).random(3)
    b = rng_for(1, "t", 0).random(3)
    assert np.array_equal(a, b)


def test_config_roundtrip():
    cfg = ExperimentConfig("grow", {"n": 4, "alpha": 0.5}, 500, 42, None, "csv")
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back.tag == cfg.tag and back.params == cfg.params
    assert back.reps == cfg.reps and back.master_seed == cfg.master_seed
    with pytest.raises(ArgumentError):
        ExperimentConfig("grow", reps=0).validate()
    with pytest.raises(ArgumentError):
        ExperimentConfig("grow", fmt="xml").validate()


def test_run_split_table(tmp_path):
    cfg = ExperimentConfig("split-table", {"n": 4}, 1, 0, str(tmp_path))
    b = run_experiment(cfg)
    assert abs(b["summary"]["total"] - 1.0) < 1e-12
    table = b["tables"]["table.csv"]
    assert len(table.strip().split("\n")) == 1 + 14  # header + all non-trivial
    assert os.path.exists(tmp_path / "summary.json")
    assert os.path.exists(tmp_path / "table.csv")
    on_disk = (tmp_path / "table.csv").read_bytes()
    assert on_disk == table.encode()
    assert b"\r" not in on_disk


def test_run_outputs_byte_stable(tmp_path):
    cfg = ExperimentConfig("grow", {"n": 3}, 500, 9)
    t1 = run_experiment(cfg)["tables"]["frequencies.csv"]
    t2 = run_experiment(cfg)["tables"]["frequencies.csv"]
    assert t1 == t2
    s = run_experiment(cfg)["summary"]
    assert s == run_experiment(cfg)["summary"]
    # on disk too: identical runs write identical summary.json bytes, and
    # the wall time goes to metrics.json beside it
    for out in ("a", "b"):
        run_experiment(ExperimentConfig("grow", {"n": 3}, 500, 9, str(tmp_path / out)))
    summary = (tmp_path / "a" / "summary.json").read_bytes()
    assert summary == (tmp_path / "b" / "summary.json").read_bytes()
    assert json.loads((tmp_path / "a" / "metrics.json").read_text())["wall_time_s"] >= 0


def test_run_unknown_tag():
    with pytest.raises(ArgumentError):
        run_experiment(ExperimentConfig("nope"))


def test_json_summary_sorted_keys(tmp_path):
    cfg = ExperimentConfig("classify", {"family": "alphagamma", "alpha": 0.5,
                                        "gamma": 0.3, "n": 3}, 1, 0, str(tmp_path))
    run_experiment(cfg)
    text = (tmp_path / "summary.json").read_text()
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert obj["summary"]["restricted_exchangeable"] is True


def cli(*args):
    return subprocess.run([sys.executable, "-m", "fragbox.cli", *args],
                          capture_output=True, text=True)


def test_cli_success_exit_0(tmp_path):
    r = cli("split-table", "--param", "n=4", "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stderr
    assert abs(json.loads(r.stdout)["total"] - 1.0) < 1e-12
    assert (tmp_path / "o" / "table.csv").exists()


def test_cli_reduced_crt_beyond_enumeration_sizes():
    # splits come from sample_split, so k has no enumeration cap
    r = cli("reduced-crt", "--param", "k=13", "--reps", "2")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["k"] == 13


def test_cli_csv_format():
    r = cli("split-table", "--param", "n=3", "--format", "csv")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("partition,probability")


def test_cli_bad_input_exit_2(tmp_path):
    # malformed config file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli("grow", "--config", str(bad)).returncode == 2
    # missing config file
    assert cli("grow", "--config", str(tmp_path / "none.json")).returncode == 2
    # missing required model parameter
    assert cli("split-table", "--param", "family=skewed-pd").returncode == 2
    # malformed --param
    assert cli("grow", "--param", "nonsense").returncode == 2
    # a misspelt key (which would run with the default alpha)
    r = cli("grow", "--param", "alpah=0.9", "--param", "n=3")
    assert r.returncode == 2 and "alpah" in r.stderr, r.stderr
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"params": {"n": 3, "gama": 0.2}}))
    r = cli("grow", "--config", str(typo))
    assert r.returncode == 2 and "gama" in r.stderr, r.stderr
    # a config that is not an object, or whose params are not one
    for i, shape in enumerate(([1], {"params": [1, 2]})):
        bad_shape = tmp_path / f"shape{i}.json"
        bad_shape.write_text(json.dumps(shape))
        r = cli("grow", "--config", str(bad_shape))
        assert r.returncode == 2 and "Traceback" not in r.stderr, (shape, r.stderr)
    # c or k not a list of numbers; c, k or theorem2 without levels (which
    # would be ignored silently)
    levels = 'levels={"1": [[[0.5, 0.3], 1.0]]}'
    for params in ((levels, "c=5"), (levels, 'c=["x"]'), (levels, "k=[0.1, true]"),
                   ("c=[0.1]",), ("k=[0.1]",), ("theorem2=true",)):
        r = cli("consistency", *[a for p in params for a in ("--param", p)])
        assert r.returncode == 2 and "Traceback" not in r.stderr, (params, r.stderr)


def test_cli_malformed_levels_exit_2():
    # levels not an object, a level key not an integer, an entry not
    # [atoms, weight], a level key below 1 (which would be dropped silently)
    for levels in ('[1]', '{"a": [[[0.5, 0.5], 1.0]]}', '{"1": [[0.5, 0.5]]}',
                   '{"0": [[[0.6], 1.0]], "1": [[[0.5, 0.5], 1.0]]}'):
        r = cli("consistency", "--param", f"levels={levels}")
        assert r.returncode == 2, (levels, r.stderr)
        assert "Traceback" not in r.stderr


def test_cli_gate_failure_exit_3():
    r = cli("grow", "--param", "n=3", "--param", "alpha=0.5",
            "--param", "gamma=0.3", "--param", "oracle_alpha=0.9",
            "--param", "oracle_gamma=0.1", "--reps", "4000")
    assert r.returncode == 3, (r.returncode, r.stdout, r.stderr)
    assert json.loads(r.stdout)["gate_passed"] is False


def test_cli_config_file_params(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"params": {"n": 3}}))
    r = cli("split-table", "--config", str(cfgf))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["n"] == 3


def test_csv_text_lf_only():
    out = csv_text([(1, "a"), (2, "b")], ("x", "y"))
    assert out == "x,y\n1,a\n2,b\n"
