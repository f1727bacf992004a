import ast
import json
import math
import os
import platform
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fragbox import ArgumentError, harness
from fragbox.cli import main
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
    metrics = json.loads((tmp_path / "a" / "metrics.json").read_text())
    assert metrics["wall_time_s"] >= 0
    # the environment stamp goes there too, read from modules already loaded
    assert metrics["environment"] == {
        "python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
        "cpu_count": os.cpu_count()}
    assert platform.python_version() == metrics["environment"]["python"]
    assert "environment" not in json.loads(summary)
    # the p-value of every gate strike, the last one the summary's
    assert 1 <= len(metrics["gate_p_values"]) <= harness.GATE_STRIKES
    assert metrics["gate_p_values"][-1] == json.loads(summary)["summary"]["p_value"]


def test_environment_stamp_imports_nothing_new():
    # the stamp reads sys and numpy, which every run has loaded; the
    # harness imports neither platform nor importlib.metadata to get it
    tree = ast.parse(Path(harness.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not imported & {"platform", "importlib", "importlib.metadata"}


def test_metrics_list_every_gate_strike(tmp_path):
    # with no p-value above the threshold all strikes run, each on its own
    # seed, and metrics.json lists them in order; summary.json keeps the last
    with mock.patch.object(harness, "P_THRESHOLD", 1.0):
        bundle = run_experiment(ExperimentConfig("grow", {"n": 3}, 200, 9, str(tmp_path)))
    p_values = json.loads((tmp_path / "metrics.json").read_text())["gate_p_values"]
    assert p_values == bundle["metrics"]["gate_p_values"]
    assert len(set(p_values)) == harness.GATE_STRIKES
    assert not bundle["summary"]["gate_passed"]
    assert p_values[-1] == bundle["summary"]["p_value"]


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


MainRun = namedtuple("MainRun", "returncode stderr")


def test_cli_success_exit_0(tmp_path):
    r = cli("split-table", "--param", "n=4", "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stderr
    assert abs(json.loads(r.stdout)["total"] - 1.0) < 1e-12
    assert (tmp_path / "o" / "table.csv").exists()


def test_cli_alphagamma_split_table_chain_sizes():
    # the root-split chain answers past the n = 7 cap of tree histories
    base = ("split-table", "--param", "family=\"alphagamma\"",
            "--param", "alpha=0.5", "--param", "gamma=0.3")
    r = cli(*base, "--param", "n=8")
    assert r.returncode == 0, r.stderr
    assert abs(json.loads(r.stdout)["total"] - 1.0) < 1e-12
    r = cli(*base, "--param", "n=11")
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr


def test_cli_reduced_crt_beyond_enumeration_sizes():
    # splits come from sample_split, so k has no enumeration cap
    r = cli("reduced-crt", "--param", "k=13", "--reps", "2")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["k"] == 13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_gh_stabilize_gap_shrinks(seed):
    # T_n and T_4n come from one growth chain, so their rescaled reduced
    # trees draw together as n grows (two independent trees would not)
    r = cli("gh-stabilize", "--param", "n_grid=[16, 256]", "--param", "k=2",
            "--reps", "40", "--seed", str(seed))
    assert r.returncode == 0, r.stderr
    medians = json.loads(r.stdout)["medians"]
    assert medians["256"] < 0.8 * medians["16"], medians


def test_cli_csv_format():
    r = cli("split-table", "--param", "n=3", "--format", "csv")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("partition,probability")


def test_cli_renewal_non_finite_t_exit_2(capsys):
    # t = inf never ended a row: the draws grew until memory ran out
    for t in ("Infinity", "NaN"):
        assert main(["renewal", "--param", f"t_grid=[{t}]"]) == 2, capsys.readouterr().err


def test_cli_bad_input_exit_2(tmp_path, capsys):
    # malformed config file, once as a process for the real exit path
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli("grow", "--config", str(bad)).returncode == 2

    # the other cases call main() in-process: an exception raised in place
    # of exit code 2 fails the test
    def main_run(*args):
        return MainRun(main(list(args)), capsys.readouterr().err)

    assert main_run("grow", "--config", str(bad)).returncode == 2
    # missing config file
    assert main_run("grow", "--config", str(tmp_path / "none.json")).returncode == 2
    # missing required model parameter
    assert main_run("split-table", "--param", "family=skewed-pd").returncode == 2
    # malformed --param
    assert main_run("grow", "--param", "nonsense").returncode == 2
    # a misspelt key (which would run with the default alpha)
    r = main_run("grow", "--param", "alpah=0.9", "--param", "n=3")
    assert r.returncode == 2 and "alpah" in r.stderr, r.stderr
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"params": {"n": 3, "gama": 0.2}}))
    r = main_run("grow", "--config", str(typo))
    assert r.returncode == 2 and "gama" in r.stderr, r.stderr
    # a config that is not an object, or whose params are not one
    for i, shape in enumerate(([1], {"params": [1, 2]})):
        bad_shape = tmp_path / f"shape{i}.json"
        bad_shape.write_text(json.dumps(shape))
        r = main_run("grow", "--config", str(bad_shape))
        assert r.returncode == 2, (shape, r.stderr)
    # c or k not a list of numbers; c, k or theorem2 without levels (which
    # would be ignored silently)
    levels = 'levels={"1": [[[0.5, 0.3], 1.0]]}'
    for params in ((levels, "c=5"), (levels, 'c=["x"]'), (levels, "k=[0.1, true]"),
                   ("c=[0.1]",), ("k=[0.1]",), ("theorem2=true",)):
        r = main_run("consistency", *[a for p in params for a in ("--param", p)])
        assert r.returncode == 2, (params, r.stderr)
    # a value of the wrong JSON kind for its key; a grid that is empty or
    # holds an element of the wrong kind
    for cmd, param in (("grow", 'n="x"'), ("gh-stabilize", 'alpha="x"'),
                       ("renewal", "t_grid=5"),
                       ("gh-stabilize", "n_grid=[]"), ("gh-stabilize", 'n_grid=["x"]'),
                       ("consistency", "n_grid=[2.5]"), ("consistency", "n_grid=[]"),
                       ("renewal", 't_grid=["a"]'), ("exponent", 'n_grid=[16, "a", 64]'),
                       ("gnedin", 'psi=["a"]'), ("pjs", "x_grid=[]"),
                       ("gnedin", "n_grid=[]"), ("gnedin", "exp_rate=0")):
        r = main_run(cmd, "--param", param)
        assert r.returncode == 2, (cmd, r.stderr)
    # a key that the chosen family does not read, an unknown family, and a
    # key that the family needs but is not given, which is named
    for cmd, params, named in (
            ("split-table", ("alpha=0.5", "theta=3"), "alpha"),
            ("split-table", ("family=bogus",), "bogus"),
            ("classify", ("family=alphagamma", "alpha=0.5", "gamma=0.3",
                          'levels={"1": [[[0.5, 0.5], 1.0]]}'), "levels"),
            ("split-table", ("family=alphagamma", "alpha=0.5"), "gamma"),
            ("split-table", ("family=skewed-pd", "alpha=0.5", "theta=1"), "lambda"),
            ("sampling-consistency", ("alpha=0.5", "theta=1"), "lambda"),
            ("exponent", ('model={"family": "alphagamma", "alpha": 0.5}',), "gamma"),
            ("exponent", ('model={"family": "alphagamma", "alpha": 0.5, "gamma": 0.3, '
                          '"theta": 1}',), "theta"),
            ("exponent", ('model={"family": "bogus"}',), "bogus"),
            ("exponent", ('model={"family": "star", "alpha": 0.5}',), "alpha")):
        r = main_run(cmd, *[a for p in params for a in ("--param", p)])
        assert r.returncode == 2 and named in r.stderr, \
            (cmd, params, r.stderr)


@pytest.mark.parametrize("params", [{"exp_rate": 0}, {"exp_rate": -1.5},
                                    {"heavy_tail": True, "pareto_index": 0},
                                    {"heavy_tail": True, "pareto_index": -2},
                                    {"n_grid": [1]}, {"n_grid": [100, 1]}])
def test_gnedin_bad_params(params):
    # unchecked, each ends in ZeroDivisionError or numpy's ValueError
    with pytest.raises(ArgumentError):
        run_experiment(ExperimentConfig("gnedin", {"n_grid": [100], **params}, 2, 0))


def test_gnedin_pareto_index_unread_without_heavy_tail():
    b = run_experiment(ExperimentConfig("gnedin", {"n_grid": [100], "pareto_index": 0}, 2, 0))
    assert b["summary"]["mean_ratio"]["100"] > 0


def test_cli_gh_stabilize_gamma_1_exit_2(capsys):
    # gamma = 1 is the pole of the scale n^gamma Gamma(1 - gamma)
    code = main(["gh-stabilize", "--reps", "1", "--param", "alpha=1",
                 "--param", "gamma=1", "--param", "n_grid=[4]"])
    assert code == 2
    assert "below 1" in capsys.readouterr().err


def test_cli_malformed_levels_exit_2():
    # levels not an object, a level key not an integer, an entry not
    # [atoms, weight], a level key below 1 (which would be dropped silently)
    for levels in ('[1]', '{"a": [[[0.5, 0.5], 1.0]]}', '{"1": [[0.5, 0.5]]}',
                   '{"0": [[[0.6], 1.0]], "1": [[[0.5, 0.5], 1.0]]}'):
        r = cli("consistency", "--param", f"levels={levels}")
        assert r.returncode == 2, (levels, r.stderr)
        assert "Traceback" not in r.stderr


def test_cli_gate_failure_exit_3(monkeypatch, capsys):
    # the samples gated against another parameter pair's law fail the gate
    real = harness.alphagamma_growth_split_oracle
    monkeypatch.setattr(harness, "alphagamma_growth_split_oracle",
                        lambda alpha, gamma, n: real(0.9, 0.1, n))
    code = main(["grow", "--param", "n=3", "--param", "alpha=0.5",
                 "--param", "gamma=0.3", "--reps", "4000"])
    out = capsys.readouterr().out
    assert code == 3, out
    assert json.loads(out)["gate_passed"] is False


def test_cli_config_file_params(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"params": {"n": 3}}))
    r = cli("split-table", "--config", str(cfgf))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["n"] == 3


def test_cli_config_replays_summary(tmp_path):
    # summary.json records the config it ran; fed back through --config it
    # runs again with the same seed, reps and format, and a flag that is
    # given overrides the file
    first = tmp_path / "first"
    r = cli("grow", "--reps", "50", "--seed", "5", "--param", "n=8", "--out", str(first))
    assert r.returncode == 0, r.stderr
    recorded = json.loads((first / "summary.json").read_text())["config"]
    assert (recorded["reps"], recorded["master_seed"]) == (50, 5)
    cfgf = tmp_path / "replay.json"
    cfgf.write_text(json.dumps(recorded))
    r = cli("grow", "--config", str(cfgf), "--out", str(tmp_path / "again"))
    assert r.returncode == 0, r.stderr
    for name in ("summary.json", "frequencies.csv"):
        assert (tmp_path / "again" / name).read_text() == (first / name).read_text()
    r = cli("grow", "--config", str(cfgf), "--seed", "6", "--out", str(tmp_path / "seed6"))
    assert r.returncode == 0, r.stderr
    config = json.loads((tmp_path / "seed6" / "summary.json").read_text())["config"]
    assert config == {**recorded, "master_seed": 6}
    # a config of another subcommand, an unknown field, a field of the wrong kind
    for bad in ({**recorded, "tag": "split-table"}, {**recorded, "seed": 1},
                {**recorded, "reps": "50"}, {**recorded, "master_seed": 1.5}):
        cfgf.write_text(json.dumps(bad))
        r = cli("grow", "--config", str(cfgf))
        assert r.returncode == 2 and "Traceback" not in r.stderr, (bad, r.stderr)


def test_csv_text_lf_only():
    out = csv_text([(1, "a"), (2, "b")], ("x", "y"))
    assert out == "x,y\n1,a\n2,b\n"
