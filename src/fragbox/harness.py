"""Experiment harness: seeds, chi-square gates, config round-trip, persistence.

Seeds derive from blake2b(master_seed, tag, replicate) so results never depend
on wall clock or worker count.  JSON output sorts keys; CSV uses LF endings.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ArgumentError, _check_count
from . import __version__ as _version
from .dislocation import (DiscreteDislocation, alphagamma_growth_split_oracle,
                          consistency_residual, sampling_consistency_residual,
                          skewed_pd_splitting_table, splitting_rule)
from .growth import grow_alphagamma, reduced_ladder
from .paintbox import gnedin_constrained_run
from .partitions import (FiniteMeasureOnPartitions, all_partitions,
                         classify_exchangeability, csv_text)
from .spine import (KnWindow, LevyAtoms, crt_scale, pjs_tail_statistic,
                    renewal_moment, sample_reduced_crt)
from .treemetric import gh_distance_rooted, scaling_exponent

P_THRESHOLD = 1e-3
GATE_STRIKES = 3


def derive_seed(master_seed, tag, index):
    """Stable 64-bit per-replicate seed."""
    h = hashlib.blake2b(f"{master_seed}:{tag}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def rng_for(master_seed, tag, index=0):
    return np.random.default_rng(derive_seed(master_seed, tag, index))


@dataclass
class ChiSquareReport:
    categories: list
    observed: list
    expected: list
    statistic: float
    dof: int
    p_value: float


def _chi2_sf(x, k):
    """P(chi-square with k >= 1 degrees of freedom > x), from the finite
    series of Q(k/2, x/2) for integer k (Abramowitz & Stegun 26.4.4-5):

        Q = [erfc(sqrt(h)) if k is odd] + sum_j e^(-h) h^j / Gamma(j + 1),

    with h = x/2 and j = k/2 - 1, k/2 - 2, ... down to 0 or 1/2.  Each term
    is formed in log space, so e^(-h) cannot underflow while the p-value is
    representable; a term is at most 1, so none can overflow.
    """
    if x <= 0:
        return 1.0
    h = x / 2.0
    head = math.erfc(math.sqrt(h)) if k % 2 else 0.0
    return head + math.fsum(math.exp(j * math.log(h) - math.lgamma(j + 1.0) - h)
                            for j in (k / 2.0 - 1.0 - i for i in range(k // 2)))


def chi_square_gof(observed, expected_probs, categories=None):
    """Pearson goodness of fit with pooling to keep expected counts >= 5."""
    observed = list(observed)
    expected_probs = list(expected_probs)
    if len(observed) != len(expected_probs):
        raise ArgumentError("dimension mismatch")
    total = sum(observed)
    if total < 100:
        raise ArgumentError("need at least 100 observations")
    if categories is None:
        categories = list(range(len(observed)))
    z = sum(expected_probs)
    expected = [total * p / z for p in expected_probs]
    order = np.argsort(expected)
    pooled_obs, pooled_exp, pooled_cat = [], [], []
    bucket_o = bucket_e = 0.0
    bucket_c = []
    for i in order:
        bucket_o += observed[i]
        bucket_e += expected[i]
        bucket_c.append(categories[i])
        if bucket_e >= 5:
            pooled_obs.append(bucket_o)
            pooled_exp.append(bucket_e)
            pooled_cat.append(bucket_c if len(bucket_c) > 1 else bucket_c[0])
            bucket_o = bucket_e = 0.0
            bucket_c = []
    if bucket_c:
        if pooled_exp:
            pooled_obs[-1] += bucket_o
            pooled_exp[-1] += bucket_e
        else:
            pooled_obs.append(bucket_o)
            pooled_exp.append(bucket_e)
            pooled_cat.append(bucket_c)
    if len(pooled_obs) < 2:
        return ChiSquareReport(pooled_cat, pooled_obs, pooled_exp, 0.0, 0, 1.0)
    stat = sum((o - e) ** 2 / e for o, e in zip(pooled_obs, pooled_exp))
    dof = len(pooled_obs) - 1
    p = _chi2_sf(stat, dof)
    return ChiSquareReport(pooled_cat, pooled_obs, pooled_exp, float(stat), dof, p)


def gof_gate(run_once, master_seed, tag):
    """3-strike gate: pass if any of 3 independently seeded runs has p > 1e-3.

    run_once(rng) must return a ChiSquareReport.
    """
    reports = []
    for strike in range(GATE_STRIKES):
        rep = run_once(rng_for(master_seed, tag, strike))
        reports.append(rep)
        if rep.p_value > P_THRESHOLD:
            return True, reports
    return False, reports


@dataclass
class ExperimentConfig:
    tag: str
    params: dict = field(default_factory=dict)
    reps: int = 1000
    master_seed: int = 0
    out: str = None
    fmt: str = "json"

    def validate(self):
        if not isinstance(self.params, dict):
            raise ArgumentError("params must be a JSON object")
        if not _is_integer(self.reps) or self.reps < 1:
            raise ArgumentError("reps must be an integer >= 1")
        if not _is_integer(self.master_seed):
            raise ArgumentError("master_seed must be an integer")
        if self.fmt not in ("json", "csv"):
            raise ArgumentError("format must be json or csv")

    def to_json(self):
        return json.dumps({"tag": self.tag, "params": self.params,
                           "reps": self.reps, "master_seed": self.master_seed,
                           "fmt": self.fmt}, sort_keys=True)

    @staticmethod
    def from_json(text):
        return ExperimentConfig.from_dict(json.loads(text))

    @staticmethod
    def from_dict(obj):
        """The config of a to_json object (out may be given too); a field it
        leaves out takes its default."""
        stray = sorted(set(obj) - {f.name for f in fields(ExperimentConfig)})
        if stray:
            raise ArgumentError(f"unknown config field(s): {', '.join(stray)}")
        if "tag" not in obj:
            raise ArgumentError("a config needs a tag")
        cfg = ExperimentConfig(**obj)
        cfg.validate()
        return cfg


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_atom_entry(e):
    """True for one [atoms, weight] entry of a level: a list of numbers and a number."""
    return (isinstance(e, (list, tuple)) and len(e) == 2
            and isinstance(e[0], (list, tuple)) and all(map(_is_number, e[0]))
            and _is_number(e[1]))


def dislocation_from_params(p):
    """Model from params["levels"] = {level: [[atoms, weight], ...]} plus c, k."""
    for key in ("c", "k"):
        consts = p.get(key, [])
        if not isinstance(consts, (list, tuple)) or not all(map(_is_number, consts)):
            raise ArgumentError(f"{key} must be a list of numbers")
    raw = p.get("levels", {})
    if not isinstance(raw, dict):
        raise ArgumentError("levels must be an object {level: [[atoms, weight], ...]}")
    levels = {}
    for key, entries in raw.items():
        try:
            j = int(key)
        except (TypeError, ValueError):
            raise ArgumentError(f"level key {key!r} is not an integer") from None
        _check_count("a level key", j, 1)
        if not isinstance(entries, list) or not all(map(_is_atom_entry, entries)):
            raise ArgumentError(f"level {key!r}: each entry must be [atoms, weight]")
        levels[j] = [(tuple(a), w) for a, w in entries]
    return DiscreteDislocation.from_level_dict(
        levels, tuple(p.get("c", ())), tuple(p.get("k", ())),
        p.get("theorem2", False))


def single_atom_model():
    """The running example: nu_1 = delta at (1/2,1/2), nothing at higher levels."""
    return DiscreteDislocation.from_level_dict(
        {1: [((0.5, 0.5), 1.0)], 2: []}, theorem2_mode=True)


def _model_for(params):
    """dislocation_from_params(params), or single_atom_model() without levels."""
    if "levels" in params:
        return dislocation_from_params(params)
    stray = sorted({"c", "k", "theorem2"} & set(params))
    if stray:
        raise ArgumentError(f"{', '.join(stray)} given without levels")
    return single_atom_model()


def _family(params, families, where):
    """The family params name ("dislocation" by default) and params without
    it, checked against that family's (kinds, required keys) in families."""
    rest = dict(params)
    family = rest.pop("family", "dislocation")
    if not isinstance(family, str) or family not in families:
        raise ArgumentError(f"unknown {where} family {family!r}; "
                            f"one of {', '.join(sorted(families))}")
    _check_params(rest, *families[family], f"the {family} {where}")
    return family, rest


def _table_for(params, n):
    """The splitting table at n of the family params name; n itself is
    not a family key."""
    family, p = _family({key: v for key, v in params.items() if key != "n"},
                        _TABLE_FAMILIES, "table")
    if family == "alphagamma":
        return alphagamma_growth_split_oracle(p["alpha"], p["gamma"], n)
    if family == "skewed-pd":
        return skewed_pd_splitting_table(p["alpha"], p["theta"], p["lambda"], n)
    return splitting_rule(_model_for(p), n)


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------

def _exp_split_table(cfg):
    n = cfg.params.get("n", 4)
    table = _table_for(cfg.params, n)
    return {"n": n, "total": sum(table.probs.values())}, {"table.csv": table.to_csv()}


def _exp_grow(cfg):
    p = cfg.params
    alpha, gamma, n = p.get("alpha", 0.5), p.get("gamma", 0.3), p.get("n", 3)
    if n > 7:
        # the exact root-split law exists up to n = 10, but the chi-square
        # gate's categories grow like Bell(n): report shape frequencies only
        counts = {}
        for i in range(cfg.reps):
            t = grow_alphagamma(alpha, gamma, n, rng_for(cfg.master_seed, cfg.tag, i))
            key = t.shape_text()
            counts[key] = counts.get(key, 0) + 1
        rows = sorted(counts.items())
        return {"n": n, "distinct_shapes": len(rows)}, {
            "frequencies.csv": csv_text(rows, ("shape", "count"))}

    def run_once(rng):
        counts = {}
        for _ in range(cfg.reps):
            pi = grow_alphagamma(alpha, gamma, n, rng).root_split()
            counts[pi] = counts.get(pi, 0) + 1
        oracle = alphagamma_growth_split_oracle(alpha, gamma, n)
        cats = sorted(oracle.probs, key=lambda q: q.to_text())
        return chi_square_gof([counts.get(c, 0) for c in cats],
                              [oracle.probs[c] for c in cats],
                              [c.to_text() for c in cats])

    passed, reports = gof_gate(run_once, cfg.master_seed, cfg.tag)
    last = reports[-1]
    rows = [(c, o, e) for c, o, e in zip(last.categories, last.observed, last.expected)]
    return {"gate_passed": passed, "p_value": last.p_value,
            "statistic": last.statistic}, {
        "frequencies.csv": csv_text(rows, ("category", "observed", "expected"))}, {
        "gate_p_values": [rep.p_value for rep in reports]}


def _exp_consistency(cfg):
    d = _model_for(cfg.params)
    ns = cfg.params.get("n_grid", [2, 3, 4, 5])
    rows = [(n, repr(consistency_residual(d, n))) for n in ns]
    worst = max(float(r[1]) for r in rows)
    return {"max_residual": worst, "gate_passed": worst <= 1e-10}, {
        "residuals.csv": csv_text(rows, ("n", "residual"))}


def _exp_sampling_consistency(cfg):
    p = cfg.params
    _check_params(p, _SPD_KEYS, _SPD_KEYS, "sampling-consistency")
    res = sampling_consistency_residual(p["alpha"], p["theta"], p["lambda"])
    return {"residual": res}, {}


def _exp_gnedin(cfg):
    p = cfg.params
    rate = p.get("exp_rate", 1.0)
    heavy = p.get("heavy_tail", False)
    psi = tuple(p.get("psi", (1,)))
    ns = p.get("n_grid", [10 ** 6])
    idx = p.get("pareto_index", 0.1)
    if not rate > 0:  # NaN too
        raise ArgumentError("exp_rate must be positive")
    if heavy and not idx > 0:
        raise ArgumentError("pareto_index must be positive")
    if min(ns) < 2:
        raise ArgumentError("every n_grid entry must be at least 2 (J_n / log n)")

    def y_sampler(rng):
        if heavy:
            # -log Y Pareto with the given index: infinite mean when index < 1
            return math.exp(-(rng.random() ** (-1.0 / idx)))
        return math.exp(-rng.exponential(1.0 / rate))

    rows = []
    summary = {}
    for n in ns:
        vals = []
        for i in range(cfg.reps):
            rng = rng_for(cfg.master_seed, f"{cfg.tag}:n{n}", i)
            j, _ = gnedin_constrained_run(y_sampler, psi, n, rng)
            vals.append(j / math.log(n))
        rows.append((n, repr(float(np.mean(vals))), repr(float(np.std(vals)))))
        summary[str(n)] = float(np.mean(vals))
    return {"mean_ratio": summary}, {
        "gnedin.csv": csv_text(rows, ("n", "mean_J_over_logn", "std"))}


def _interarrival(kind):
    if kind == "exp":
        return lambda rng, size: rng.exponential(1.0, size)
    if kind == "const":
        return lambda rng, size: np.ones(size)
    if kind == "pareto":
        return lambda rng, size: rng.random(size) ** -2.0  # index 1/2, infinite mean
    raise ArgumentError("unknown interarrival kind %r" % kind)


def _exp_renewal(cfg):
    p = cfg.params
    sampler = _interarrival(p.get("kind", "exp"))
    ts = p.get("t_grid", [100.0])
    pw = p.get("p", 2)
    rows = []
    for t in ts:
        est = renewal_moment(sampler, t, pw,
                             cfg.reps, rng_for(cfg.master_seed, f"{cfg.tag}:t{t}"))
        rows.append((t, repr(est)))
    return {"estimates": {str(t): float(v) for t, v in rows}}, {
        "renewal.csv": csv_text(rows, ("t", "moment"))}


def _exp_pjs(cfg):
    p = cfg.params
    alpha = p.get("alpha", 0.5)
    n = p.get("n", 10 ** 4)
    delta = p.get("delta", 1.0 / (10 * n))
    w = KnWindow(p.get("epsilon", 0.0), 0.0, p.get("window", 5.0))
    l = LevyAtoms((), tail_alpha=alpha, tail_delta=delta)
    rows = []
    for x in p.get("x_grid", [1, 2, 4, 8]):
        r = pjs_tail_statistic(l, w, n, x, cfg.reps,
                               rng_for(cfg.master_seed, f"{cfg.tag}:x{x}"),
                               c_p=p.get("c_p", 1.0), p=p.get("p", 3.0))
        rows.append((x, repr(r["frequency"]), repr(r["bound"])))
    return {"alpha": alpha, "n": n}, {
        "pjs.csv": csv_text(rows, ("x", "frequency", "bound"))}


def _exp_reduced_crt(cfg):
    p = cfg.params
    # here k is the number of leaves, not the k_j constants of the model
    d = _model_for({key: v for key, v in p.items() if key != "k"})
    k = p.get("k", 2)
    alpha = p.get("alpha", 0.0)
    rows = []
    acc = {}
    for i in range(cfg.reps):
        mt = sample_reduced_crt(d, k, alpha, rng_for(cfg.master_seed, cfg.tag, i))
        for v, ell in mt.length.items():
            acc.setdefault(tuple(mt.labels_under(v)), []).append(ell)
    for labs, vals in sorted(acc.items()):
        rows.append((" ".join(map(str, labs)), repr(float(np.mean(vals))), len(vals)))
    return {"k": k, "alpha": alpha}, {
        "edges.csv": csv_text(rows, ("edge_leaves", "mean_length", "count"))}


def _exp_exponent(cfg):
    p = cfg.params
    family, model = _family(p.get("model", {"family": "star"}), _TREE_FAMILIES, "model")
    model["family"] = family
    if family == "dislocation":
        model["d"] = dislocation_from_params(model)
    slope, err = scaling_exponent(model, p.get("n_grid", [16, 32, 64, 128, 256]),
                                  cfg.reps, p.get("statistic", "height"),
                                  rng_for(cfg.master_seed, cfg.tag))
    return {"slope": slope, "stderr": err}, {}


def _exp_gh_stabilize(cfg):
    """Median GH gap between the rescaled reduced trees on leaves 1..k of
    T_n and T_4n, both read off one grown tree per replicate."""
    p = cfg.params
    alpha, gamma = p.get("alpha", 0.5), p.get("gamma", 0.4)
    k = p.get("k", 4)
    ns = p.get("n_grid", [256, 1024])
    sizes = sorted(set(ns) | {4 * n for n in ns})
    dists = {n: [] for n in ns}
    for i in range(cfg.reps):
        t = grow_alphagamma(alpha, gamma, sizes[-1], rng_for(cfg.master_seed, cfg.tag, i))
        at = {n: rt.scaled(1.0 / crt_scale(n, gamma))
              for n, rt in zip(sizes, reduced_ladder(t, k, sizes))}
        for n in ns:
            dists[n].append(gh_distance_rooted(at[n], at[4 * n]))
    rows = [(n, repr(float(np.median(dists[n])))) for n in ns]
    return {"medians": {str(n): float(v) for n, v in rows}}, {
        "gh.csv": csv_text(rows, ("n", "median_gh"))}


def _exp_classify(cfg):
    n = cfg.params.get("n", 3)
    table = _table_for(cfg.params, n)
    weights = {q: 0.0 for q in all_partitions(n)}
    weights.update(table.probs)
    flags = classify_exchangeability(FiniteMeasureOnPartitions(n, weights))
    return dict(flags), {}


def _is_grid(v, ok):
    """True for a non-empty list whose every element passes ok."""
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(map(ok, v))


# the JSON kind of each value; a tuple passes for a list
_INTS, _NUMS = "non-empty list of integers", "non-empty list of numbers"
_KINDS = {
    "integer": _is_integer,
    "number": _is_number,
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, (list, tuple)),
    "object": lambda v: isinstance(v, dict),
    _INTS: lambda v: _is_grid(v, _is_integer),
    _NUMS: lambda v: _is_grid(v, _is_number),
}

_MODEL_KEYS = {"levels": "object", "c": "list", "k": "list",       # _model_for
               "theorem2": "bool"}
_AG_KEYS = {"alpha": "number", "gamma": "number"}
_SPD_KEYS = {"alpha": "number", "theta": "number", "lambda": "number"}

# family -> (the kind of each key it reads, the keys it needs): the tables
# of _table_for, and the tree models of the exponent experiment
_TABLE_FAMILIES = {"dislocation": (_MODEL_KEYS, ()), "alphagamma": (_AG_KEYS, _AG_KEYS),
                   "skewed-pd": (_SPD_KEYS, _SPD_KEYS)}
_TREE_FAMILIES = {"dislocation": (_MODEL_KEYS, ()), "alphagamma": (_AG_KEYS, _AG_KEYS),
                  "star": ({}, ())}
_TABLE_KEYS = {"family": "string", **{key: kind for kinds, _ in _TABLE_FAMILIES.values()
                                       for key, kind in kinds.items()}}

# tag -> (experiment, the kind of each params key it reads); any other key
# is an error
_DISPATCH = {
    "split-table": (_exp_split_table, {**_TABLE_KEYS, "n": "integer"}),
    "grow": (_exp_grow, {**_AG_KEYS, "n": "integer"}),
    "consistency": (_exp_consistency, {**_MODEL_KEYS, "n_grid": _INTS}),
    "sampling-consistency": (_exp_sampling_consistency, _SPD_KEYS),
    "gnedin": (_exp_gnedin, {"exp_rate": "number", "heavy_tail": "bool", "psi": _INTS,
                             "n_grid": _INTS, "pareto_index": "number"}),
    "renewal": (_exp_renewal, {"kind": "string", "t_grid": _NUMS, "p": "number"}),
    "pjs": (_exp_pjs, {"alpha": "number", "n": "integer", "delta": "number",
                       "epsilon": "number", "window": "number", "x_grid": _NUMS,
                       "c_p": "number", "p": "number"}),
    # here k is the number of leaves, not the k_j constants of the model
    "reduced-crt": (_exp_reduced_crt, {**_MODEL_KEYS, "k": "integer", "alpha": "number"}),
    "exponent": (_exp_exponent, {"model": "object", "n_grid": _INTS,
                                 "statistic": "string"}),
    "gh-stabilize": (_exp_gh_stabilize, {**_AG_KEYS, "k": "integer", "n_grid": _INTS}),
    "classify": (_exp_classify, {**_TABLE_KEYS, "n": "integer"}),
}


def _check_params(params, kinds, required, where):
    """ArgumentError for a key of params that kinds does not list, a value
    not of its kind, or a required key that params lacks."""
    stray = sorted(set(params) - set(kinds))
    if stray:
        raise ArgumentError(f"unknown parameter(s) for {where}: {', '.join(stray)}")
    for key in sorted(params):
        if not _KINDS[kinds[key]](params[key]):
            raise ArgumentError(f"parameter {key} of {where} must be a JSON {kinds[key]}")
    missing = [key for key in required if key not in params]
    if missing:
        raise ArgumentError(f"{where} needs parameter(s) {', '.join(missing)}")


def run_experiment(cfg):
    """Dispatch by tag; returns the result bundle and writes it when cfg.out set.

    An experiment returns its summary and tables, and may add a dict of run
    metrics (such as the p-value of every gate strike) for metrics.json."""
    cfg.validate()
    if cfg.tag not in _DISPATCH:
        raise ArgumentError("unknown experiment tag %r" % cfg.tag)
    run, kinds = _DISPATCH[cfg.tag]
    _check_params(cfg.params, kinds, (), cfg.tag)
    t0 = time.monotonic()
    summary, tables, *more = run(cfg)
    bundle = {
        "config": json.loads(cfg.to_json()),
        "library_version": _version,
        "summary": summary,
    }
    # the wall time varies run to run, so it stays out of summary.json
    metrics = {"wall_time_s": round(time.monotonic() - t0, 3), **(more[0] if more else {})}
    if cfg.out:
        import os
        os.makedirs(cfg.out, exist_ok=True)
        for name, obj in (("summary.json", bundle), ("metrics.json", metrics)):
            with open(os.path.join(cfg.out, name), "w") as f:
                f.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        for name, text in tables.items():
            with open(os.path.join(cfg.out, name), "w", newline="") as f:
                f.write(text)
    bundle["metrics"] = metrics
    bundle["tables"] = tables
    return bundle
