"""The four benchmark workloads: seeded inputs, timed items, checks.

`build(name, rng, ctx, size)` generates every input from `rng` before the
timed pass and returns `(items, finals)`.  An item is `(kind, fn)`: `fn()`
does one unit of user-visible work through fragbox's public functions
(always looked up on the module, so the traced pass sees the call), checks
it, and returns the values kept as reference for the default seed.  A
failed check raises `CheckFailed`.  `finals` are checks over the whole pass
(statistical tolerances that need every item's result).  `pooled_checks`
are checks over every pass of a run, for a tolerance that one pass has too
few samples to meet; a pass hands its samples up in `Context.pooled`.

Only the values of the inputs depend on the seed.  Every model shape and
count, and every size or size range, is fixed per workload, so a pass costs
about the same on every seed.
"""

import math
import os

import numpy as np

import fragbox as fb

TABLE_TOL = 1e-12      # tables and cylinder sums add to 1
RATE_TOL = 1e-10       # rate vs rate_closed_form (the unit tests' tolerance)
RESIDUAL_TOL = 1e-10   # consistency residual (criterion 4)
SLOPE_BAND = 0.08      # height slope within this of gamma (criterion 9)

# (atom part counts per level, len(c), len(k)); the last level serves every
# j >= m_cap.  Fixed shapes keep the cost of a table the same on every seed.
SHAPES = (
    (((2,),), 0, 0),
    (((2,), (3,)), 1, 0),
    (((1,), (2, 3), (2,)), 2, 1),
    (((3, 2), ()), 0, 2),
    (((2,), (), (3,)), 1, 1),
    (((3, 1),), 2, 2),
)

# per-workload counts; "smoke" runs every item kind once or twice
SIZES = {
    "full": {
        "exact-tables": dict(models=10, big8=1, rate_models=6, cons_models=6,
                             cyl_boxes=20, wide=((5, 8), (6, 8)), oracle=3, spd=15,
                             classify=8, experiments=1),
        "tree-growth": dict(slopes=4, slope_reps=2, frag=80, mb=30, gates=1,
                            gate_reps=2000),
        "spine-paths": dict(paths5=12, paths6=2, renewal=2, gnedin_batches=60,
                            gnedin_batch=13, crt_models=2, crt_reps=2,
                            mod_draws=3000),
        "gh-pairs": dict(tree_pairs=600, n1=32),
    },
    "smoke": {
        "exact-tables": dict(models=1, big8=0, rate_models=1, cons_models=1,
                             cyl_boxes=1, wide=((4, 5),), oracle=1, spd=1,
                             classify=1, experiments=1),
        "tree-growth": dict(slopes=1, slope_reps=1, frag=2, mb=2, gates=1,
                            gate_reps=300),
        "spine-paths": dict(paths5=2, paths6=0, renewal=1, gnedin_batches=2,
                            gnedin_batch=20, crt_models=1, crt_reps=1,
                            mod_draws=300),
        "gh-pairs": dict(tree_pairs=2, n1=32),
    },
}


class CheckFailed(Exception):
    """An output of fragbox failed a correctness check."""


def check(ok, msg):
    if not ok:
        raise CheckFailed(msg)


class Context:
    """Per-pass state shared by the items: work counts, scratch dir, results."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.counts = {}
        self.results = {}
        self.pooled = {}        # samples for the run's pooled checks
        self.extra_ops = 0      # operations beyond one per item (a GH item runs one per k)

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def keep(self, name, value):
        self.results.setdefault(name, []).append(value)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _atoms(rng, m, conservative=False):
    raw = rng.random(m) + 0.05
    raw = raw / raw.sum() if conservative else raw / (raw.sum() + rng.random())
    return tuple(float(x) for x in np.sort(raw)[::-1])


def dislocation_model(rng, shape):
    """A random model of the given shape, drawn like the acceptance tests'."""
    levels_spec, nc, nk = shape
    levels = {j: [(_atoms(rng, m), float(rng.random() + 0.1)) for m in parts]
              for j, parts in enumerate(levels_spec, 1)}
    c = tuple(float(x) for x in rng.random(nc) * 0.3)
    k = tuple(float(x) for x in rng.random(nk) * 0.3)
    return fb.DiscreteDislocation.from_level_dict(levels, c, k)


def theorem2_model(rng):
    """A conservative two-level model (no c, k, dust): a reduced-CRT input."""
    levels = {1: [(_atoms(rng, 2, True), float(rng.random() + 0.5))],
              2: [(_atoms(rng, 3, True), float(rng.random() + 0.1))]}
    return fb.DiscreteDislocation.from_level_dict(levels, theorem2_mode=True)


def model_params(d):
    """The --param form of a model, as the CLI would receive it."""
    return {"levels": {str(j): [[list(s.atoms), w] for s, w in lv]
                       for j, lv in enumerate(d.levels, 1)},
            "c": list(d.c), "k": list(d.k)}


def mass_partition(rng, m, dust):
    raw = rng.random(m) + 0.02
    raw = raw / (raw.sum() + (0.1 + rng.random() * 0.4 if dust else 0.0))
    return fb.MassPartition(tuple(float(x) for x in np.sort(raw)[::-1]))


def alphagamma_params(rng):
    alpha = float(rng.uniform(0.3, 0.9))
    return alpha, float(rng.uniform(0.1, 0.9) * alpha)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def collapse(table):
    """Table entries by (class j, block-size multiset), checked to agree
    within each group, so the collapsed values pin every entry."""
    check(abs(sum(table.probs.values()) - 1.0) <= TABLE_TOL,
          f"n={table.n} table sums to {sum(table.probs.values())!r}")
    groups = {}
    for p, w in table.probs.items():
        sizes = sorted((len(b) for b in p.blocks), reverse=True)
        key = f"{p.cylinder_class()}:{'.'.join(map(str, sizes))}"
        lo, hi = groups.get(key, (w, w))
        groups[key] = (min(lo, w), max(hi, w))
    spread = max(hi - lo for lo, hi in groups.values())
    check(spread <= TABLE_TOL, f"n={table.n} entries of one group differ by {spread:.3g}")
    return {key: hi for key, (lo, hi) in sorted(groups.items())}


def check_grown_tree(t, n):
    """Linear-time form of GrownTree.validate: labels 1..n on the leaves,
    every internal vertex has >= 2 children, every vertex reached once."""
    check(sorted(t.leaf_label.values()) == list(range(1, n + 1)), "leaf labels are not 1..n")
    seen = 0
    stack = [t.root]
    while stack:
        u = stack.pop()
        seen += 1
        check(seen <= len(t.leaf_label) + len(t.children), "tree has a cycle")
        if u in t.children:
            check(len(t.children[u]) >= 2, "internal vertex with < 2 children")
            stack.extend(t.children[u])
        else:
            check(u in t.leaf_label, "childless vertex without a label")
    check(seen == len(t.leaf_label) + len(t.children), "unreachable vertices")
    if n <= 128:
        t.validate()


def metric_depths(mt):
    depth = {mt.root: 0.0}
    stack = [mt.root]
    while stack:
        v = stack.pop()
        for c in mt.children.get(v, []):
            depth[c] = depth[v] + mt.length[c]
            stack.append(c)
    return sorted(depth.values())


def hausdorff_1d(xs, ys):
    xs, ys = np.asarray(xs), np.asarray(ys)
    return float(max(np.abs(xs[:, None] - ys[None, :]).min(axis=1).max(),
                     np.abs(ys[:, None] - xs[None, :]).min(axis=1).max()))


def persisted_bytes(ctx, out):
    total = 0
    for name in os.listdir(out):
        total += os.path.getsize(os.path.join(out, name))
    ctx.count("harness.persist.bytes", total)
    return total


def experiment(ctx, tag, params, reps, seed):
    out = os.path.join(ctx.workdir, f"{tag}-{len(os.listdir(ctx.workdir))}")
    cfg = fb.harness.ExperimentConfig(tag, params, reps, seed, out)
    bundle = fb.run_experiment(cfg)
    check(persisted_bytes(ctx, out) > 0, f"{tag} wrote nothing")
    check(os.path.exists(os.path.join(out, "summary.json")), f"{tag} wrote no summary")
    return bundle["summary"]


# ---------------------------------------------------------------------------
# exact-tables: Bell-number enumeration in partitions, paintbox, dislocation
# ---------------------------------------------------------------------------

def _exact_tables(rng, ctx, s):
    items = []

    def split_item(d, n):
        def run():
            return {"table": collapse(fb.splitting_rule(d, n))}
        return ("split_table", run)

    def classify_item(d, n):
        def run():
            table = fb.splitting_rule(d, n)
            weights = {q: 0.0 for q in fb.all_partitions(n)}
            weights.update(table.probs)
            flags = fb.classify_exchangeability(fb.FiniteMeasureOnPartitions(n, weights))
            check(flags["restricted_exchangeable"], f"n={n} table not restricted exchangeable")
            return {"flags": sorted(k for k, v in flags.items() if v)}
        return ("classify", run)

    def rate_item(d, n):
        def run():
            r, rc = fb.rate(d, n), fb.rate_closed_form(d, n)
            check(abs(r - rc) <= RATE_TOL, f"rate {r!r} != closed form {rc!r} at n={n}")
            return {"rate": r}
        return ("rate", run)

    def consistency_item(d, n):
        def run():
            res = fb.consistency_residual(d, n)
            check(res <= RESIDUAL_TOL, f"consistency residual {res:.3g} at n={n}")
        return ("consistency", run)

    def cylinder_item(box, n):
        def run():
            total = sum(fb.kingman_cylinder_prob(box, p) for p in fb.all_partitions(n))
            check(abs(total - 1.0) <= TABLE_TOL, f"cylinder sum {total!r} at n={n}")
        return ("cylinder_sum", run)

    def oracle_item(alpha, gamma, n):
        def run():
            return {"table": collapse(fb.alphagamma_growth_split_oracle(alpha, gamma, n))}
        return ("alphagamma_oracle", run)

    def spd_item(alpha, theta, lam, n):
        def run():
            return {"table": collapse(fb.skewed_pd_splitting_table(alpha, theta, lam, n))}
        return ("skewed_pd", run)

    for i in range(s["models"]):
        d = dislocation_model(rng, SHAPES[i % len(SHAPES)])
        items += [split_item(d, n) for n in (4, 5, 6, 7)]
        if i < s["classify"]:
            items.append(classify_item(d, 5 + i % 3))
    for i in range(s["big8"]):
        items.append(split_item(dislocation_model(rng, SHAPES[1 + i]), 8))
    for i in range(s["rate_models"]):
        d = dislocation_model(rng, SHAPES[i % len(SHAPES)])
        items += [rate_item(d, n) for n in (3, 4, 5, 6, 7)]
        if i < 2:
            items.append(rate_item(d, 8))
    for i in range(s["cons_models"]):
        d = dislocation_model(rng, SHAPES[i % len(SHAPES)])
        items += [consistency_item(d, n) for n in (2, 3, 4, 5)]
        if i < 2:
            items.append(consistency_item(d, 6))
    for i in range(s["cyl_boxes"]):
        box = mass_partition(rng, 1 + i % 4, dust=i % 2 == 0)
        items += [cylinder_item(box, n) for n in (4, 6, 8)]
    for m, n in s["wide"]:
        items.append(cylinder_item(mass_partition(rng, m, dust=True), n))
    for _ in range(s["oracle"]):
        alpha, gamma = alphagamma_params(rng)
        items += [oracle_item(alpha, gamma, n) for n in (4, 5, 6)]
    for _ in range(s["spd"]):
        alpha = float(rng.uniform(0.1, 0.9))
        theta = float(rng.uniform(-2 * alpha + 0.05, 1.0))
        lam = float(rng.random())
        items += [spd_item(alpha, theta, lam, n) for n in (3, 4)]
    for _ in range(s["experiments"]):
        d = dislocation_model(rng, SHAPES[2])
        params = model_params(d)
        seed = int(rng.integers(2 ** 31))

        def split_table(params=params, seed=seed):
            summary = experiment(ctx, "split-table", dict(params, n=6), 1, seed)
            check(abs(summary["total"] - 1.0) <= TABLE_TOL, "split-table total != 1")
            return {"total": summary["total"]}

        def consistency(params=params, seed=seed):
            summary = experiment(ctx, "consistency", dict(params, n_grid=[2, 3, 4, 5]), 1, seed)
            check(summary["gate_passed"], "consistency experiment failed its gate")

        def classify(params=params, seed=seed):
            summary = experiment(ctx, "classify", dict(params, n=6), 1, seed)
            check(summary["restricted_exchangeable"], "classify: not restricted exchangeable")

        items += [("experiment", split_table), ("experiment", consistency),
                  ("experiment", classify)]
    return items, []


# ---------------------------------------------------------------------------
# tree-growth: growth and dislocation.sample_split
# ---------------------------------------------------------------------------

SLOPE_MODEL = {"family": "alphagamma", "alpha": 0.8, "gamma": 0.6}
SLOPE_GRID = [2 ** k for k in range(7, 14)]


def _tree_growth(rng, ctx, s):
    items = []

    def slope_item(item_rng):
        def run():
            slope, err = fb.scaling_exponent(SLOPE_MODEL, SLOPE_GRID, s["slope_reps"],
                                             "height", item_rng)
            check(math.isfinite(slope), "non-finite slope")
            ctx.pooled.setdefault("slopes", []).append(slope)
        return ("scaling_exponent", run)

    def frag_item(d, n, item_rng):
        def run():
            t = fb.sample_fragmentation_tree(d, n, item_rng)
            check_grown_tree(t, n)
            k = min(5, n)
            rt = fb.reduced_tree(t, range(1, k + 1))
            check(sorted(rt.leaf_labels.values()) == list(range(1, k + 1)),
                  "reduced tree lost a leaf")
            profile = fb.fill_fraction(t, k)
            check(abs(sum(profile.values()) - 1.0) <= 1e-9, "fill fractions do not add to 1")
            check(fb.tree_height(t) >= 2, "tree height below 2")
            smaller = fb.delete_uniform_leaf(t, item_rng)
            check_grown_tree(smaller, n - 1)
        return ("fragmentation_tree", run)

    def mb_item(alpha, theta, lam, n, item_rng):
        def rules(b):
            return fb.skewed_pd_splitting_table(alpha, theta, lam, b)

        def run():
            t = fb.sample_markov_branching(rules, n, item_rng)
            check_grown_tree(t, n)
        return ("markov_branching", run)

    def gate_item(alpha, gamma, seed):
        def run():
            summary = experiment(ctx, "grow", {"n": 3, "alpha": alpha, "gamma": gamma},
                                 s["gate_reps"], seed)
            check(summary["gate_passed"], f"n=3 root-split gate failed p={summary['p_value']}")
        return ("gate", run)

    for _ in range(s["slopes"]):
        items.append(slope_item(np.random.default_rng(rng.integers(2 ** 63))))
    for i in range(s["frag"]):
        # log-uniform on [128, 1024]: item times spread evenly, with no gap
        # for a quantile to jump across
        n = int(128 * 8 ** (i / max(1, s["frag"] - 1)))
        d = dislocation_model(rng, SHAPES[i % len(SHAPES)])
        items.append(frag_item(d, n, np.random.default_rng(rng.integers(2 ** 63))))
    for _ in range(s["mb"]):
        alpha = float(rng.uniform(0.1, 0.9))
        theta = float(rng.uniform(-2 * alpha + 0.05, 1.0))
        items.append(mb_item(alpha, theta, float(rng.random()), 4,
                             np.random.default_rng(rng.integers(2 ** 63))))
    for _ in range(s["gates"]):
        alpha, gamma = alphagamma_params(rng)
        items.append(gate_item(alpha, gamma, int(rng.integers(2 ** 31))))

    return items, []


def _height_slope(slopes):
    """The mean height slope over every fit of the run is within SLOPE_BAND
    of gamma.  One fit spreads about 0.05, so a pass's few fits are pooled."""
    mean = float(np.mean(slopes))
    check(abs(mean - SLOPE_MODEL["gamma"]) <= SLOPE_BAND,
          f"mean height slope {mean:.4f} over {len(slopes)} fits, target "
          f"{SLOPE_MODEL['gamma']}")


# ---------------------------------------------------------------------------
# spine-paths: spine and paintbox sampling
# ---------------------------------------------------------------------------

PJS_ALPHA = 0.5
PJS_WINDOW = 5.0


def _spine_paths(rng, ctx, s):
    items = []
    window = fb.KnWindow(0.0, 0.0, PJS_WINDOW)

    def path_item(n, item_rng):
        levy = fb.LevyAtoms((), tail_alpha=PJS_ALPHA, tail_delta=1.0 / (10 * n))

        def run():
            path = fb.simulate_subordinator(levy, PJS_WINDOW, item_rng)
            lim = fb.pjs_limit_functional(path, window, PJS_ALPHA)
            kn = fb.sample_Kn(path, window, n, item_rng)
            check(lim > 0 and kn > 0, "empty path")
            ctx.keep("pjs_err", abs(kn / (n ** PJS_ALPHA * math.gamma(1 - PJS_ALPHA)) - lim) / lim)
        return ("path", run)

    def renewal_item(item_rng):
        def run():
            est = fb.renewal_moment(lambda r, size: r.exponential(1.0, size), 100.0, 2,
                                    10 ** 4, item_rng)
            check(abs(est - 1.01) <= 0.02 * 1.01, f"Exp(1) renewal moment {est:.4f}")
        return ("renewal", run)

    def pareto_item(t, item_rng):
        def run():
            ctx.keep("pareto", (t, fb.renewal_moment(lambda r, size: r.random(size) ** -2.0,
                                                     t, 2, 4000, item_rng)))
        return ("renewal", run)

    def y_exp(r):
        return math.exp(-r.exponential(1.0))

    def y_heavy(r):
        # -log Y Pareto with index 0.1: infinite mean
        return math.exp(-(r.random() ** -10.0))

    def gnedin_item(item_rng):
        def run():
            n = 10 ** 6
            for kind, y in (("exp", y_exp), ("heavy", y_heavy)):
                for _ in range(s["gnedin_batch"]):
                    j, _ = fb.gnedin_constrained_run(y, (1,), n, item_rng)
                    ctx.keep(f"gnedin_{kind}", j / math.log(n))
        return ("gnedin_runs", run)

    def crt_item(d, k, alpha, item_rng):
        def run():
            mt = fb.sample_reduced_crt(d, k, alpha, item_rng, leaf_cap=1.0)
            check(sorted(mt.leaf_labels.values()) == list(range(1, k + 1)),
                  "reduced CRT leaves are not 1..k")
            check(all(math.isfinite(x) and x > 0 for x in mt.length.values()),
                  "reduced CRT edge length not positive")
        return ("reduced_crt", run)

    def modified_gate(box, seed):
        base = fb.Partition.from_blocks(2, [[1], [2]])
        cats = [p for p in fb.all_partitions(4)
                if fb.restrict_partition(p, 2) == base
                and fb.modified_paintbox_prob(box, base, p) > 0]

        def run():
            probs = [fb.modified_paintbox_prob(box, base, p) for p in cats]

            def once(r):
                counts = {c: 0 for c in cats}
                for _ in range(s["mod_draws"]):
                    counts[fb.modified_paintbox_sample(box, base, 4, r)] += 1
                return fb.chi_square_gof([counts[c] for c in cats], probs)

            passed, reports = fb.gof_gate(once, seed, "modified-paintbox")
            check(passed, f"modified paintbox gate failed p={reports[-1].p_value:.3g}")
        return ("modified_gate", run)

    def child():
        return np.random.default_rng(rng.integers(2 ** 63))

    items += [path_item(10 ** 5, child()) for _ in range(s["paths5"])]
    items += [path_item(10 ** 6, child()) for _ in range(s["paths6"])]
    items += [renewal_item(child()) for _ in range(s["renewal"])]
    items += [pareto_item(t, child()) for t in (1e2, 1e3, 1e4)]
    items += [gnedin_item(child()) for _ in range(s["gnedin_batches"])]
    for _ in range(s["crt_models"]):
        d = theorem2_model(rng)
        alpha = float(rng.uniform(0.0, 0.5))
        for k in range(2, 9):
            items += [crt_item(d, k, alpha, child()) for _ in range(s["crt_reps"])]
    box = fb.MassPartition(tuple(sorted(_atoms(rng, 2, True), reverse=True)))
    items.append(modified_gate(box, int(rng.integers(2 ** 31))))

    def c6():
        e, h = np.mean(ctx.results["gnedin_exp"]), np.mean(ctx.results["gnedin_heavy"])
        check(0.9 <= e <= 1.1, f"Exp(1) mean J/log n = {e:.3f}")
        check(h <= 0.1, f"infinite-mean J/log n = {h:.3f}")

    def c7():
        p = [v for _, v in sorted(ctx.results["pareto"])]
        check(all(b <= a * 1.2 for a, b in zip(p, p[1:])), f"Pareto trend {p}")

    def c8():
        med = float(np.median(ctx.results["pjs_err"]))
        check(med <= 0.15, f"median K_n relative error {med:.4f}")

    return items, [("c6_gnedin", c6), ("c7_pareto", c7), ("c8_pjs", c8)]


# ---------------------------------------------------------------------------
# gh-pairs: the GH branch-and-bound search
# ---------------------------------------------------------------------------

GH_ALPHA, GH_GAMMA = 0.5, 0.4
GH_EXACT_K = 2          # the exact search has no heavy tail here (at most 4 vertices a side)
GH_BOUND_K = (3, 4, 5, 6)


def _gh_pairs(rng, ctx, s):
    """An item is one pair of alpha-gamma trees, at n and at 4n, compared
    through their reduced trees on leaves 1..k, scaled by n^-gamma as in the
    gh-stabilize experiment: exactly at k = GH_EXACT_K, and by the upper
    bound against the depth lower bound at each k in GH_BOUND_K.

    The exact search stops at k = 2 because from k = 3 on its time is
    heavy-tailed on these pairs (k = 3: a few seconds for one pair in a few
    thousand; k = 4: tens of seconds), so no deadline-free pass of fixed
    length could hold it, and a deadline makes the count of misses depend
    on the host's speed."""
    n1, n2 = s["n1"], 4 * s["n1"]

    def bounds(a, b):
        lb = hausdorff_1d(metric_depths(a), metric_depths(b)) / 2
        return lb, fb.gh_upper_bound(a, b)

    def exact(a, b):
        ctx.count("treemetric.gh.vertex_pairs", (1 + len(a.length)) * (1 + len(b.length)))
        g = fb.gh_distance_rooted(a, b)
        lb, ub = bounds(a, b)
        check(lb - 1e-12 <= g <= ub + 1e-12,
              f"k={GH_EXACT_K}: need {lb:.6g} <= gh {g:.6g} <= upper bound {ub:.6g}")
        return g

    def bound(k, a, b):
        lb, ub = bounds(a, b)
        check(lb - 1e-12 <= ub, f"k={k}: upper bound {ub:.6g} below lower bound {lb:.6g}")
        return ub

    def gh_item(pair, bound_pairs):
        def run():
            ctx.extra_ops += len(bound_pairs)
            return {"gh": {str(GH_EXACT_K): exact(*pair)},
                    "upper_bound": {str(k): bound(k, a, b) for k, a, b in bound_pairs}}
        return ("tree_pair", run)

    def reduced(t1, t2, k):
        return (fb.reduced_tree(t1, range(1, k + 1)).scaled(n1 ** -GH_GAMMA),
                fb.reduced_tree(t2, range(1, k + 1)).scaled(n2 ** -GH_GAMMA))

    items = []
    for _ in range(s["tree_pairs"]):
        t1 = fb.grow_alphagamma(GH_ALPHA, GH_GAMMA, n1, rng)
        t2 = fb.grow_alphagamma(GH_ALPHA, GH_GAMMA, n2, rng)
        items.append(gh_item(reduced(t1, t2, GH_EXACT_K),
                             [(k, *reduced(t1, t2, k)) for k in GH_BOUND_K]))
    return items, []


_BUILDERS = {"exact-tables": _exact_tables, "tree-growth": _tree_growth,
             "spine-paths": _spine_paths, "gh-pairs": _gh_pairs}


# workload -> (pooled sample name, check over every pass's samples)
_POOLED = {"tree-growth": ("slopes", _height_slope)}


def build(name, rng, ctx, size="full"):
    return _BUILDERS[name](rng, ctx, SIZES[size][name])


def pooled_checks(name, pooled):
    """Failure messages of the run-level checks, given every pass's samples."""
    if name not in _POOLED:
        return []
    key, fn = _POOLED[name]
    try:
        fn(pooled.get(key, []))
    except CheckFailed as e:
        return [f"pooled check {key}: {e}"]
    return []
