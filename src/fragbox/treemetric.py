"""Gromov-Hausdorff distances on small rooted metric trees and the scaling
experiments built on them."""

import math

import numpy as np

from .errors import ArgumentError, ResourceBudgetError, UnsupportedCaseError, _check_count
from .growth import _alphagamma_leaf_depths, leaf_depths, sample_fragmentation_tree

GH_LEAF_CAP = 10
GH_NODE_BUDGET = 5_000_000   # branch-and-bound nodes of one gh_distance_rooted call


def _tree_points(mt):
    """All vertices of a tree with lengths and their pairwise path metric.

    The root comes first, and each vertex is listed after its parent and
    before its descendants, so its row is its parent's row plus its own edge
    length on the vertices listed before it; the root row is the depth."""
    children, length = mt.children, mt.length
    verts, par, stack = [mt.root], [0], [0]
    while stack:
        i = stack.pop()
        for c in children.get(verts[i], []):
            par.append(i)
            stack.append(len(verts))
            verts.append(c)
    d = np.zeros((len(verts), len(verts)))
    for i in range(1, len(verts)):
        d[i, :i] = d[:i, i] = d[par[i], :i] + length[verts[i]]
    return verts, d


def _correspondence_distortion(da, db, fa, gb):
    """Distortion of graph(f) union graph(g); fa maps A-index -> B-index, gb B -> A.

    The pairs are (i, fa[i]) then (gb[j], j); their distortion is the largest
    entry of |da - db| restricted to them, diagonal (0) included."""
    ia = np.concatenate([np.arange(len(fa)), gb])
    ib = np.concatenate([fa, np.arange(len(gb))])
    diff = da[ia][:, ia] - db[ib][:, ib]
    return float(np.abs(diff, out=diff).max())


def gh_upper_bound(a, b):
    """Distortion/2 of a greedy depth-profile correspondence (roots paired).

    Costs the two path metrics plus a few array operations on them: no
    search."""
    return _greedy_bound(_tree_points(a)[1], _tree_points(b)[1])


def _greedy_bound(da, db):
    """gh_upper_bound on the path metrics of the two trees, roots first:
    one (na, nb) argmin each way and one distortion matrix per tree pair."""
    return _correspondence_distortion(da, db, *_greedy_correspondence(da, db)) / 2.0


def _greedy_correspondence(da, db):
    """(fa, gb): every vertex goes to the vertex of the other tree nearest in
    depth, the first in stable depth order on a tie; the roots to each other."""
    deptha = da[0]
    depthb = db[0]
    order_a = np.argsort(deptha, kind="stable")
    order_b = np.argsort(depthb, kind="stable")
    fa = order_b[np.abs(depthb[order_b][None, :] - deptha[:, None]).argmin(axis=1)]
    gb = order_a[np.abs(deptha[order_a][None, :] - depthb[:, None]).argmin(axis=1)]
    fa[0], gb[0] = 0, 0
    return fa, gb


def gh_distance_rooted(a, b):
    """Exact rooted GH distance between the finite vertex sets of a and b
    (with the path metric), not between the real trees they span: min
    distortion/2 over correspondences of the form graph(f) union graph(g)
    with roots matched.

    The value depends on where the vertices sit.  A unit segment against the
    same segment with its midpoint as a vertex gives 0.25, while the two real
    trees are isometric (distance 0).

    Every correspondence contains one of this form and distortion is monotone
    under inclusion, so the restricted minimum is the true minimum.  Branch
    and bound over interleaved assignments, seeded by gh_upper_bound.  A
    search that would open more than GH_NODE_BUDGET nodes raises
    ResourceBudgetError instead of running on.
    """
    if a.n > GH_LEAF_CAP or b.n > GH_LEAF_CAP:
        raise UnsupportedCaseError("exact GH capped at %d leaves" % GH_LEAF_CAP)
    da, db = _tree_points(a)[1], _tree_points(b)[1]
    best = [2.0 * _greedy_bound(da, db) + 1e-15]
    da, db = da.tolist(), db.tolist()   # the search reads single entries
    na, nb = len(da), len(db)
    # items: ('a', i) needs an image in B, ('b', j) needs a preimage in A;
    # index 0 on both sides is the root, pinned to the root.  Deep vertices
    # are the most constrained, so assign them first, and try candidate
    # matches cheapest-first so `best` tightens early.
    items = [("a", i) for i in range(1, na)] + [("b", j) for j in range(1, nb)]
    items.sort(key=lambda it: -(da[0][it[1]] if it[0] == "a" else db[0][it[1]]))
    pairs = [(0, 0)]
    budget = [GH_NODE_BUDGET]

    def recurse(idx, cur):
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceBudgetError("exact GH search exceeded %d nodes" % GH_NODE_BUDGET)
        if idx == len(items):
            best[0] = min(best[0], cur)
            return
        side, i = items[idx]
        choices = range(nb) if side == "a" else range(na)
        scored = []
        for c in choices:
            pa, pb = (i, c) if side == "a" else (c, i)
            worst = cur
            rowa, rowb = da[pa], db[pb]
            for (qa, qb) in pairs:
                worst = max(worst, abs(rowa[qa] - rowb[qb]))
                if worst >= best[0]:
                    break
            scored.append((worst, pa, pb))
        scored.sort()
        for worst, pa, pb in scored:
            if worst >= best[0]:
                break
            pairs.append((pa, pb))
            recurse(idx + 1, worst)
            pairs.pop()

    recurse(0, 0.0)
    return best[0] / 2.0


def _leaf_depths(model, n, rng):
    """The spine depths of the leaves of one tree of the model on n leaves,
    as one array.  Alpha-gamma depths are read off the growth core's parent
    list, with no Tree; a fragmentation tree's off its Tree."""
    fam = model["family"]
    if fam == "alphagamma":
        return _alphagamma_leaf_depths(model["alpha"], model["gamma"], n, rng)
    if fam == "dislocation":
        t = sample_fragmentation_tree(model["d"], n, rng)
        return np.fromiter(leaf_depths(t).values(), np.intp, n)
    if fam == "star":
        # debug model: deterministic star, height 2 for every n
        return np.full(n, 2)
    raise ArgumentError("unknown model family %r" % fam)


def scaling_exponent(model, n_grid, reps, statistic, rng):
    """Slope (with stderr) of log mean statistic against log n.  The height
    is the greatest leaf depth and mean_depth the mean: the values of
    growth.tree_height and growth.mean_depth, from the same draws."""
    n_grid, reps = list(n_grid), _check_count("reps", reps, 1)
    if len(n_grid) < 3:
        raise ArgumentError("need at least 3 grid points")
    stat_fn = {"height": np.max, "mean_depth": np.mean}.get(statistic)
    if stat_fn is None:
        raise ArgumentError("statistic must be height or mean_depth")
    xs, ys = [], []
    for n in n_grid:
        vals = [stat_fn(_leaf_depths(model, n, rng)) for _ in range(reps)]
        xs.append(math.log(n))
        ys.append(math.log(np.mean(vals)))
    xs = np.array(xs)
    ys = np.array(ys)
    (slope, intercept), cov = np.polyfit(xs, ys, 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))


def fill_fraction(t, k):
    """Distance profile of all leaves to the subtree spanning leaves 1..k.

    Returns a dict distance -> fraction of leaves at that unit-edge distance,
    ready for 'mass within radius' queries.
    """
    k = _check_count("k", k, 1)
    node_of, parent_of = t.node_of, t.parent_of
    spanning = set()
    for lab in range(1, min(k, t.n) + 1):
        spanning.update(t.path_to_root(node_of[lab]))
    counts = {}
    for lab in range(1, t.n + 1):
        u = node_of[lab]
        dist = 0
        while u not in spanning:
            u = parent_of[u]
            dist += 1
        counts[dist] = counts.get(dist, 0) + 1
    return {d: c / t.n for d, c in sorted(counts.items())}

