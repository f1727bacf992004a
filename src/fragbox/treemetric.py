"""Gromov-Hausdorff distances on small rooted metric trees and the scaling
experiments built on them."""

import math
from bisect import bisect_left

import numpy as np

from .errors import ArgumentError, ResourceBudgetError, UnsupportedCaseError, _check_count
from .growth import _alphagamma_leaf_depths, leaf_depths, sample_fragmentation_tree

GH_LEAF_CAP = 10
GH_NODE_BUDGET = 5_000_000   # branch-and-bound nodes of one gh_distance_rooted call


def _tree_points(mt):
    """All vertices of a tree with lengths and their pairwise path metric,
    as nested lists of Python floats.

    The root comes first, and each vertex is listed after its parent and
    before its descendants, so its row is its parent's row plus its own edge
    length on the vertices listed before it; the root row is the depth.  On
    the 4-21 vertices of a reduced tree on 2-10 leaves numpy's cost is call
    overhead, so lists beat an array up to 8 leaves and are about even at
    10; above 10 leaves (the GH cap) the quadratic Python loop is slower."""
    children, length = mt.children, mt.length
    if length is None:
        raise ArgumentError("GH distances need a tree with edge lengths")
    verts, par, stack = [mt.root], [0], [0]
    while stack:
        i = stack.pop()
        for c in children.get(verts[i], []):
            par.append(i)
            stack.append(len(verts))
            verts.append(c)
    d = [[0.0]]
    for i in range(1, len(verts)):
        ell = float(length[verts[i]])
        row = [x + ell for x in d[par[i]]]
        for r, x in zip(d, row):
            r.append(x)
        row.append(0.0)
        d.append(row)
    return verts, d


def _correspondence_distortion(da, db, fa, gb):
    """Distortion of graph(f) union graph(g); fa maps A-index -> B-index, gb B -> A.

    The pairs are (i, fa[i]) then (gb[j], j), each kept once; their
    distortion is the largest |da - db| over two of them, 0 if there is one.
    A double loop over the pairs: faster than gathering the two submatrices
    with numpy up to 8 leaves, about even at 10, slower above."""
    pairs = list(dict.fromkeys([*zip(range(len(fa)), fa), *zip(gb, range(len(gb)))]))
    worst = 0.0
    for x, (a1, b1) in enumerate(pairs):
        ra, rb = da[a1], db[b1]
        for a2, b2 in pairs[x + 1:]:
            gap = abs(ra[a2] - rb[b2])
            if gap > worst:
                worst = gap
    return worst


def gh_upper_bound(a, b):
    """Distortion/2 of a greedy depth-profile correspondence (roots paired).

    Costs the two path metrics, a sort and a bisection per vertex, and one
    pass over pairs of the correspondence: no search.  Everything runs on
    Python floats, which is faster than numpy for reduced trees of 2-8
    leaves (about 2x at 2 leaves), about even at 10 and slower above."""
    return _greedy_bound(_tree_points(a)[1], _tree_points(b)[1])


def _greedy_bound(da, db):
    """gh_upper_bound on the path metrics of the two trees, roots first."""
    return _correspondence_distortion(da, db, *_greedy_correspondence(da, db)) / 2.0


def _greedy_correspondence(da, db):
    """(fa, gb): every vertex goes to the vertex of the other tree nearest in
    depth, the first in stable depth order on a tie; the roots to each other.

    One stable sort of each tree's depths and one bisection per vertex, on
    Python floats: faster than numpy's argmin below 10 leaves, about even
    at 10, slower above."""
    return _nearest_in_depth(da[0], db[0]), _nearest_in_depth(db[0], da[0])


def _nearest_in_depth(depths, other):
    """For each of depths but the root's (which goes to 0), the index in
    other of the first minimiser of |o - x| in stable depth order.

    The rounded gaps never shrink away from bisect_left's k on either side,
    so the right side's first minimiser is k, and the left side's is the
    leftmost of the run of gaps equal to the one at k - 1, which wins ties
    with k."""
    order = sorted(range(len(other)), key=other.__getitem__)
    ranked = [other[j] for j in order]
    out = [0]
    for x in depths[1:]:
        k = bisect_left(ranked, x)
        if k == len(ranked) or (k and x - ranked[k - 1] <= ranked[k] - x):
            k -= 1
            gap = x - ranked[k]
            while k and x - ranked[k - 1] == gap:
                k -= 1
        out.append(order[k])
    return out


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

