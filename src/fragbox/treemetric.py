"""Gromov-Hausdorff distances on small rooted metric trees and the scaling
experiments built on them."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, UnsupportedCaseError
from .growth import (Tree, grow_alphagamma, mean_depth, reduced_tree,
                     sample_fragmentation_tree, tree_height)

GH_LEAF_CAP = 10
FOUR_POINT_TOL = 1e-9


@dataclass
class DistanceMatrix:
    """Symmetric distances over a fixed vertex order."""

    labels: list
    d: np.ndarray

    def validate(self):
        d = self.d
        if d.shape != (len(self.labels), len(self.labels)):
            raise ArgumentError("shape mismatch")
        if np.any(np.abs(d - d.T) > 1e-12) or np.any(np.diag(d) != 0) or np.any(d < 0):
            raise ArgumentError("not a distance matrix")

    def check_four_point(self):
        """max over quadruples of the four-point defect; trees stay below 1e-9."""
        d = self.d
        n = len(self.labels)
        worst = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for l in range(k + 1, n):
                        sums = sorted([d[i, j] + d[k, l],
                                       d[i, k] + d[j, l],
                                       d[i, l] + d[j, k]])
                        worst = max(worst, sums[2] - sums[1])
        return worst


def _tree_points(mt):
    """All vertices of a tree with lengths, with depths and the pairwise path
    metric; the root comes first."""
    verts = [mt.root]
    par = {}
    depth = {mt.root: 0.0}
    stack = [mt.root]
    while stack:
        v = stack.pop()
        for c in mt.children.get(v, []):
            verts.append(c)
            par[c] = v
            depth[c] = depth[v] + mt.length[c]
            stack.append(c)
    anc = {}
    for v in verts:
        chain = {}
        u = v
        while True:
            chain[u] = depth[v] - depth[u]
            if u == mt.root:
                break
            u = par[u]
        anc[v] = chain
    n = len(verts)
    d = np.zeros((n, n))
    for i, a in enumerate(verts):
        for j in range(i + 1, n):
            b = verts[j]
            # climb from the deeper one until the chains meet
            u = b
            while u not in anc[a]:
                u = par[u]
            d[i, j] = d[j, i] = (depth[a] - depth[u]) + (depth[b] - depth[u])
    return verts, d


def distance_matrix(mt):
    verts, d = _tree_points(mt)
    m = DistanceMatrix(list(verts), d)
    m.validate()
    return m


def _correspondence_distortion(da, db, fa, gb):
    """Distortion of graph(f) union graph(g); fa maps A-index -> B-index, gb B -> A."""
    pairs = [(i, fa[i]) for i in range(len(fa))] + [(gb[j], j) for j in range(len(gb))]
    worst = 0.0
    for x in range(len(pairs)):
        ax, bx = pairs[x]
        for y in range(x + 1, len(pairs)):
            ay, by = pairs[y]
            worst = max(worst, abs(da[ax, ay] - db[bx, by]))
    return worst


def gh_upper_bound(a, b):
    """Distortion/2 of a greedy depth-profile correspondence (roots paired)."""
    va, da = _tree_points(a)
    vb, db = _tree_points(b)
    deptha = da[0]
    depthb = db[0]
    order_a = np.argsort(deptha, kind="stable")
    order_b = np.argsort(depthb, kind="stable")
    fa = np.zeros(len(va), dtype=int)
    gb = np.zeros(len(vb), dtype=int)
    for i in order_a:
        fa[i] = order_b[np.argmin(np.abs(depthb[order_b] - deptha[i]))]
    for j in order_b:
        gb[j] = order_a[np.argmin(np.abs(deptha[order_a] - depthb[j]))]
    fa[0], gb[0] = 0, 0
    return _correspondence_distortion(da, db, fa, gb) / 2.0


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
    and bound over interleaved assignments, seeded by gh_upper_bound.
    """
    if a.n > GH_LEAF_CAP or b.n > GH_LEAF_CAP:
        raise UnsupportedCaseError("exact GH capped at %d leaves" % GH_LEAF_CAP)
    va, da = _tree_points(a)
    vb, db = _tree_points(b)
    na, nb = len(va), len(vb)
    best = [2.0 * gh_upper_bound(a, b) + 1e-15]
    # items: ('a', i) needs an image in B, ('b', j) needs a preimage in A;
    # index 0 on both sides is the root, pinned to the root.  Deep vertices
    # are the most constrained, so assign them first, and try candidate
    # matches cheapest-first so `best` tightens early.
    items = [("a", i) for i in range(1, na)] + [("b", j) for j in range(1, nb)]
    items.sort(key=lambda it: -(da[0, it[1]] if it[0] == "a" else db[0, it[1]]))
    pairs = [(0, 0)]

    def recurse(idx, cur):
        if idx == len(items):
            best[0] = min(best[0], cur)
            return
        side, i = items[idx]
        choices = range(nb) if side == "a" else range(na)
        scored = []
        for c in choices:
            pa, pb = (i, c) if side == "a" else (c, i)
            worst = cur
            for (qa, qb) in pairs:
                worst = max(worst, abs(da[pa, qa] - db[pb, qb]))
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


def _sample_tree(model, n, rng):
    fam = model["family"]
    if fam == "alphagamma":
        return grow_alphagamma(model["alpha"], model["gamma"], n, rng)
    if fam == "dislocation":
        return sample_fragmentation_tree(model["d"], n, rng)
    if fam == "star":
        # debug model: deterministic star, height 2 for every n
        children = {0: list(range(1, n + 1))}
        labels = {i: i for i in range(1, n + 1)}
        return Tree(children, labels, 0)
    raise ArgumentError("unknown model family %r" % fam)


def _scaling_alpha(model):
    if model["family"] == "alphagamma":
        return model["gamma"]
    return model.get("alpha", 0.0)


def edge_convergence_experiment(model, k, n_grid, reps, rng):
    """Rescaled reduced-tree edge statistics per n, grouped by edge identity.

    Edges are keyed by the sorted leaf labels below them; lengths are divided
    by n^a Gamma(1-a) with a the model's scaling exponent.
    """
    out = []
    for n in n_grid:
        scale = n ** _scaling_alpha(model) * math.gamma(1.0 - min(_scaling_alpha(model), 0.999999))
        acc = {}
        for _ in range(reps):
            t = _sample_tree(model, n, rng)
            rt = reduced_tree(t, range(1, min(k, n) + 1))
            for v, ell in rt.length.items():
                acc.setdefault(tuple(rt.labels_under(v)), []).append(ell / scale)
        for labs, vals in sorted(acc.items()):
            arr = np.array(vals)
            out.append({"n": n, "edge": labs, "mean": float(arr.mean()),
                        "var": float(arr.var()), "count": len(vals)})
    return out


def scaling_exponent(model, n_grid, reps, statistic, rng):
    """Slope (with stderr) of log mean statistic against log n."""
    n_grid = list(n_grid)
    if len(n_grid) < 3:
        raise ArgumentError("need at least 3 grid points")
    stat_fn = {"height": tree_height, "mean_depth": mean_depth}.get(statistic)
    if stat_fn is None:
        raise ArgumentError("statistic must be height or mean_depth")
    xs, ys = [], []
    for n in n_grid:
        vals = [stat_fn(_sample_tree(model, n, rng)) for _ in range(reps)]
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
    node_of = {lab: u for u, lab in t.leaf_label.items()}
    parent_of = t.parent_of
    targets = {node_of[lab] for lab in range(1, min(k, t.n) + 1)}
    spanning = set(targets)
    for u in list(targets):
        v = u
        while v != t.root:
            v = parent_of[v]
            spanning.add(v)
    counts = {}
    for lab in range(1, t.n + 1):
        u = node_of[lab]
        dist = 0
        while u not in spanning:
            u = parent_of[u]
            dist += 1
        counts[dist] = counts.get(dist, 0) + 1
    return {d: c / t.n for d, c in sorted(counts.items())}


def mass_within(profile, radius):
    return sum(f for d, f in profile.items() if d <= radius)
