import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fragbox import (ArgumentError, ResourceBudgetError, Tree,
                     UnsupportedCaseError, crt_scale, fill_fraction,
                     gh_distance_rooted, gh_upper_bound,
                     grow_alphagamma, mean_depth, reduced_ladder, reduced_tree,
                     sample_fragmentation_tree, scaling_exponent, tree_height)
from fragbox import treemetric
from fragbox.harness import single_atom_model
from fragbox.treemetric import (GH_LEAF_CAP, _correspondence_distortion,
                                _greedy_bound, _greedy_correspondence,
                                _tree_points)
from oracles import tree_points_reference


def edge(a):
    return Tree({0: [1]}, {1: 1}, 0, {1: float(a)})


def random_metric_tree(rng, leaves=3):
    # random binary shape over `leaves` leaves with exponential edge lengths
    t = grow_alphagamma(0.5, 0.5, leaves, rng)
    rt = reduced_tree(t, range(1, leaves + 1))
    length = {v: float(rng.exponential(1.0)) for v in rt.length}
    return Tree(rt.children, rt.leaf_label, rt.root, length)


def _correspondence_distortion_loop(da, db, fa, gb):
    # reference: the distortion as a double loop over the pairs
    pairs = [(i, fa[i]) for i in range(len(fa))] + [(gb[j], j) for j in range(len(gb))]
    worst = 0.0
    for x in range(len(pairs)):
        ax, bx = pairs[x]
        for y in range(x + 1, len(pairs)):
            ay, by = pairs[y]
            worst = max(worst, abs(da[ax, ay] - db[bx, by]))
    return worst


def _greedy_correspondence_loop(da, db):
    # reference: one argmin per vertex, first minimum in stable depth order
    deptha = da[0]
    depthb = db[0]
    order_a = np.argsort(deptha, kind="stable")
    order_b = np.argsort(depthb, kind="stable")
    fa = np.zeros(len(deptha), dtype=int)
    gb = np.zeros(len(depthb), dtype=int)
    for i in order_a:
        fa[i] = order_b[np.argmin(np.abs(depthb[order_b] - deptha[i]))]
    for j in order_b:
        gb[j] = order_a[np.argmin(np.abs(deptha[order_a] - depthb[j]))]
    fa[0], gb[0] = 0, 0
    return fa, gb


def _greedy_bound_loop(da, db):
    return _correspondence_distortion_loop(da, db, *_greedy_correspondence_loop(da, db)) / 2.0


def _gh_search_loop(a, b):
    # reference: the branch and bound reading single numpy entries, seeded
    # by the loop bound
    va, da = tree_points_reference(a)
    vb, db = tree_points_reference(b)
    na, nb = len(va), len(vb)
    best = [2.0 * _greedy_bound_loop(da, db) + 1e-15]
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


@st.composite
def metric_trees(draw, max_leaves):
    """A reduced alpha-gamma tree on a random label set, with its own
    lengths (small integers), unit lengths, exponential lengths, or its
    own lengths and one edge subdivided in two; the integer and unit
    lengths tie many depths."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    alpha = draw(st.sampled_from([0.3, 0.5, 1.0]))
    t = grow_alphagamma(alpha, alpha * draw(st.floats(0, 1)), n, rng)
    k = draw(st.integers(1, min(n, max_leaves)))
    rt = reduced_tree(t, draw(st.sets(st.integers(1, n), min_size=k, max_size=k)))
    children = {v: list(cs) for v, cs in rt.children.items()}
    kind = draw(st.sampled_from(["own", "unit", "exponential", "subdivided"]))
    if kind == "unit":
        length = dict.fromkeys(rt.length, 1.0)
    elif kind == "exponential":
        length = {v: float(rng.exponential(1.0)) for v in rt.length}
    else:
        length = dict(rt.length)
    if kind == "subdivided":
        v = draw(st.sampled_from(sorted(rt.length)))
        mid = max(rt.length) + 1
        p = rt.parent_of[v]
        children[p][children[p].index(v)] = mid
        children[mid] = [v]
        length[mid] = length[v] = length[v] / 2.0
    scale = draw(st.sampled_from([1.0, 0.37]))
    return Tree(children, rt.leaf_label, rt.root,
                {v: ell * scale for v, ell in length.items()})


@settings(max_examples=300)
@given(metric_trees(GH_LEAF_CAP), metric_trees(GH_LEAF_CAP), st.data())
def test_greedy_bound_matches_loop(a, b, data):
    # the list forms return the numpy loops' correspondence and floats
    # exactly, ties in depth included
    da, db = _tree_points(a)[1], _tree_points(b)[1]
    ra, rb = tree_points_reference(a)[1], tree_points_reference(b)[1]
    for got, want in zip(_greedy_correspondence(da, db), _greedy_correspondence_loop(ra, rb)):
        assert got == want.tolist()
    assert _greedy_bound(da, db) == _greedy_bound_loop(ra, rb)
    assert gh_upper_bound(a, b) == _greedy_bound_loop(ra, rb)
    # and on any correspondence, not only the greedy one
    fa = data.draw(st.lists(st.integers(0, len(db) - 1), min_size=len(da), max_size=len(da)))
    gb = data.draw(st.lists(st.integers(0, len(da) - 1), min_size=len(db), max_size=len(db)))
    assert (_correspondence_distortion(da, db, fa, gb)
            == _correspondence_distortion_loop(ra, rb, fa, gb))


@settings(max_examples=150)
@given(metric_trees(3), metric_trees(3))
def test_gh_distance_matches_numpy_search(a, b):
    # the search on nested lists returns the numpy-indexed search's float
    got = gh_distance_rooted(a, b)
    assert type(got) is float
    assert got == _gh_search_loop(a, b)


def test_gh_identical_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        t = random_metric_tree(rng)
        assert gh_distance_rooted(t, t) < 1e-12


def test_gh_single_edges():
    for a in (0.5, 1.0, 3.0):
        for b in (0.25, 1.0, 2.0):
            got = gh_distance_rooted(edge(a), edge(b))
            assert abs(got - abs(a - b) / 2.0) < 1e-12


def test_gh_depends_on_vertex_placement():
    # known behaviour: the distance is between vertex sets, so subdividing an
    # edge moves it although the real trees are isometric (real-tree GH 0)
    split = Tree({0: [1], 1: [2]}, {2: 1}, 0, {1: 0.5, 2: 0.5})
    assert abs(gh_distance_rooted(edge(1.0), split) - 0.25) < 1e-12
    assert abs(gh_distance_rooted(split, edge(1.0)) - 0.25) < 1e-12


def test_gh_doubled_lengths():
    rng = np.random.default_rng(1)
    t = random_metric_tree(rng)
    s = t.scaled(2.0)
    _, d = _tree_points(t)
    got = gh_distance_rooted(t, s)
    assert 0.0 < got <= max(map(max, d)) / 2.0 + 1e-12


def test_gh_pseudometric_triples():
    rng = np.random.default_rng(2)
    for _ in range(40):
        a = random_metric_tree(rng, leaves=int(rng.integers(2, 4)))
        b = random_metric_tree(rng, leaves=int(rng.integers(2, 4)))
        c = random_metric_tree(rng, leaves=int(rng.integers(2, 4)))
        dab = gh_distance_rooted(a, b)
        dba = gh_distance_rooted(b, a)
        assert abs(dab - dba) < 1e-9
        dac = gh_distance_rooted(a, c)
        dcb = gh_distance_rooted(c, b)
        assert dab <= dac + dcb + 1e-9


def test_gh_upper_bound_dominates():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = random_metric_tree(rng, leaves=int(rng.integers(2, 4)))
        b = random_metric_tree(rng, leaves=int(rng.integers(2, 4)))
        assert gh_upper_bound(a, b) >= gh_distance_rooted(a, b) - 1e-12


def test_gh_disjoint_scales():
    rng = np.random.default_rng(4)
    t = random_metric_tree(rng)
    # GH >= |height difference| / 2, so a 300x blow-up is far away
    h = max(_tree_points(t)[1][0])
    assert gh_distance_rooted(t, t.scaled(300.0)) >= 299.0 * h / 2.0 - 1e-9


def test_gh_needs_edge_lengths():
    # a grown tree has unit edges and no length map: loud, as in Tree.scaled
    t = grow_alphagamma(0.5, 0.3, 5, np.random.default_rng(14))
    assert t.length is None
    for gh in (gh_upper_bound, gh_distance_rooted):
        with pytest.raises(ArgumentError, match="edge lengths"):
            gh(t, t)


@pytest.mark.xfail(strict=True, reason="greedy depth ties send leaf b to leaf a")
def test_gh_upper_bound_symmetric_cherry():
    # every vertex at depth 2 goes to the first one in stable depth order,
    # so both leaves of a cherry land on leaf a and the bound is 1, not 0
    t = Tree({0: [1], 1: [2, 3]}, {2: 1, 3: 2}, 0, {1: 1.0, 2: 1.0, 3: 1.0})
    assert gh_distance_rooted(t, t) == 0.0
    assert gh_upper_bound(t, t) == 0.0


def test_gh_leaf_cap():
    rng = np.random.default_rng(5)
    big = random_metric_tree(rng, leaves=11)
    with pytest.raises(UnsupportedCaseError):
        gh_distance_rooted(big, big)


def test_gh_node_budget(monkeypatch):
    # a search that would open more nodes than GH_NODE_BUDGET raises; the
    # default budget lets the same search finish
    rng = np.random.default_rng(7)
    a, b = random_metric_tree(rng, leaves=4), random_metric_tree(rng, leaves=4)
    want = gh_distance_rooted(a, b)
    assert want < gh_upper_bound(a, b)   # the search has to leave its seed
    monkeypatch.setattr(treemetric, "GH_NODE_BUDGET", 10)
    with pytest.raises(ResourceBudgetError):
        gh_distance_rooted(a, b)
    monkeypatch.undo()
    assert gh_distance_rooted(a, b) == want


def test_four_point_condition_on_trees():
    rng = np.random.default_rng(6)
    for _ in range(10):
        _, d = _tree_points(random_metric_tree(rng, leaves=4))
        n = len(d)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for l in range(k + 1, n):
                        sums = sorted([d[i][j] + d[k][l], d[i][k] + d[j][l],
                                       d[i][l] + d[j][k]])
                        assert sums[2] - sums[1] <= 1e-9


@settings(max_examples=200)
@given(metric_trees(12), st.data())
def test_tree_points_is_the_path_metric(t, data):
    # every entry is the length of the symmetric difference of the two root
    # paths, on trees hung below a degree-1 virtual root, some edges of
    # length zero; the root row is the depth summed down from the root.
    # The lists hold Python floats equal to the numpy recurrence's entries
    zero = data.draw(st.sets(st.sampled_from(sorted(t.length))))
    t = Tree(t.children, t.leaf_label, t.root,
             {v: 0.0 if v in zero else ell for v, ell in t.length.items()})
    t.validate()
    assert len(t.children[t.root]) == 1
    verts, d = _tree_points(t)
    want_verts, want = tree_points_reference(t)
    assert verts == want_verts and d == want.tolist()
    assert {type(x) for row in d for x in row} == {float}
    assert verts[0] == t.root and sorted(verts) == sorted(t.length.keys() | {t.root})
    paths = [set(t.path_to_root(v)) for v in verts]
    for i, v in enumerate(verts):
        depth = sum(t.length[u] for u in reversed(t.path_to_root(v)[:-1]))
        assert d[0][i] == d[i][0] == depth
        for j in range(len(verts)):
            assert abs(d[i][j] - sum(t.length[u] for u in paths[i] ^ paths[j])) <= 1e-12


def test_scaling_exponent_star():
    rng = np.random.default_rng(8)
    slope, err = scaling_exponent({"family": "star"}, [50, 100, 200, 400],
                                  20, "height", rng)
    assert abs(slope) <= 0.02


def test_scaling_exponent_alphagamma_band():
    rng = np.random.default_rng(9)
    model = {"family": "alphagamma", "alpha": 0.5, "gamma": 0.4}
    slope, err = scaling_exponent(model, [64, 128, 256, 512], 300,
                                  "height", rng)
    assert abs(slope - 0.4) < 0.15


def _slope_of_trees(sample, n_grid, reps, statistic, rng):
    # the fit on Trees: tree_height or mean_depth of sample(n, rng)
    stat = {"height": tree_height, "mean_depth": mean_depth}[statistic]
    xs, ys = [], []
    for n in n_grid:
        vals = [stat(sample(n, rng)) for _ in range(reps)]
        xs.append(math.log(n))
        ys.append(math.log(np.mean(vals)))
    (slope, _), cov = np.polyfit(np.array(xs), np.array(ys), 1, cov=True)
    return float(slope), float(np.sqrt(cov[0, 0]))


@pytest.mark.parametrize("statistic", ["height", "mean_depth"])
@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("primed", [False, True])
@pytest.mark.parametrize("family", ["alphagamma", "dislocation"])
def test_scaling_exponent_matches_tree_route(family, statistic, bitgen, primed):
    # the depths of one array give the same (slope, err), bit for bit, as
    # the Tree statistics, and leave the generator in the same state.  The
    # alpha-gamma depths are read off the growth core's parent list, at
    # n = 5 from the scalar draws and above from the raw-word replay on PCG64
    if family == "alphagamma":
        model = {"family": family, "alpha": 0.6, "gamma": 0.25}
        sample = lambda n, r: grow_alphagamma(0.6, 0.25, n, r)
    else:
        model = {"family": family, "d": single_atom_model()}
        sample = lambda n, r: sample_fragmentation_tree(model["d"], n, r)
    grid = [5, 8, 40, 200]
    pair = [np.random.Generator(bitgen(11)) for _ in range(2)]
    if primed:
        for rng in pair:
            rng.integers(7)
    got = scaling_exponent(model, grid, 4, statistic, pair[0])
    assert got == _slope_of_trees(sample, grid, 4, statistic, pair[1])
    assert pair[0].integers(2 ** 32, size=3).tolist() == \
        pair[1].integers(2 ** 32, size=3).tolist()


def test_scaling_exponent_argument_errors():
    rng = np.random.default_rng(10)
    with pytest.raises(ArgumentError):
        scaling_exponent({"family": "star"}, [10, 20], 5, "height", rng)
    with pytest.raises(ArgumentError):
        scaling_exponent({"family": "star"}, [10, 20, 40], 5, "volume", rng)


def test_fill_fraction_monotone():
    rng = np.random.default_rng(12)
    t = grow_alphagamma(0.5, 0.4, 200, rng)
    prof = fill_fraction(t, 5)
    assert abs(sum(prof.values()) - 1.0) < 1e-12

    def within(profile, radius):
        return sum(f for dist, f in profile.items() if dist <= radius)

    # mass within a radius grows with the radius and with k
    radii = sorted(prof)
    masses = [within(prof, r) for r in radii]
    assert all(a <= b for a, b in zip(masses, masses[1:]))
    for r in (0, 2, 5):
        m_small = within(fill_fraction(t, 3), r)
        m_big = within(fill_fraction(t, 30), r)
        assert m_big >= m_small - 1e-12


def test_gh_stabilization_across_scales():
    # growth-chain coupling: the same tree seen at n and 4n leaves gives
    # rescaled k-leaf reduced trees whose GH gap shrinks as n grows
    rng = np.random.default_rng(13)
    alpha, gamma, k = 0.5, 0.4, 4
    sizes = [16, 64, 256, 1024]
    gaps = {16: [], 256: []}
    for _ in range(25):
        t = grow_alphagamma(alpha, gamma, sizes[-1], rng)
        at = {n: rt.scaled(1.0 / crt_scale(n, gamma))
              for n, rt in zip(sizes, reduced_ladder(t, k, sizes))}
        for n in gaps:
            gaps[n].append(gh_distance_rooted(at[n], at[4 * n]))
    assert np.median(gaps[256]) < np.median(gaps[16])
