import math

import numpy as np
import pytest

from fragbox import (ArgumentError, Tree, UnsupportedCaseError,
                     distance_matrix, edge_convergence_experiment,
                     fill_fraction, gh_distance_rooted, gh_upper_bound,
                     grow_alphagamma, mass_within, reduced_tree,
                     scaling_exponent)
from fragbox.treemetric import _tree_points


def edge(a):
    return Tree({0: [1]}, {1: 1}, 0, {1: float(a)})


def random_metric_tree(rng, leaves=3):
    # random binary shape over `leaves` leaves with exponential edge lengths
    t = grow_alphagamma(0.5, 0.5, leaves, rng)
    rt = reduced_tree(t, range(1, leaves + 1))
    length = {v: float(rng.exponential(1.0)) for v in rt.length}
    return Tree(rt.children, rt.leaf_label, rt.root, length)


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
    assert 0.0 < got <= d.max() / 2.0 + 1e-12


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
    h = _tree_points(t)[1][0].max()
    assert gh_distance_rooted(t, t.scaled(300.0)) >= 299.0 * h / 2.0 - 1e-9


def test_gh_leaf_cap():
    rng = np.random.default_rng(5)
    big = random_metric_tree(rng, leaves=11)
    with pytest.raises(UnsupportedCaseError):
        gh_distance_rooted(big, big)


def test_four_point_condition_on_trees():
    rng = np.random.default_rng(6)
    for _ in range(10):
        t = random_metric_tree(rng, leaves=4)
        m = distance_matrix(t)
        assert m.check_four_point() <= 1e-9


def test_distance_matrix_validation():
    rng = np.random.default_rng(7)
    m = distance_matrix(random_metric_tree(rng))
    m.d[0, 1] += 1.0  # break symmetry
    with pytest.raises(ArgumentError):
        m.validate()


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


def test_scaling_exponent_argument_errors():
    rng = np.random.default_rng(10)
    with pytest.raises(ArgumentError):
        scaling_exponent({"family": "star"}, [10, 20], 5, "height", rng)
    with pytest.raises(ArgumentError):
        scaling_exponent({"family": "star"}, [10, 20, 40], 5, "volume", rng)


def test_edge_convergence_rows():
    rng = np.random.default_rng(11)
    model = {"family": "alphagamma", "alpha": 0.5, "gamma": 0.4}
    rows = edge_convergence_experiment(model, 2, [32, 64], 50, rng)
    assert {r["n"] for r in rows} == {32, 64}
    for r in rows:
        assert r["count"] == 50 and r["mean"] > 0


def test_fill_fraction_monotone():
    rng = np.random.default_rng(12)
    t = grow_alphagamma(0.5, 0.4, 200, rng)
    prof = fill_fraction(t, 5)
    assert abs(sum(prof.values()) - 1.0) < 1e-12
    # mass within a radius grows with the radius and with k
    radii = sorted(prof)
    masses = [mass_within(prof, r) for r in radii]
    assert all(a <= b for a, b in zip(masses, masses[1:]))
    for r in (0, 2, 5):
        m_small = mass_within(fill_fraction(t, 3), r)
        m_big = mass_within(fill_fraction(t, 30), r)
        assert m_big >= m_small - 1e-12


def test_gh_stabilization_across_scales():
    # growth-chain coupling: the same tree seen at n and 4n leaves gives
    # rescaled k-leaf reduced trees whose GH gap shrinks as n grows
    from fragbox import delete_leaf

    rng = np.random.default_rng(13)
    alpha, gamma, k = 0.5, 0.4, 4

    def rescale(t, n):
        rt = reduced_tree(t, range(1, k + 1))
        return rt.scaled(1.0 / (n ** gamma * math.gamma(1.0 - gamma)))

    def gap(n):
        big = grow_alphagamma(alpha, gamma, 4 * n, rng)
        small = big
        for lab in range(4 * n, n, -1):
            small = delete_leaf(small, lab)
        return gh_distance_rooted(rescale(small, n), rescale(big, 4 * n))

    g_small = float(np.median([gap(16) for _ in range(25)]))
    g_big = float(np.median([gap(256) for _ in range(25)]))
    assert g_big < g_small
