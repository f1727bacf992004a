import os

import numpy as np
import pytest

from fragbox import (ArgumentError, Tree, alphagamma_growth_split_oracle,
                     alphagamma_tree_distribution, delete_leaf,
                     delete_uniform_leaf, grow_alphagamma, reduced_tree,
                     restrict_hierarchy, sample_fragmentation_tree,
                     sample_markov_branching, skewed_pd_splitting_table,
                     special_branch_count, spine_depth, splitting_rule,
                     tree_height)
from fragbox.harness import chi_square_gof, gof_gate, single_atom_model

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def cherry():
    return Tree({0: [1, 2]}, {1: 1, 2: 2}, 0)


def star(n):
    return Tree({0: list(range(1, n + 1))}, {i: i for i in range(1, n + 1)}, 0)


def chain(n):
    # caterpillar: n splits off first, then n-1, ...
    children = {}
    leaf_label = {}
    node = 0
    cur = 0
    next_id = 1
    for lab in range(n, 1, -1):
        leaf = next_id
        inner = next_id + 1
        next_id += 2
        leaf_label[leaf] = lab
        children[cur] = [inner, leaf] if lab > 2 else [inner, leaf]
        cur = inner
    leaf_label[cur] = 1
    return Tree(children, leaf_label, 0)


def test_grow_trivial_sizes():
    rng = np.random.default_rng(0)
    t1 = grow_alphagamma(0.5, 0.3, 1, rng)
    assert t1.n == 1 and t1.to_text() == "1"
    t2 = grow_alphagamma(0.5, 0.3, 2, rng)
    assert t2.to_text() == "(1,2)"


def test_grow_root_split_law():
    def run_once(rng):
        counts = {}
        for _ in range(20_000):
            t = grow_alphagamma(0.5, 0.3, 3, rng)
            p = t.root_split()
            counts[p] = counts.get(p, 0) + 1
        oracle = alphagamma_growth_split_oracle(0.5, 0.3, 3)
        cats = sorted(oracle.probs, key=lambda q: q.to_text())
        return chi_square_gof([counts.get(c, 0) for c in cats],
                              [oracle.probs[c] for c in cats])

    passed, _ = gof_gate(run_once, 123, "grow-n3")
    assert passed


def test_grow_ford_alpha_binary():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = grow_alphagamma(0.6, 0.6, 12, rng)
        assert all(len(cs) == 2 for cs in t.children.values())


def test_grow_restriction_consistency():
    # restricting the 5-leaf tree to [4] has the 4-leaf law
    def run_once(rng):
        counts5, counts4 = {}, {}
        for _ in range(20_000):
            t5 = grow_alphagamma(0.5, 0.3, 5, rng)
            key = frozenset(b for b in
                            (frozenset(x for x in v if x <= 4)
                             for v in t5.vertices) if b)
            counts5[key] = counts5.get(key, 0) + 1
        dist4 = alphagamma_tree_distribution(0.5, 0.3, 4)
        cats = sorted(dist4, key=sorted)
        return chi_square_gof([counts5.get(c, 0) for c in cats],
                              [dist4[c] for c in cats])

    passed, _ = gof_gate(run_once, 321, "grow-restrict")
    assert passed


def test_markov_branching_examples():
    rng = np.random.default_rng(2)
    d = single_atom_model()
    rule = lambda b: splitting_rule(d, b)
    assert sample_markov_branching(rule, 1, rng).to_text() == "1"
    assert sample_markov_branching(rule, 2, rng).to_text() == "(1,2)"
    counts = {}
    for _ in range(20_000):
        t = sample_markov_branching(rule, 3, rng)
        p = t.root_split()
        counts[p] = counts.get(p, 0) + 1
    cats = sorted(counts, key=lambda q: q.to_text())
    assert [c.to_text() for c in cats] == ["1 3|2", "1|2 3"]
    rep = chi_square_gof([counts[c] for c in cats], [0.5, 0.5])
    assert rep.p_value > 1e-3


def test_markov_branching_agrees_with_growth():
    # both constructions give the same labelled tree law at n = 4
    def run_once(rng):
        rule = lambda b: alphagamma_growth_split_oracle(0.5, 0.3, b)
        counts = {}
        for _ in range(20_000):
            t = sample_markov_branching(rule, 4, rng)
            key = frozenset(t.vertices)
            counts[key] = counts.get(key, 0) + 1
        dist = alphagamma_tree_distribution(0.5, 0.3, 4)
        cats = sorted(dist, key=sorted)
        return chi_square_gof([counts.get(c, 0) for c in cats],
                              [dist[c] for c in cats])

    passed, _ = gof_gate(run_once, 77, "mb-vs-growth")
    assert passed


def test_fragmentation_tree_matches_markov_branching():
    rng = np.random.default_rng(3)
    d = single_atom_model()
    t = sample_fragmentation_tree(d, 30, rng)
    t.validate()
    # conservative single-atom model: every split is binary into two classes
    assert all(len(cs) == 2 for cs in t.children.values())


def test_delete_leaf_examples():
    assert delete_leaf(cherry(), 2).to_text() == "1"
    rng = np.random.default_rng(4)
    assert delete_uniform_leaf(cherry(), rng).to_text() == "1"
    with pytest.raises(ArgumentError):
        delete_uniform_leaf(Tree({}, {0: 1}, 0), rng)
    # degree-2 suppression: ((1,2),3) minus leaf 3 -> (1,2)
    t = Tree({0: [1, 4], 1: [2, 3]}, {2: 1, 3: 2, 4: 3}, 0)
    assert delete_leaf(t, 3).to_text() == "(1,2)"
    # relabelling preserves order
    assert delete_leaf(t, 1).to_text() == "(1,2)"


def test_delete_leaf_sampling_consistency_alphagamma():
    def run_once(rng):
        counts = {}
        for _ in range(20_000):
            t = grow_alphagamma(0.5, 0.3, 5, rng)
            s = delete_uniform_leaf(t, rng)
            counts[s.shape_text()] = counts.get(s.shape_text(), 0) + 1
        dist4 = alphagamma_tree_distribution(0.5, 0.3, 4)
        shapes = {}
        for tset, pr in dist4.items():
            gt = _tree_from_sets(4, tset)
            shapes[gt.shape_text()] = shapes.get(gt.shape_text(), 0.0) + pr
        cats = sorted(shapes)
        return chi_square_gof([counts.get(c, 0) for c in cats],
                              [shapes[c] for c in cats])

    passed, _ = gof_gate(run_once, 55, "delete-consistency")
    assert passed


def _tree_from_sets(n, sets):
    sets = sorted(sets, key=len, reverse=True)
    children = {}
    leaf_label = {}
    ids = {}
    for i, s in enumerate(sets):
        ids[s] = i
        if len(s) == 1:
            leaf_label[i] = min(s)
    for s in sets:
        if len(s) == 1:
            continue
        strict = [a for a in sets if a < s]
        maximal = [a for a in strict if not any(a < b for b in strict)]
        children[ids[s]] = [ids[a] for a in maximal]
    return Tree(children, leaf_label, ids[sets[0]])


def test_delete_leaf_skewed_pd_off_curve_fails():
    # lambda off both consistency curves: deletion does NOT reproduce n = 3
    alpha, theta, lam = 0.5, -0.5, 0.9

    def rule(b):
        return skewed_pd_splitting_table(alpha, theta, lam, b)

    reps = 50_000
    failures = 0
    for strike in range(3):
        rng = np.random.default_rng(900 + strike)
        counts = {}
        for _ in range(reps):
            t = sample_markov_branching(rule, 4, rng)
            s = delete_uniform_leaf(t, rng)
            key = frozenset(s.vertices)
            counts[key] = counts.get(key, 0) + 1
        rule3 = rule(3)
        dist3 = {}
        for p, pr in rule3.probs.items():
            if pr <= 0:
                continue
            sets = {frozenset({1}), frozenset({2}), frozenset({3}),
                    frozenset({1, 2, 3})}
            for b in p.blocks:
                sets.add(frozenset(b))
            dist3[frozenset(sets)] = dist3.get(frozenset(sets), 0.0) + pr
        cats = sorted(dist3, key=sorted)
        rep = chi_square_gof([counts.get(c, 0) for c in cats],
                             [dist3[c] for c in cats])
        if rep.p_value < 1e-3:
            failures += 1
    assert failures == 3


def test_spine_depth_examples():
    assert spine_depth(cherry(), 1) == 2
    for lab in range(1, 5):
        assert spine_depth(star(4), lab) == 2
    single = Tree({}, {0: 1}, 0)
    assert spine_depth(single, 1) == 1
    with pytest.raises(ArgumentError):
        spine_depth(cherry(), 3)


def test_reduced_tree_examples():
    rng = np.random.default_rng(5)
    t = grow_alphagamma(0.5, 0.3, 7, rng)
    # all labels: the tree itself with unit lengths
    rt = reduced_tree(t, range(1, 8))
    assert all(l == 1.0 for l in rt.length.values())
    assert rt.shape_text() == t.shape_text()
    # single label: a path of total length spine_depth
    for lab in (1, 4, 7):
        rt1 = reduced_tree(t, [lab])
        assert abs(sum(rt1.length.values()) - spine_depth(t, lab)) < 1e-12
    # cherry, labels {1}: one edge of length 2
    rc = reduced_tree(cherry(), [1])
    assert list(rc.length.values()) == [2.0]
    with pytest.raises(ArgumentError):
        reduced_tree(t, [])


def test_tree_with_and_without_lengths():
    # one tree type: the :length suffixes and the degree-1 virtual root only
    # appear on a tree with lengths, and validate keys on the same thing
    rc = reduced_tree(cherry(), [1, 2])
    assert rc.to_text() == "((1:1.0,2:1.0):1.0)"
    assert rc.shape_text() == cherry().shape_text() == "(*,*)"
    assert rc.vertices == cherry().vertices
    assert rc.root_split() == cherry().root_split()
    assert rc.scaled(2.0).to_text() == "((1:2.0,2:2.0):2.0)"
    with pytest.raises(ArgumentError):
        cherry().scaled(2.0)
    with pytest.raises(ArgumentError):
        Tree({}, {0: 1}, 0).root_split()
    Tree({0: [1]}, {1: 1}, 0, {1: 1.0}).validate()
    for bad in (Tree({0: [1]}, {1: 1}, 0),                  # one child, unit edges
                Tree({0: [1, 2]}, {1: 1, 2: 3}, 0),         # labels not 1..n
                Tree({0: [1]}, {1: 1}, 0, {1: -1.0}),       # negative length
                Tree({0: [1], 1: [0]}, {}, 0, {0: 1.0, 1: 1.0})):  # cycle
        with pytest.raises(ArgumentError):
            bad.validate()


def test_special_branch_count_examples():
    # star, j = 2, m = 1: label 1 leaves the subtree at the root
    assert special_branch_count(star(4), 2, 1) == 1
    # chain where j = 1 stays with the smallest labels: no special points
    # until the final separation, which keeps label 1 with itself
    assert special_branch_count(chain(5), 1, 1) == 0
    # cherry, j = 1, m = 1: the root keeps label 1 in its own child
    assert special_branch_count(cherry(), 1, 1) == 0
    assert special_branch_count(cherry(), 2, 1) == 1
    with pytest.raises(ArgumentError):
        special_branch_count(cherry(), 1, 0)


def test_special_branch_count_growth():
    # E[N_n^(1)] / log n bounded across sizes for alpha-gamma (m = 2)
    import math
    means = []
    for k, n in enumerate((100, 1000, 10000)):
        rng = np.random.default_rng(600 + k)
        vals = [special_branch_count(grow_alphagamma(0.5, 0.3, n, rng), 1, 2)
                for _ in range(30)]
        means.append(np.mean(vals) / math.log(n))
    assert max(means) <= 1.3 * min(means) + 0.5


def test_grown_tree_golden_files():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        t = grow_alphagamma(0.5, 0.3, 6, rng)
        path = os.path.join(GOLDEN_DIR, f"alphagamma_n6_seed{seed}.txt")
        with open(path) as f:
            assert f.read().strip() == t.to_text()


def test_hierarchy_view_consistency():
    rng = np.random.default_rng(6)
    t = grow_alphagamma(0.4, 0.2, 9, rng)
    h = t.to_hierarchy()
    assert frozenset(range(1, 10)) in h.members
    par = t.parent
    for v, p in par.items():
        assert v < p
