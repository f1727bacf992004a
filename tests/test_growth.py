import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fragbox import (ArgumentError, DiscreteDislocation, Tree,
                     alphagamma_growth_split_oracle, delete_leaf,
                     delete_uniform_leaf, grow_alphagamma, leaf_depths,
                     reduced_ladder, reduced_tree, sample_fragmentation_tree,
                     sample_markov_branching, sample_reduced_crt, sample_split,
                     skewed_pd_splitting_table, special_branch_count,
                     spine_depth, splitting_rule, tree_height)
from fragbox import dislocation, growth
from fragbox.growth import (_alphagamma_leaf_depths, _call_schedule, _reduced,
                            _word_schedule)
from fragbox.harness import chi_square_gof, gof_gate, single_atom_model
from fragbox.paintbox import _colour_blocks
from oracles import alphagamma_tree_distribution, outcome, split_tree_reference
from strategies import capped_dislocations, dislocations

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


def _reduced_by_postorder(t, labels):
    # reference: the reduced vertices numbered in a post-order of all of t
    labels = sorted(set(labels))
    paths = [t.path_to_root(t.leaf_node(lab)) for lab in labels]
    in_union = set().union(*paths)
    retained = {v for v in in_union
                if sum(c in in_union for c in t.children.get(v, ())) >= 2}
    retained.update(path[0] for path in paths)
    segment = {}
    for path in paths:
        cuts = [i for i, v in enumerate(path) if v in retained] + [len(path)]
        for i, j in zip(cuts, cuts[1:]):
            if path[i] in segment:
                break
            segment[path[i]] = path[i:j]
    children, length, leaf_label, ids = {0: []}, {}, {}, {}
    order = [v for v in t._postorder() if v in retained][::-1]
    for vid, v in enumerate(order, 1):
        ids[v] = vid
        if v in t.leaf_label:
            leaf_label[vid] = t.leaf_label[v]
        else:
            children[vid] = []
        top = segment[v][-1]
        children[0 if top == t.root else ids[t.parent_of[top]]].append(vid)
        length[vid] = float(len(segment[v]))
    return children, leaf_label, length, {vid: segment[v] for vid, v in enumerate(order, 1)}


def _special_branch_count_by_labels_under(t, j, m):
    # reference: two sorted label sets per vertex on the path
    path = t.path_to_root(t.leaf_node(j))
    count = 0
    for below, v in zip(path, path[1:]):
        labs = t.labels_under(v)
        child_labs = set(t.labels_under(below))
        if any(x not in child_labs for x in labs[:m]):
            count += 1
    return count


def test_grow_trivial_sizes():
    rng = np.random.default_rng(0)
    t1 = grow_alphagamma(0.5, 0.3, 1, rng)
    assert t1.n == 1 and t1.to_text() == "1"
    t2 = grow_alphagamma(0.5, 0.3, 2, rng)
    assert t2.to_text() == "(1,2)"


def _grow_alphagamma_scalar(alpha, gamma, n, rng):
    # reference: the growth loop with one scalar rng.random() or
    # rng.integers(k) call per draw, as grow_alphagamma made them before its
    # draws were replayed from raw words
    children, leaf_label, parent_of = {}, {0: 1}, {}
    root, next_id, leaves, tokens = 0, 1, [0], []

    def edge_insert(v, new_label):
        nonlocal root, next_id
        p, leaf = next_id, next_id + 1
        next_id += 2
        children[p] = [v, leaf]
        leaf_label[leaf] = new_label
        if v == root:
            root = p
        else:
            g = parent_of[v]
            children[g][children[g].index(v)] = p
            parent_of[p] = g
        parent_of[v] = p
        parent_of[leaf] = p
        leaves.append(leaf)
        tokens.append(p)

    for m in range(1, n):
        w_leaf = m * (1 - alpha)
        total = w_leaf + alpha * len(tokens)
        if total <= 0 or rng.random() * total < w_leaf:
            edge_insert(leaves[rng.integers(len(leaves))], m + 1)
            continue
        B = tokens[rng.integers(len(tokens))]
        if rng.random() < gamma / ((len(children[B]) - 1) * alpha):
            edge_insert(B, m + 1)
        else:
            leaf = next_id
            next_id += 1
            leaf_label[leaf] = m + 1
            children[B].append(leaf)
            parent_of[leaf] = B
            leaves.append(leaf)
            tokens.append(B)
    return Tree(children, leaf_label, root, None, parent_of)


def _twin_generators(bitgen, seed, primed):
    pair = [np.random.Generator(bitgen(seed)) for _ in range(2)]
    if primed:      # one integers call leaves a buffered 32-bit half
        for rng in pair:
            rng.integers(7)
    return pair


def _same_state(a, b):
    # bit generator states, MT19937's key array included
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _assert_same_growth(alpha, gamma, n, bitgen, seed, primed):
    rng, ref = _twin_generators(bitgen, seed, primed)
    t = grow_alphagamma(alpha, gamma, n, rng)
    want = _grow_alphagamma_scalar(alpha, gamma, n, ref)
    assert t.to_text() == want.to_text()
    # the same node ids too, so the draws and their order are pinned down
    assert (t.children, t.leaf_label, t.root, t.parent_of) == \
        (want.children, want.leaf_label, want.root, want.parent_of)
    assert _same_state(rng.bit_generator.state, ref.bit_generator.state)
    # the next draws, the buffered half included
    assert [rng.random(), rng.integers(1000), rng.integers(1000), rng.random()] == \
        [ref.random(), ref.integers(1000), ref.integers(1000), ref.random()]


def test_grow_alphagamma_matches_scalar_draws():
    # gamma = 0, gamma = alpha, alpha = 0, and alpha = 1, where the total
    # weight is 0 at m = 1 and no uniform is drawn; alpha = gamma = 1 takes
    # 2.5 words a step and runs past the first buffer of 2n words
    for alpha, gamma in ((0.5, 0.3), (0.5, 0.0), (0.7, 0.7), (0.0, 0.0),
                         (1.0, 1.0), (1.0, 0.0), (1.0, 0.4)):
        for n in (1, 2, 3, 5, 6, 7, 100, 1000):
            for bitgen in (np.random.PCG64, np.random.MT19937):
                for seed in range(2):
                    for primed in (False, True):
                        _assert_same_growth(alpha, gamma, n, bitgen, seed, primed)


@settings(max_examples=150)
@given(st.floats(0, 1), st.floats(0, 1), st.integers(1, 1000), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.booleans())
def test_grow_alphagamma_matches_scalar_draws_property(alpha, gamma_frac, n, seed, primed,
                                                       mersenne):
    _assert_same_growth(alpha, alpha * gamma_frac, n,
                        np.random.MT19937 if mersenne else np.random.PCG64, seed, primed)


@settings(max_examples=100)
@given(st.floats(0, 1), st.integers(growth._WORD_DRAWS_MIN_N, 3000), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.sampled_from([3, 5, 64, growth._WORD_CHUNK]))
def test_word_schedule_matches_call_schedule(alpha, n, seed, primed, chunk):
    # the raw-word replay against the scalar calls, the buffered half
    # included; small chunks refill every step or two
    rng, ref = _twin_generators(np.random.PCG64, seed, primed)
    with mock.patch.object(growth, "_WORD_CHUNK", chunk):
        got = _word_schedule(alpha, n, rng.bit_generator)
    assert got == _call_schedule(alpha, n, ref)
    assert _same_state(rng.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("chunk", [3, growth._WORD_CHUNK])
@pytest.mark.parametrize("seed, n", [(495, 1559), (2972, 3592)])
def test_word_schedule_lemire_rejection(seed, n, chunk):
    # seeds found by search: the last step's bounded draw (k = 1558 at a
    # leaf, k = 3590 at a token, so a coin follows) gets a 32-bit value that
    # Lemire's method rejects, and numpy draws again
    rng, ref = _twin_generators(np.random.PCG64, seed, False)
    with mock.patch.object(growth, "_WORD_CHUNK", chunk):
        picks, coins = _word_schedule(0.5, n, rng.bit_generator)
    assert (picks, coins) == _call_schedule(0.5, n, ref)
    state = rng.bit_generator.state
    assert _same_state(state, ref.bit_generator.state)
    # one 32-bit draw more than the bounded draws (the steps m >= 2 with
    # k > 1), so the buffered half and the words used show the redraw
    bounded = sum((m if j >= 0 else m - 1) > 1 for m, j in enumerate(picks, 2))
    assert state["has_uint32"] == (bounded + 1) % 2
    twin = np.random.PCG64(seed)
    twin.advance((n - 1) + len(coins) + (bounded + 2) // 2)
    assert twin.state["state"] == state["state"]


@pytest.mark.parametrize("seed, n, chunk, redraws", [
    # seeds found by search, each with one step whose bounded draw Lemire
    # may reject: it rejects once at step 1558 (k = 1558, a leaf) and at
    # step 3591 (k = 3590, a token, so a coin follows), inside a round
    (495, 3000, growth._WORD_CHUNK, 1), (2972, 3600, growth._WORD_CHUNK, 1),
    # ... and at the first step of a round, 1556 = 4 * 389 and
    # 3589 = 37 * 97 steps after step 2
    (495, 3000, 3 * 389, 1), (2972, 3600, 3 * 97, 1),
    # it accepts at step 953 (k = 953, a leaf) and step 2922 (k = 2921, a token)
    (774, 3000, growth._WORD_CHUNK, 0), (1438, 3000, growth._WORD_CHUNK, 0)])
def test_word_schedule_lemire_mid_tree(seed, n, chunk, redraws):
    # the replay hands such a step to the generator's own calls and starts
    # again after it
    rng, ref = _twin_generators(np.random.PCG64, seed, False)
    with mock.patch.object(growth, "_WORD_CHUNK", chunk):
        picks, coins = _word_schedule(0.5, n, rng.bit_generator)
    assert (picks, coins) == _call_schedule(0.5, n, ref)
    state = rng.bit_generator.state
    assert _same_state(state, ref.bit_generator.state)
    bounded = sum((m if j >= 0 else m - 1) > 1 for m, j in enumerate(picks, 2))
    assert state["has_uint32"] == (bounded + redraws) % 2
    twin = np.random.PCG64(seed)
    twin.advance((n - 1) + len(coins) + (bounded + redraws + 1) // 2)
    assert twin.state["state"] == state["state"]


@settings(max_examples=60)
@given(st.floats(0, 1), st.floats(0, 1), st.integers(1, 600), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.booleans())
def test_leaf_depths_off_parent_list_match_tree(alpha, gamma_frac, n, seed, primed, mersenne):
    # pointer jumping on the core's parent list against the Tree's depths,
    # label by label, from twin generators that end in the same state
    rng, ref = _twin_generators(np.random.MT19937 if mersenne else np.random.PCG64,
                                seed, primed)
    depths = _alphagamma_leaf_depths(alpha, alpha * gamma_frac, n, rng)
    t = grow_alphagamma(alpha, alpha * gamma_frac, n, ref)
    want = leaf_depths(t)
    assert depths.tolist() == [want[lab] for lab in range(1, n + 1)]
    assert _same_state(rng.bit_generator.state, ref.bit_generator.state)


def test_caterpillar_at_alpha_gamma_1():
    # alpha = gamma = 1: leaf edges have weight 0 and every vertex weight is
    # 0, so each step hangs a new vertex above a uniform internal vertex,
    # with the new leaf as its other child: a caterpillar of height n
    n = 3000
    rng, ref = _twin_generators(np.random.PCG64, 3, False)
    t = grow_alphagamma(1.0, 1.0, n, rng)
    assert tree_height(t) == n
    assert all(len(cs) == 2 for cs in t.children.values())
    depths = _alphagamma_leaf_depths(1.0, 1.0, n, ref)
    assert depths.max() == n
    assert sorted(depths.tolist()) == list(range(2, n + 1)) + [n]


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


@settings(max_examples=60)
@given(dislocations(), st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_fragmentation_tree_matches_per_vertex_builder(d, n, seed):
    # cached split laws on the block's own labels against a validated
    # sample_split partition at every vertex, then relabelled: the same node
    # ids, child order and leaf labels, and the generator left in one state
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert outcome(lambda: sample_fragmentation_tree(d, n, rng)) == \
        outcome(lambda: split_tree_reference(d, range(1, n + 1), ref))
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(capped_dislocations(), st.integers(200, 500), st.integers(0, 2 ** 32 - 1))
def test_fragmentation_tree_many_block_sizes_matches_per_vertex_builder(d, n, seed):
    # one split law per model serves every block size: blocks of 2 and 3
    # labels fall below the law's threshold 4, the rest on or above it, and
    # the tree meets more block sizes than the 32 models the cache holds
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    want = split_tree_reference(d, range(1, n + 1), ref)
    assume(len({len(want.labels_under(v)) for v in want.children}) > 32)
    assert sample_fragmentation_tree(d, n, rng) == want
    assert rng.bit_generator.state == ref.bit_generator.state


def test_split_check_is_live(monkeypatch):
    # a split that loses a label must stop the tree and sample_split alike
    def drop_last_label(colours, m, labels=None):
        blocks = _colour_blocks(colours, m, labels)
        last = blocks[-1][:-1]
        return blocks[:-1] + ((last,) if last else ())

    d = single_atom_model()
    monkeypatch.setattr(dislocation, "_colour_blocks", drop_last_label)
    with pytest.raises(ArgumentError):
        sample_fragmentation_tree(d, 30, np.random.default_rng(5))
    with pytest.raises(ArgumentError):
        sample_split(d, 5, np.random.default_rng(5))


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


def _table_draw_per_draw_sort(table, rng):
    # reference: the table sorted and summed again at every draw
    items = sorted(table.probs.items(), key=lambda kv: kv[0].to_text())
    ps = np.array([v for _, v in items])
    i = np.searchsorted(np.cumsum(ps), rng.random() * ps.sum())
    return items[min(i, len(items) - 1)][0]


def test_table_draw_matches_per_draw_sort():
    tables = [skewed_pd_splitting_table(0.5, -0.5, 0.9, b) for b in (2, 3, 4)]
    tables += [splitting_rule(single_atom_model(), b) for b in (3, 5)]
    tables += [alphagamma_growth_split_oracle(0.5, 0.3, b) for b in (3, 4, 5)]
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for table in tables:
            draw = table.draw
            assert [draw(rng) for _ in range(50)] == \
                [_table_draw_per_draw_sort(table, ref) for _ in range(50)]
    # one rule_source call per block size in a tree, the same trees
    d = single_atom_model()
    for source, n in ((lambda b: skewed_pd_splitting_table(0.5, -0.5, 0.9, b), 4),
                      (lambda b: splitting_rule(d, b), 7)):
        for seed in range(20):
            asked = []

            def rule(b):
                asked.append(b)
                return source(b)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            t = sample_markov_branching(rule, n, rng)
            assert sorted(asked) == sorted(set(asked))
            assert t.to_text() == _build_by_per_draw_sort(source, n, ref)
            assert rng.random() == ref.random()


def _build_by_per_draw_sort(rule, n, rng):
    # reference tree text: recursive splits of the sorted labels, the root
    # split drawn before the subtrees, left to right
    def build(labs):
        if len(labs) == 1:
            return str(labs[0]), labs[0]
        pi = _table_draw_per_draw_sort(rule(len(labs)), rng)
        subs = sorted((build([labs[i - 1] for i in b]) for b in pi.blocks),
                      key=lambda sub: sub[1])
        return "(" + ",".join(text for text, _ in subs) + ")", subs[0][1]
    return build(list(range(1, n + 1)))[0]


def test_tree_height_is_greatest_leaf_depth():
    rng = np.random.default_rng(8)
    d = single_atom_model()
    trees = [Tree({}, {0: 1}, 0), cherry(), star(5), chain(6)]
    for n in (1, 2, 7, 300):
        trees.append(grow_alphagamma(0.5, 0.3, n, rng))
        trees.append(grow_alphagamma(1.0, 0.0, n, rng))
        trees.append(sample_fragmentation_tree(d, n, rng))
    trees += [reduced_tree(t, range(1, min(4, t.n) + 1)) for t in trees[4:]]
    trees += [sample_reduced_crt(d, k, 0.5, rng) for k in (1, 2, 5)]
    for t in trees:
        assert tree_height(t) == max(leaf_depths(t).values())


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


def _tree_from(source, n, rng, draw):
    # 0: a grown tree; 1, 2: fragmentation trees of the single-atom and of a
    # three-atom model, their node ids in pre-order; 3: a grown tree with its
    # node ids permuted at random
    if source in (0, 3):
        alpha = draw(st.floats(0, 1))
        t = grow_alphagamma(alpha, alpha * draw(st.floats(0, 1)), n, rng)
        if source == 0:
            return t
        new_id = dict(zip(t.leaf_label.keys() | t.children.keys(),
                          rng.permutation(2 * n).tolist()))
        return Tree({new_id[v]: [new_id[c] for c in cs] for v, cs in t.children.items()},
                    {new_id[v]: lab for v, lab in t.leaf_label.items()}, new_id[t.root])
    d = single_atom_model() if source == 1 else DiscreteDislocation.from_level_dict(
        {1: [((0.6, 0.4), 1.0), ((0.5, 0.3, 0.2), 0.4)], 2: [((0.7, 0.3), 0.8)]})
    return sample_fragmentation_tree(d, n, rng)


@settings(max_examples=100)
@given(st.integers(0, 3), st.integers(1, 120), st.data())
def test_reduced_tree_on_any_label_set(source, n, data):
    # reduced_tree(t, S) has the traces A & S of the vertices A of t as its
    # vertices, and the lengths on a leaf's reduced path add up to its spine
    # depth, which two independent walks of t agree on
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    t = _tree_from(source, n, rng, data.draw)
    labels = data.draw(st.sets(st.integers(1, n), min_size=1))
    rt = reduced_tree(t, labels)
    assert rt.vertices == {a & labels for a in t.vertices if a & labels}
    # node ids as a post-order of all of t numbers them
    rt, segments = _reduced(t, labels)
    assert (rt.children, rt.leaf_label, rt.length, segments) == _reduced_by_postorder(t, labels)
    depths = leaf_depths(t)
    for leaf, lab in rt.leaf_label.items():
        reduced_path = rt.path_to_root(leaf)[:-1]    # the virtual root has no edge
        assert sum(rt.length[u] for u in reduced_path) == spine_depth(t, lab) == depths[lab]


@settings(max_examples=100)
@given(st.floats(0, 1), st.floats(0, 1), st.integers(1, 200), st.data())
def test_reduced_keeps_the_vertices_with_two_children_in_the_union(alpha, gamma_frac,
                                                                  n, data):
    # reference: the vertices of the union of the root paths with at least
    # two children in it, and the leaves
    t = grow_alphagamma(alpha, alpha * gamma_frac, n,
                        np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))))
    labels = data.draw(st.sets(st.integers(1, n), min_size=1))
    paths = [t.path_to_root(t.leaf_node(lab)) for lab in labels]
    in_union = set().union(*paths)
    want = {v for v in in_union if sum(c in in_union for c in t.children.get(v, ())) >= 2}
    want.update(path[0] for path in paths)
    _, segments = _reduced(t, labels)
    assert {seg[0] for seg in segments.values()} == want


@settings(max_examples=150)
@given(st.integers(0, 3), st.integers(1, 150), st.integers(1, 6), st.data())
def test_reduced_ladder_is_the_delete_leaf_chain(source, big_n, k, data):
    # T_n is T_N after deleting leaves N, ..., n+1; the ladder reads every
    # reduced tree off T_N alone, whatever its node ids
    k = min(k, big_n)
    ns = data.draw(st.lists(st.integers(k, big_n), min_size=1, max_size=6))
    t = _tree_from(source, big_n,
                   np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), data.draw)
    want, small = {}, t
    for lab in range(big_n, k - 1, -1):
        if lab in ns:
            want[lab] = reduced_tree(small, range(1, k + 1)).to_text()
        if lab > k:
            small = delete_leaf(small, lab)
    assert [rt.to_text() for rt in reduced_ladder(t, k, ns)] == [want[n] for n in ns]
    assert reduced_ladder(t, k, []) == []
    for bad_k, bad_ns in ((k, [big_n + 1]), (k + 1, [k]), (0, [k]), (big_n + 1, [])):
        with pytest.raises(ArgumentError):
            reduced_ladder(t, bad_k, bad_ns)
    # a tree with edge lengths has no unit edges to count
    with pytest.raises(ArgumentError):
        reduced_ladder(reduced_tree(t, range(1, k + 1)), 1, [1])


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
                Tree({0: [1], 1: [0]}, {}, 0, {0: 1.0, 1: 1.0}),   # cycle
                # a unit-edge cycle whose vertices have 2 children each
                Tree({0: [1, 2], 1: [0, 3]}, {2: 1, 3: 2}, 0),
                Tree({0: [1, 2], 3: [1, 2]}, {1: 1, 2: 2}, 0),      # 3 unreachable
                Tree({0: [1, 2]}, {0: 1, 1: 2, 2: 3}, 0),   # labelled internal vertex
                Tree({0: [1, 2, 3]}, {1: 1, 2: 2}, 0),      # unlabelled leaf
                Tree({0: [1, 2], 1: [3, 4], 2: [3, 4]}, {3: 1, 4: 2}, 0)):  # shared children
        with pytest.raises(ArgumentError):
            bad.validate()


def test_validate_lengths_duplicate_label():
    # a reduced-tree shape whose two leaves are both labelled 1
    t = Tree({0: [1], 1: [2, 3]}, {2: 1, 3: 1}, 0, {1: 1.0, 2: 1.0, 3: 1.0})
    with pytest.raises(ArgumentError, match="distinct"):
        t.validate()


def test_validate_lengths_vertex_without_length():
    # vertex 1 is reached but has no edge length, so to_text could not print it
    with pytest.raises(ArgumentError, match="edge length"):
        Tree({0: [1]}, {1: 1}, 0, {}).validate()


def test_validate_lengths_key_outside_tree():
    # vertex 7 is in no child list and carries no label, yet has a length
    with pytest.raises(ArgumentError, match="edge length"):
        Tree({0: [1]}, {1: 1}, 0, {1: 1.0, 7: 1.0}).validate()


def test_validate_lengths_labelled_internal_vertex():
    t = Tree({0: [1], 1: [2, 3]}, {1: 3, 2: 1, 3: 2}, 0, {1: 1.0, 2: 1.0, 3: 1.0})
    with pytest.raises(ArgumentError, match="not both"):
        t.validate()


def test_deep_trees_build():
    # splits that nearly always peel one leaf give trees over a thousand
    # levels deep, beyond the interpreter's recursion limit
    d = DiscreteDislocation.from_level_dict({1: [((0.5, 0.5), 1e-6)]}, c=(1.0,))
    t = sample_fragmentation_tree(d, 2000, np.random.default_rng(0))
    t.validate()
    assert t.n == 2000 and tree_height(t) > 1000
    # the reduced-CRT sampler needs a conservative model: the second paint
    # of a split rarely shares the small colour with any other
    d = DiscreteDislocation.from_level_dict({1: [((0.999, 0.001), 1.0)]}, theorem2_mode=True)
    rt = sample_reduced_crt(d, 2000, 0.5, np.random.default_rng(0), lengths=False)
    rt.validate()
    assert rt.n == 2000 and tree_height(rt) > 1000


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


@settings(max_examples=100)
@given(st.integers(0, 2), st.integers(1, 120), st.data())
def test_special_branch_count_matches_labels_under(source, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if source == 0:
        alpha = data.draw(st.floats(0, 1))
        t = grow_alphagamma(alpha, alpha * data.draw(st.floats(0, 1)), n, rng)
    elif source == 1:
        t = sample_fragmentation_tree(single_atom_model(), n, rng)
    else:
        t = star(n) if n > 1 else Tree({}, {0: 1}, 0)
    j = data.draw(st.integers(1, n))
    for m in range(1, 5):
        assert special_branch_count(t, j, m) == _special_branch_count_by_labels_under(t, j, m)


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
