import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fragbox import (ArgumentError, DiscreteDislocation, ModelError,
                     Partition, ResourceBudgetError, SplittingRuleTable,
                     all_partitions, alphagamma_eppf,
                     alphagamma_growth_split_oracle, consistency_residual,
                     eppf_recursion_residual, kappa_cylinder,
                     nu_mixture_weight, rate, rate_closed_form, sample_split,
                     sampling_consistency_residual, skewed_pd_ranked_split,
                     skewed_pd_splitting_table, splitting_rule, table_to_eppf,
                     FiniteMeasureOnPartitions, classify_exchangeability)
from fragbox import dislocation, partitions
from fragbox.dislocation import (_cylinder_weights, _delta_atoms, _key_counts, _keyed_eppf,
                                 _keyed_partitions, _level_weights, _split_components)
from fragbox.harness import chi_square_gof, single_atom_model
from fragbox.paintbox import kingman_cylinder_prob
from fragbox.partitions import PARTITIONS_KEPT, _maximal_strict_subsets
from oracles import (alphagamma_tree_distribution, outcome, rate_reference,
                     sample_split_reference, split_components_reference)
from strategies import capped_dislocations, dislocations


def P(text):
    return Partition.from_text(text)


def random_model(rng, theorem2=False):
    m_cap = int(rng.integers(1, 4))
    levels = {}
    for j in range(1, m_cap + 1):
        atoms = []
        for _ in range(int(rng.integers(0, 3))):
            m = int(rng.integers(2, 4)) if theorem2 else int(rng.integers(1, 4))
            raw = rng.random(m) + 0.05
            if theorem2:
                raw = raw / raw.sum()
                raw = np.minimum(raw, 1.0)
            else:
                raw = raw / (raw.sum() + rng.random())
            atoms.append((tuple(np.sort(raw)[::-1]), float(rng.random() + 0.1)))
        levels[j] = atoms
    if not any(levels.values()):
        levels[1] = [((0.5, 0.5), 1.0)]
    c = () if theorem2 else tuple(rng.random(int(rng.integers(0, 3))) * 0.3)
    k = () if theorem2 else tuple(rng.random(int(rng.integers(0, 3))) * 0.3)
    return DiscreteDislocation.from_level_dict(levels, c, k, theorem2)


def test_construction_exclusions():
    with pytest.raises(ArgumentError):
        DiscreteDislocation.from_level_dict({1: [((1.0,), 1.0)]})
    with pytest.raises(ArgumentError):
        DiscreteDislocation.from_level_dict({1: [((0.5,), 1.0)]}, theorem2_mode=True)
    with pytest.raises(ArgumentError):
        DiscreteDislocation.from_level_dict({1: [((0.5, 0.5), 1.0)]}, c=(0.1,),
                                            theorem2_mode=True)
    with pytest.raises(ArgumentError):
        DiscreteDislocation.from_level_dict({1: [((0.5, 0.5), -1.0)]})
    # a negative delta atom is not a measure; the rate routes would disagree
    with pytest.raises(ArgumentError):
        DiscreteDislocation.from_level_dict({1: [((0.5, 0.5), 1.0)]}, c=(-0.3,))
    with pytest.raises(ArgumentError):
        DiscreteDislocation.from_level_dict({1: [((0.5, 0.5), 1.0)]}, k=(-0.1,))


def test_nu_mixture_weight_examples():
    d = single_atom_model()  # nu_1 only
    assert abs(nu_mixture_weight(d, (0.5, 0.5)) - 0.5) < 1e-12
    # same atom at m_cap = 1: geometric tail sums to Sum s_i = 1
    d_all = DiscreteDislocation.from_level_dict({1: [((0.5, 0.5), 1.0)]},
                                                theorem2_mode=True)
    assert abs(nu_mixture_weight(d_all, (0.5, 0.5)) - 1.0) < 1e-12
    with pytest.raises(ArgumentError):
        nu_mixture_weight(d, (0.3, 0.3))


def test_kappa_cylinder_examples():
    d = single_atom_model()
    assert abs(kappa_cylinder(d, P("1|2")) - 0.5) < 1e-12
    assert kappa_cylinder(d, P("1 2|3")) == 0.0
    assert abs(kappa_cylinder(d, P("1|2 3")) - 0.25) < 1e-12
    with pytest.raises(ArgumentError):
        kappa_cylinder(d, P("1 2 3"))


def test_rate_examples_and_monotonicity():
    d = single_atom_model()
    assert abs(rate(d, 2) - 0.5) < 1e-12
    assert abs(rate(d, 3) - 0.5) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = random_model(rng)
        last = 0.0
        for n in range(2, 7):
            r = rate(m, n)
            assert r >= last - 1e-12
            last = r


def test_rate_dual_route():
    # per-partition sum against the per-component closed form
    rng = np.random.default_rng(12)
    for _ in range(15):
        m = random_model(rng)
        for n in range(2, 7):
            assert abs(rate(m, n) - rate_closed_form(m, n)) < 1e-10


def test_splitting_rule_examples():
    d = single_atom_model()
    t2 = splitting_rule(d, 2)
    assert abs(t2.probs[P("1|2")] - 1.0) < 1e-12
    t3 = splitting_rule(d, 3)
    assert abs(t3.probs[P("1|2 3")] - 0.5) < 1e-12
    assert abs(t3.probs[P("1 3|2")] - 0.5) < 1e-12
    assert t3.probs[P("1 2|3")] == 0.0
    empty = DiscreteDislocation.from_level_dict({2: [((0.5, 0.5), 1.0)]})
    with pytest.raises(ModelError):
        splitting_rule(empty, 2)  # level-2 atoms cannot split [2]


def test_splitting_rule_restricted_flag():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = random_model(rng)
        for n in range(2, 6):
            try:
                t = splitting_rule(m, n)
            except ModelError:
                continue
            w = {q: 0.0 for q in all_partitions(n)}
            w.update(t.probs)
            flags = classify_exchangeability(FiniteMeasureOnPartitions(n, w))
            assert flags["restricted_exchangeable"]


def test_splitting_rule_csv_roundtrip():
    t = splitting_rule(single_atom_model(), 4)
    back = SplittingRuleTable.from_csv(t.to_csv())
    assert back.n == 4
    for p, v in t.probs.items():
        assert back.probs[p] == v


def test_consistency_residual_models():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(20):
        m = random_model(rng)
        for n in range(2, 6):
            try:
                res = consistency_residual(m, n)
            except ModelError:
                continue
            assert res <= 1e-10
            checked += 1
    assert checked >= 40


def test_normalization_identity():
    # lambda_{n+1} (1 - p_{n+1}(n stays together, n+1 alone)) = lambda_n
    rng = np.random.default_rng(15)
    for _ in range(10):
        m = random_model(rng)
        for n in range(2, 6):
            try:
                tb = splitting_rule(m, n + 1)
            except ModelError:
                continue
            stick = table_to_eppf(tb)[(n, (n, 1))] if (n, (n, 1)) in table_to_eppf(tb) else 0.0
            assert abs(rate(m, n + 1) * (1 - stick) - rate(m, n)) < 1e-10


def test_recursion_residual_needs_tables_of_n_and_n_plus_1():
    d = single_atom_model()
    t3, t4 = splitting_rule(d, 3), splitting_rule(d, 4)
    for small, big in ((t3, splitting_rule(d, 6)), (t4, t4), (t4, t3)):
        with pytest.raises(ArgumentError):
            eppf_recursion_residual(small, big)
    assert eppf_recursion_residual(t3, t4) <= 1e-12


def test_splitting_rule_csv_header_only():
    with pytest.raises(ArgumentError):
        SplittingRuleTable.from_csv("partition,probability\n")


def bell(n):
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


@pytest.mark.parametrize("n", range(2, 10))
def test_key_counts_match_enumeration(n):
    want = Counter(p.cylinder_key for p in all_partitions(n) if not p.is_trivial())
    assert _key_counts(n) == want


def test_key_counts_sum_to_bell():
    assert [bell(n) for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]
    for n in range(2, 13):
        assert sum(_key_counts(n).values()) == bell(n) - 1


@settings(max_examples=40, deadline=None)
@given(dislocations(), st.integers(2, 8))
def test_keyed_eppf_and_rate_match_tables(d, n):
    # the keyed EPPF and rate against the per-partition table and sum
    lam = rate_reference(d, n)
    assert abs(rate(d, n) - lam) <= 1e-12
    if lam <= 0:
        with pytest.raises(ModelError):
            _keyed_eppf(d, n)
        return
    want = table_to_eppf(splitting_rule(d, n))
    got = _keyed_eppf(d, n)
    assert set(got) == set(want)
    assert max(abs(got[key] - want[key]) for key in want) <= 1e-12


def test_keyed_routes_enumerate_no_partition(monkeypatch):
    def refuse(n):
        raise AssertionError("all_partitions called")

    monkeypatch.setattr(dislocation, "all_partitions", refuse)
    monkeypatch.setattr(partitions, "all_partitions", refuse)
    d = DiscreteDislocation.from_level_dict(
        {1: [((0.5, 0.3), 1.0)], 2: [((0.6, 0.2), 0.5)], 3: [((0.5, 0.4), 0.8)]},
        c=(0.1, 0.05), k=(0.0, 0.1))
    assert abs(rate(d, 12) - rate_closed_form(d, 12)) <= 1e-10
    assert consistency_residual(d, 11) <= 1e-10
    with pytest.raises(ArgumentError):
        consistency_residual(d, 12)


def test_corrupted_table_detected():
    d = single_atom_model()
    t3 = splitting_rule(d, 3)
    t4 = splitting_rule(d, 4)
    bad = dict(t4.probs)
    some = next(p for p, v in bad.items() if v > 0)
    bad[some] += 0.01
    t4bad = SplittingRuleTable(4, bad)
    res = eppf_recursion_residual(t3, t4bad, strict=False)
    assert res >= 1e-3


def test_sample_split_matches_table():
    rng = np.random.default_rng(16)
    d = DiscreteDislocation.from_level_dict(
        {1: [((0.5, 0.3), 1.0)], 2: [((0.6, 0.4), 0.5)]}, c=(0.2,), k=(0.0, 0.3))
    n, reps = 4, 40_000
    table = splitting_rule(d, n)
    counts = {}
    for _ in range(reps):
        p = sample_split(d, n, rng)
        counts[p] = counts.get(p, 0) + 1
    cats = [p for p in table.probs]
    rep = chi_square_gof([counts.get(c, 0) for c in cats],
                         [table.probs[c] for c in cats])
    assert rep.p_value > 1e-3


@settings(max_examples=80)
@given(dislocations(), st.integers(2, 64), st.integers(0, 2 ** 32 - 1))
def test_sample_split_matches_per_call_components(d, b, seed):
    # the cached split law against the split components rebuilt per call:
    # the same partition, drawn with the same draws
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert outcome(lambda: sample_split(d, b, rng)) == \
            outcome(lambda: sample_split_reference(d, b, ref))
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(capped_dislocations(), st.one_of(st.integers(3, 12), st.integers(3, 10 ** 4)),
       st.integers(0, 2 ** 32 - 1))
def test_sample_split_across_threshold_matches_per_call_components(d, b, seed):
    # the law's threshold is 4 on these models, so b = 3 is a kept frame
    # and every larger b adds its own tail masses to the per-model parts
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert sample_split(d, b, rng) == sample_split_reference(d, b, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=100)
@given(capped_dislocations() | dislocations(),
       st.one_of(st.integers(2, 12), st.integers(2, 10 ** 6)))
def test_split_components_match_per_size_builder(d, b):
    # the per-model law gives the components that a build from the model
    # for this one block size gives, and rate_closed_form is their total
    comps = _split_components(d, b)
    assert comps == split_components_reference(d, b)
    assert rate_closed_form(d, b) == sum((mass for mass, _ in comps), 0.0)


def test_sample_split_large_block():
    # no table can exist at this size; the direct sampler must still work
    rng = np.random.default_rng(17)
    d = single_atom_model()
    p = sample_split(d, 64, rng)
    assert p.n == 64 and not p.is_trivial()
    assert p.cylinder_class() == 1


# (atom part counts per level, len(c), len(k)): the benchmark's model shapes
SPLIT_SHAPES = (
    (((2,),), 0, 0),
    (((2,), (3,)), 1, 0),
    (((1,), (2, 3), (2,)), 2, 1),
    (((3, 2), ()), 0, 2),
    (((2,), (), (3,)), 1, 1),
    (((3, 1),), 2, 2),
)


def shaped_model(rng, shape):
    levels_spec, nc, nk = shape
    levels = {}
    for j, parts in enumerate(levels_spec, 1):
        levels[j] = []
        for m in parts:
            raw = rng.random(m) + 0.05
            raw = raw / (raw.sum() + rng.random())
            levels[j].append((tuple(np.sort(raw)[::-1]), float(rng.random() + 0.1)))
    return DiscreteDislocation.from_level_dict(
        levels, tuple(rng.random(nc) * 0.3), tuple(rng.random(nk) * 0.3))


def per_class_rate(d, n):
    """lambda_n class by class, j = 1..n-1: the loop the tail closed form replaces."""
    total = d.c_at(1)
    for j in range(1, n):
        for s, w in d.atoms_at(j):
            if j == 1:
                total += w * (1 - sum(si ** 2 for si in s.atoms))
            else:
                total += w * sum(si ** j * (1 - si) for si in s.atoms)
        total += d.c_at(j) + d.k_at(j)
    return total


def test_split_components_independent_of_block_size():
    rng = np.random.default_rng(18)
    for shape in SPLIT_SHAPES:
        for _ in range(3):
            d = shaped_model(rng, shape)
            assert (len(_split_components(d, d.m_cap + 2))
                    == len(_split_components(d, 10 ** 6)))
            oracle = per_class_rate(d, 200)
            assert abs(rate_closed_form(d, 200) - oracle) <= 1e-12 * oracle


def sampled_split_p_value(d, n, reps, seed):
    rng = np.random.default_rng(seed)
    table = splitting_rule(d, n)
    counts = {}
    for _ in range(reps):
        p = sample_split(d, n, rng)
        counts[p] = counts.get(p, 0) + 1
    assert set(counts) <= set(table.probs)
    cats = list(table.probs)
    return chi_square_gof([counts.get(c, 0) for c in cats],
                          [table.probs[c] for c in cats]).p_value


def test_sample_split_tail_law_cap_one_with_dust():
    # m_cap = 1: class 1 has its own component, the tail serves j = 2..4
    d = DiscreteDislocation.from_level_dict(
        {1: [((0.5, 0.3), 1.0), ((0.6,), 0.4)]}, c=(0.1,), k=(0.05,))
    assert len(_split_components(d, 5)) == 7
    assert sampled_split_p_value(d, 5, 40_000, 19) > 1e-3


def test_sample_split_tail_law_cap_three():
    # m_cap = 3 at n = 6: levels 1 and 2 explicit, the tail serves j = 3..5
    d = DiscreteDislocation.from_level_dict(
        {1: [((0.5, 0.3), 1.0)], 2: [((0.6, 0.2), 0.5)],
         3: [((0.5, 0.4), 0.8), ((0.7,), 0.6)]}, c=(0.1, 0.05), k=(0.0, 0.1))
    assert sampled_split_p_value(d, 6, 40_000, 20) > 1e-3


@settings(max_examples=60)
@given(dislocations(), st.integers(2, 7))
def test_rate_closed_form_matches_enumeration(d, n):
    assert abs(rate(d, n) - rate_closed_form(d, n)) < 1e-10


@settings(max_examples=60)
@given(dislocations(), st.integers(2, 6))
def test_kappa_cylinder_matches_table(d, n):
    # the single-cylinder query against the table route; at n = 2 the
    # c_1, c_2 and k_1 atoms all sit on {1|2}
    lam = rate(d, n)
    probs = splitting_rule(d, n).probs if lam > 0 else {}
    for p in all_partitions(n):
        if not p.is_trivial():
            assert abs(kappa_cylinder(d, p) - lam * probs.get(p, 0.0)) < 1e-12


@settings(max_examples=60)
@given(dislocations(), st.integers(2, 6))
def test_keyed_cylinder_weights_match_per_partition(d, n):
    # one level weight per (class, sizes) key gives every partition the
    # value its own cylinder evaluation gives, in all_partitions order
    want = {p: sum(w * kingman_cylinder_prob(s, p) for s, w in d.atoms_at(p.cylinder_class()))
            for p in all_partitions(n) if not p.is_trivial()}
    for mass, blocks, j in _delta_atoms(d, n):
        want[Partition.from_blocks(n, blocks(j, tuple(range(1, n + 1))))] += mass
    got = _cylinder_weights(d, n, _level_weights(d, n), 1.0)
    assert list(got) == list(want)
    assert got == want


def test_keyed_partitions_keep_small_n_only():
    # as all_partitions: n <= PARTITIONS_KEPT is listed once per process,
    # n = 10 afresh, and nothing holds its partitions once the caller lets go
    for n in range(2, PARTITIONS_KEPT + 1):
        assert _keyed_partitions(n) is _keyed_partitions(n)
    assert dislocation._kept_keyed_partitions.cache_info().maxsize == PARTITIONS_KEPT
    parts, keys = _keyed_partitions(PARTITIONS_KEPT + 1)
    assert len(parts) == len(keys) == 115975 - 1
    assert _keyed_partitions(PARTITIONS_KEPT + 1)[0] is not parts
    kept = weakref.ref(parts[-1])
    del parts, keys
    gc.collect()
    assert kept() is None


# ---------------------------------------------------------------------------
# alpha-gamma
# ---------------------------------------------------------------------------

def test_alphagamma_oracle_n3():
    for alpha, gamma in ((0.5, 0.25), (0.8, 0.8), (0.3, 0.0)):
        t = alphagamma_growth_split_oracle(alpha, gamma, 3)
        assert abs(t.probs[P("1 3|2")] - (1 - alpha) / (2 - alpha)) < 1e-12
        assert abs(t.probs[P("1|2 3")] - (1 - alpha) / (2 - alpha)) < 1e-12
        assert abs(t.probs[P("1 2|3")] - gamma / (2 - alpha)) < 1e-12
        assert abs(t.probs[P("1|2|3")] - (alpha - gamma) / (2 - alpha)) < 1e-12
    t = alphagamma_growth_split_oracle(0.5, 0.25, 3)
    got = [t.probs[P("1 3|2")], t.probs[P("1|2 3")],
           t.probs[P("1 2|3")], t.probs[P("1|2|3")]]
    assert np.allclose(got, [1 / 3, 1 / 3, 1 / 6, 1 / 6])


def test_alphagamma_oracle_errors():
    with pytest.raises(ResourceBudgetError):
        alphagamma_growth_split_oracle(0.5, 0.3, 11)
    with pytest.raises(ArgumentError):
        alphagamma_growth_split_oracle(0.3, 0.5, 3)


def test_alphagamma_oracle_restricted():
    t = alphagamma_growth_split_oracle(0.5, 0.3, 4)
    w = {q: 0.0 for q in all_partitions(4)}
    w.update(t.probs)
    flags = classify_exchangeability(FiniteMeasureOnPartitions(4, w))
    assert flags["restricted_exchangeable"]


def _history_root_splits(alpha, gamma, n):
    # root-split marginal of the exhaustive tree-history law
    dist = alphagamma_tree_distribution(alpha, gamma, n)
    root = frozenset(range(1, n + 1))
    out = {}
    for t, pr in dist.items():
        p = Partition.from_blocks(n, _maximal_strict_subsets(t, root))
        out[p] = out.get(p, 0.0) + pr
    return out


# alpha from {0, 1} or (0, 1); gamma = t * alpha with t from {0, 1} or (0, 1),
# so gamma = 0 and gamma = alpha come up often
_UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(_UNIT, _UNIT, st.integers(2, 7))
@example(0.0, 0.0, 7)
@example(1.0, 0.6, 7)
@example(0.5, 0.0, 7)
@example(0.5, 1.0, 7)
def test_alphagamma_chain_matches_histories(alpha, t, n):
    gamma = t * alpha
    table = alphagamma_growth_split_oracle(alpha, gamma, n)
    hist = _history_root_splits(alpha, gamma, n)
    # one history law at n = 7 holds about 66 MB; keep none across examples
    alphagamma_tree_distribution.cache_clear()
    assert set(hist) <= set(table.probs)
    for p, pr in table.probs.items():
        assert abs(pr - hist.get(p, 0.0)) <= 1e-12


def test_alphagamma_chain_eppf_recursion_beyond_histories():
    for alpha, gamma in ((0.5, 0.3), (0.8, 0.8)):
        tables = [alphagamma_growth_split_oracle(alpha, gamma, n) for n in range(2, 11)]
        for small, big in zip(tables, tables[1:]):
            assert eppf_recursion_residual(small, big) <= 1e-12


def test_alphagamma_oracle_restricted_n8():
    t = alphagamma_growth_split_oracle(0.5, 0.3, 8)
    w = {q: 0.0 for q in all_partitions(8)}
    w.update(t.probs)
    flags = classify_exchangeability(FiniteMeasureOnPartitions(8, w))
    assert flags["restricted_exchangeable"]
    assert not flags["exchangeable"]


def test_cached_tables_are_read_only():
    for t in (alphagamma_growth_split_oracle(0.5, 0.3, 4),
              skewed_pd_splitting_table(0.5, -0.5, 0.7, 4)):
        with pytest.raises(TypeError):
            t.probs[P("1|2 3 4")] = 1.0


def test_alphagamma_sampling_consistency_of_histories():
    # deleting leaf n from the n-leaf tree law reproduces the (n-1)-leaf law
    for n in (4, 5, 6):
        dist_n = alphagamma_tree_distribution(0.5, 0.3, n)
        dist_m = alphagamma_tree_distribution(0.5, 0.3, n - 1)
        agg = {}
        for tset, pr in dist_n.items():
            reduced = {frozenset(x for x in b if x != n) for b in tset}
            reduced = frozenset(b for b in reduced if b)
            agg[reduced] = agg.get(reduced, 0.0) + pr
        assert set(agg) == set(dist_m)
        for key in agg:
            assert abs(agg[key] - dist_m[key]) <= 1e-10


def test_alphagamma_eppf_n2():
    for alpha, gamma in ((0.5, 0.3), (0.7, 0.2)):
        v = alphagamma_eppf(alpha, gamma, (1, 1), 1)
        assert abs(v - (1 - alpha) / (2 - alpha)) < 1e-12


def test_alphagamma_eppf_gamma_equals_alpha():
    # the Gamma-ratio is evaluated as a product, so gamma = alpha is finite
    v = alphagamma_eppf(0.5, 0.5, (1, 1, 1), 1)
    assert np.isfinite(v)
    # and multifurcation mass vanishes there only through the (i - g/a) factor
    assert v == 0.0  # (1 - gamma/alpha) = 0 at k = 3


def test_alphagamma_eppf_audit_gap():
    # The closed-form EPPF differs from the exact growth law by the uniform
    # factor (1-alpha)/(n-alpha); within a level the ratio is constant.
    alpha, gamma = 0.5, 0.3
    for n in (3, 4):
        oracle = table_to_eppf(alphagamma_growth_split_oracle(alpha, gamma, n))
        ratios = []
        for (j, sizes), p in oracle.items():
            if p <= 0:
                continue
            cls = 1 if j == 1 else 2
            f = alphagamma_eppf(alpha, gamma, tuple(sorted(sizes, reverse=True)), cls)
            ratios.append(f / p)
        gap = (1 - alpha) / (n - alpha)
        assert all(abs(r - gap) < 1e-10 for r in ratios)


# ---------------------------------------------------------------------------
# skewed Poisson-Dirichlet
# ---------------------------------------------------------------------------

def test_skewed_pd_values():
    law3 = skewed_pd_ranked_split(0.5, -0.5, 0.5, 3)
    assert abs(law3[(1, 1, 1)] - 0.25) < 1e-12
    assert abs(law3[(2, 1)] - 0.75) < 1e-12
    assert skewed_pd_ranked_split(0.5, -0.5, 0.0, 3)[(1, 1, 1)] == 0.0
    assert skewed_pd_ranked_split(0.5, -1.0, 0.5, 3)[(1, 1, 1)] == 0.0
    for n in (2, 3, 4):
        law = skewed_pd_ranked_split(0.3, -0.1, 0.7, n)
        assert abs(sum(law.values()) - 1.0) < 1e-12


def test_skewed_pd_param_errors():
    with pytest.raises(ArgumentError):
        skewed_pd_ranked_split(1.5, 0.0, 0.5, 3)
    with pytest.raises(ArgumentError):
        skewed_pd_ranked_split(0.5, -2.0, 0.5, 3)
    with pytest.raises(ArgumentError):
        skewed_pd_ranked_split(0.5, 0.0, 0.5, 5)


def test_sampling_consistency_dichotomy_examples():
    assert sampling_consistency_residual(0.5, -0.5, 0.5) <= 1e-12
    alpha, theta = 0.5, -0.5
    lam_star = (1 - alpha) / (1 - theta - 2 * alpha)
    assert sampling_consistency_residual(alpha, theta, lam_star) <= 1e-12
    assert sampling_consistency_residual(0.5, -0.5, 0.9) > 1e-4


def test_sampling_consistency_grid():
    # vanishes exactly on the two curves, bounded away elsewhere
    for alpha in np.linspace(0.1, 0.9, 7):
        for theta in np.linspace(-2 * alpha + 0.05, -0.01, 5):
            lam_star = (1 - alpha) / (1 - theta - 2 * alpha)
            assert sampling_consistency_residual(alpha, theta, 0.5) <= 1e-10
            if 0 <= lam_star <= 1:
                assert sampling_consistency_residual(alpha, theta, lam_star) <= 1e-10
            for lam in np.linspace(0.0, 1.0, 6):
                if abs(lam - 0.5) < 0.02 or abs(lam - lam_star) < 0.02:
                    continue
                assert sampling_consistency_residual(alpha, theta, lam) >= 1e-6


def test_skewed_pd_table_structure():
    t = skewed_pd_splitting_table(0.5, -0.5, 0.7, 4)
    t.validate()
    # within a size class, class-1 partitions carry weight lambda vs 1-lambda
    by_sizes = {}
    for p, v in t.probs.items():
        if v > 0:
            by_sizes.setdefault(tuple(sorted((len(b) for b in p.blocks), reverse=True)), []).append((p, v))
    for sizes, items in by_sizes.items():
        c1 = [v for p, v in items if p.cylinder_class() == 1]
        c2 = [v for p, v in items if p.cylinder_class() >= 2]
        if c1 and c2:
            assert abs(c1[0] / c2[0] - 0.7 / 0.3) < 1e-9
