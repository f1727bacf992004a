import math
import warnings
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fragbox import (ArgumentError, MassPartition, Partition, ResourceBudgetError,
                     UnsupportedCaseError, all_partitions,
                     gnedin_constrained_run, kingman_cylinder_prob,
                     kingman_sample, modified_paintbox_prob,
                     modified_paintbox_sample, restrict_partition)
from fragbox import paintbox
from fragbox.harness import chi_square_gof, gof_gate
from fragbox.paintbox import _base_colourings, _colour_blocks, _colouring_count, _colourings
from oracles import gnedin_skip_reference, gnedin_walk_reference, modified_paintbox_rejection


def P(text):
    return Partition.from_text(text)


def brute_force_cylinder(s, p):
    """Oracle: enumerate every paint-index assignment of [n] directly."""
    n = p.n
    m = len(s.atoms)
    total = 0.0
    for assign in product(range(m + 1), repeat=n):
        # index m means dust: that paint is its own singleton
        blocks = {}
        for r in range(1, n + 1):
            key = assign[r - 1] if assign[r - 1] < m else -r
            blocks.setdefault(key, []).append(r)
        q = Partition.from_blocks(n, blocks.values())
        if q == p:
            pr = 1.0
            for i in assign:
                pr *= s.atoms[i] if i < m else s.s0
            total += pr
    return total


def test_kingman_sample_degenerate():
    rng = np.random.default_rng(0)
    s = MassPartition((1.0,))
    for n in (1, 3, 6):
        assert kingman_sample(s, n, rng).k == 1
    dustonly = MassPartition(())
    assert kingman_sample(dustonly, 5, rng).k == 5


def test_kingman_cylinder_examples():
    s = MassPartition((0.5, 0.5))
    assert abs(kingman_cylinder_prob(s, P("1|2")) - 0.5) < 1e-12
    assert abs(kingman_cylinder_prob(MassPartition((1.0,)), P("1 2 3")) - 1.0) < 1e-12
    s3 = MassPartition((0.5, 0.3, 0.2))
    want = sum(a ** 2 * b for a in s3.atoms for b in s3.atoms if a != b) \
        + 0.5 ** 2 * 0.3 + 0.3 ** 2 * 0.5  # equal-atom pairs are distinct indices
    # simpler: compare against the brute-force oracle
    assert abs(kingman_cylinder_prob(s3, P("1 2|3")) - brute_force_cylinder(s3, P("1 2|3"))) < 1e-12


def test_kingman_cylinder_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.integers(1, 4)
        raw = np.sort(rng.random(m))[::-1]
        raw = raw / (raw.sum() + rng.random())
        s = MassPartition(tuple(np.sort(raw)[::-1]))
        for p in all_partitions(4):
            assert abs(kingman_cylinder_prob(s, p) - brute_force_cylinder(s, p)) < 1e-12


@st.composite
def boxes(draw, min_atoms=0):
    """A mass partition of min_atoms to 4 atoms, with or without dust."""
    m = draw(st.integers(min_atoms, 4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    dust = draw(st.floats(0.01, 1.0)) if m == 0 or draw(st.booleans()) else 0.0
    total = sum(raw) + dust
    return MassPartition(tuple(sorted((x / total for x in raw), reverse=True)))


@settings(max_examples=60)
@given(boxes(), st.integers(1, 6), st.data())
def test_kingman_cylinder_dp_matches_bruteforce(s, n, data):
    ps = all_partitions(n)
    p = ps[data.draw(st.integers(0, len(ps) - 1))]
    assert kingman_cylinder_prob(s, p) == pytest.approx(brute_force_cylinder(s, p),
                                                        rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("a, s0", [(0.1, 0.2), (0.125, 0.0), (0.05, 0.6)])
def test_kingman_cylinder_equal_atoms_on_singletons(a, s0):
    # d of the 8 singletons take dust, the other 8 - d take distinct atoms
    # out of 8 equal ones in 8!/d! ways
    s = MassPartition((a,) * 8)
    want = sum(math.comb(8, d) * s0 ** d * math.factorial(8) / math.factorial(d)
               * a ** (8 - d) for d in range(9))
    assert kingman_cylinder_prob(s, P("1|2|3|4|5|6|7|8")) == pytest.approx(want, rel=1e-12)


def test_kingman_normalization_and_exchangeability():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = rng.integers(1, 5)
        raw = rng.random(m)
        raw = raw / (raw.sum() + rng.random() * 0.5)
        s = MassPartition(tuple(np.sort(raw)[::-1]))
        for n in range(2, 7):
            vals = {}
            tot = 0.0
            for p in all_partitions(n):
                v = kingman_cylinder_prob(s, p)
                tot += v
                vals.setdefault(p.size_multiset, set()).add(round(v, 13))
            assert abs(tot - 1.0) < 1e-12
            # exchangeability: one value per block-size multiset
            assert all(len(g) == 1 for g in vals.values())


def test_kingman_sample_matches_probs():
    rng = np.random.default_rng(5)
    s = MassPartition((0.4, 0.3, 0.1))
    n, reps = 4, 100_000
    counts = {}
    for _ in range(reps):
        p = kingman_sample(s, n, rng)
        counts[p] = counts.get(p, 0) + 1
    cats = list(all_partitions(n))
    rep = chi_square_gof([counts.get(c, 0) for c in cats],
                         [kingman_cylinder_prob(s, c) for c in cats])
    assert rep.p_value > 1e-3


def test_modified_paintbox_base_singleton():
    s = MassPartition((0.6, 0.4))
    base = P("1")
    for p in all_partitions(3):
        assert abs(modified_paintbox_prob(s, base, p)
                   - kingman_cylinder_prob(s, p)) < 1e-12


def test_modified_paintbox_normalization_cases():
    s = MassPartition((0.6, 0.4))
    base = P("1|2")
    assert abs(modified_paintbox_prob(s, base, base) - 1.0) < 1e-12
    tot = sum(modified_paintbox_prob(s, base, p)
              for p in all_partitions(4) if restrict_partition(p, 2) == base)
    assert abs(tot - 1.0) < 1e-12


def test_modified_paintbox_refinement_additivity():
    s = MassPartition((0.5, 0.3))
    base = P("1|2")
    for p in all_partitions(3):
        if restrict_partition(p, 2) != base:
            continue
        lhs = sum(modified_paintbox_prob(s, base, q)
                  for q in all_partitions(4) if restrict_partition(q, 3) == p)
        assert abs(lhs - modified_paintbox_prob(s, base, p)) < 1e-12


def test_modified_paintbox_restricted_exchangeable():
    s = MassPartition((0.5, 0.3))
    base = P("1|2")
    # same size multiset, same restriction class: equal probability
    a = Partition.from_blocks(4, [[1, 3], [2, 4]])
    b = Partition.from_blocks(4, [[1, 4], [2, 3]])
    assert restrict_partition(a, 2) == base and restrict_partition(b, 2) == base
    assert abs(modified_paintbox_prob(s, base, a)
               - modified_paintbox_prob(s, base, b)) < 1e-12


def test_modified_paintbox_errors():
    s = MassPartition((0.6, 0.4))
    with pytest.raises(ArgumentError):
        modified_paintbox_prob(s, P("1 2"), P("1|2 3"))
    # degenerate: conservative s with fewer atoms than blocks of the base
    s1 = MassPartition((0.7, 0.3))
    with pytest.raises(UnsupportedCaseError):
        modified_paintbox_prob(s1, P("1|2|3"), P("1|2|3|4"))
    # dusty s with fewer atoms than non-singleton blocks
    sd = MassPartition((0.5,))
    with pytest.raises(UnsupportedCaseError):
        modified_paintbox_prob(sd, Partition.from_blocks(4, [[1, 2], [3, 4]]),
                               Partition.from_blocks(5, [[1, 2], [3, 4], [5]]))


def test_rounding_dust_is_conservative():
    # the atoms add up to 1 but for rounding, so s0 = 1.1e-16: two atoms
    # cannot paint the three blocks of the base, and both calls fail at once
    # instead of drawing against a cylinder of probability 1e-17
    s = MassPartition((0.9463144927379392, 0.05368550726206069))
    assert 0 < s.s0 <= 1e-12
    base = P("1|2|3 4")
    with pytest.raises(UnsupportedCaseError):
        modified_paintbox_prob(s, base, base)
    with pytest.raises(UnsupportedCaseError):
        modified_paintbox_sample(s, base, 5, np.random.default_rng(0))


def test_modified_paintbox_vs_rejection():
    rng = np.random.default_rng(6)
    s = MassPartition((0.5, 0.5))
    base = P("1|2")
    n, reps = 3, 100_000
    counts = {}
    for _ in range(reps):
        p = modified_paintbox_sample(s, base, n, rng)
        counts[p] = counts.get(p, 0) + 1
    cats = [p for p in all_partitions(n) if restrict_partition(p, 2) == base]
    rep = chi_square_gof([counts.get(c, 0) for c in cats],
                         [modified_paintbox_prob(s, base, c) for c in cats])
    assert rep.p_value > 1e-3


def test_modified_paintbox_sample_trivial_cases():
    rng = np.random.default_rng(7)
    s = MassPartition((1.0,))
    assert modified_paintbox_sample(s, P("1 2"), 4, rng) == P("1 2 3 4")


def _paint_partition_by_from_blocks(colours, m):
    # reference: blocks gathered in a dict, then sorted and validated
    blocks = {}
    for r, ci in enumerate(colours.tolist(), 1):
        blocks.setdefault(ci if ci < m else -r, []).append(r)
    return Partition.from_blocks(len(colours), blocks.values())


@settings(max_examples=200)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=40), st.integers(0, 4), st.data())
def test_colour_blocks_are_canonical(colours, m, data):
    # _paint_partition does not validate: on positions 1..n the blocks are
    # a canonical partition of [n] for any colours, and on increasing labels
    # they are the same blocks read through the labels
    blocks = _colour_blocks(colours, m)
    Partition(len(colours), blocks).validate()
    labels = sorted(data.draw(st.sets(st.integers(1, 500), min_size=len(colours),
                                      max_size=len(colours))))
    assert _colour_blocks(colours, m, labels) == \
        tuple(tuple(labels[r - 1] for r in b) for b in blocks)


def _kingman_sample_fresh_table(s, n, rng):
    # reference: the colour table built afresh on every draw
    cum = np.cumsum(np.array(list(s.atoms) + [s.s0]))
    return _paint_partition_by_from_blocks(np.searchsorted(cum, rng.random(n)), s.m)


def _modified_sample_by_restriction(s, base, n, rng):
    # reference: every attempt becomes a Partition and is restricted to [base.n]
    while True:
        p = _kingman_sample_fresh_table(s, n, rng)
        if restrict_partition(p, base.n) == base:
            return p


@settings(max_examples=150)
@given(boxes(min_atoms=1), st.integers(1, 4), st.data())
def test_modified_sample_matches_restriction_loop(s, k, data):
    # the rejection oracle's colour test accepts exactly the attempts the
    # Partition test accepted, on the same stream: same draws, same
    # generator state after
    bases = all_partitions(k)
    base = bases[data.draw(st.integers(0, len(bases) - 1))]
    n = data.draw(st.integers(k, 9))
    try:
        modified_paintbox_prob(s, base, base)
    except UnsupportedCaseError:
        return
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        p = modified_paintbox_rejection(s, base, n, fast)
        q = _modified_sample_by_restriction(s, base, n, slow)
        assert p == q and p.blocks == q.blocks
        assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.random() == slow.random()


def brute_force_colourings(s, base):
    """Oracle: every colour of {atoms, dust} on every block, filtered for
    distinct atoms and dust on singletons only (and only if s0 > 0)."""
    m, probs = s.m, s.atoms + (s.s0,)
    out = []
    for cols in product(range(m + 1), repeat=base.k):
        atoms = [c for c in cols if c < m]
        if len(set(atoms)) < len(atoms):
            continue
        if any(c == m and (len(b) > 1 or s.s0 == 0) for c, b in zip(cols, base.blocks)):
            continue
        w = 1.0
        for c, b in zip(cols, base.blocks):
            w *= probs[c] ** len(b)
        out.append((cols, w))
    return out


@settings(max_examples=150)
@given(boxes(), st.integers(1, 4), st.data())
def test_colouring_table_matches_bruteforce(s, k, data):
    bases = all_partitions(k)
    base = bases[data.draw(st.integers(0, len(bases) - 1))]
    got, want = _colourings(s, base), brute_force_colourings(s, base)
    assert [c for c, _ in got] == [c for c, _ in want]
    assert [w for _, w in got] == pytest.approx([w for _, w in want], rel=1e-14)
    assert len(got) == _colouring_count([len(b) for b in base.blocks], s.m, s.s0 > 0)
    assert math.fsum(w for _, w in got) == pytest.approx(kingman_cylinder_prob(s, base),
                                                         rel=1e-12, abs=0)
    try:
        cum, flat = _base_colourings(s, base)
    except (UnsupportedCaseError, ArgumentError):
        return
    # every row of the table paints labels 1..k into base's blocks, and
    # the running sums rise to 1
    assert len(flat) == k * len(cum) and cum[-1] == 1.0
    assert all(a < b for a, b in zip(cum, cum[1:]))
    for i in range(len(cum)):
        assert _colour_blocks(flat[i * k:(i + 1) * k], s.m) == base.blocks


@pytest.mark.parametrize("atoms, base, n", [
    ((0.5, 0.2, 0.1), "1 3|2|4", 6),   # dust, and a block of two labels
    ((0.6, 0.4), "1 2|3", 5),          # conservative
    ((0.4, 0.3), "1|2|3", 5),          # dust on any of the singletons
])
def test_modified_sample_gof(atoms, base, n):
    s, base = MassPartition(atoms), P(base)
    cats = [p for p in all_partitions(n)
            if restrict_partition(p, base.n) == base and modified_paintbox_prob(s, base, p) > 0]
    probs = [modified_paintbox_prob(s, base, p) for p in cats]

    def once(rng):
        counts = {c: 0 for c in cats}
        for _ in range(20_000):
            counts[modified_paintbox_sample(s, base, n, rng)] += 1
        return chi_square_gof([counts[c] for c in cats], probs)

    passed, reports = gof_gate(once, 251, f"modified-{base.to_text()}-{n}")
    assert passed, reports[-1].p_value


def test_modified_sample_matches_rejection_in_law():
    # two samples, one from each sampler, against each other: a chi-square
    # test of homogeneity, outcomes seen fewer than 20 times in all pooled
    stats = pytest.importorskip("scipy.stats")
    s, base, n = MassPartition((0.5, 0.3)), P("1 2|3"), 5
    direct, rejection = np.random.default_rng(41), np.random.default_rng(42)
    a = Counter(modified_paintbox_sample(s, base, n, direct) for _ in range(20_000))
    b = Counter(modified_paintbox_rejection(s, base, n, rejection) for _ in range(20_000))
    both = a + b
    keys = [p for p, c in both.items() if c >= 20]
    table = [[counts[q] for q in keys] for counts in (a, b)]
    rare = [sum(c for p, c in counts.items() if both[p] < 20) for counts in (a, b)]
    if any(rare):
        table = [row + [r] for row, r in zip(table, rare)]
    assert stats.chi2_contingency(table)[1] > 1e-3


def test_modified_sample_draws_one_uniform_then_the_free_paints():
    # the stream: one random() picks the colouring, then random(n - k)
    s, base, n = MassPartition((0.5, 0.3)), P("1|2"), 6
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    p = modified_paintbox_sample(s, base, n, rng)
    u, paints = ref.random(), ref.random(n - 2)
    cum, flat = _base_colourings(s, base)
    i = next(j for j, c in enumerate(cum) if u < c)
    colours = flat[2 * i:2 * i + 2] + np.searchsorted(s.colour_table[1], paints).tolist()
    assert p.blocks == _colour_blocks(colours, s.m)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_colouring_budget(monkeypatch):
    # a base with more label cells than COLOURING_BUDGET raises before its
    # table is built; the default budget builds the same table
    s, base = MassPartition((0.3, 0.2, 0.2, 0.1)), P("1|2|3")
    count = _colouring_count([1, 1, 1], 4, True)
    assert count == len(_colourings(s, base))
    _base_colourings.cache_clear()
    monkeypatch.setattr(paintbox, "COLOURING_BUDGET", 3 * count - 1)
    with pytest.raises(ResourceBudgetError):
        modified_paintbox_sample(s, base, 4, np.random.default_rng(0))
    monkeypatch.setattr(paintbox, "COLOURING_BUDGET", 3 * count)
    assert modified_paintbox_sample(s, base, 4, np.random.default_rng(0)).n == 4


def test_colouring_table_at_the_budget():
    # 65535 atoms on the base {1}: 2^16 colourings of one label, right at
    # the budget.  The cylinder DP adds the atoms one by one and the table
    # total is exact, so the two differ by 1.0e-12 relative from rounding
    # alone; the check allows for it, and the table still draws
    s, base = MassPartition((0.9 / 65535,) * 65535), P("1")
    cum, flat = _base_colourings(s, base)
    assert len(cum) == len(flat) == 2 ** 16
    assert modified_paintbox_sample(s, base, 3, np.random.default_rng(0)).n == 3
    _base_colourings.cache_clear()


@pytest.mark.parametrize("n", [4.0, 10.7, True, "4", None])
def test_samplers_reject_non_integer_n(n):
    s, rng = MassPartition((0.5, 0.3)), np.random.default_rng(0)
    with pytest.raises(ArgumentError):
        kingman_sample(s, n, rng)
    with pytest.raises(ArgumentError):
        modified_paintbox_sample(s, P("1|2"), n, rng)
    with pytest.raises(ArgumentError):
        gnedin_constrained_run(lambda r: 0.5, (1,), n, rng)


def test_samplers_reject_n_below_one():
    s, rng = MassPartition((0.5, 0.3)), np.random.default_rng(0)
    for n in (0, -3):
        with pytest.raises(ArgumentError):
            kingman_sample(s, n, rng)
        with pytest.raises(ArgumentError):
            modified_paintbox_sample(s, P("1"), n, rng)
    # numpy integers are integers
    assert kingman_sample(s, np.int64(4), rng).n == 4
    assert modified_paintbox_sample(s, P("1|2"), np.int32(4), rng).n == 4


@pytest.mark.parametrize("psi", [(1.5,), (True,), (1, 2.0), (1, "2"), (0,)])
def test_gnedin_rejects_non_integer_psi(psi):
    with pytest.raises(ArgumentError):
        gnedin_constrained_run(lambda r: 0.5, psi, 100, np.random.default_rng(0))


@settings(max_examples=100)
@given(boxes(), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
def test_kingman_sample_matches_dict_and_from_blocks(s, n, seed):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        p = kingman_sample(s, n, fast)
        q = _kingman_sample_fresh_table(s, n, slow)
        assert p == q and p.blocks == q.blocks
    assert fast.bit_generator.state == slow.bit_generator.state
    assert fast.random() == slow.random()


def test_colour_table_is_cached_and_read_only():
    s = MassPartition((0.5, 0.3))
    probs, cum = s.colour_table
    assert s.colour_table[0] is probs and s.colour_table[1] is cum
    assert probs.tolist() == [0.5, 0.3, s.s0]
    assert cum.tolist() == np.cumsum([0.5, 0.3, s.s0]).tolist()
    for arr in (probs, cum):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# Gnedin's constrained paintbox
# ---------------------------------------------------------------------------

def _y_exp(rng):
    return math.exp(-rng.exponential(1.0))


def _y_heavy(rng):
    # -log Y Pareto(1/10): underflows to Y = 0.0 in about half the draws
    return math.exp(-(rng.random() ** -10.0))


class _StubRng:
    """random() returns a fixed value and counts its calls."""

    def __init__(self, u):
        self.u, self.calls = u, 0

    def random(self):
        self.calls += 1
        return self.u


def test_gnedin_trivial_cases():
    rng = np.random.default_rng(8)
    j, st = gnedin_constrained_run(_y_exp, (1,), 1, rng)
    assert j == 1 and st.K == 1 and st.R == 0
    j, st = gnedin_constrained_run(_y_exp, (3,), 3, rng)
    assert j == 1 and st.K == 1
    with pytest.raises(ArgumentError):
        gnedin_constrained_run(_y_exp, (3,), 2, rng)


def test_gnedin_trace_semantics():
    # with Y == 1 every uniform is below the threshold, so records accumulate
    # one per step and the modified value stays G = 1
    rng = np.random.default_rng(9)
    j, st, values = gnedin_walk_reference(lambda r: 1.0, (1,), 10, rng)
    assert st.K == 10 and st.R == 0 and j == 10
    assert values == (1.0,) * 10
    # psi = 2: records need two copies each
    j2, st2, _ = gnedin_walk_reference(lambda r: 1.0, (2,), 10, rng)
    assert st2.K == 5 and j2 == 5
    # the fast path takes the same unit steps, drawing no uniform
    before = rng.bit_generator.state
    j, st = gnedin_constrained_run(lambda r: 1.0, (1,), 10, rng)
    assert st.K == 10 and st.R == 0 and j == 10
    j2, st2 = gnedin_constrained_run(lambda r: 1.0, (2,), 10, rng)
    assert st2.K == 5 and st2.R == 0 and j2 == 5
    assert rng.bit_generator.state == before


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       psi=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       n=st.integers(1, 10 ** 6), heavy=st.booleans())
def test_gnedin_fast_path_matches_reference(seed, psi, n, heavy):
    # the Python-float skip loop is the numpy-scalar one draw for draw
    n = max(n, psi[0])
    y = _y_heavy if heavy else _y_exp
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert gnedin_constrained_run(y, psi, n, rng) == gnedin_skip_reference(y, psi, n, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5])
@pytest.mark.parametrize("second_level", [False, True])
def test_gnedin_bad_y_raises(bad, second_level):
    # a bad first Y, or a bad Y at the second level after a valid first
    draws = iter([0.5, bad] if second_level else [bad])
    with pytest.raises(ArgumentError, match="y_sampler"):
        gnedin_constrained_run(lambda r: next(draws), (1,), 10 ** 3,
                               np.random.default_rng(3))
    # Y = 0 stays valid: G_2 = 0 ends the records
    draws = iter([0.5, 0.0])
    j, _ = gnedin_constrained_run(lambda r: next(draws), (1,), 10 ** 3,
                                  np.random.default_rng(3))
    assert j == 2


def test_gnedin_float_loop_edges():
    # u = 0.0 has no finite log: the run ends with the current J, silently
    rng = _StubRng(0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j, st = gnedin_constrained_run(lambda r: 0.5, (1,), 10 ** 6, rng)
    assert (j, st.K, st.R, rng.calls) == (1, 1, 0, 1)
    # a subnormal G: log(u) / log1p(-G) overflows to inf, beyond every horizon
    rng = _StubRng(0.5)
    assert math.log(0.5) / math.log1p(-1e-310) == math.inf
    j, st = gnedin_constrained_run(lambda r: 1e-310, (1,), 10 ** 6, rng)
    assert (j, st.K, st.R, rng.calls) == (1, 1, 0, 1)


def test_gnedin_fast_and_trace_agree_in_distribution():
    ns = 400
    fast, slow = [], []
    for i in range(ns):
        j1, _ = gnedin_constrained_run(_y_exp, (1,), 500,
                                       np.random.default_rng(1000 + i))
        j2, _, _ = gnedin_walk_reference(_y_exp, (1,), 500,
                                         np.random.default_rng(5000 + i))
        fast.append(j1)
        slow.append(j2)
    # same law: compare means within 4 pooled standard errors
    se = math.sqrt((np.var(fast) + np.var(slow)) / ns)
    assert abs(np.mean(fast) - np.mean(slow)) < 4 * se + 1e-9


def test_gnedin_limit_and_heavy_tail():
    # -log Y ~ Exp(1): J_n / log n -> 1; Pareto(1/2) tails: -> 0
    reps, n = 60, 10 ** 5
    vals = []
    for i in range(reps):
        rng = np.random.default_rng(200 + i)
        j, _ = gnedin_constrained_run(_y_exp, (1,), n, rng)
        vals.append(j / math.log(n))
    assert 0.85 < np.mean(vals) < 1.15
    # infinite-mean -log Y (Pareto index 0.1): the limit ratio is 0; the
    # approach is (log n)^(index - 1), so a very heavy tail is needed for the
    # 0.1 band at reachable n
    heavy = []
    for i in range(reps):
        rng = np.random.default_rng(400 + i)
        j, _ = gnedin_constrained_run(_y_heavy, (1,), 10 ** 6, rng)
        heavy.append(j / math.log(10 ** 6))
    assert np.mean(heavy) <= 0.1


def test_gnedin_moment_boundedness():
    # E[(J_n/log n)^p] stays in a band as n grows
    for p in (1, 2, 3):
        means = []
        for k, n in enumerate((10 ** 3, 10 ** 4, 10 ** 5)):
            vals = []
            for i in range(40):
                rng = np.random.default_rng(700 + 100 * k + i)
                j, _ = gnedin_constrained_run(_y_exp, (1,), n, rng)
                vals.append((j / math.log(n)) ** p)
            means.append(np.mean(vals))
        assert max(means) <= 1.6 * min(means) + 0.5
