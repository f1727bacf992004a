import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fragbox import (ArgumentError, FiniteMeasureOnPartitions, Hierarchy,
                     MassPartition, Partition, all_partitions, block_size_multiset,
                     children_of, classify_exchangeability, restrict_hierarchy,
                     restrict_partition)
from fragbox.partitions import _maximal_strict_subsets


def P(text, n=None):
    return Partition.from_text(text, n)


def old_all_partitions(n):
    """The list-building generator all_partitions replaced, kept as its oracle."""
    parts = [[[1]]]
    for x in range(2, n + 1):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append([list(b) for b in p[:i]] + [p[i] + [x]] + [list(b) for b in p[i + 1:]])
            nxt.append([list(b) for b in p] + [[x]])
        parts = nxt
    return [Partition.from_blocks(n, p) for p in parts]


@pytest.mark.parametrize("n", range(1, 10))
def test_all_partitions_matches_old_generator(n):
    ps = all_partitions(n)
    assert list(ps) == old_all_partitions(n)
    for p in ps:
        p.validate()
        assert p.size_multiset == tuple(sorted(map(len, p.blocks), reverse=True))


@pytest.mark.parametrize("n", range(1, 7))
def test_lazy_attributes_match_fresh_values(n):
    # each value is computed on first use, kept in the instance dict and
    # equal to its computation from scratch
    for p in all_partitions(n):
        q = Partition.from_blocks(n, p.blocks)
        assert "_hash" not in q.__dict__
        assert hash(q) == hash(p) == hash((p.n, p.blocks))
        assert q.__dict__["_hash"] == hash((p.n, p.blocks))
        assert q.size_multiset == tuple(sorted(map(len, p.blocks), reverse=True))
        assert q.cylinder_key == (p.cylinder_class(), q.size_multiset)
        assert q.size_multiset is q.size_multiset
    for atoms in ((), (0.5,), (0.6, 0.4), (0.5, 0.3, 0.1)):
        s = MassPartition(atoms)
        assert s.s0 == min(max(1.0 - sum(s.atoms), 0.0), 1.0)
        assert s.__dict__["s0"] == s.s0


def test_restrict_partition_examples():
    assert restrict_partition(P("1 3|2"), 2) == P("1|2")
    assert restrict_partition(P("1 2 3"), 3) == P("1 2 3")
    assert restrict_partition(P("1 4|2 3"), 3) == Partition.from_blocks(3, [[1], [2, 3]])


def test_restrict_partition_bad_range():
    with pytest.raises(ArgumentError):
        restrict_partition(P("1|2"), 3)
    with pytest.raises(ArgumentError):
        restrict_partition(P("1|2"), 0)


def test_partition_text_roundtrip():
    for p in all_partitions(5):
        assert Partition.from_text(p.to_text()) == p


def test_partition_canonical_order_enforced():
    with pytest.raises(ArgumentError):
        Partition(2, ((2,), (1,))).validate()
    with pytest.raises(ArgumentError):
        Partition.from_blocks(3, [[1, 2]])


def test_tower_property():
    for n in range(2, 7):
        for p in all_partitions(n):
            for m in range(1, n + 1):
                for k in range(1, m + 1):
                    assert restrict_partition(restrict_partition(p, m), k) == \
                        restrict_partition(p, k)


def test_restrict_hierarchy_examples():
    h2 = Hierarchy.from_sets(2, [{1}, {2}, {1, 2}])
    assert restrict_hierarchy(h2, 1) == Hierarchy.from_sets(1, [{1}])
    t3 = Hierarchy.from_sets(3, [{1}, {2}, {3}, {1, 3}, {1, 2, 3}])
    assert restrict_hierarchy(t3, 2) == Hierarchy.from_sets(2, [{1}, {2}, {1, 2}])
    assert restrict_hierarchy(t3, 3) == t3


def test_hierarchy_validation():
    with pytest.raises(ArgumentError):
        Hierarchy.from_sets(3, [{1}, {2}, {3}, {1, 2}, {2, 3}, {1, 2, 3}])
    with pytest.raises(ArgumentError):
        Hierarchy.from_sets(2, [{1}, {1, 2}])  # missing singleton {2}


def test_block_size_multiset():
    assert block_size_multiset(P("1 3|2")) == (2, 1)
    assert block_size_multiset(P("1|2|3")) == (1, 1, 1)
    assert block_size_multiset(P("1 2|3 4|5")) == (2, 2, 1)


def test_children_of_examples():
    h = Hierarchy.from_sets(2, [{1}, {2}, {1, 2}])
    assert children_of(h, {1, 2}) == ((1,), (2,))
    t3 = Hierarchy.from_sets(3, [{1}, {2}, {3}, {1, 3}, {1, 2, 3}])
    assert children_of(t3, {1, 2, 3}) == ((1, 3), (2,))
    star = Hierarchy.from_sets(3, [{1}, {2}, {3}, {1, 2, 3}])
    assert children_of(star, {1, 2, 3}) == ((1,), (2,), (3,))
    with pytest.raises(ArgumentError):
        children_of(star, {1})
    with pytest.raises(ArgumentError):
        children_of(star, {1, 2})


def test_maximal_strict_subsets_one_pass():
    # the largest-first pass against the quadratic definition, on every
    # non-singleton vertex of grown trees
    rng = np.random.default_rng(11)
    from fragbox import grow_alphagamma
    for _ in range(20):
        sets = grow_alphagamma(0.6, 0.3, 9, rng).to_hierarchy().members
        for b in sets:
            if len(b) < 2:
                continue
            strict = [a for a in sets if a and a < b]
            want = {a for a in strict if not any(a < c for c in strict)}
            got = _maximal_strict_subsets(sets, b)
            assert len(got) == len(want) and set(got) == want


def test_cylinder_class():
    assert P("1|2 3").cylinder_class() == 1
    assert P("1 2|3").cylinder_class() == 2
    assert P("1 2 3").cylinder_class() is None
    # the class is where the restriction to [j+1] equals {[j],{j+1}}
    for n in range(2, 6):
        for p in all_partitions(n):
            if p.is_trivial():
                continue
            j = p.cylinder_class()
            assert restrict_partition(p, j + 1) == Partition.from_blocks(
                j + 1, [list(range(1, j + 1)), [j + 1]])


def _uniform(n):
    ps = all_partitions(n)
    return FiniteMeasureOnPartitions(n, {p: 1.0 for p in ps})


def test_classify_uniform_all_true():
    for n in range(2, 7):
        flags = classify_exchangeability(_uniform(n))
        assert all(flags.values())


def test_classify_partial_not_exchangeable():
    # the (2,2) partitions of [4] split across cylinder classes: {1,2|3,4} is
    # in class 2, the other two in class 1; weighting the classes differently
    # breaks exchangeability and partial exchangeability (equal ordered size
    # vectors, unequal mass) but keeps the restricted flag
    mu = _uniform(4)
    a = Partition.from_blocks(4, [[1, 2], [3, 4]])
    b = Partition.from_blocks(4, [[1, 3], [2, 4]])
    c = Partition.from_blocks(4, [[1, 4], [2, 3]])
    assert a.cylinder_class() == 2 and b.cylinder_class() == c.cylinder_class() == 1
    mu.weights[b] += 1.0
    mu.weights[c] += 1.0
    flags = classify_exchangeability(mu)
    assert not flags["exchangeable"]
    assert not flags["partially_exchangeable"]
    assert flags["restricted_exchangeable"]


def test_classify_alphagamma_table():
    # root-split law on P_3 with gamma != 1 - alpha
    alpha, gamma = 0.5, 0.3
    w = {p: 0.0 for p in all_partitions(3)}
    w[P("1 3|2")] = (1 - alpha) / (2 - alpha)
    w[P("1|2 3")] = (1 - alpha) / (2 - alpha)
    w[P("1 2|3")] = gamma / (2 - alpha)
    w[P("1|2|3")] = (alpha - gamma) / (2 - alpha)
    flags = classify_exchangeability(FiniteMeasureOnPartitions(3, w))
    assert flags["restricted_exchangeable"]
    assert not flags["exchangeable"]


def test_classify_requires_full_support():
    mu = FiniteMeasureOnPartitions(3, {P("1|2|3"): 1.0})
    with pytest.raises(ArgumentError):
        classify_exchangeability(mu)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_symmetrized_measure_is_partially_and_restricted(n, rnd):
    # symmetrize arbitrary weights over block-size multisets: exchangeable by
    # construction, so both weaker flags must come out true
    groups = {}
    for p in all_partitions(n):
        groups.setdefault(block_size_multiset(p), []).append(p)
    w = {}
    for key, ps in groups.items():
        val = rnd.random()
        for p in ps:
            w[p] = val
    flags = classify_exchangeability(FiniteMeasureOnPartitions(n, w))
    assert flags["exchangeable"]
    assert flags["partially_exchangeable"]
    assert flags["restricted_exchangeable"]


def test_children_commutes_with_restriction():
    rng = np.random.default_rng(7)
    from fragbox import grow_alphagamma
    for rep in range(20):
        t = grow_alphagamma(0.4, 0.2, 8, rng)
        h = t.to_hierarchy()
        m = 5
        hr = restrict_hierarchy(h, m)
        for b in h.members:
            if len(b) >= 2 and max(b) <= m and frozenset(b) in hr.members:
                kids = children_of(h, b)
                if all(len(k) >= 1 for k in kids):
                    restricted_kids = children_of(hr, b)
                    # blocks fully inside [m] keep their child partition
                    assert restricted_kids == kids
