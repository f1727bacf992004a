"""Every size argument of the public API goes through errors._check_count:
a float (even 4.0), a bool or a value below the least one raises
ArgumentError, and the least value and a numpy integer are accepted."""

import numpy as np
import pytest

from fragbox import (ArgumentError, Hierarchy, KnWindow, LevyAtoms, Partition, all_partitions,
                     alphagamma_growth_split_oracle, consistency_residual, fill_fraction,
                     grow_alphagamma, pjs_tail_statistic, rate, rate_closed_form,
                     reduced_ladder, renewal_moment, restrict_hierarchy, restrict_partition,
                     sample_Kn, sample_fragmentation_tree, sample_markov_branching,
                     sample_reduced_crt, sample_split, scaling_exponent, simulate_subordinator,
                     special_branch_count, spinal_levy_measure, splitting_rule)
from fragbox.errors import _check_count, _is_integer_type
from fragbox.harness import single_atom_model

D = single_atom_model()
TREE = grow_alphagamma(0.5, 0.3, 8, np.random.default_rng(0))
TAIL = LevyAtoms((), tail_alpha=0.5, tail_delta=0.01)
WINDOW = KnWindow(0.0, 0.0, 2.0)
PATH = simulate_subordinator(TAIL, 2.0, np.random.default_rng(1))
MODEL = {"family": "alphagamma", "alpha": 0.5, "gamma": 0.3}


def rng():
    return np.random.default_rng(2)


# name -> (least value, call on a size, further bad sizes); the further
# ones returned a value or raised another error before the sizes were checked
CASES = {
    "grow_alphagamma n": (1, lambda x: grow_alphagamma(0.5, 0.3, x, rng()), 4.0),
    "sample_markov_branching n": (1, lambda x: sample_markov_branching(
        lambda b: splitting_rule(D, b), x, rng())),
    "sample_fragmentation_tree n": (1, lambda x: sample_fragmentation_tree(D, x, rng())),
    "special_branch_count m": (1, lambda x: special_branch_count(TREE, 1, x)),
    "reduced_ladder k": (1, lambda x: reduced_ladder(TREE, x, [8])),
    "reduced_ladder n": (2, lambda x: reduced_ladder(TREE, 2, [8, x])),
    "spinal_levy_measure k": (1, lambda x: spinal_levy_measure(D, x)),
    "sample_reduced_crt k": (1, lambda x: sample_reduced_crt(D, x, 0.5, rng()), 2.5),
    "sample_Kn n": (0, lambda x: sample_Kn(PATH, WINDOW, x, rng()), 2.5),
    "pjs_tail_statistic n": (2, lambda x: pjs_tail_statistic(TAIL, WINDOW, x, 1.0, 1, rng())),
    "pjs_tail_statistic reps": (1, lambda x: pjs_tail_statistic(TAIL, WINDOW, 10, 1.0, x, rng()),
                                0),
    "renewal_moment reps": (1, lambda x: renewal_moment(
        lambda r, s: r.exponential(1.0, s), 10.0, 2, x, rng()), 10.5),
    "atoms_at j": (1, lambda x: D.atoms_at(x)),
    "rate n": (2, lambda x: rate(D, x)),
    "rate_closed_form n": (2, lambda x: rate_closed_form(D, x), 4.5),
    "splitting_rule n": (2, lambda x: splitting_rule(D, x)),
    "consistency_residual n": (2, lambda x: consistency_residual(D, x)),
    "sample_split b": (2, lambda x: sample_split(D, x, rng())),
    "alphagamma_growth_split_oracle n": (2, lambda x: alphagamma_growth_split_oracle(
        0.5, 0.3, x)),
    "all_partitions n": (1, all_partitions),
    "restrict_partition m": (1, lambda x: restrict_partition(Partition.from_text("1 3|2"), x)),
    "restrict_hierarchy m": (1, lambda x: restrict_hierarchy(TREE.to_hierarchy(), x)),
    "scaling_exponent reps": (1, lambda x: scaling_exponent(MODEL, [4, 8, 16, 32], x,
                                                              "height", rng()), 0),
    "fill_fraction k": (1, lambda x: fill_fraction(TREE, x), 0),
}


@pytest.mark.parametrize("name", CASES)
def test_sizes_are_checked(name):
    least, call, *seen = CASES[name]
    # a cached entry point has its least value cached before the bad ones
    call(least)
    for bad in (float(least), least + 0.5, True, least - 1, *seen):
        with pytest.raises(ArgumentError, match="must be"):
            call(bad)
    call(np.int64(least))
    call(np.int32(least))


# a Partition or Hierarchy checks its own n when it is validated:
# name -> (a valid n, call on n)
OWN_SIZES = {
    "Partition.from_blocks": (2, lambda n: Partition.from_blocks(n, [[1], [2]])),
    "Partition.validate": (1, lambda n: Partition(n, ((1,),)).validate()),
    "Hierarchy.from_sets": (2, lambda n: Hierarchy.from_sets(n, [{1}, {2}, {1, 2}])),
    "Hierarchy.validate": (1, lambda n: Hierarchy(
        n, frozenset({frozenset(), frozenset({1})})).validate()),
}


@pytest.mark.parametrize("name", OWN_SIZES)
def test_own_sizes_are_checked(name):
    n, call = OWN_SIZES[name]
    call(n)
    call(np.int64(n))
    for bad in (float(n), True, np.float64(n)):
        with pytest.raises(ArgumentError, match="n must be an integer"):
            call(bad)


def test_check_count():
    assert _check_count("n", np.int64(3), 2) == 3
    assert type(_check_count("n", np.uint8(3), 2)) is int
    for bad in (3.0, True, False, "3", None, np.float64(3), np.bool_(True)):
        assert not _is_integer_type(type(bad))
        with pytest.raises(ArgumentError, match="integer"):
            _check_count("n", bad, 0)
    with pytest.raises(ArgumentError, match="at least 2, got 1"):
        _check_count("n", 1, 2)
