"""Exhaustive oracles that only the tests read.

`alphagamma_tree_distribution` enumerates every growth history of the
alpha-gamma tree, so one law at n = 7 holds about 66 MB; it checks the
root-split chain `dislocation.alphagamma_growth_split_oracle` and the growth
sampler, and nothing in the library calls it."""

from functools import lru_cache

from fragbox.dislocation import _check_alphagamma_params
from fragbox.errors import ArgumentError, ResourceBudgetError
from fragbox.partitions import _maximal_strict_subsets


# one chain n = 2..7 (n = 2 ends the recursion); a law at n = 7 holds about 66 MB
@lru_cache(maxsize=6)
def alphagamma_tree_distribution(alpha, gamma, n):
    """Exact law of the labelled n-leaf tree, by exhausting insertion histories.

    Trees are frozensets of frozenset vertices (the hierarchy without the
    empty set).  The law at n grows leaf n into every tree of the cached law
    at n - 1.  Capped at n = 7; beyond that the state space explodes.  Its
    root-split marginal is the test oracle of alphagamma_growth_split_oracle,
    which computes that marginal alone by a chain over root splits.
    """
    _check_alphagamma_params(alpha, gamma)
    if n > 7:
        raise ResourceBudgetError("exhaustive growth histories capped at n = 7")
    if n < 1:
        raise ArgumentError("n must be positive")
    if n == 1:
        return {frozenset({frozenset({1})}): 1.0}
    if n == 2:
        return {frozenset({frozenset({1}), frozenset({2}), frozenset({1, 2})}): 1.0}
    m = n - 1
    nxt = {}
    denom = m - alpha
    new = frozenset({n})
    for t, pr in alphagamma_tree_distribution(alpha, gamma, m).items():
        for B in t:
            grown_anc = frozenset((a | {n}) if B <= a else a for a in t)
            if len(B) == 1:
                w = (1 - alpha) / denom
                res = grown_anc | {B, new}
                nxt[res] = nxt.get(res, 0.0) + pr * w
            else:
                w_edge = gamma / denom
                if w_edge > 0:
                    res = grown_anc | {B, new}
                    nxt[res] = nxt.get(res, 0.0) + pr * w_edge
                kb = len(_maximal_strict_subsets(t, B))
                w_vert = ((kb - 1) * alpha - gamma) / denom
                assert w_vert > -1e-12
                if w_vert > 0:
                    res = grown_anc | {new}
                    nxt[res] = nxt.get(res, 0.0) + pr * w_vert
    return nxt
