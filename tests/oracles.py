"""Oracles that only the tests read.

`alphagamma_tree_distribution` enumerates every growth history of the
alpha-gamma tree, so one law at n = 7 holds about 66 MB; it checks the
root-split chain `dislocation.alphagamma_growth_split_oracle` and the growth
sampler, and nothing in the library calls it.  `gnedin_skip_reference` is the
skip loop of `paintbox.gnedin_constrained_run` with one numpy call per scalar
operation; the two must agree draw for draw."""

from functools import lru_cache

import numpy as np

from fragbox.dislocation import _check_alphagamma_params
from fragbox.errors import ArgumentError, ResourceBudgetError
from fragbox.paintbox import ConstrainedState, _psi
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


def gnedin_skip_reference(y_sampler, psi, n, rng):
    """(J_n, ConstrainedState) of Gnedin's constrained paintbox by geometric
    skips, one numpy call per operation on a scalar; psi and n unchecked."""
    psi = tuple(psi)
    G = float(y_sampler(rng))
    K, R = 1, 0
    pos = psi[0]
    while True:
        if G <= 0.0:
            break
        lq = np.log1p(-G) if G < 1.0 else None
        if lq == 0.0:
            break
        if lq is None:
            step = 1
        else:
            with np.errstate(over="ignore"):
                ratio = np.log(rng.random()) / lq
            if not np.isfinite(ratio) or ratio > n:
                break
            step = int(np.ceil(ratio))
        if pos + step > n:
            break
        pos += step
        if R <= _psi(psi, K + 1) - 2:
            R += 1
        else:
            K += 1
            R = 0
            G *= float(y_sampler(rng))
    st = ConstrainedState(K, R, n)
    return st.J, st
