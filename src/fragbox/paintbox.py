"""Kingman paintbox, modified (conditioned) paintbox, and Gnedin's constrained paintbox.

All samplers take an explicit numpy Generator and are pure given that handle.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import ArgumentError, ResourceBudgetError, UnsupportedCaseError
from .partitions import Partition, restrict_partition

REJECTION_BUDGET = 10_000_000


def kingman_sample(s, n, rng):
    """Sample the value partition of n iid paints from s; dust draws are singletons.

    Paint r gets colour i with probability s_i and its own negative colour -r
    with probability s0, so dust indices come out as singleton blocks.
    """
    assert n >= 1
    probs = np.array(list(s.atoms) + [s.s0])
    cum = np.cumsum(probs)
    u = rng.random(n)
    idx = np.searchsorted(cum, u)
    blocks = {}
    for r in range(1, n + 1):
        i = idx[r - 1]
        key = i if i < len(s.atoms) else -r
        blocks.setdefault(key, []).append(r)
    return Partition.from_blocks(n, blocks.values())


@lru_cache(maxsize=200_000)
def _cylinder_prob_by_sizes(sizes, atoms, s0):
    """Sum over admissible paint-index assignments, by block sizes.

    The probability only depends on the multiset of block sizes: distinct
    positive indices on blocks, index 0 (dust) allowed repeatedly on singleton
    blocks only.
    """
    m = len(atoms)
    singleton_positions = [i for i, sz in enumerate(sizes) if sz == 1]
    total = 0.0
    # choose which singletons take dust; everything else needs a distinct atom
    for mask in range(1 << len(singleton_positions)) if s0 > 0 else [0]:
        dust_count = bin(mask).count("1")
        pos_sizes = [sz for i, sz in enumerate(sizes)
                     if sz > 1 or (i in singleton_positions and not (mask >> singleton_positions.index(i)) & 1)]
        if len(pos_sizes) > m:
            continue
        acc = 0.0
        for assign in permutations(range(m), len(pos_sizes)):
            term = 1.0
            for sz, i in zip(pos_sizes, assign):
                term *= atoms[i] ** sz
            acc += term
        total += acc * (s0 ** dust_count)
    return total


def kingman_cylinder_prob(s, p):
    """Exact probability that the Kingman paintbox of s restricts to p on [n]."""
    sizes = tuple(sorted((len(b) for b in p.blocks), reverse=True))
    return _cylinder_prob_by_sizes(sizes, s.atoms, s.s0)


def _check_nondegenerate(s, base):
    k = base.k
    ell = sum(1 for b in base.blocks if len(b) >= 2)
    if s.s0 > 0:
        if s.m < ell:
            raise UnsupportedCaseError(
                "degenerate conditioning: fewer atoms than non-singleton blocks")
    else:
        if s.m < k:
            raise UnsupportedCaseError(
                "degenerate conditioning: conservative s with fewer atoms than blocks")


def modified_paintbox_prob(s, base, refinement_target):
    """kappa_s^base(cylinder of target) = Z(base,target) / Z(base,base).

    Non-degenerate case only.  For base = {{1}} this is the plain Kingman
    cylinder probability.
    """
    if restrict_partition(refinement_target, base.n) != base:
        raise ArgumentError("target does not restrict to base")
    _check_nondegenerate(s, base)
    z_base = kingman_cylinder_prob(s, base)
    if z_base == 0.0:
        raise ArgumentError("base cylinder has probability zero")
    # In the non-degenerate case the admissible-index sum for (base, target, s)
    # coincides with the one defining the Kingman cylinder of the target; the
    # dust-exponent shift (k - m)^+ cancels between numerator and normaliser.
    return kingman_cylinder_prob(s, refinement_target) / z_base


def modified_paintbox_sample(s, base, n, rng):
    """Rejection-sample a Kingman partition of [n] on the cylinder of base."""
    if n < base.n:
        raise ArgumentError("n must be at least base.n")
    _check_nondegenerate(s, base)
    if kingman_cylinder_prob(s, base) == 0.0:
        raise ArgumentError("base cylinder has probability zero")
    for _ in range(REJECTION_BUDGET):
        p = kingman_sample(s, n, rng)
        if restrict_partition(p, base.n) == base:
            return p
    raise ResourceBudgetError("rejection budget exhausted")


@dataclass
class ConstrainedState:
    """End state (and optional value trace) of a constrained-paintbox run."""

    K: int
    R: int
    steps: int
    modified_values: tuple = field(default=())

    @property
    def J(self):
        return self.K + (1 if self.R > 0 else 0)


def _psi(psi, k):
    # beyond the given prefix the last multiplicity repeats
    return psi[k - 1] if k <= len(psi) else psi[-1]


def gnedin_constrained_run(y_sampler, psi, n, rng, record_values=False):
    """Run Gnedin's constrained paintbox for n steps.

    y_sampler(rng) draws one Y in (0,1); G_k = Y_1 ... Y_k is generated lazily.
    Returns (J_n, ConstrainedState).  The default path skips the non-record
    steps with geometric jumps, so long runs cost O(J_n); pass
    record_values=True to walk every step and keep the modified sequence.
    """
    psi = tuple(psi)
    if not psi or any(q < 1 for q in psi):
        raise ArgumentError("psi must be positive integers")
    if n < psi[0]:
        raise ArgumentError("need n >= psi_1 to attain the first record")
    G = float(y_sampler(rng))  # threshold G_K, starts at G_1
    K, R = 1, 0
    pos = psi[0]
    g_next = None  # G_{K+1}, sampled once per record level
    if record_values:
        values = [G] * psi[0]
        while pos < n:
            pos += 1
            u = rng.random()
            if u >= G:
                values.append(u)
                continue
            if g_next is None:
                g_next = G * float(y_sampler(rng))
            values.append(g_next)
            if R <= _psi(psi, K + 1) - 2:
                R += 1
            else:
                K += 1
                R = 0
                G, g_next = g_next, None
        st = ConstrainedState(K, R, n, tuple(values))
        return st.J, st
    # fast path: steps with I >= G_K change nothing, so jump straight to the
    # next sub-threshold uniform with a geometric skip
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
                break  # next sub-threshold step lies beyond the horizon
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
