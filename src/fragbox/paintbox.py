"""Kingman paintbox, modified (conditioned) paintbox, and Gnedin's constrained paintbox.

All samplers take an explicit numpy Generator and are pure given that handle.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, ResourceBudgetError, UnsupportedCaseError
from .partitions import Partition, restrict_partition

REJECTION_BUDGET = 10_000_000


def _paints(s, n, rng):
    """The colour probabilities (s_1, ..., s_m, s0), their running sums (the
    read-only s.colour_table) and the colours of n iid paints (i < m for
    atom i, dust beyond): one rng.random(n) and one searchsorted."""
    probs, cum = s.colour_table
    return probs, cum, cum.searchsorted(rng.random(n))


def _colour_blocks(colours, m):
    """The blocks of [len(colours)] of equal colours below m, each dust paint
    (colour >= m) a singleton, as canonical tuples: blocks open in order of
    first sight, so by least element, and labels join them in increasing order."""
    blocks = {}
    for r, ci in enumerate(colours, 1):
        blocks.setdefault(ci if ci < m else -r, []).append(r)
    return tuple(map(tuple, blocks.values()))


def _paint_partition(colours, m):
    """The validated Partition of _colour_blocks(colours, m)."""
    p = Partition(len(colours), _colour_blocks(colours.tolist(), m))
    p.validate()
    return p


def kingman_sample(s, n, rng):
    """Sample the value partition of n iid paints from s; dust draws are singletons.

    Draws with one rng.random(n) and nothing else.  _paints draws the
    colours and _paint_partition maps them to blocks, the two steps that
    dislocation.sample_split conditions in between.
    """
    assert n >= 1
    return _paint_partition(_paints(s, n, rng)[2], s.m)


@lru_cache(maxsize=200_000)
def _cylinder_prob_by_sizes(sizes, atoms, s0):
    """Sum over admissible paint-index assignments, by block sizes.

    The probability only depends on the multiset of block sizes: distinct
    atoms on blocks, dust (index 0) on any number of singleton blocks.  A DP
    over the atoms whose state is the remaining multiplicity of each block
    size: an atom a either stays unused or takes one of the mult[t] remaining
    blocks of a size t, with weight mult[t] a^t.  The d singletons left at
    the end take dust at s0^d (only d = 0 when s0 = 0).  States with more
    blocks left than can still be covered are dropped, so the cost is
    O(m * states * distinct sizes), states <= prod (mult[t] + 1).
    """
    ts = sorted(set(sizes), reverse=True)
    dusty = s0 > 0 and ts[-1] == 1

    def owed(state):
        """The blocks left that only an atom can take."""
        return sum(state) - (state[-1] if dusty else 0)

    dp = {tuple(map(sizes.count, ts)): 1.0}
    for placed, a in enumerate(atoms, 1):
        powers = [a ** t for t in ts]
        nxt = {}
        for state, w in dp.items():
            nxt[state] = nxt.get(state, 0.0) + w
            for i, c in enumerate(state):
                if c:
                    key = state[:i] + (c - 1,) + state[i + 1:]
                    nxt[key] = nxt.get(key, 0.0) + w * c * powers[i]
        rest = len(atoms) - placed
        dp = {state: w for state, w in nxt.items() if owed(state) <= rest}
    return sum((w * s0 ** state[-1] if dusty else w
                for state, w in dp.items() if owed(state) == 0), 0.0)


def kingman_cylinder_prob(s, p):
    """Exact probability that the Kingman paintbox of s restricts to p on [n].

    One cached DP per (block-size multiset, atoms, dust): see
    _cylinder_prob_by_sizes; 8 atoms on 8 singletons take well under a
    millisecond.
    """
    return _cylinder_prob_by_sizes(p.size_multiset, s.atoms, s.s0)


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
    """Rejection-sample a Kingman partition of [n] on the cylinder of base.

    Each attempt is one kingman_sample draw (one rng.random(n)), so the
    stream is that of kingman_sample until the first draw whose restriction
    to [base.n] is base.  An attempt is tested on its colours: the blocks of
    its first base.n paints (_colour_blocks) must be base.blocks.  Only the
    accepted draw becomes a Partition.
    """
    if n < base.n:
        raise ArgumentError("n must be at least base.n")
    _check_nondegenerate(s, base)
    if kingman_cylinder_prob(s, base) == 0.0:
        raise ArgumentError("base cylinder has probability zero")
    k, m, want = base.n, s.m, base.blocks
    for _ in range(REJECTION_BUDGET):
        colours = _paints(s, n, rng)[2]
        if _colour_blocks(colours[:k].tolist(), m) == want:
            return _paint_partition(colours, m)
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
