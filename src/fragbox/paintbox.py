"""Kingman paintbox, modified (conditioned) paintbox, and Gnedin's constrained paintbox.

All samplers take an explicit numpy Generator and are pure given that handle.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import ArgumentError, ResourceBudgetError, UnsupportedCaseError, _check_count
from .partitions import TOL, Partition, restrict_partition

COLOURING_BUDGET = 1 << 16  # label cells (colourings x base.n) of one base colouring table


def _paints(s, n, rng):
    """The colour probabilities (s_1, ..., s_m, s0), their running sums (the
    read-only s.colour_table) and the colours of n iid paints (i < m for
    atom i, dust beyond): one rng.random(n) and one searchsorted."""
    probs, cum = s.colour_table
    return probs, cum, cum.searchsorted(rng.random(n))


def _colour_blocks(colours, m, labels=None):
    """The blocks of paints of equal colours below m, each dust paint
    (colour >= m) a singleton, as tuples of the paints' labels: the r-th
    paint is labelled labels[r - 1], or r by default.  For increasing labels
    the tuples are canonical: blocks open in order of first sight, so by
    least label, and labels join them in increasing order.  One pass: an
    atom colour's block is a list opened at its first paint, a dust paint
    goes straight in as a 1-tuple."""
    blocks, by_colour = [], {}
    for r, ci in enumerate(colours, 1) if labels is None else zip(labels, colours):
        if ci < m:
            block = by_colour.get(ci)
            if block is None:
                by_colour[ci] = block = [r]
                blocks.append(block)
            else:
                block.append(r)
        else:
            blocks.append((r,))
    return tuple(map(tuple, blocks))


def _paint_partition(colours, m):
    """The Partition of _colour_blocks(colours, m).  Its blocks are canonical
    by construction, whatever the colours, so they are not validated again."""
    return Partition(len(colours), _colour_blocks(colours.tolist(), m))


def kingman_sample(s, n, rng):
    """Sample the value partition of n iid paints from s; dust draws are singletons.

    Draws with one rng.random(n) and nothing else.  _paints draws the
    colours and _paint_partition maps them to blocks; the split law of a
    dislocation model (dislocation._split_law, one per model for every
    block size) conditions the paints in between and groups them into the
    block's own labels.
    """
    n = _check_count("n", n, 1)
    return _paint_partition(_paints(s, n, rng)[2], s.m)


def _cylinder_dp(sizes, atoms, s0):
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


def _cylinder_by_sizes(s, sizes):
    """The Kingman cylinder probability of any partition whose block sizes,
    largest first, are sizes: one _cylinder_dp per multiset, kept in the
    mass partition's own s.cylinder_table."""
    table = s.cylinder_table
    z = table.get(sizes)
    if z is None:
        z = table[sizes] = _cylinder_dp(sizes, s.atoms, s.s0)
    return z


def kingman_cylinder_prob(s, p):
    """Exact probability that the Kingman paintbox of s restricts to p on [n].

    Read off the table of s by p's block-size multiset
    (_cylinder_by_sizes); 8 atoms on 8 singletons take well under a
    millisecond to fill in.
    """
    return _cylinder_by_sizes(s, p.size_multiset)


def _check_nondegenerate(s, base):
    # dust up to TOL is the rounding residue of atoms that add up to 1
    k = base.k
    ell = sum(1 for b in base.blocks if len(b) >= 2)
    if s.s0 > TOL:
        if s.m < ell:
            raise UnsupportedCaseError(
                "degenerate conditioning: fewer atoms than non-singleton blocks")
    else:
        if s.m < k:
            raise UnsupportedCaseError(
                "degenerate conditioning: conservative s with fewer atoms than blocks")


@lru_cache(maxsize=4096)
def _base_cylinder(s, base):
    """The Kingman cylinder probability of base under s, checked non-zero
    and non-degenerate once per (s, base) instead of once per draw.  An
    lru_cache keeps no exception, so a bad pair raises on every call."""
    _check_nondegenerate(s, base)
    z = kingman_cylinder_prob(s, base)
    if z == 0.0:
        raise ArgumentError("base cylinder has probability zero")
    return z


def modified_paintbox_prob(s, base, refinement_target):
    """kappa_s^base(cylinder of target) = Z(base,target) / Z(base,base).

    Non-degenerate case only.  For base = {{1}} this is the plain Kingman
    cylinder probability.
    """
    if restrict_partition(refinement_target, base.n) != base:
        raise ArgumentError("target does not restrict to base")
    z_base = _base_cylinder(s, base)
    # In the non-degenerate case the admissible-index sum for (base, target, s)
    # coincides with the one defining the Kingman cylinder of the target; the
    # dust-exponent shift (k - m)^+ cancels between numerator and normaliser.
    return kingman_cylinder_prob(s, refinement_target) / z_base


def _colouring_count(sizes, m, dusty):
    """The number of admissible colourings of blocks of these sizes: distinct
    atoms of m, or dust (if dusty) on any set of the singletons."""
    singles = sizes.count(1) if dusty else 0
    return sum(math.comb(singles, j) * math.perm(m, len(sizes) - j)
               for j in range(singles + 1))


def _colourings(s, base):
    """Every admissible colouring of base's blocks under s, as a list of
    (colours of the blocks, weight).

    A colouring gives each block a distinct atom, or dust (colour m) if the
    block is a single label and s0 > 0, and weighs prod s_c^|B|, with s0 for
    a dust singleton; the weights add up to base's Kingman cylinder
    probability.  The colourings come in lexicographic order, atoms
    0..m-1 before dust, and a partial colouring is only extended while
    enough atoms are left for the blocks that need one, so no partial list
    is longer than the last.
    """
    m, sizes = s.m, [len(b) for b in base.blocks]
    dusty = s.s0 > 0
    probs = s.atoms + (s.s0,)
    palette = list(range(m + 1))  # one int object per colour, shared by every cell
    partial = [((), 1.0)]
    for i, t in enumerate(sizes):
        # blocks after this one that only an atom can take
        owed = sum(1 for u in sizes[i + 1:] if u > 1 or not dusty)
        choices = palette if dusty and t == 1 else palette[:m]
        partial = [(cols + (a,), w * probs[a] ** t)
                   for cols, w in partial
                   for left in (m - sum(c < m for c in cols),)
                   for a in choices
                   if a == m or (a not in cols and left > owed)]
    return partial


@lru_cache(maxsize=8)
def _base_colourings(s, base):
    """The colouring table of (s, base) that modified_paintbox_sample draws
    from, as (cum, flat).

    flat holds the colours of labels 1..base.n under each colouring of
    positive weight (_colourings), one colouring after the other, and cum
    the running sums of their weights over their total, the last one set
    to 1.0.  The total is checked against base's cylinder probability
    (_base_cylinder, which also refuses a degenerate or null base) to
    1e-12 relative, or to (colourings + m) units of 2^-52 relative when
    that is larger, the rounding error the two sums may carry.

    Budget: a base with more than COLOURING_BUDGET = 2^16 label cells
    (colourings x base.n) raises ResourceBudgetError before its colourings
    are listed.  A table then keeps at most 2^16 slots in flat (512 KB),
    2^16 running sums (2 MB as float objects) and the m + 1 <= 2^16 colour
    ints that flat points at (up to 1.8 MB), under 4.5 MB, and the
    colourings and weights take up to about 8 MB more while it is built.
    The cache keeps 8 tables, so at most about 36 MB in all.
    """
    z = _base_cylinder(s, base)
    k, blocks = base.n, base.blocks
    count = _colouring_count([len(b) for b in blocks], s.m, s.s0 > 0)
    if count * k > COLOURING_BUDGET:
        raise ResourceBudgetError(
            f"{count} colourings of a base on {k} labels exceed {COLOURING_BUDGET} label cells")
    flat, weights = [], []
    for cols, w in _colourings(s, base):
        if w > 0.0:
            labels = [0] * k
            for block, c in zip(blocks, cols):
                for r in block:
                    labels[r - 1] = c
            flat += labels
            weights.append(w)
    total = math.fsum(weights)
    # the cylinder DP adds up to m terms on each path, the sums here one
    # term per colouring: past 1e-12, rounding alone can part them
    assert abs(total - z) <= max(1e-12, (len(weights) + s.m) * 2.0 ** -52) * z, (total, z)
    cum = [c / total for c in accumulate(weights)]
    cum[-1] = 1.0
    return cum, flat


def modified_paintbox_sample(s, base, n, rng):
    """Sample a Kingman partition of [n] conditioned to restrict to base on
    [base.n], exactly and without rejection.

    One rng.random() and a bisect pick a colouring of base's blocks by its
    weight (_base_colourings, built once per (s, base)); then one _paints
    call of rng.random(n - base.n) paints labels base.n + 1..n, and
    _colour_blocks groups all n labels.  Given the colours of the first
    base.n paints, the others are iid from s, so the draw has the law of
    the Kingman partition given its cylinder.  A base with more colourings
    than the table's budget raises ResourceBudgetError.
    """
    k = base.n
    n = _check_count("n", n, k)
    cum, flat = _base_colourings(s, base)
    i = bisect_right(cum, rng.random()) * k
    colours = flat[i:i + k] + _paints(s, n - k, rng)[2].tolist()
    return Partition(n, _colour_blocks(colours, s.m))


@dataclass
class ConstrainedState:
    """End state of a constrained-paintbox run."""

    K: int
    R: int
    steps: int

    @property
    def J(self):
        return self.K + (1 if self.R > 0 else 0)


def _psi(psi, k):
    # beyond the given prefix the last multiplicity repeats
    return psi[k - 1] if k <= len(psi) else psi[-1]


def _draw_y(y_sampler, rng):
    """One Y from y_sampler(rng) as a float; NaN or a value outside [0, 1]
    raises instead of stalling the threshold."""
    y = float(y_sampler(rng))
    if not 0.0 <= y <= 1.0:
        raise ArgumentError(f"y_sampler must return a value in [0, 1], got {y!r}")
    return y


def gnedin_constrained_run(y_sampler, psi, n, rng):
    """Run Gnedin's constrained paintbox for n steps.

    y_sampler(rng) draws one Y in [0, 1] (NaN or any other value raises
    ArgumentError); G_k = Y_1 ... Y_k is generated lazily.
    Returns (J_n, ConstrainedState).  Steps whose uniform is at least the
    threshold G_K change nothing, so the run jumps straight to the next
    sub-threshold uniform with a geometric skip on Python floats, one
    rng.random() per skip, and a long run costs O(J_n).
    """
    psi = tuple(psi)
    if not psi:
        raise ArgumentError("psi must be positive integers")
    for q in psi:
        _check_count("a psi entry", q, 1)
    n = _check_count("n", n, 1)
    if n < psi[0]:
        raise ArgumentError("need n >= psi_1 to attain the first record")
    G = _draw_y(y_sampler, rng)  # threshold G_K, starts at G_1
    K, R = 1, 0
    pos = psi[0]
    while G > 0.0:
        if G >= 1.0:
            step = 1
        else:
            lq = math.log1p(-G)
            u = rng.random()
            if u == 0.0:
                break  # log(0) = -inf: the next record lies beyond any horizon
            ratio = math.log(u) / lq
            if not ratio <= n:
                break  # beyond the horizon, or inf when G is subnormal
            step = math.ceil(ratio)
        if pos + step > n:
            break
        pos += step
        if R <= _psi(psi, K + 1) - 2:
            R += 1
        else:
            K += 1
            R = 0
            G *= _draw_y(y_sampler, rng)
    st = ConstrainedState(K, R, n)
    return st.J, st
