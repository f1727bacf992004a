"""Oracles that only the tests read.

`alphagamma_tree_distribution` enumerates every growth history of the
alpha-gamma tree, so one law at n = 7 holds about 66 MB; it checks the
root-split chain `dislocation.alphagamma_growth_split_oracle` and the growth
sampler, and nothing in the library calls it.  `gnedin_skip_reference` is the
skip loop of `paintbox.gnedin_constrained_run` with one numpy call per scalar
operation; the two must agree draw for draw.  `gnedin_walk_reference` walks
every step of the same paintbox and keeps the modified sequence; it must
agree with the skips in law.  `split_tree_reference` builds a
fragmentation tree the per-vertex way, rebuilding the split components and a
validated `Partition` at every vertex (`sample_split_reference`) and then
relabelling its blocks; the trees that `growth._build_recursive` builds
from the cached split laws must be the same, and leave the generator in the
same state.
`split_components_reference` builds the split components of one block size
from the model alone; the per-model split law of `dislocation._split_law`
must give the same list at every block size.
`validate_partition_reference` is the element-by-element loop that
`Partition.validate` replaced.
`rate_reference` is the total rate as a sum over every non-trivial
partition, the enumeration that `dislocation.rate` replaced by a sum over
cylinder keys with counts.
`modified_paintbox_rejection` is the rejection loop that
`paintbox.modified_paintbox_sample` replaced by an exact draw of the base's
colours: it redraws all n paints until the first base.n of them form the
base, so it is the sampler's oracle in law, and the restriction loop of the
paintbox tests pins it draw for draw.
`renewal_moment_reference` draws each round of renewals as one array over
every active row, with a chunk that doubles without limit; the blocked
`spine.renewal_moment` must give the same float and leave the generator in
the same state while no row needs more than 2 * _RENEWAL_BLOCK - 16
inter-arrivals.
`tree_points_reference` is the numpy row recurrence that
`treemetric._tree_points` replaced by nested lists of Python floats: the
same vertex order and the same additions, so the two metrics must be equal
entry for entry.
`grown_tree_reference` is the eager read-off of the growth core's lists that
`growth.grow_alphagamma` made before a grown tree kept its lists: the
dicts that a grown tree derives on first use must be equal to it, key order
included."""

from functools import lru_cache
from itertools import accumulate, count

import numpy as np

from fragbox.dislocation import (_check_alphagamma_params, _colour_masses, _delta_atoms,
                                 _pick, _truncated_geometric, kappa_cylinder)
from fragbox.errors import ArgumentError, ModelError, ResourceBudgetError
from fragbox.growth import Tree
from fragbox.paintbox import (ConstrainedState, _base_cylinder, _colour_blocks,
                              _paint_partition, _paints, _psi)
from fragbox.partitions import Partition, _maximal_strict_subsets, all_partitions


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


def gnedin_walk_reference(y_sampler, psi, n, rng):
    """(J_n, ConstrainedState, values) of Gnedin's constrained paintbox by
    walking every step: a uniform at or above the threshold G_K is kept as
    it is, one below is replaced by G_{K+1}; values is that modified
    sequence, G_1 repeated psi_1 times first.  psi and n unchecked."""
    psi = tuple(psi)
    G = float(y_sampler(rng))
    K, R = 1, 0
    g_next = None  # G_{K+1}, sampled once per record level
    values = [G] * psi[0]
    for _ in range(psi[0], n):
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
    st = ConstrainedState(K, R, n)
    return st.J, st, tuple(values)


def split_components_reference(d, b):
    """The (mass, component) list of dislocation._split_components, built
    from the model for this one block size: level by level, then the tail
    at [max(m_cap, 2), b - 1], then the delta atoms."""
    comps = []

    def add_atoms(atoms, lo, hi):
        for s, w in atoms:
            if lo == 1:
                q = 1.0 - sum(si ** 2 for si in s.atoms)
            else:
                q = sum(_colour_masses(s, lo, hi))
            if q > 0:
                comps.append((w * q, ("atom", lo, hi, s)))

    tail = max(d.m_cap, 2)
    for j in range(1, min(tail, b)):
        add_atoms(d.atoms_at(j), j, j)
    if tail < b:
        add_atoms(d.levels[-1], tail, b - 1)
    comps += [(mass, ("delta", blocks, j)) for mass, blocks, j in _delta_atoms(d, b)]
    return comps


def sample_split_reference(d, b, rng):
    """One root split of [b], b >= 2, with the split components rebuilt
    (split_components_reference) and the running colour masses recomputed
    on every call."""
    comps = split_components_reference(d, b)
    masses = list(accumulate(mass for mass, _ in comps))
    if not masses or masses[-1] <= 0:
        raise ModelError("zero splitting rate: degenerate dislocation")
    comp = comps[_pick(masses, rng.random())][1]
    if comp[0] == "delta":
        _, blocks, j = comp
        return Partition.from_blocks(b, blocks(j, tuple(range(1, b + 1))))
    _, lo, hi, s = comp
    probs, cum, colours = _paints(s, b, rng)
    m = len(s.atoms)
    if lo == 1:
        while colours[0] == colours[1] and colours[0] < m:
            colours[0] = np.searchsorted(cum, rng.random())
            colours[1] = np.searchsorted(cum, rng.random())
    else:
        i = _pick(list(accumulate(_colour_masses(s, lo, hi))), rng.random())
        j = lo if lo == hi else _truncated_geometric(s.atoms[i], lo, hi, rng.random())
        colours[:j] = i
        other = np.delete(probs, i)
        colours[j] = np.searchsorted(np.cumsum(other), rng.random() * other.sum())
        if colours[j] >= i:
            colours[j] += 1
    return _paint_partition(colours, m)


def split_tree_reference(d, labels, rng, edge_fn=None):
    """Tree of recursive splits of the sorted labels, node ids in pre-order:
    sample_split_reference(d, b, rng) at every vertex of b >= 2 labels, then
    its blocks relabelled.  With edge_fn, every vertex draws its edge length
    edge_fn(block size) before its split, below a degree-1 virtual root."""
    children = {}
    leaf_label = {}
    length = None if edge_fn is None else {}
    fresh = count().__next__

    def build(labs):
        v = fresh()
        if edge_fn is not None:
            length[v] = edge_fn(len(labs))
        if len(labs) == 1:
            leaf_label[v] = labs[0]
            return v
        pi = sample_split_reference(d, len(labs), rng)
        children[v] = [build([labs[i - 1] for i in b]) for b in pi.blocks]
        return v

    if edge_fn is None:
        return Tree(children, leaf_label, build(sorted(labels)))
    root = fresh()
    children[root] = [build(sorted(labels))]
    return Tree(children, leaf_label, root, length)


def outcome(sample):
    """What sample() returns, or the type of the error it raises.  Trees
    compare by children (in order), leaf labels, root and lengths."""
    try:
        return sample()
    except (ArgumentError, ModelError) as e:
        return type(e)


def validate_partition_reference(n, blocks):
    """Partition(n, blocks).validate() as an element-by-element loop."""
    seen = set()
    for b in blocks:
        if len(b) == 0:
            raise ArgumentError("empty block")
        for x in b:
            if not (1 <= x <= n) or x in seen:
                raise ArgumentError("blocks must partition [n]")
            seen.add(x)
        if tuple(sorted(b)) != tuple(b):
            raise ArgumentError("block not sorted")
    if len(seen) != n:
        raise ArgumentError("blocks must cover [n]")
    mins = [b[0] for b in blocks]
    if mins != sorted(mins):
        raise ArgumentError("blocks not in least-element order")


def rate_reference(d, n):
    """lambda_n as kappa_cylinder summed over the Bell(n) - 1 non-trivial
    partitions of [n], one at a time."""
    if n < 2:
        raise ArgumentError("rates start at n = 2")
    return sum(kappa_cylinder(d, p) for p in all_partitions(n) if not p.is_trivial())


def modified_paintbox_rejection(s, base, n, rng, attempts=10 ** 7):
    """A Kingman partition of [n] on the cylinder of base, by rejection:
    each attempt is one _paints draw of all n paints, and the first whose
    first base.n paints have base's blocks (_colour_blocks) is kept.  It
    costs 1 / z attempts on average, z base's cylinder probability."""
    if n < base.n:
        raise ArgumentError("n must be at least base.n")
    _base_cylinder(s, base)
    k, m, want = base.n, s.m, base.blocks
    for _ in range(attempts):
        colours = _paints(s, n, rng)[2]
        if _colour_blocks(colours[:k].tolist(), m) == want:
            return _paint_partition(colours, m)
    raise ResourceBudgetError("rejection budget exhausted")


def renewal_moment_reference(interarrival_sampler, t, p, reps, rng):
    counts = np.zeros(reps, dtype=np.int64)
    remaining = np.full(reps, float(t))
    active = np.arange(reps)
    chunk = 16
    while len(active):
        draws = interarrival_sampler(rng, (len(active), chunk))
        assert np.all(draws > 0)
        cs = np.cumsum(draws, axis=1)
        counts[active] += np.sum(cs <= remaining[active, None], axis=1)
        done = cs[:, -1] > remaining[active]
        remaining[active[~done]] -= cs[~done, -1]
        active = active[~done]
        chunk *= 2
    return float(np.mean((counts / t) ** p))


def tree_points_reference(mt):
    """(vertices, path metric as an array): each vertex after its parent,
    its row the parent's row plus its own edge length."""
    children, length = mt.children, mt.length
    verts, par, stack = [mt.root], [0], [0]
    while stack:
        i = stack.pop()
        for c in children.get(verts[i], []):
            par.append(i)
            stack.append(len(verts))
            verts.append(c)
    d = np.zeros((len(verts), len(verts)))
    for i in range(1, len(verts)):
        d[i, :i] = d[:i, i] = d[par[i], :i] + length[verts[i]]
    return verts, d


def grown_tree_reference(parent, slot, count, leaves, root):
    """The Tree of growth._grow's lists, with children, leaf_label and
    parent_of built at once, in one pass over the parent list."""
    children, parent_of = {}, dict(enumerate(parent))
    del parent_of[root]
    for u, p in parent_of.items():
        kids = children.get(p)
        if kids is None:
            kids = children[p] = [0] * count[p]
        kids[slot[u]] = u
    return Tree(children, dict(zip(leaves, range(1, len(leaves) + 1))), root, None, parent_of)
