"""Discrete restricted exchangeable dislocation measures and their splitting rules.

A DiscreteDislocation carries, for each level j = 1..m_cap, a finite list of
(mass partition, weight) atoms, where level m_cap stands for every level
j >= m_cap, plus the delta-atom constants c_j (single-leaf separations) and
k_j (full shatter of the complement).  Level j feeds exactly the cylinder
class P^j of partitions whose restriction to [j+1] is {[j], {j+1}}.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .errors import ArgumentError, ModelError, ResourceBudgetError, _check_count
from .paintbox import _colour_blocks, _cylinder_by_sizes, _paints
from .partitions import (ENUMERATION_CAP, PARTITIONS_KEPT, Partition, _kept_partition,
                         _lazy, all_partitions, csv_rows, csv_text, MassPartition)

_EXCLUDED_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDislocation:
    """Finitely supported dislocation data: per-level nu atoms plus c/k constants."""

    levels: tuple          # levels[j-1] = tuple of (MassPartition, weight), j = 1..m_cap
    c: tuple = ()          # c_j, j = 1..len(c); zero beyond
    k: tuple = ()          # k_j likewise
    theorem2_mode: bool = False

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ArgumentError("need at least one level")
        if any(x < 0 for x in self.c + self.k):
            raise ArgumentError("c and k constants must be non-negative")
        for lv in self.levels:
            for s, w in lv:
                if w <= 0:
                    raise ArgumentError("atom weights must be positive")
                if s.m == 0:
                    raise ArgumentError("atom (0,0,...) excluded")
                if s.m == 1 and s.atoms[0] >= 1 - _EXCLUDED_TOL:
                    raise ArgumentError("atom (1,0,...) excluded")
        if self.theorem2_mode:
            if any(x != 0 for x in self.c) or any(x != 0 for x in self.k):
                raise ArgumentError("theorem-2 mode requires c = k = 0")
            for lv in self.levels:
                for s, _ in lv:
                    if s.s0 > _EXCLUDED_TOL:
                        raise ArgumentError("theorem-2 mode requires conservative atoms")

    @_lazy
    def _hash(self):
        """The dataclass hash of the fields, computed once: the model keys
        the cached rates and split laws."""
        return hash((self.levels, self.c, self.k, self.theorem2_mode))

    def __hash__(self):
        return self._hash

    @property
    def m_cap(self):
        return len(self.levels)

    @staticmethod
    def from_level_dict(level_atoms, c=(), k=(), theorem2_mode=False):
        """Build from {level: [(atoms_tuple_or_MassPartition, weight), ...]}."""
        m_cap = max(level_atoms) if level_atoms else 1
        levels = []
        for j in range(1, m_cap + 1):
            lv = []
            for s, w in level_atoms.get(j, []):
                if not isinstance(s, MassPartition):
                    s = MassPartition(tuple(s))
                lv.append((s, float(w)))
            levels.append(tuple(lv))
        return DiscreteDislocation(tuple(levels), tuple(c), tuple(k), theorem2_mode)

    def atoms_at(self, j):
        """The nu_j atom list; level m_cap serves every j >= m_cap."""
        return self.levels[min(_check_count("level", j, 1), self.m_cap) - 1]

    def c_at(self, j):
        return self.c[j - 1] if 1 <= j <= len(self.c) else 0.0

    def k_at(self, j):
        return self.k[j - 1] if 1 <= j <= len(self.k) else 0.0


def nu_mixture_weight(d, atom):
    """Total nu-weight of one atom: sum_j w_j sum_i s_i^j (1 - s_i).

    The capped level contributes its geometric tail in closed form,
    sum_{j >= m} s^j (1 - s) = s^m.
    """
    if not isinstance(atom, MassPartition):
        atom = MassPartition(tuple(atom))
    total = 0.0
    found = False
    for j in range(1, d.m_cap + 1):
        for s, w in d.levels[j - 1]:
            if s != atom:
                continue
            found = True
            if j < d.m_cap:
                total += w * sum(si ** j * (1 - si) for si in s.atoms)
            else:
                total += w * sum(si ** j for si in s.atoms)
    if not found:
        raise ArgumentError("atom does not appear in the dislocation")
    return total


def _epsilon_blocks(j, labels):
    """{{labels[j-1]}, the other labels} as label blocks in order of least
    label, for a tuple of sorted labels."""
    rest = labels[:j - 1] + labels[j:]
    return ((labels[0],), rest) if j == 1 else (rest, (labels[j - 1],))


def _omega_blocks(j, labels):
    """{labels[:j]} and a singleton of each later label, for a tuple of
    sorted labels."""
    return (labels[:j], *zip(labels[j:]))


def _delta_atoms(d, n):
    """(mass, blocks, j) per delta atom of positive mass on P_n, n >= 2,
    whose split of a tuple of sorted labels is blocks(j, labels), canonical
    on 1..n: c_j on {{j+1}, rest} and k_j on {[j], {j+1}, ..., {n}} for
    j <= n - 1, then c_1 once more on {{1}, rest}."""
    atoms = [(cj, _epsilon_blocks, j + 1) for j, cj in enumerate(d.c[:n - 1], 1)]
    atoms += [(kj, _omega_blocks, j) for j, kj in enumerate(d.k[:n - 1], 1)]
    atoms.append((d.c_at(1), _epsilon_blocks, 1))
    return [atom for atom in atoms if atom[0] > 0]


def _ranked_partitions(n, most):
    """The integer partitions of n into parts of at most most, as tuples of
    parts, largest first."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, most), 0, -1)
            for rest in _ranked_partitions(n - first, first)]


def _arrangements(r, sizes):
    """W(r, T): the number of set partitions of r labels into blocks of the
    sizes T (which sum to r), r! / (prod t! prod mult_T(v)!)."""
    ways = math.factorial(r)
    for t in sizes:
        ways //= math.factorial(t)
    for v in set(sizes):
        ways //= math.factorial(sizes.count(v))
    return ways


def _drop(sizes, v):
    """The ranked sizes with one part v taken out."""
    i = sizes.index(v)
    return sizes[:i] + sizes[i + 1:]


@lru_cache(maxsize=32)
def _key_counts(n):
    """{(j, sizes): the number of non-trivial partitions of [n], n >= 2, with
    that cylinder_key}, counted without enumerating partitions.

    A partition of class j with ranked sizes S has a block A of a >= j
    labels that holds 1..j, and a block B of b labels whose least label is
    j + 1.  A takes a - j of the n - j - 1 labels above j + 1, B takes b - 1
    of the n - a - 1 labels left, and the other n - a - b labels form the
    blocks of T = S without {a, b} in _arrangements(n - a - b, T) ways; the
    count sums this over the distinct values a >= j in S and b in S minus
    {a}.  The counts of all keys add up to Bell(n) - 1.
    """
    counts = {}
    for sizes in _ranked_partitions(n, n):
        if len(sizes) < 2:
            continue
        for a in sorted(set(sizes), reverse=True):
            rest_a = _drop(sizes, a)
            for b in sorted(set(rest_a), reverse=True):
                ways = math.comb(n - a - 1, b - 1) * _arrangements(n - a - b, _drop(rest_a, b))
                for j in range(1, a + 1):
                    key = (j, sizes)
                    counts[key] = counts.get(key, 0) + math.comb(n - j - 1, a - j) * ways
    return counts


def _level_weight(d, key):
    """The paintbox part of kappa(P^p) for every p of cylinder key (j,
    sizes): the level-j atoms' cylinder masses, read off each atom's
    cylinder table."""
    j, sizes = key
    return sum(w * _cylinder_by_sizes(s, sizes) for s, w in d.atoms_at(j))


def _level_weights(d, n):
    """{key: _level_weight(d, key)} over the keys of _key_counts(n)."""
    return {key: _level_weight(d, key) for key in _key_counts(n)}


def kappa_cylinder(d, p):
    """kappa(P^p) of one non-trivial partition p: its level-j paintbox cylinder
    plus the delta atoms on p."""
    if p.is_trivial():
        raise ArgumentError("trivial partition has no dislocation cylinder")
    labels = tuple(range(1, p.n + 1))
    return _level_weight(d, p.cylinder_key) + sum(
        mass for mass, blocks, j in _delta_atoms(d, p.n) if blocks(j, labels) == p.blocks)


def _keyed_partitions(n):
    """(the non-trivial partitions of [n] in all_partitions order, their
    cylinder keys).  Kept for n <= PARTITIONS_KEPT, as all_partitions keeps
    those partitions, and built afresh for larger n, whose partitions
    all_partitions does not keep either."""
    return _kept_keyed_partitions(n) if n <= PARTITIONS_KEPT else _list_keyed_partitions(n)


def _list_keyed_partitions(n):
    parts = tuple(p for p in all_partitions(n) if not p.is_trivial())
    return parts, tuple(p.cylinder_key for p in parts)


_kept_keyed_partitions = lru_cache(maxsize=PARTITIONS_KEPT)(_list_keyed_partitions)


def _cylinder_weights(d, n, levels, scale):
    """{p: kappa(P^p) / scale} over the non-trivial partitions of [n], n >= 2.

    The level part is restricted exchangeable: it depends on p only through
    p.cylinder_key, so each key's value (levels, from _level_weights) is
    scaled once and expanded to the partitions of that key in one pass;
    the delta atoms then add their scaled masses to their own partitions.
    """
    parts, keys = _keyed_partitions(n)
    per_key = {key: w / scale for key, w in levels.items()}
    weights = dict(zip(parts, map(per_key.__getitem__, keys)))
    labels = tuple(range(1, n + 1))
    for mass, blocks, j in _delta_atoms(d, n):
        weights[Partition(n, blocks(j, labels))] += mass / scale
    return weights


@dataclass
class SplittingRuleTable:
    """Normalized law of the root split of [n]; zero on the trivial partition.

    probs is a read-only view: the table builders cache their tables, so
    one table is shared by every caller.
    """

    n: int
    probs: dict

    def __post_init__(self):
        self.probs = MappingProxyType(self.probs)

    @_lazy
    def draw(self):
        """draw(rng): one categorical draw from the table, built on first use.

        The partitions are sorted by to_text and their cumulative sums taken
        once per table; a draw is one rng.random() and one bisection."""
        items = sorted(self.probs.items(), key=lambda kv: kv[0].to_text())
        parts = [p for p, _ in items]
        ps = np.array([v for _, v in items])
        cum, total, last = np.cumsum(ps).tolist(), float(ps.sum()), len(parts) - 1

        def draw(rng):
            return parts[min(bisect_left(cum, rng.random() * total), last)]
        return draw

    def validate(self):
        if abs(sum(self.probs.values()) - 1.0) > 1e-12:
            raise ArgumentError("probabilities must sum to 1")
        for p in self.probs:
            if p.is_trivial():
                raise ArgumentError("trivial partition must carry no mass")

    def to_csv(self):
        rows = [(p.to_text(), repr(self.probs[p]))
                for p in sorted(self.probs, key=Partition.to_text)]
        return csv_text(rows, ("partition", "probability"))

    @staticmethod
    def from_csv(text):
        probs = {Partition.from_text(key): float(prob) for key, prob in csv_rows(text)}
        if not probs:
            raise ArgumentError("splitting-table CSV holds no rows")
        n = max(p.n for p in probs)
        probs = {Partition.from_blocks(n, p.blocks): v for p, v in probs.items()}
        return SplittingRuleTable(n, probs)


def _full_table(n, probs):
    """The validated table on the non-trivial partitions of [n]; probs maps
    canonical block tuples to probabilities, 0 where absent."""
    t = SplittingRuleTable(n, {p: probs.get(p.blocks, 0.0) for p in all_partitions(n)
                               if not p.is_trivial()})
    t.validate()
    return t


def _keyed_rate(d, n, levels):
    """lambda_n from the level weight of each key, times the number of
    partitions with that key, plus the delta masses."""
    counts = _key_counts(n)
    return (sum(counts[key] * w for key, w in levels.items())
            + sum(mass for mass, _, _ in _delta_atoms(d, n)))


def rate(d, n):
    """lambda_n = kappa(all non-trivial cylinders of P_n); non-decreasing in n.

    Summed per cylinder key: each key's paintbox cylinder mass times the
    number of partitions with that key (_key_counts), plus the delta
    masses, with no partition enumerated.  It reads the cylinder DP, not
    the split components, so it stays the independent oracle of
    rate_closed_form.
    """
    n = _check_count("n", n, 2)
    return _keyed_rate(d, n, _level_weights(d, n))


def rate_closed_form(d, n):
    """lambda_n summed per mixture component instead of per cylinder key.

    The fast path of rate(), which stays its oracle: the total of the
    component masses that sample_split draws from.  The capped level's
    classes j >= m_cap enter as one geometric tail per atom, and the parts
    that do not depend on n come from the model's cached split law, so a
    call costs O(atoms + components) for every n.
    """
    n = _check_count("n", n, 2)
    return sum((mass for mass, _ in _split_components(d, n)), 0.0)


def splitting_rule(d, n):
    """The validated table of the root split of [n] on every non-trivial
    partition, kappa(P^p) / lambda_n, with lambda_n the keyed rate.  Each
    key's level weight is computed once and serves both."""
    n = _check_count("n", n, 2)
    levels = _level_weights(d, n)
    lam = _keyed_rate(d, n, levels)
    if lam <= 0:
        raise ModelError("zero splitting rate: degenerate dislocation")
    # the weights already cover every non-trivial partition, in order
    t = SplittingRuleTable(n, _cylinder_weights(d, n, levels, lam))
    t.validate()
    return t


def table_to_eppf(table, strict=True, tol=1e-9):
    """Collapse a splitting table to (class j, size vector) -> probability.

    Relies on restricted exchangeability; with strict=True unequal weights
    within a collapse group raise, otherwise the group average is used.
    """
    groups = {}
    for p, w in table.probs.items():
        key = (p.cylinder_class(), tuple(len(b) for b in p.blocks))
        groups.setdefault(key, []).append(w)
    out = {}
    for key, ws in groups.items():
        if strict and max(ws) - min(ws) > tol:
            raise ArgumentError("table is not restricted exchangeable")
        out[key] = sum(ws) / len(ws)
    return out


def _compositions(n):
    """The ordered size vectors of n with at least two parts."""
    return [(first,) + rest for first in range(n - 1, 0, -1)
            for rest in [(n - first,)] + _compositions(n - first)]


def _keyed_eppf(d, n):
    """{(j, block sizes in least-label order): the probability of each
    partition of [n] with that class and size vector}, n >= 2, with no
    partition enumerated.  The level part depends on the sizes only
    through their ranking; each delta atom sits on a partition that is
    alone with its (class, sizes)."""
    levels = _level_weights(d, n)
    lam = _keyed_rate(d, n, levels)
    if lam <= 0:
        raise ModelError("zero splitting rate: degenerate dislocation")
    eppf = {}
    for sizes in _compositions(n):
        ranked = tuple(sorted(sizes, reverse=True))
        for j in range(1, sizes[0] + 1):
            eppf[(j, sizes)] = levels[(j, ranked)]
    labels = tuple(range(1, n + 1))
    for mass, blocks, j in _delta_atoms(d, n):
        split = blocks(j, labels)
        eppf[(split[1][0] - 1, tuple(map(len, split)))] += mass
    return {key: w / lam for key, w in eppf.items()}


def _recursion_residual(n, ep_n, ep_np1):
    """Max over the keys of ep_n of the one-step consistency residual
    between the EPPFs ep_n and ep_np1 of levels n and n + 1."""
    stick = ep_np1.get((n, (n, 1)), 0.0)
    worst = 0.0
    for (j, sizes), p in ep_n.items():
        rhs = stick * p
        for i in range(len(sizes)):
            grown = sizes[:i] + (sizes[i] + 1,) + sizes[i + 1:]
            rhs += ep_np1.get((j, grown), 0.0)
        rhs += ep_np1.get((j, sizes + (1,)), 0.0)
        worst = max(worst, abs(p - rhs))
    return worst


def eppf_recursion_residual(table_n, table_np1, strict=True):
    """Max residual of the one-step consistency recursion between levels n and n+1.

    p_n^j(n_1..n_k) should equal p_{n+1}^n(n,1) p_n^j(n_1..n_k)
    + sum_i p_{n+1}^j(.., n_i + 1, ..) + p_{n+1}^j(n_1..n_k, 1).
    The tables must be of sizes n and n + 1.
    """
    n = table_n.n
    if table_np1.n != n + 1:
        raise ArgumentError(f"tables of sizes {n} and {table_np1.n}, not n and n + 1")
    return _recursion_residual(n, table_to_eppf(table_n, strict=strict),
                               table_to_eppf(table_np1, strict=strict))


def consistency_residual(d, n):
    """The one-step EPPF consistency residual of model d between [n] and
    [n + 1], from the keyed EPPFs (_keyed_eppf), with no table built.
    n + 1 stays within the tables' cap, ENUMERATION_CAP."""
    n = _check_count("n", n, 2)
    if n + 1 > ENUMERATION_CAP:
        raise ArgumentError(f"consistency residual capped at n + 1 = {ENUMERATION_CAP}")
    return _recursion_residual(n, _keyed_eppf(d, n), _keyed_eppf(d, n + 1))


def _split_components(d, b):
    """(mass, component) list of the root split of a block of size b >= 2.

    A level component ("atom", lo, hi, s) covers the paintbox classes
    j = lo..hi of one atom s: its mass is P(paintbox of [b] lands in one of
    those classes) on P_b, the sum of its _colour_masses (for class 1 it is
    1 - sum s_i^2, which also lets the second paint fall in dust).  Every
    class j < max(m_cap, 2) gets one component per atom of nu_j, with
    per-colour masses s_i^j (1 - s_i).  The capped level serves every class
    j in [max(m_cap, 2), b - 1] through one tail component per atom, whose
    per-colour masses are the geometric sums s_i^lo - s_i^b.  A delta atom
    ("delta", blocks, j) of _delta_atoms puts its constant on the split
    blocks(j, labels) of the block's labels.
    Components of zero mass are dropped.  Whatever b is, the list holds at
    most one entry per atom of each level (two per atom when m_cap = 1) and
    one per c_j, k_j and c_1, so its cost does not depend on b.  The list
    is read off the model's cached split law (_SplitLaw.components).
    """
    return [(mass, comp) for mass, comp, _ in _split_law(d).components(b)]


def _delta_components(d, n):
    """(mass, component, draw) of each delta atom of _delta_atoms(d, n); a
    delta draws nothing, it puts the block's labels on its split."""
    return [(mass, ("delta", blocks, j), lambda rng, labels, blocks=blocks, j=j: blocks(j, labels))
            for mass, blocks, j in _delta_atoms(d, n)]


def _colour_masses(s, lo, hi):
    """Per-colour masses s_i^lo (1 - s_i^(hi + 1 - lo)) of classes lo..hi of atom s."""
    return (si ** lo * (1.0 - si ** (hi + 1 - lo)) for si in s.atoms)


def _pick(cum, u):
    """Index drawn from running sums cum by one uniform u in [0, 1)."""
    return min(bisect_right(cum, u * cum[-1]), len(cum) - 1)


def _truncated_geometric(s, lo, hi, u):
    """Inverse-CDF draw of j on lo..hi with P(j) proportional to s^j, 0 < s < 1."""
    ls = math.log(s)
    t = math.floor(math.log1p(u * math.expm1((hi + 1 - lo) * ls)) / ls)
    return lo + min(max(t, 0), hi - lo)


def _level_draw(s, lo, hi):
    """draw(rng, labels) of one level component ("atom", lo, hi, s) on the
    block of the given labels: the paints, then the conditioning of the
    class event.  A tail component (hi None) covers the classes lo..b - 1
    of a block of b labels, so one draw serves every block size.  It reads
    the atom's colour table only when drawn, so rate_closed_form, which
    reads the components of a split law and draws none, never builds one."""
    m = len(s.atoms)
    if lo == 1:
        cum = None

        def draw(rng, labels):
            nonlocal cum
            # condition on paints 1 and 2 sitting in different blocks
            colours = _paints(s, len(labels), rng)[2].tolist()
            while colours[0] == colours[1] and colours[0] < m:
                if cum is None:
                    cum = s.colour_table[1].tolist()
                colours[0] = bisect_left(cum, rng.random())
                colours[1] = bisect_left(cum, rng.random())
            return _colour_blocks(colours, m, labels)
        return draw

    # paints 1..j share colour i (chosen by its mass over classes lo..hi,
    # then j given i); paint j+1 avoids colour i; the rest stay free
    level_cum = None if hi is None else list(accumulate(_colour_masses(s, lo, hi)))
    others = [None] * m     # colour i -> running sums and total of the other colours

    def draw(rng, labels):
        b = len(labels)
        probs, _, colours = _paints(s, b, rng)
        colours = colours.tolist()
        top = hi or b - 1
        colour_cum = level_cum or list(accumulate(_colour_masses(s, lo, top)))
        i = _pick(colour_cum, rng.random())
        j = lo if lo == top else _truncated_geometric(s.atoms[i], lo, top, rng.random())
        colours[:j] = [i] * j
        if others[i] is None:
            other = np.delete(probs, i)
            others[i] = np.cumsum(other).tolist(), float(other.sum())
        other_cum, other_total = others[i]
        c = bisect_left(other_cum, rng.random() * other_total)
        colours[j] = c + 1 if c >= i else c
        return _colour_blocks(colours, m, labels)
    return draw


class _SplitLaw:
    """The root-split law of one model at every block size b >= 2.

    Its parts do not depend on b: the level components of the classes below
    the tail, the tail's atoms, the delta atoms, and one draw for each
    (_level_draw reads b from the labels it is given and keeps the running
    colour sums it reads).  From the threshold max(m_cap, 2, len(c),
    len(k)) + 1 on, two block sizes differ only in the tail's per-colour
    masses, so a block size there adds its tail masses and the running sums
    of the component masses, O(atoms + components).  A frame (those running
    sums and the draws) is kept for each of the threshold - 2 block sizes
    below the threshold, and for no other.
    """

    def __init__(self, d):
        self.d = d
        tail = self.tail = max(d.m_cap, 2)
        self.threshold = max(tail, len(d.c), len(d.k)) + 1
        self.head = []      # (mass, component, draw) of the classes 1..tail-1
        for j in range(1, tail):
            for s, w in d.atoms_at(j):
                q = 1.0 - sum(si ** 2 for si in s.atoms) if j == 1 \
                    else sum(_colour_masses(s, j, j))
                if q > 0:
                    self.head.append((w * q, ("atom", j, j, s), _level_draw(s, j, j)))
        self.tail_atoms = [(s, w, _level_draw(s, tail, None)) for s, w in d.levels[-1]]
        self.deltas = _delta_components(d, self.threshold)
        self.frames = {}    # b < threshold -> frame

    def components(self, b):
        """(mass, component, draw) list of the root split of a block of size
        b >= 2, as _split_components describes it."""
        below = b < self.threshold
        comps = [c for c in self.head if c[1][1] < b] if below else self.head.copy()
        tail = self.tail
        if tail < b:
            for s, w, draw in self.tail_atoms:
                q = sum(_colour_masses(s, tail, b - 1))
                if q > 0:
                    comps.append((w * q, ("atom", tail, b - 1, s), draw))
        return comps + (_delta_components(self.d, b) if below else self.deltas)

    def _frame(self, b):
        """(running sums of the component masses, component draws) at block
        size b."""
        masses, draws, total = [], [], 0.0
        for mass, _, draw in self.components(b):
            total += mass
            masses.append(total)
            draws.append(draw)
        if not masses or total <= 0:
            raise ModelError("zero splitting rate: degenerate dislocation")
        return masses, draws

    def split(self, labels, rng):
        """One root split of a block of b >= 2 sorted labels, as the tuple of
        child label blocks in order of least label."""
        b = len(labels)
        frame = self.frames.get(b)
        if frame is None:
            frame = self._frame(b)
            if b < self.threshold:
                self.frames[b] = frame
        masses, draws = frame
        return draws[_pick(masses, rng.random())](rng, labels)


@lru_cache(maxsize=32)
def _split_law(d):
    """The _SplitLaw of model d, built once per model; law.split(labels,
    rng) draws one root split of a block of b >= 2 sorted labels, as the
    tuple of child label blocks in order of least label.

    A call picks a component by one uniform against the running sums of
    the component masses at b; for a level component it picks the colour i
    by its per-colour mass and, for a tail, the class j by inverting the
    truncated geometric law P(j) proportional to s_i^j on [lo, b - 1].
    Then it samples the conditioned paintbox directly: only the first j+1
    paints are constrained by the class-j event.  The paints are grouped
    straight into label blocks (_colour_blocks), so apart from the O(b)
    paints the cost of a call does not grow with b.
    """
    return _SplitLaw(d)


def sample_split(d, b, rng):
    """Draw one root split of a block of size b >= 2, without building P_b
    tables: the validated Partition of the model's cached law _split_law(d)
    on the labels 1..b.  For b <= PARTITIONS_KEPT it is the kept one
    (partitions._kept_partition), validated when first drawn."""
    b = _check_count("b", b, 2)
    p = _kept_partition(b, _split_law(d).split(tuple(range(1, b + 1)), rng))
    if b > PARTITIONS_KEPT:
        p.validate()
    return p


# ---------------------------------------------------------------------------
# alpha-gamma model
# ---------------------------------------------------------------------------

def _check_alphagamma_params(alpha, gamma):
    if not (0 <= gamma <= alpha <= 1):
        raise ArgumentError("need 0 <= gamma <= alpha <= 1")


@lru_cache(maxsize=256)
def _alphagamma_root_splits(alpha, gamma, m):
    """{blocks: P(root split of T_m = blocks)}, m >= 2, over canonical block
    tuples; partitions of zero probability are left out.

    The root split is a Markov chain in m.  It starts at 1|2.  Leaf m + 1
    joins block B with probability (|B| - alpha)/(m - alpha), the edge and
    vertex weight of B's subtree, the edge above B included.  It opens
    {m + 1} at a root vertex of k children with probability
    ((k - 1) alpha - gamma)/(m - alpha).  It takes the root edge with
    probability gamma/(m - alpha), which gives [m]|{m + 1} whatever the
    split was.  Every level is cached, so the chain of one (alpha, gamma)
    grows one leaf at a time.
    """
    if m == 2:
        return {((1,), (2,)): 1.0}
    prev, x, denom = _alphagamma_root_splits(alpha, gamma, m - 1), (m,), m - 1 - alpha
    join = [size - alpha for size in range(m)]   # join[|B|], |B| >= 1
    law = {}
    for blocks, pr in prev.items():
        pr /= denom
        for i, b in enumerate(blocks):
            w = join[len(b)]
            if w > 0:
                key = blocks[:i] + (b + x,) + blocks[i + 1:]
                law[key] = law.get(key, 0.0) + pr * w
        w = (len(blocks) - 1) * alpha - gamma
        if w > 0:
            key = blocks + (x,)
            law[key] = law.get(key, 0.0) + pr * w
    if gamma > 0:
        key = (tuple(range(1, m)), x)
        law[key] = law.get(key, 0.0) + gamma / denom
    return law


@lru_cache(maxsize=64, typed=True)
def alphagamma_growth_split_oracle(alpha, gamma, n):
    """Exact root-split law of the n-leaf alpha-gamma tree, 2 <= n <= 10.

    The root split of T_m is a Markov chain in m over set partitions (see
    _alphagamma_root_splits), run once per (alpha, gamma) and extended leaf
    by leaf; n = 10 takes about a second cold.  Beyond n = 10 it raises
    ResourceBudgetError.  Its test oracle at n <= 7 is the root-split
    marginal of alphagamma_tree_distribution in tests/oracles.py, which
    enumerates whole tree histories.  Tables are cached and shared: their
    probs are read-only; the cache is typed, so n = 4.0 fails the size check.
    """
    _check_alphagamma_params(alpha, gamma)
    n = _check_count("n", n, 2)
    if n > 10:
        raise ResourceBudgetError("alpha-gamma root-split chain capped at n = 10")
    return _full_table(n, _alphagamma_root_splits(alpha, gamma, n))


def alphagamma_eppf(alpha, gamma, sizes, cls):
    """The displayed closed-form EPPF p_n^1 / p_n^2, evaluated verbatim.

    The Gamma ratios are expanded as products so gamma = alpha costs no pole:
    Gamma(k-1-g/a)/Gamma(1-g/a) = prod_{i=1}^{k-2} (i - g/a).
    Known to disagree with the growth-rule oracle by a normalization factor;
    see the EPPF audit test.
    """
    sizes = tuple(int(x) for x in sizes)
    if cls not in (1, 2):
        raise ArgumentError("class must be 1 or 2")
    if len(sizes) < 2 or any(x < 1 for x in sizes) or list(sizes) != sorted(sizes, reverse=True):
        raise ArgumentError("sizes must be a non-increasing vector of >= 2 positive parts")
    _check_alphagamma_params(alpha, gamma)
    k = len(sizes)
    n = sum(sizes)
    pref = (1 - alpha) if cls == 1 else gamma
    if k > 2 and alpha == 0:
        return 0.0
    term = pref * alpha ** (k - 2)
    for i in range(1, k - 1):
        term *= (i - gamma / alpha)
    for j in range(2, n + 1):
        term /= (j - alpha)
    for ni in sizes:
        for j in range(1, ni):
            term *= (j - alpha)
    return term


# ---------------------------------------------------------------------------
# skewed Poisson-Dirichlet model
# ---------------------------------------------------------------------------

def _check_spd_params(alpha, theta, lam):
    if not (0 < alpha < 1):
        raise ArgumentError("alpha must be in (0,1)")
    if theta < -2 * alpha:
        raise ArgumentError("theta must be >= -2 alpha")
    if not (0 <= lam <= 1):
        raise ArgumentError("lambda must be in [0,1]")


def skewed_pd_ranked_split(alpha, theta, lam, n):
    """Closed-form law of the ranked block sizes of the root split, n in {2,3,4}."""
    _check_spd_params(alpha, theta, lam)
    if n == 2:
        return {(1, 1): 1.0}
    a = alpha
    if n == 3:
        num = {(1, 1, 1): lam * (2 * a + theta),
               (2, 1): (1 + lam) * (1 - a)}
    elif n == 4:
        num = {(1, 1, 1, 1): lam * (3 * a + theta) * (2 * a + theta),
               (2, 1, 1): (1 + 4 * lam) * (2 * a + theta) * (1 - a),
               (2, 2): (1 + lam) * (1 - a) ** 2,
               (3, 1): 2 * (1 - a) * (2 - a)}
    else:
        raise ArgumentError("closed forms available for n = 2, 3, 4 only")
    D = sum(num.values())
    return {r: v / D for r, v in num.items()}


def sampling_consistency_residual(alpha, theta, lam):
    """|P(S3=(1,1,1)) - P(S4=(1,1,1,1)) - P(S4=(2,1,1))/2 - P(S4=(3,1)) P(S3=(1,1,1))/4|."""
    s3 = skewed_pd_ranked_split(alpha, theta, lam, 3)
    s4 = skewed_pd_ranked_split(alpha, theta, lam, 4)
    lhs = s3[(1, 1, 1)]
    rhs = (s4[(1, 1, 1, 1)] + 0.5 * s4[(2, 1, 1)]
           + 0.25 * s4[(3, 1)] * s3[(1, 1, 1)])
    return abs(lhs - rhs)


@lru_cache(maxsize=1024)
def skewed_pd_splitting_table(alpha, theta, lam, n):
    """Partition-level splitting table recovered from the ranked-size laws.

    Within a ranked-size class the only asymmetry is the lambda vs 1-lambda
    skew between class 1 and classes j >= 2, because the underlying paintbox
    kernel is exchangeable.  Tables are cached on their arguments, so a
    Markov branching sampler builds each one, and its draw, once.
    """
    ranked = skewed_pd_ranked_split(alpha, theta, lam, n)
    by_sizes = {}
    for p in all_partitions(n):
        if not p.is_trivial():
            by_sizes.setdefault(p.size_multiset, []).append(p)
    probs = {}
    for r, pr in ranked.items():
        members = by_sizes.get(r, [])
        fac = [lam if p.cylinder_class() == 1 else 1 - lam for p in members]
        z = sum(fac)
        for p, f in zip(members, fac):
            probs[p.blocks] = pr * f / z if z > 0 else 0.0
    return _full_table(n, probs)
