"""Set partitions, mass partitions, hierarchies and exchangeability predicates.

Partitions of [n] are kept in canonical form: blocks sorted internally and
listed in increasing order of least element.  The canonical text form joins
blocks with "|" and elements with spaces, e.g. "1 3|2".
"""

import csv
import io
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ArgumentError, _check_count, _is_integer_type

TOL = 1e-12
ENUMERATION_CAP = 12   # the largest n whose Bell(n) partitions are enumerated


class _lazy:
    """A value computed on first use and kept in the instance's __dict__,
    where later lookups find it before this (non-data) descriptor.  Like
    functools.cached_property, without the lock it takes on Python 3.11;
    it also works on frozen dataclasses."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Partition:
    """A set partition of {1, ..., n}, blocks ordered by least element."""

    n: int
    blocks: tuple

    @staticmethod
    def from_blocks(n, blocks):
        bs = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        p = Partition(n, bs)
        p.validate()
        return p

    def validate(self):
        """Canonical blocks of [n]: none empty, of integer elements (no bool,
        no float such as 1.0) that together hold each of 1..n once, each
        block sorted, and listed by least element.  Each test is one pass in
        C over the blocks, after the size check of n."""
        _check_count("n", self.n, 0)
        blocks = self.blocks
        if not all(blocks):
            raise ArgumentError("empty block")
        elements = list(chain.from_iterable(blocks))
        if not all(map(_is_integer_type, set(map(type, elements)))):
            raise ArgumentError("the elements of a partition must be integers")
        if sorted(elements) != list(range(1, self.n + 1)):
            raise ArgumentError("blocks must partition [n]")
        lists = list(map(list, blocks))
        if list(map(sorted, blocks)) != lists:
            raise ArgumentError("block not sorted")
        # disjoint sorted blocks compare by their least elements
        if sorted(lists) != lists:
            raise ArgumentError("blocks not in least-element order")

    @property
    def k(self):
        return len(self.blocks)

    @_lazy
    def _hash(self):
        """The dataclass hash of (n, blocks), computed once: partitions key
        every exact table."""
        return hash((self.n, self.blocks))

    def __hash__(self):
        return self._hash

    @_lazy
    def size_multiset(self):
        """Block sizes, largest first; computed on first use and kept."""
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def to_text(self):
        return "|".join(" ".join(str(x) for x in b) for b in self.blocks)

    @staticmethod
    def from_text(text):
        """The partition of [n] written as text, n its largest element."""
        blocks = [[int(x) for x in part.split()] for part in text.split("|")]
        return Partition.from_blocks(max(map(max, blocks)), blocks)

    def is_trivial(self):
        return len(self.blocks) == 1

    def cylinder_class(self):
        """The j with self in P^j = P^{{[j],{j+1}}}, or None for the trivial partition."""
        if self.is_trivial():
            return None
        return min(self.blocks[1]) - 1

    @_lazy
    def cylinder_key(self):
        """(cylinder class, block-size multiset), computed on first use: a
        restricted exchangeable law weighs p through this key alone."""
        return (self.cylinder_class(), self.size_multiset)


@dataclass(frozen=True)
class MassPartition:
    """Finitely supported ranked mass partition; dust s0 = 1 - sum(atoms)."""

    atoms: tuple

    def __post_init__(self):
        a = tuple(float(x) for x in self.atoms)
        object.__setattr__(self, "atoms", a)
        if any(x <= 0 for x in a):
            raise ArgumentError("atoms must be strictly positive")
        if list(a) != sorted(a, reverse=True):
            raise ArgumentError("atoms must be non-increasing")
        if sum(a) > 1 + TOL:
            raise ArgumentError("atoms sum above 1")

    @_lazy
    def s0(self):
        return min(max(1.0 - sum(self.atoms), 0.0), 1.0)

    @_lazy
    def colour_table(self):
        """(probs, cum): the colour probabilities (s_1, ..., s_m, s0) and
        their running sums, built once and read-only, as every paintbox draw
        of this mass partition shares them."""
        probs = np.array(self.atoms + (self.s0,))
        cum = np.cumsum(probs)
        probs.flags.writeable = cum.flags.writeable = False
        return probs, cum

    @_lazy
    def cylinder_table(self):
        """{block-size multiset: Kingman cylinder probability}, empty until
        paintbox.kingman_cylinder_prob fills it one multiset at a time; one
        table per mass partition, as every cylinder of it shares its atoms
        and dust.  It holds at most one entry per integer partition asked
        for."""
        return {}

    @property
    def m(self):
        return len(self.atoms)


@dataclass(frozen=True)
class Hierarchy:
    """A laminar family over [n] containing the ground set, every singleton and the empty set."""

    n: int
    members: frozenset

    @staticmethod
    def from_sets(n, sets):
        ms = frozenset(frozenset(s) for s in sets) | {frozenset()}
        h = Hierarchy(n, ms)
        h.validate()
        return h

    def validate(self):
        ground = frozenset(range(1, _check_count("n", self.n, 0) + 1))
        if ground not in self.members or frozenset() not in self.members:
            raise ArgumentError("hierarchy must contain [n] and the empty set")
        for x in ground:
            if frozenset({x}) not in self.members:
                raise ArgumentError("hierarchy must contain all singletons")
        ms = [m for m in self.members if m]
        for i, a in enumerate(ms):
            if not a <= ground:
                raise ArgumentError("member outside ground set")
            for b in ms[i + 1:]:
                if not (a <= b or b <= a or not (a & b)):
                    raise ArgumentError("members must be nested or disjoint")


@dataclass
class FiniteMeasureOnPartitions:
    """Non-negative weights on all of P_n (plumbing for the exchangeability predicates)."""

    n: int
    weights: dict

    def validate_total(self):
        full = set(all_partitions(self.n))
        if set(self.weights) != full:
            raise ArgumentError("weights must be defined on all of P_n")
        if any(w < 0 for w in self.weights.values()):
            raise ArgumentError("weights must be non-negative")


@lru_cache(maxsize=None, typed=True)
def all_partitions(n):
    """All set partitions of [n], canonical order. Capped at ENUMERATION_CAP = 12
    (Bell(12) ~ 4.2M).  The cache is typed, so 4.0 or True never finds the
    entry of 4 or 1 and fails the size check.

    x joins each block of a partition of [x - 1] in turn, then opens its
    own; as x exceeds every earlier label, the block tuples come out
    canonical and need no sorting or validation.
    """
    n = _check_count("n", n, 1)
    if n > ENUMERATION_CAP:
        raise ArgumentError(f"exhaustive enumeration capped at n = {ENUMERATION_CAP}")
    parts = [((1,),)]
    for x in range(2, n + 1):
        nxt = []
        for p in parts:
            nxt.extend(p[:i] + (b + (x,),) + p[i + 1:] for i, b in enumerate(p))
            nxt.append(p + ((x,),))
        parts = nxt
    return tuple(Partition(n, p) for p in parts)


def restrict_partition(p, m):
    """Trace the blocks on [m] and drop what becomes empty."""
    if _check_count("m", m, 1) > p.n:
        raise ArgumentError("m out of range")
    blocks = [[x for x in b if x <= m] for b in p.blocks]
    return Partition.from_blocks(m, [b for b in blocks if b])


def restrict_hierarchy(h, m):
    if _check_count("m", m, 1) > h.n:
        raise ArgumentError("m out of range")
    return Hierarchy.from_sets(m, {frozenset(x for x in a if x <= m) for a in h.members})


def children_of(h, B):
    """Partition of B into its maximal strict subsets present in h, as sorted
    blocks in least-element order."""
    B = frozenset(B)
    if B not in h.members or len(B) < 2:
        raise ArgumentError("B must be a non-singleton member of the hierarchy")
    blocks = _maximal_strict_subsets(h.members, B)
    if frozenset().union(*blocks) != B:
        raise ArgumentError("maximal subsets do not cover B")
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def _maximal_strict_subsets(sets, B):
    """The maximal non-empty strict subsets of B among the laminar sets: B's
    children in a hierarchy.  One pass, largest first: a strict subset is
    maximal exactly when it is disjoint from the larger ones already taken."""
    taken, covered = [], set()
    for a in sorted((a for a in sets if a and a < B), key=len, reverse=True):
        if covered.isdisjoint(a):
            taken.append(a)
            covered |= a
    return taken


def _equal_within_groups(weights, keyfun, tol=TOL):
    groups = {}
    for p, w in weights.items():
        groups.setdefault(keyfun(p), []).append(w)
    return all(max(ws) - min(ws) <= tol for ws in groups.values())


def classify_exchangeability(mu):
    """Flags for exchangeable / partially exchangeable / restricted exchangeable.

    exchangeable: equal weight on equal block-size multisets.
    partially_exchangeable: equal weight on equal size vectors in least-element order.
    restricted_exchangeable: within each class P^j (j = min of second block minus 1),
    equal weight on equal block-size multisets.  The trivial partition sits in no class.
    """
    mu.validate_total()
    w = mu.weights
    exch = _equal_within_groups(w, lambda p: p.size_multiset)
    partial = _equal_within_groups(w, lambda p: tuple(len(b) for b in p.blocks))
    nontriv = {p: x for p, x in w.items() if not p.is_trivial()}
    restricted = _equal_within_groups(nontriv, lambda p: p.cylinder_key)
    return {
        "exchangeable": exch,
        "partially_exchangeable": partial,
        "restricted_exchangeable": restricted,
    }


def csv_text(rows, header):
    """CSV text of a header and rows, LF line endings."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def csv_rows(text):
    """The data rows of CSV text as lists of strings; header and blank lines dropped."""
    return [r for r in csv.reader(io.StringIO(text)) if r][1:]
