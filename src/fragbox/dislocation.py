"""Discrete restricted exchangeable dislocation measures and their splitting rules.

A DiscreteDislocation carries, for each level j = 1..m_cap, a finite list of
(mass partition, weight) atoms, where level m_cap stands for every level
j >= m_cap, plus the delta-atom constants c_j (single-leaf separations) and
k_j (full shatter of the complement).  Level j feeds exactly the cylinder
class P^j of partitions whose restriction to [j+1] is {[j], {j+1}}.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import ArgumentError, ModelError, ResourceBudgetError
from .paintbox import _paint_partition, _paints, kingman_cylinder_prob
from .partitions import (Partition, all_partitions, block_size_multiset,
                         csv_rows, csv_text, MassPartition)

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
        if j < 1:
            raise ArgumentError("level must be >= 1")
        return self.levels[min(j, self.m_cap) - 1]

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


def _epsilon_restricted(j, n):
    """{{j}, [n] minus {j}} as a partition of [n], 1 <= j <= n."""
    return Partition.from_blocks(n, [[x for x in range(1, n + 1) if x != j], [j]])


def _omega_restricted(j, n):
    """{[j], {j+1}, ..., {n}} as a partition of [n], 1 <= j < n."""
    return Partition.from_blocks(n, [range(1, j + 1)] + [[x] for x in range(j + 1, n + 1)])


def _delta_atoms(d, n):
    """(mass, build, j) per delta atom of positive mass on P_n, n >= 2, whose
    partition build(j, n) is left to callers that need it: c_j on
    {{j+1}, rest} and k_j on {[j], {j+1}, ..., {n}} for j <= n - 1, then
    c_1 once more on {{1}, rest}."""
    atoms = [(cj, _epsilon_restricted, j + 1) for j, cj in enumerate(d.c[:n - 1], 1)]
    atoms += [(kj, _omega_restricted, j) for j, kj in enumerate(d.k[:n - 1], 1)]
    atoms.append((d.c_at(1), _epsilon_restricted, 1))
    return [atom for atom in atoms if atom[0] > 0]


def _level_cylinder(d, p):
    """The paintbox part of kappa(P^p): the level-j atoms' cylinder masses."""
    return sum(w * kingman_cylinder_prob(s, p) for s, w in d.atoms_at(p.cylinder_class()))


def kappa_cylinder(d, p):
    """kappa(P^p) of one non-trivial partition p: its level-j paintbox cylinder
    plus the delta atoms on p.  splitting_rule and rate build each delta
    partition once per table instead of once per cylinder."""
    if p.is_trivial():
        raise ArgumentError("trivial partition has no dislocation cylinder")
    return _level_cylinder(d, p) + sum(mass for mass, build, j in _delta_atoms(d, p.n)
                                       if build(j, p.n) == p)


def _cylinder_weights(d, n):
    """{p: kappa(P^p)} over the non-trivial partitions of [n], n >= 2."""
    weights = {p: _level_cylinder(d, p) for p in all_partitions(n) if not p.is_trivial()}
    for mass, build, j in _delta_atoms(d, n):
        weights[build(j, n)] += mass
    return weights


@dataclass
class SplittingRuleTable:
    """Normalized law of the root split of [n]; zero on the trivial partition."""

    n: int
    probs: dict

    def validate(self):
        if abs(sum(self.probs.values()) - 1.0) > 1e-12:
            raise ArgumentError("probabilities must sum to 1")
        for p in self.probs:
            if p.is_trivial():
                raise ArgumentError("trivial partition must carry no mass")

    def to_csv(self):
        rows = [(self.probs_key(p), repr(self.probs[p]))
                for p in sorted(self.probs, key=self.probs_key)]
        return csv_text(rows, ("partition", "probability"))

    def probs_key(self, p):
        """The partition column of p's row: its canonical text form."""
        return p.to_text()

    @staticmethod
    def from_csv(text):
        probs = {Partition.from_text(key): float(prob) for key, prob in csv_rows(text)}
        n = max(p.n for p in probs)
        probs = {Partition.from_blocks(n, p.blocks): v for p, v in probs.items()}
        return SplittingRuleTable(n, probs)


def _full_table(n, probs):
    """The validated table of probs on the non-trivial partitions of [n], 0 if absent."""
    t = SplittingRuleTable(n, {p: probs.get(p, 0.0) for p in all_partitions(n)
                               if not p.is_trivial()})
    t.validate()
    return t


@lru_cache(maxsize=4096)
def rate(d, n):
    """lambda_n = kappa(all non-trivial cylinders of P_n); non-decreasing in n.

    This per-partition sum is the enumeration oracle of rate_closed_form.
    """
    if n < 2:
        raise ArgumentError("rates start at n = 2")
    return sum(_cylinder_weights(d, n).values())


def rate_closed_form(d, n):
    """lambda_n summed per mixture component instead of per partition.

    The fast path of rate(), which stays its enumeration oracle: the total
    of the component masses that sample_split draws from.  The capped
    level's classes j >= m_cap enter as one geometric tail per atom, so the
    cost is O(levels * atoms) for every n.
    """
    if n < 2:
        raise ArgumentError("rates start at n = 2")
    return sum((mass for mass, _ in _split_components(d, n)), 0.0)


def splitting_rule(d, n):
    if n < 2:
        raise ArgumentError("rates start at n = 2")
    weights = _cylinder_weights(d, n)
    lam = sum(weights.values())
    if lam <= 0:
        raise ModelError("zero splitting rate: degenerate dislocation")
    return _full_table(n, {p: w / lam for p, w in weights.items()})


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


def eppf_recursion_residual(table_n, table_np1, strict=True):
    """Max residual of the one-step consistency recursion between levels n and n+1.

    p_n^j(n_1..n_k) should equal p_{n+1}^n(n,1) p_n^j(n_1..n_k)
    + sum_i p_{n+1}^j(.., n_i + 1, ..) + p_{n+1}^j(n_1..n_k, 1).
    """
    n = table_n.n
    ep_n = table_to_eppf(table_n, strict=strict)
    ep_np1 = table_to_eppf(table_np1, strict=strict)
    stick = ep_np1.get((n, (n, 1)), 0.0)
    worst = 0.0
    for (j, sizes), p in ep_n.items():
        rhs = stick * p
        k = len(sizes)
        for i in range(k):
            grown = sizes[:i] + (sizes[i] + 1,) + sizes[i + 1:]
            rhs += ep_np1.get((j, grown), 0.0)
        rhs += ep_np1.get((j, sizes + (1,)), 0.0)
        worst = max(worst, abs(p - rhs))
    return worst


def consistency_residual(d, n):
    if n < 2:
        raise ArgumentError("n must be >= 2")
    return eppf_recursion_residual(splitting_rule(d, n), splitting_rule(d, n + 1))


def _split_components(d, b):
    """(mass, component) list of the root split of a block of size b >= 2.

    A level component ("atom", lo, hi, s, cum) covers the paintbox classes
    j = lo..hi of one atom s: its mass is P(paintbox of [b] lands in one of
    those classes) on P_b, and cum holds the running sum of its per-colour
    masses (None for class 1, whose mass 1 - sum s_i^2 also lets the second
    paint fall in dust).  Every class j < max(m_cap, 2) gets one component
    per atom of nu_j, with per-colour masses s_i^j (1 - s_i).  The capped
    level serves every class j in [max(m_cap, 2), b - 1] through one tail
    component per atom, whose per-colour masses are the geometric sums
    s_i^lo - s_i^b.  A delta atom ("delta", build, j) of _delta_atoms puts
    its constant on the partition build(j, b), which is built only when
    drawn.  Components of zero mass are dropped.  Whatever b is, the list holds at most one
    entry per atom of each level (two per atom when m_cap = 1) and one per
    c_j, k_j and c_1, so its cost does not depend on b.
    """
    comps = []

    def add_atoms(atoms, lo, hi):
        for s, w in atoms:
            if lo == 1:
                cum = None
                q = 1.0 - sum(si ** 2 for si in s.atoms)
            else:
                cum = list(accumulate(si ** lo * (1.0 - si ** (hi + 1 - lo))
                                      for si in s.atoms))
                q = cum[-1]
            if q > 0:
                comps.append((w * q, ("atom", lo, hi, s, cum)))

    tail = max(d.m_cap, 2)
    for j in range(1, min(tail, b)):
        add_atoms(d.atoms_at(j), j, j)
    if tail < b:
        add_atoms(d.levels[-1], tail, b - 1)
    comps += [(mass, ("delta", build, j)) for mass, build, j in _delta_atoms(d, b)]
    return comps


def _pick(cum, u):
    """Index drawn from running sums cum by one uniform u in [0, 1)."""
    return min(bisect_right(cum, u * cum[-1]), len(cum) - 1)


def _truncated_geometric(s, lo, hi, u):
    """Inverse-CDF draw of j on lo..hi with P(j) proportional to s^j, 0 < s < 1."""
    ls = math.log(s)
    t = math.floor(math.log1p(u * math.expm1((hi + 1 - lo) * ls)) / ls)
    return lo + min(max(t, 0), hi - lo)


def sample_split(d, b, rng):
    """Draw one root split of a block of size b >= 2, without building P_b tables.

    Picks a mixture component of _split_components by one uniform against
    the running sums of their masses; for a level component, picks the colour
    i by its per-colour mass and, for a tail, the class j by inverting the
    truncated geometric law P(j) proportional to s_i^j on [lo, b - 1].  Then
    samples the conditioned paintbox directly: only the first j+1 paints are
    constrained by the class-j event.  Apart from the O(b) paints and the
    returned partition, the cost does not grow with b.
    """
    if b < 2:
        raise ArgumentError("blocks of size 1 do not split")
    comps = _split_components(d, b)
    masses = list(accumulate(mass for mass, _ in comps))
    if not masses or masses[-1] <= 0:
        raise ModelError("zero splitting rate: degenerate dislocation")
    comp = comps[_pick(masses, rng.random())][1]
    if comp[0] == "delta":
        _, build, j = comp
        return build(j, b)
    _, lo, hi, s, colour_cum = comp
    probs, cum, colours = _paints(s, b, rng)
    m = len(s.atoms)
    if lo == 1:
        # condition on paints 1 and 2 sitting in different blocks
        while colours[0] == colours[1] and colours[0] < m:
            colours[0] = np.searchsorted(cum, rng.random())
            colours[1] = np.searchsorted(cum, rng.random())
    else:
        # paints 1..j share colour i (chosen by its mass over classes lo..hi,
        # then j given i); paint j+1 avoids colour i; the rest stay free
        i = _pick(colour_cum, rng.random())
        j = lo if lo == hi else _truncated_geometric(s.atoms[i], lo, hi, rng.random())
        colours[:j] = i
        other = np.delete(probs, i)
        colours[j] = np.searchsorted(np.cumsum(other), rng.random() * other.sum())
        if colours[j] >= i:
            colours[j] += 1
    return _paint_partition(colours, m)


# ---------------------------------------------------------------------------
# alpha-gamma model
# ---------------------------------------------------------------------------

def _hierarchy_children(t, B):
    strict = [a for a in t if a < B]
    return [a for a in strict if not any(a < c for c in strict)]


@lru_cache(maxsize=256)
def alphagamma_tree_distribution(alpha, gamma, n):
    """Exact law of the labelled n-leaf tree, by exhausting insertion histories.

    Trees are frozensets of frozenset vertices (the hierarchy without the
    empty set).  Capped at n = 7; beyond that the state space explodes.
    """
    if not (0 <= gamma <= alpha <= 1):
        raise ArgumentError("need 0 <= gamma <= alpha <= 1")
    if n > 7:
        raise ResourceBudgetError("exhaustive growth histories capped at n = 7")
    if n < 1:
        raise ArgumentError("n must be positive")
    if n == 1:
        return {frozenset({frozenset({1})}): 1.0}
    t2 = frozenset({frozenset({1}), frozenset({2}), frozenset({1, 2})})
    dist = {t2: 1.0}
    for m in range(2, n):
        nxt = {}
        denom = m - alpha
        for t, pr in dist.items():
            new = frozenset({m + 1})
            for B in t:
                grown_anc = frozenset(
                    (a | {m + 1}) if B <= a else a for a in t)
                if len(B) == 1:
                    w = (1 - alpha) / denom
                    res = grown_anc | {B, new}
                    nxt[res] = nxt.get(res, 0.0) + pr * w
                else:
                    w_edge = gamma / denom
                    if w_edge > 0:
                        res = grown_anc | {B, new}
                        nxt[res] = nxt.get(res, 0.0) + pr * w_edge
                    kb = len(_hierarchy_children(t, B))
                    w_vert = ((kb - 1) * alpha - gamma) / denom
                    assert w_vert > -1e-12
                    if w_vert > 0:
                        res = grown_anc | {new}
                        nxt[res] = nxt.get(res, 0.0) + pr * w_vert
        dist = nxt
    return dist


def alphagamma_growth_split_oracle(alpha, gamma, n):
    """Exact root-split law of the n-leaf tree (n <= 7), by history enumeration."""
    if n < 2:
        raise ArgumentError("root splits need n >= 2")
    dist = alphagamma_tree_distribution(alpha, gamma, n)
    root = frozenset(range(1, n + 1))
    probs = {}
    for t, pr in dist.items():
        pi = Partition.from_blocks(n, _hierarchy_children(t, root))
        probs[pi] = probs.get(pi, 0.0) + pr
    return _full_table(n, probs)


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
    if not (0 <= gamma <= alpha <= 1):
        raise ArgumentError("need 0 <= gamma <= alpha <= 1")
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


def skewed_pd_splitting_table(alpha, theta, lam, n):
    """Partition-level splitting table recovered from the ranked-size laws.

    Within a ranked-size class the only asymmetry is the lambda vs 1-lambda
    skew between class 1 and classes j >= 2, because the underlying paintbox
    kernel is exchangeable.
    """
    ranked = skewed_pd_ranked_split(alpha, theta, lam, n)
    probs = {}
    for r, pr in ranked.items():
        members = [p for p in all_partitions(n)
                   if not p.is_trivial() and block_size_multiset(p) == r]
        fac = [lam if p.cylinder_class() == 1 else 1 - lam for p in members]
        z = sum(fac)
        for p, f in zip(members, fac):
            probs[p] = pr * f / z if z > 0 else 0.0
    return _full_table(n, probs)
