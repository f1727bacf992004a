"""Spinal subordinators, block-count asymptotics, renewal moments and the
reduced continuum-tree sampler.

All paths are compound Poisson after truncation; the power tail x^(-a) on
(0,1] is simulated exactly above its truncation level delta.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dislocation import rate_closed_form, sample_split
from .errors import ArgumentError, UnsupportedCaseError
from .growth import _build_recursive
from .partitions import csv_rows, csv_text

NEGLIGIBLE = 1e-8  # e^{-a xi} below this ends an infinite window

A_ALPHA_TERMS = 200_000


@dataclass(frozen=True)
class LevyAtoms:
    """Finite-rate jump intensity: atoms (size z, rate r), plus optional power tail."""

    jumps: tuple                 # ((z, r), ...)
    kill_rate: float = 0.0
    tail_alpha: float = None     # Lambda-bar(x) = x^(-alpha) on (0,1]
    tail_delta: float = None     # truncation level

    def __post_init__(self):
        for z, r in self.jumps:
            if z <= 0 or r <= 0:
                raise ArgumentError("jump sizes and rates must be positive")
        if (self.tail_alpha is None) != (self.tail_delta is None):
            raise ArgumentError("tail spec needs both alpha and delta")
        if self.tail_alpha is not None:
            if not (0 < self.tail_alpha < 1):
                raise ArgumentError("tail alpha must be in (0,1)")
            if not (0 < self.tail_delta < 1):
                raise ArgumentError("tail delta must be in (0,1)")

    @property
    def total_rate(self):
        r = sum(r for _, r in self.jumps)
        if self.tail_alpha is not None:
            r += self.tail_delta ** (-self.tail_alpha) - 1.0
        return r

    def laplace_exponent(self, a):
        """Phi(a) = integral (1 - e^{-a z}) of the atom part (tail excluded)."""
        return sum(r * (1.0 - math.exp(-a * z)) for z, r in self.jumps)


class SubordinatorPath:
    """Pure-jump path on [0, horizon], held as two float arrays: the strictly
    increasing jump times and the jump sizes.

    SubordinatorPath(horizon, pairs) builds it from (time, jump size) pairs,
    given as a list [(t, z), ...] or an (N, 2) array; .events lists them back.
    """

    def __init__(self, horizon, events=()):
        pairs = np.array(events, dtype=float)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ArgumentError("events must be (time, jump size) pairs")
        self.horizon = horizon
        self.times = pairs[:, 0].copy()
        self.jumps = pairs[:, 1].copy()

    @classmethod
    def _from_arrays(cls, horizon, times, jumps):
        """The path with these times and jump sizes, arrays taken as they are."""
        p = cls.__new__(cls)
        p.horizon, p.times, p.jumps = horizon, times, jumps
        return p

    @property
    def events(self):
        return list(zip(self.times.tolist(), self.jumps.tolist()))

    def validate(self):
        t = np.concatenate(([0.0], self.times))
        if not (np.all(t[:-1] < t[1:]) and np.all(t[1:] <= self.horizon)
                and np.all(self.jumps > 0)):
            raise ArgumentError("events must be strictly increasing in (0, horizon]")

    def xi_levels(self):
        """(times, xi right after each jump) as arrays."""
        return self.times, np.cumsum(self.jumps)

    def xi_at(self, t):
        """xi at time t (a float, or an array of times)."""
        xs = np.concatenate(([0.0], np.cumsum(self.jumps)))
        v = xs[np.searchsorted(self.times, t, side="right")]
        return float(v) if np.ndim(v) == 0 else v

    def to_csv(self):
        return csv_text([(repr(t), repr(z)) for t, z in self.events], ("time", "jump"))

    @staticmethod
    def from_csv(text, horizon):
        p = SubordinatorPath(horizon, [tuple(float(x) for x in r) for r in csv_rows(text)])
        p.validate()
        return p


@dataclass(frozen=True)
class KnWindow:
    epsilon: float = 0.0
    tau: float = 0.0
    tau_prime: float = np.inf

    def __post_init__(self):
        if self.epsilon < 0 or self.tau < 0 or self.tau_prime < self.tau:
            raise ArgumentError("need epsilon, tau >= 0 and tau_prime >= tau")


def spinal_levy_measure(d, k):
    """Spinal jump intensity seen from a block of size k, plus the killing rate.

    The spine is killed when its block of size k splits, so the killing rate
    is the total splitting rate lambda_k = rate_closed_form(d, k) (0 for
    k = 1).  Level l >= k jumps by -log s_i at rate w s_i^l (1 - s_i),
    aggregated over equal s_i; the capped level's geometric tail over
    l >= max(k, m_cap) collapses to w s_i^max(k, m_cap).
    """
    if not d.theorem2_mode:
        raise UnsupportedCaseError("spinal measures need a conservative (theorem-2) model")
    if k < 1:
        raise ArgumentError("k must be positive")
    m_cap = d.m_cap
    rates = {}
    # explicit levels l = k..m_cap-1, then the capped level's tail
    terms = [(si, w * si ** l * (1 - si)) for l in range(k, m_cap)
             for s, w in d.levels[l - 1] for si in s.atoms]
    terms += [(si, w * si ** max(k, m_cap)) for s, w in d.levels[m_cap - 1] for si in s.atoms]
    for si, r in terms:
        z = -math.log(si)
        rates[z] = rates.get(z, 0.0) + r
    jumps = tuple(sorted((z, r) for z, r in rates.items() if r > 0))
    return LevyAtoms(jumps, kill_rate=rate_closed_form(d, k) if k >= 2 else 0.0)


def simulate_subordinator(l, horizon, rng):
    """Compound-Poisson path on [0, horizon], drawn with one numpy call per step.

    N ~ Poisson(rate * horizon) events at N sorted uniform times; the marks
    pick an atom or the tail by their rates, and tail jumps >= delta come
    from the inverse transform of the survival (x^-a - 1)/(delta^-a - 1).
    """
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ArgumentError("horizon must be finite and non-negative")
    rates = [r for _, r in l.jumps]
    if l.tail_alpha is not None:
        rates.append(l.total_rate - sum(rates))
    n = rng.poisson(sum(rates) * horizon) if rates else 0
    if n == 0:
        return SubordinatorPath._from_arrays(horizon, np.empty(0), np.empty(0))
    cum = np.cumsum(rates)
    times = horizon * (1.0 - rng.random(n))   # in (0, horizon]
    times.sort()
    marks = cum[:-1].searchsorted(rng.random(n) * cum[-1], side="right")
    jumps = np.array([z for z, _ in l.jumps] + [np.nan])[marks]
    tail = marks == len(l.jumps)
    if tail.any():
        a, lo = l.tail_alpha, l.tail_delta ** (-l.tail_alpha)
        jumps[tail] = (lo - rng.random(int(tail.sum())) * (lo - 1.0)) ** (-1.0 / a)
    return SubordinatorPath._from_arrays(horizon, times, jumps)


def sample_Kn(path, w, n, rng):
    """Count distinct V-values in (tau, tau'] among n inverse-transform draws.

    Survival is e^{-eps - xi_v}, piecewise constant, so every V beyond tau
    lands exactly on a jump time of the path: on jump i with probability
    p_i = level_{i-1} - level_i, where level_i = e^{-eps - xi} right after
    jump i and level_{-1} = e^{-eps}.  The bin counts of the n draws are one
    multinomial over the jumps in the window plus an "outside" bin, so the
    cost is O(jumps), not O(n).
    """
    span = w.tau_prime - w.tau
    if np.isfinite(span) and path.horizon < span:
        raise ArgumentError("path horizon shorter than the window")
    if span == 0:
        return 0
    ts, xs = path.xi_levels()
    m = int(np.searchsorted(ts, span, side="right"))    # jumps inside the window
    levels = np.exp(-w.epsilon - np.concatenate(([0.0], xs[:m])))
    p = -np.diff(levels)
    counts = rng.multinomial(n, np.append(p, 1.0 - levels[0] + levels[-1]))
    return int(np.count_nonzero(counts[:m]))


def _exp_functional(path, alpha, end, start=1.0, truncate=True):
    """Integral over (0, end) of start * e^{-alpha xi_v}, computed on the arrays.

    With truncate, the integral stops at the first jump after which the
    integrand is below NEGLIGIBLE, and the rest of the window is dropped.
    """
    k = int(path.times.searchsorted(end, side="left"))     # jumps before end
    if k == 0:
        return start * end
    levels = np.cumprod(np.concatenate(([start], np.exp(-alpha * path.jumps[:k]))))
    edges = np.concatenate(([0.0], path.times[:k], [end]))
    if truncate:
        low = np.flatnonzero(levels[1:] < NEGLIGIBLE)
        k = low[0] if len(low) else k
    return float(np.dot(levels[:k + 1], edges[1:k + 2] - edges[:k + 1]))


def pjs_limit_functional(path, w, alpha):
    """Exact integral of e^{-alpha (eps + xi_v)} over the window (0, tau'-tau).

    Infinite windows stop at the first time the integrand drops below 1e-8;
    the remaining mass is below tolerance whenever xi drifts upward.
    """
    span = w.tau_prime - w.tau
    end = min(span, path.horizon) if np.isfinite(span) else path.horizon
    return _exp_functional(path, alpha, end, math.exp(-alpha * w.epsilon),
                           truncate=not np.isfinite(span))


def a_alpha_constant(alpha):
    """2 sum_{j>=1} (j+1)^sqrt(alpha) / (j (j+1)), summed to a fixed horizon."""
    j = np.arange(1, A_ALPHA_TERMS + 1, dtype=float)
    return float(2.0 * np.sum((j + 1) ** math.sqrt(alpha) / (j * (j + 1))))


def pjs_tail_statistic(l, w, n, x, reps, rng, c_p=1.0, p=3.0):
    """Exceedance frequency of K_n over (1+x) Y n^alpha Gamma(1-alpha), with bound.

    Y = 1 + (1 + A_alpha) sum_{j=0}^{floor(tau'-tau)} e^{-alpha (eps + xi_j)}
    per path (C_Lambda = 1 for the pure power tail), and the analytic bound is
    c_p / (x^p n^{alpha p - 1}) for a caller-calibrated c_p.
    """
    if l.tail_alpha is None:
        raise ArgumentError("tail spec required")
    if n < 2 or x < 1:
        raise ArgumentError("need n >= 2 and x >= 1")
    alpha = l.tail_alpha
    span = w.tau_prime - w.tau
    if not np.isfinite(span):
        raise ArgumentError("finite window required here")
    aa = a_alpha_constant(alpha)
    scale = n ** alpha * math.gamma(1 - alpha)
    exceed = 0
    grid = np.arange(int(span) + 1, dtype=float)
    for _ in range(reps):
        path = simulate_subordinator(l, span, rng)
        y = 1.0 + (1.0 + aa) * float(np.sum(np.exp(-alpha * (w.epsilon + path.xi_at(grid)))))
        kn = sample_Kn(path, w, n, rng)
        if kn > (1.0 + x) * y * scale:
            exceed += 1
    freq = exceed / reps
    bound = c_p / (x ** p * n ** (alpha * p - 1.0))
    return {"frequency": freq, "bound": bound, "reps": reps}


def renewal_moment(interarrival_sampler, t, p, reps, rng):
    """Monte Carlo estimate of E[(N_t / t)^p], N_t = renewal count by time t.

    interarrival_sampler(rng, size) must return positive draws as an array.
    Each round draws a chunk of inter-arrivals for the rows whose renewals
    have not yet passed t; the chunk starts at 16 and doubles every round,
    so a row draws at most about twice what it needs.
    """
    if t <= 0 or p < 1:
        raise ArgumentError("need t > 0 and p >= 1")
    counts = np.zeros(reps, dtype=np.int64)
    remaining = np.full(reps, float(t))
    active = np.arange(reps)
    chunk = 16
    while len(active):
        draws = interarrival_sampler(rng, (len(active), chunk))
        if not np.all(draws > 0):
            raise ArgumentError("inter-arrival draws must be positive")
        cs = np.cumsum(draws, axis=1)
        counts[active] += np.sum(cs <= remaining[active, None], axis=1)
        done = cs[:, -1] > remaining[active]
        remaining[active[~done]] -= cs[~done, -1]
        active = active[~done]
        chunk *= 2
    return float(np.mean((counts / t) ** p))


def _edge_length(d, j, alpha, rng, leaf_cap):
    levy = spinal_levy_measure(d, j)
    lam = levy.kill_rate
    capped = False
    if lam > 0:
        t_end = rng.exponential(1.0 / lam)
    else:
        t_end = leaf_cap
        capped = True
    path = simulate_subordinator(levy, t_end, rng)
    return _exp_functional(path, alpha, t_end), capped


def sample_reduced_crt(d, k, alpha, rng, lengths=True, leaf_cap=100.0):
    """Reduced tree on k leaves: recursive splits drawn by sample_split (the
    model's own splitting rule, so k is not capped), edge lengths as killed
    exponential functionals of fresh spinal paths.

    Uncapped spines (killing rate 0, e.g. every leaf edge) are horizon-capped
    at leaf_cap with a warning.  With lengths=False every edge has length 1.0
    and only the splits are drawn.
    """
    if not d.theorem2_mode:
        raise UnsupportedCaseError("reduced-tree sampling needs a theorem-2 model")
    if k < 1:
        raise ArgumentError("k must be positive")
    warned = [False]

    def edge(j):
        ell, capped = _edge_length(d, j, alpha, rng, leaf_cap)
        if capped and not warned[0]:
            warned[0] = True
            warnings.warn("zero killing rate: spine horizon-capped")
        return ell

    return _build_recursive(range(1, k + 1), lambda j, r: sample_split(d, j, r), rng,
                            edge if lengths else lambda j: 1.0)
