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
from .growth import MetricTree
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


@dataclass
class SubordinatorPath:
    """Pure-jump path on [0, horizon]: time-ordered (time, jump size) events."""

    horizon: float
    events: list

    def validate(self):
        last = 0.0
        for t, z in self.events:
            if not (last < t <= self.horizon) or z <= 0:
                raise ArgumentError("events must be strictly increasing in (0, horizon]")
            last = t

    def xi_levels(self):
        """(times, xi right after each jump) as arrays."""
        ts = np.array([t for t, _ in self.events])
        xs = np.cumsum([z for _, z in self.events])
        return ts, xs

    def xi_at(self, t):
        v = 0.0
        for s, z in self.events:
            if s <= t:
                v += z
            else:
                break
        return v

    def to_csv(self):
        return csv_text([(repr(t), repr(z)) for t, z in self.events], ("time", "jump"))

    @staticmethod
    def from_csv(text, horizon):
        events = [tuple(float(x) for x in r) for r in csv_rows(text)]
        p = SubordinatorPath(horizon, events)
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
    """Compound-Poisson path; tail jumps >= delta drawn by inverse transform."""
    if horizon < 0:
        raise ArgumentError("horizon must be non-negative")
    rate = l.total_rate
    events = []
    if rate > 0:
        t = 0.0
        atom_rates = np.array([r for _, r in l.jumps])
        tail_rate = rate - atom_rates.sum()
        probs = np.append(atom_rates, tail_rate) / rate
        cum = np.cumsum(probs)
        a, delta = l.tail_alpha, l.tail_delta
        while True:
            t += rng.exponential(1.0 / rate)
            if t > horizon:
                break
            i = int(np.searchsorted(cum, rng.random()))
            if i < len(l.jumps):
                events.append((t, l.jumps[i][0]))
            else:
                # tail mass on [delta, 1]: survival (x^-a - 1)/(delta^-a - 1)
                u = rng.random()
                lo = delta ** (-a)
                x = (lo - u * (lo - 1.0)) ** (-1.0 / a)
                events.append((t, x))
    p = SubordinatorPath(horizon, events)
    return p


def sample_Kn(path, w, n, rng):
    """Count distinct V-values in (tau, tau'] among n inverse-transform draws.

    Survival is e^{-eps - xi_v}, piecewise constant, so every V beyond tau
    lands exactly on a jump time of the path.
    """
    span = w.tau_prime - w.tau
    if np.isfinite(span) and path.horizon < span:
        raise ArgumentError("path horizon shorter than the window")
    if span == 0:
        return 0
    ts, xs = path.xi_levels()
    levels = np.exp(-w.epsilon - xs)       # survival right after each jump, decreasing
    surv0 = math.exp(-w.epsilon)
    u = rng.random(n)
    wv = 1.0 - u                            # target survival levels
    live = wv <= surv0                      # otherwise V = tau, outside the window
    if len(ts) == 0:
        return 0
    idx = np.searchsorted(-levels, -wv[live], side="left")
    idx = idx[idx < len(ts)]                # beyond-horizon draws fall outside
    idx = idx[ts[idx] <= span]
    return int(len(np.unique(idx)))


def pjs_limit_functional(path, w, alpha):
    """Exact integral of e^{-alpha (eps + xi_v)} over the window (0, tau'-tau).

    Infinite windows stop at the first time the integrand drops below 1e-8;
    the remaining mass is below tolerance whenever xi drifts upward.
    """
    span = w.tau_prime - w.tau
    end = min(span, path.horizon) if np.isfinite(span) else path.horizon
    total = 0.0
    cur = math.exp(-alpha * w.epsilon)
    prev_t = 0.0
    for t, z in path.events:
        if t >= end:
            break
        total += cur * (t - prev_t)
        prev_t = t
        cur *= math.exp(-alpha * z)
        if not np.isfinite(span) and cur < NEGLIGIBLE:
            return total
    total += cur * (end - prev_t)
    return total


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
    for _ in range(reps):
        path = simulate_subordinator(l, span, rng)
        y = 1.0
        for j in range(int(span) + 1):
            y_term = math.exp(-alpha * (w.epsilon + path.xi_at(float(j))))
            y += (1.0 + aa) * y_term
        kn = sample_Kn(path, w, n, rng)
        if kn > (1.0 + x) * y * scale:
            exceed += 1
    freq = exceed / reps
    bound = c_p / (x ** p * n ** (alpha * p - 1.0))
    return {"frequency": freq, "bound": bound, "reps": reps}


def renewal_moment(interarrival_sampler, t, p, reps, rng):
    """Monte Carlo estimate of E[(N_t / t)^p], N_t = renewal count by time t.

    interarrival_sampler(rng, size) must return positive draws as an array.
    """
    if t <= 0 or p < 1:
        raise ArgumentError("need t > 0 and p >= 1")
    counts = np.zeros(reps, dtype=np.int64)
    remaining = np.full(reps, float(t))
    active = np.arange(reps)
    chunk = max(16, int(2 * t) if t < 1e4 else 64)
    while len(active):
        draws = interarrival_sampler(rng, (len(active), chunk))
        assert np.all(draws > 0)
        cs = np.cumsum(draws, axis=1)
        counts[active] += np.sum(cs <= remaining[active, None], axis=1)
        done = cs[:, -1] > remaining[active]
        remaining[active[~done]] -= cs[~done, -1]
        active = active[~done]
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
    total, cur, prev = 0.0, 1.0, 0.0
    for tt, z in path.events:
        total += cur * (tt - prev)
        prev = tt
        cur *= math.exp(-alpha * z)
        if cur < NEGLIGIBLE:
            return total, capped
    total += cur * (t_end - prev)
    return total, capped


def sample_reduced_crt(d, k, alpha, rng, lengths=True, leaf_cap=100.0):
    """Reduced tree on k leaves: recursive splits drawn by sample_split (the
    model's own splitting rule, so k is not capped), edge lengths as killed
    exponential functionals of fresh spinal paths.

    Uncapped spines (killing rate 0, e.g. every leaf edge) are horizon-capped
    at leaf_cap with a warning.
    """
    if not d.theorem2_mode:
        raise UnsupportedCaseError("reduced-tree sampling needs a theorem-2 model")
    if k < 1:
        raise ArgumentError("k must be positive")
    children = {0: []}
    length = {}
    leaf_labels = {}
    next_id = [1]
    warned = [False]

    def mk(parent, labs):
        v = next_id[0]
        next_id[0] += 1
        children[parent].append(v)
        j = len(labs)
        if lengths:
            ell, capped = _edge_length(d, j, alpha, rng, leaf_cap)
            if capped and not warned[0]:
                warned[0] = True
                warnings.warn("zero killing rate: spine horizon-capped")
            length[v] = ell
        else:
            length[v] = 1.0
        if j == 1:
            leaf_labels[v] = labs[0]
            return
        children[v] = []
        pi = sample_split(d, j, rng)
        for b in pi.blocks:
            mk(v, [labs[i - 1] for i in b])

    mk(0, list(range(1, k + 1)))
    mt = MetricTree(children, length, leaf_labels, 0)
    return mt

