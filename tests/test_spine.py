import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fragbox import (ArgumentError, KnWindow, LevyAtoms, ResourceBudgetError,
                     SubordinatorPath, UnsupportedCaseError, crt_scale, pjs_limit_functional,
                     pjs_tail_statistic, renewal_moment, sample_Kn,
                     sample_fragmentation_tree, sample_reduced_crt,
                     simulate_subordinator, spinal_levy_measure, splitting_rule)
from fragbox import spine
from fragbox.cli import main
from fragbox.dislocation import DiscreteDislocation
from fragbox.harness import _interarrival, chi_square_gof, single_atom_model
from fragbox.spine import NEGLIGIBLE, _edge_length, _exp_functional, a_alpha_constant
from oracles import outcome, renewal_moment_reference, split_tree_reference
from strategies import dislocations

LOG2 = math.log(2)


def test_spinal_levy_measure_examples():
    d = single_atom_model()
    l1 = spinal_levy_measure(d, 1)
    assert l1.kill_rate == 0.0
    assert len(l1.jumps) == 1
    z, r = l1.jumps[0]
    assert abs(z - LOG2) < 1e-12 and abs(r - 0.5) < 1e-12
    l2 = spinal_levy_measure(d, 2)
    assert abs(l2.kill_rate - 0.5) < 1e-12
    assert l2.jumps == ()


def test_spinal_levy_measure_capped_tail():
    # atom at every level: rates use the geometric tail s^max(k, m_cap)
    d = DiscreteDislocation.from_level_dict({1: [((0.5, 0.5), 1.0)]},
                                            theorem2_mode=True)
    l3 = spinal_levy_measure(d, 3)
    # killing: levels 1..2 sum to s^1 - s^3 per index
    want_kill = 2 * (0.5 - 0.5 ** 3)
    assert abs(l3.kill_rate - want_kill) < 1e-12
    z, r = l3.jumps[0]
    assert abs(r - 2 * 0.5 ** 3) < 1e-12


def test_spinal_kill_rate_is_per_level_sum():
    # the killing rate lambda_k against the level-by-level sum over l < k
    rng = np.random.default_rng(21)
    for _ in range(30):
        levels = {j: [(tuple(np.sort(raw / raw.sum())[::-1]), float(rng.random() + 0.1))]
                  for j in range(1, int(rng.integers(1, 4)) + 1)
                  for raw in [rng.random(int(rng.integers(2, 4))) + 0.05]}
        d = DiscreteDislocation.from_level_dict(levels, theorem2_mode=True)
        for k in range(1, 9):
            want = sum(w * sum(si ** l * (1 - si) for si in s.atoms)
                       for l in range(1, k) for s, w in d.atoms_at(l))
            assert abs(spinal_levy_measure(d, k).kill_rate - want) <= 1e-12 * max(want, 1.0)


def test_spinal_levy_measure_requires_theorem2():
    d = DiscreteDislocation.from_level_dict({1: [((0.5, 0.3), 1.0)]})
    with pytest.raises(UnsupportedCaseError):
        spinal_levy_measure(d, 1)


def test_simulate_subordinator_zero_rate():
    rng = np.random.default_rng(0)
    p = simulate_subordinator(LevyAtoms(()), 10.0, rng)
    assert p.events == []
    assert p.xi_at(5.0) == 0.0


def test_simulate_subordinator_poisson_count():
    rng = np.random.default_rng(1)
    counts = [len(simulate_subordinator(LevyAtoms(((LOG2, 1.0),)), 10.0, rng).events)
              for _ in range(5000)]
    assert abs(np.mean(counts) - 10.0) < 0.05 * 10.0


def test_simulate_subordinator_compensation():
    rng = np.random.default_rng(2)
    l = LevyAtoms(((LOG2, 1.0), (0.2, 2.0)))
    vals = [simulate_subordinator(l, 1.0, rng).xi_at(1.0) for _ in range(5000)]
    want = LOG2 * 1.0 + 0.2 * 2.0
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - want) < 3 * se


def test_simulate_subordinator_rejects_non_finite_horizon():
    l = LevyAtoms(((LOG2, 1.0),), tail_alpha=0.5, tail_delta=0.1)
    for horizon in (math.inf, math.nan, -1.0):
        with pytest.raises(ArgumentError):
            simulate_subordinator(l, horizon, np.random.default_rng(0))
    with pytest.raises(ArgumentError):
        simulate_subordinator(LevyAtoms(()), math.inf, np.random.default_rng(0))


def test_simulate_subordinator_tail_and_atoms():
    # marks pick the atoms and the tail by their rates; tail jumps lie in
    # [delta, 1] with survival (x^-a - 1)/(delta^-a - 1)
    a, delta = 0.5, 0.01
    l = LevyAtoms(((3.0, 2.0), (5.0, 1.0)), tail_alpha=a, tail_delta=delta)
    p = simulate_subordinator(l, 2000.0, np.random.default_rng(13))
    p.validate()
    z = p.jumps
    tail = z[z <= 1.0]
    n = len(z)
    assert abs(np.mean(z == 3.0) - 2.0 / l.total_rate) < 4 * math.sqrt(2.0 / l.total_rate / n)
    assert abs(np.mean(z == 5.0) - 1.0 / l.total_rate) < 4 * math.sqrt(1.0 / l.total_rate / n)
    assert tail.min() >= delta and tail.max() <= 1.0
    surv = ((0.1 ** -a) - 1.0) / (delta ** -a - 1.0)
    assert abs(np.mean(tail > 0.1) - surv) < 4 * math.sqrt(surv * (1 - surv) / len(tail))


def test_path_validate():
    p = SubordinatorPath(5.0, [(1.0, 0.5), (2.5, 0.25)])
    p.validate()
    assert p.events == [(1.0, 0.5), (2.5, 0.25)]
    SubordinatorPath(5.0, []).validate()
    # out of order, beyond the horizon, a jump that is not positive
    for events in ([(2.5, 0.5), (1.0, 0.25)], [(1.0, 0.5), (6.0, 0.25)], [(1.0, 0.0)]):
        with pytest.raises(ArgumentError):
            SubordinatorPath(5.0, events).validate()
    with pytest.raises(ArgumentError):
        SubordinatorPath(5.0, [(1.0, 0.5, 2.0)])


def test_sample_Kn_trivial_cases():
    rng = np.random.default_rng(3)
    path = SubordinatorPath(10.0, [(1.0, LOG2)])
    assert sample_Kn(path, KnWindow(0.0, 2.0, 2.0), 50, rng) == 0
    # epsilon huge: survival past tau is essentially zero
    assert sample_Kn(path, KnWindow(800.0, 0.0, 5.0), 50, rng) == 0
    with pytest.raises(ArgumentError):
        sample_Kn(path, KnWindow(0.0, 0.0, 20.0), 10, rng)


def test_sample_Kn_single_jump_law():
    # one jump of size log 2 at time 1, eps = 0: each V_i lands on the jump
    # with probability 1/2, else survives past the horizon; K_2 is Bernoulli
    # with P(K=1) = 1 - P(no V lands) = 1 - (1/2)^2 = 3/4
    rng = np.random.default_rng(4)
    path = SubordinatorPath(10.0, [(1.0, LOG2)])
    w = KnWindow(0.0, 0.0, 10.0)
    draws = [sample_Kn(path, w, 2, rng) for _ in range(20000)]
    freq = np.mean([d == 1 for d in draws])
    assert abs(freq - 0.75) < 0.02
    assert set(draws) <= {0, 1}


def test_sample_Kn_monotone_in_n():
    # the draws for different n are not coupled: K_n counts at most the 3
    # jumps, and at n >= 100 all 3 bins (masses 0.26, 0.24, 0.31) are hit
    # except with probability below 1e-12, so K_10 <= K_100 <= K_1000 = 3
    path = SubordinatorPath(10.0, [(0.5, 0.3), (1.5, 0.4), (3.0, 1.0)])
    w = KnWindow(0.0, 0.0, 10.0)
    for seed in range(30):
        ks = [sample_Kn(path, w, n, np.random.default_rng(seed))
              for n in (10, 100, 1000)]
        assert ks[0] <= ks[1] <= ks[2]


def _Kn_mean(path, w, n):
    """Sum over the jumps i in the window of 1 - (1 - p_i)^n."""
    ts, xs = path.xi_levels()
    levels = np.exp(-w.epsilon - np.concatenate(([0.0], xs)))
    p = -np.diff(levels)[ts <= w.tau_prime - w.tau]
    return float(np.sum(1.0 - (1.0 - p) ** n))


def test_sample_Kn_exact_mean():
    fixed = SubordinatorPath(5.0, [(0.4, 0.3), (1.1, 0.5), (2.0, 0.2), (3.5, 1.0), (4.2, 0.7)])
    drawn = simulate_subordinator(LevyAtoms(((0.1, 4.0), (0.6, 2.0))), 8.0,
                                  np.random.default_rng(31))
    reps = 20_000
    for k, (path, w, n) in enumerate(((fixed, KnWindow(0.2, 0.0, 3.0), 5),
                                      (fixed, KnWindow(0.5, 1.0, 5.5), 40),
                                      (drawn, KnWindow(0.3, 0.5, 6.0), 50))):
        rng = np.random.default_rng(70 + k)
        vals = [sample_Kn(path, w, n, rng) for _ in range(reps)]
        se = np.std(vals) / math.sqrt(reps)
        assert abs(np.mean(vals) - _Kn_mean(path, w, n)) < 4 * se, k


def _per_draw_Kn(path, w, n, rng):
    """The per-draw counter: n inverse-transform draws, the jump each lands
    on, and the number of distinct jumps in the window."""
    span = w.tau_prime - w.tau
    ts, xs = path.xi_levels()
    levels = np.exp(-w.epsilon - xs)
    wv = 1.0 - rng.random(n)
    wv = wv[wv <= math.exp(-w.epsilon)]
    idx = np.searchsorted(-levels, -wv, side="left")
    idx = idx[idx < len(ts)]
    return len(np.unique(idx[ts[idx] <= span]))


def test_sample_Kn_law_matches_per_draw_counter():
    path = simulate_subordinator(LevyAtoms(((0.15, 3.0), (0.5, 1.0))), 6.0,
                                 np.random.default_rng(32))
    reps = 20_000
    for k, (w, n) in enumerate(((KnWindow(0.0, 0.0, 6.0), 4),
                                (KnWindow(0.4, 1.0, 4.0), 8),
                                (KnWindow(0.1, 0.0, math.inf), 15))):
        rng = np.random.default_rng(80 + k)
        new = np.array([sample_Kn(path, w, n, rng) for _ in range(reps)])
        old = np.array([_per_draw_Kn(path, w, n, rng) for _ in range(reps)])
        lo, hi = np.percentile(np.concatenate((new, old)), [1, 99])
        cats = np.arange(lo, hi + 1)
        table = [[np.sum(np.clip(x, lo, hi) == c) for c in cats] for x in (new, old)]
        assert stats.chi2_contingency(table)[1] > 1e-3, k


def _pjs_loop(path, w, alpha):
    """The per-event integral of e^{-alpha (eps + xi_v)} over the window."""
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


def _edge_loop(path, alpha):
    """The per-event killed functional of a spine path up to its horizon."""
    total, cur, prev = 0.0, 1.0, 0.0
    for tt, z in path.events:
        total += cur * (tt - prev)
        prev = tt
        cur *= math.exp(-alpha * z)
        if cur < NEGLIGIBLE:
            return total
    return total + cur * (path.horizon - prev)


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want)


@given(gaps=st.lists(st.floats(1e-3, 2.0), max_size=40),
       sizes=st.lists(st.floats(1e-3, 20.0), min_size=40, max_size=40),
       alpha=st.floats(0.0, 2.0), epsilon=st.floats(0.0, 3.0),
       tau=st.floats(0.0, 2.0), span=st.one_of(st.floats(0.0, 30.0), st.just(math.inf)),
       extra=st.floats(0.0, 5.0))
def test_exp_functional_matches_event_loop(gaps, sizes, alpha, epsilon, tau, span, extra):
    times = np.cumsum(gaps)
    horizon = max(times[-1] if len(times) else 0.0, span if np.isfinite(span) else 0.0) + extra
    path = SubordinatorPath(horizon, list(zip(times.tolist(), sizes)))
    w = KnWindow(epsilon, tau, tau + span)
    assert _close(pjs_limit_functional(path, w, alpha), _pjs_loop(path, w, alpha))
    assert _close(_exp_functional(path, alpha, horizon), _edge_loop(path, alpha))


def test_edge_length_matches_event_loop():
    # _edge_length draws the kill time, then the path: replaying that stream
    # gives the path whose per-event functional it must return
    d = DiscreteDislocation.from_level_dict({1: [((0.5, 0.3, 0.2), 1.0)], 2: [((0.7, 0.3), 2.0)]},
                                            theorem2_mode=True)
    for seed in range(200):
        j, alpha = 2 + seed % 4, 0.1 + 0.2 * (seed % 5)
        got = _edge_length(d, j, alpha, np.random.default_rng(seed), 1.0)
        rng = np.random.default_rng(seed)
        levy = spinal_levy_measure(d, j)
        assert levy.kill_rate > 0
        path = simulate_subordinator(levy, rng.exponential(1.0 / levy.kill_rate), rng)
        assert _close(got, _edge_loop(path, alpha))


def test_pjs_limit_functional_examples():
    w = KnWindow(0.0, 0.0, 7.0)
    assert pjs_limit_functional(SubordinatorPath(10.0, []), w, 1.0) == 7.0
    w2 = KnWindow(LOG2, 0.0, 4.0)
    assert abs(pjs_limit_functional(SubordinatorPath(10.0, []), w2, 1.0) - 2.0) < 1e-12
    path = SubordinatorPath(10.0, [(1.0, LOG2)])
    got = pjs_limit_functional(path, KnWindow(0.0, 0.0, 2.0), 1.0)
    assert abs(got - 1.5) < 1e-12


def test_pjs_first_part_desk_scale():
    # K_n / (n^a Gamma(1-a)) approaches the exponential functional; the
    # truncation must satisfy n * delta << 1 or small jumps bias the count
    alpha = 0.5
    n = 10 ** 6
    l = LevyAtoms((), tail_alpha=alpha, tail_delta=1.0 / (10 * n))
    w = KnWindow(0.0, 0.0, 5.0)
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        path = simulate_subordinator(l, 5.0, rng)
        lim = pjs_limit_functional(path, w, alpha)
        kn = sample_Kn(path, w, n, rng)
        errs.append(abs(kn / crt_scale(n, alpha) - lim) / lim)
    assert np.median(errs) <= 0.15


@pytest.mark.parametrize("alpha", [0.01, 0.25, 0.5, 0.81, 0.95])
def test_a_alpha_constant_matches_zeta_series(alpha):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s0 = 2 - mpmath.sqrt(alpha)
        want = 2 * mpmath.nsum(lambda k: mpmath.zeta(s0 + k) - 1, [0, mpmath.inf])
        assert abs(a_alpha_constant(alpha) - want) / want < 1e-10


def test_a_alpha_constant_direct_sum():
    # the defining series, summed far out, only falls short of the value:
    # its rest after J terms is about 2 J^(sqrt(alpha) - 1) / (1 - sqrt(alpha))
    j = np.arange(1, 10 ** 6 + 1, dtype=float)
    for alpha in (0.1, 0.5):
        partial = 2 * np.sum((j + 1) ** math.sqrt(alpha) / (j * (j + 1)))
        rest = 2 * 1e6 ** (math.sqrt(alpha) - 1) / (1 - math.sqrt(alpha))
        assert partial < a_alpha_constant(alpha) < partial + 1.01 * rest


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
def test_a_alpha_constant_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ArgumentError):
        a_alpha_constant(alpha)


def test_crt_scale_rejects_exponent_at_or_above_1():
    assert crt_scale(10, 0.5) == math.sqrt(10) * math.gamma(0.5)
    for a in (1.0, 1.2):
        with pytest.raises(ArgumentError):
            crt_scale(10, a)


def test_pjs_tail_statistic_monotone():
    alpha = 0.5
    l = LevyAtoms((), tail_alpha=alpha, tail_delta=1e-4)
    w = KnWindow(0.0, 0.0, 3.0)
    freqs = []
    for x in (1, 2, 4, 8):
        rng = np.random.default_rng(40 + x)
        r = pjs_tail_statistic(l, w, 1000, x, 200, rng)
        freqs.append(r["frequency"])
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))
    assert freqs[-1] == 0.0


def test_pjs_tail_bound_with_pilot():
    # calibrate C_p on a pilot scale, then check the bound one-sided larger n
    alpha, p = 0.5, 3.0
    l = LevyAtoms((), tail_alpha=alpha, tail_delta=1e-5)
    w = KnWindow(0.0, 0.0, 3.0)
    rng = np.random.default_rng(50)
    pilot = pjs_tail_statistic(l, w, 10 ** 3, 4, 200, rng, c_p=1.0, p=p)
    c_p = max(1.0, pilot["frequency"] / max(pilot["bound"], 1e-300))
    r = pjs_tail_statistic(l, w, 10 ** 4, 4, 200, rng, c_p=c_p, p=p)
    assert r["frequency"] <= r["bound"] + 1e-12


def test_renewal_moment_examples():
    rng = np.random.default_rng(5)
    est = renewal_moment(lambda r, s: np.ones(s), 10.5, 2, 50, rng)
    assert abs(est - (10 / 10.5) ** 2) < 1e-12
    est = renewal_moment(lambda r, s: r.exponential(1.0, s), 100.0, 2, 30_000, rng)
    assert abs(est - 1.01) < 0.02 * 1.01
    # infinite-mean Pareto inter-arrivals: estimates non-increasing-ish in t
    vals = []
    for k, t in enumerate((100.0, 1000.0, 10000.0)):
        vals.append(renewal_moment(lambda r, s: r.random(s) ** -2.0, t, 2,
                                   4000, np.random.default_rng(60 + k)))
    assert vals[1] <= vals[0] * 1.2 and vals[2] <= vals[1] * 1.2
    # a sampler with zero draws would never pass t: it is rejected, also under -O
    with pytest.raises(ArgumentError):
        renewal_moment(lambda r, s: np.zeros(s), 10.0, 2, 5, rng)


@pytest.mark.parametrize("t, p, reps", [
    (math.inf, 2, 5), (-math.inf, 2, 5), (math.nan, 2, 5), (10.0, math.nan, 5),
    (10.0, math.inf, 5), (10.0, 2, 0), (10.0, 2, -3), (0.0, 2, 5), (10.0, 0.5, 5)])
def test_renewal_moment_bad_arguments(t, p, reps):
    # an infinite t never ended a row (the chunk doubled until memory ran
    # out); reps = 0 and p = NaN returned NaN
    with pytest.raises(ArgumentError):
        renewal_moment(_interarrival("exp"), t, p, reps, np.random.default_rng(0))


def test_renewal_draw_budget(monkeypatch):
    # a call that would draw more inter-arrivals than RENEWAL_DRAW_BUDGET
    # raises; the default budget lets the same call finish on the same draws
    args = (_interarrival("exp"), 100.0, 2, 300)
    want = renewal_moment(*args, np.random.default_rng(3))
    monkeypatch.setattr(spine, "RENEWAL_DRAW_BUDGET", 10 ** 4)
    with pytest.raises(ResourceBudgetError):
        renewal_moment(*args, np.random.default_rng(3))
    monkeypatch.undo()
    assert renewal_moment(*args, np.random.default_rng(3)) == want


def test_cli_renewal_huge_t_exit_2(monkeypatch, capsys):
    # t = 1e300 is finite, so it passes the argument check, but no row
    # would ever pass it: the draw budget ends the run with exit code 2
    monkeypatch.setattr(spine, "RENEWAL_DRAW_BUDGET", 10 ** 6)
    assert main(["renewal", "--param", "t_grid=[1e300]"]) == 2
    assert "inter-arrival draws" in capsys.readouterr().err


def _assert_renewal_matches_reference(kind, t, p, reps, seed):
    sampler = _interarrival(kind)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    est = renewal_moment(sampler, t, p, reps, rng)
    assert est == renewal_moment_reference(sampler, t, p, reps, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# a round with chunk c runs in blocks of _RENEWAL_BLOCK / c = 1024, 512, 256,
# ... rows; at t = 100 the Exp(1) rows finish in rounds 3 and 4, the Pareto
# rows in rounds 1 and 2
@pytest.mark.parametrize("reps", [1, 255, 256, 257, 1023, 1024, 1025, 2049, 3000])
@pytest.mark.parametrize("kind", ["exp", "const", "pareto"])
def test_renewal_moment_block_edges_match_reference(kind, reps):
    _assert_renewal_matches_reference(kind, 100.0, 2, reps, 24 + reps)


@settings(max_examples=40)
@given(kind=st.sampled_from(["exp", "const", "pareto"]),
       t=st.floats(0.5, 400.0), p=st.floats(1.0, 4.0),
       reps=st.integers(1, 2600), seed=st.integers(0, 2 ** 32 - 1))
def test_renewal_moment_matches_reference(kind, t, p, reps, seed):
    _assert_renewal_matches_reference(kind, t, p, reps, seed)


@pytest.mark.parametrize("t, reps, target", [(100.0, 10 ** 5, 1.01), (2e6, 2, 1.0)])
def test_renewal_moment_working_set(t, reps, target):
    # one round of one array held about 125 MB at reps = 10^5 (t = 100) and
    # 40 MB for two rows at t = 2e6; blocks keep it to a few arrays of reps
    tracemalloc.start()
    try:
        est = renewal_moment(_interarrival("exp"), t, 2, reps, np.random.default_rng(107))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
    assert abs(est - target) <= 0.02 * target


def test_reduced_crt_shapes():
    rng = np.random.default_rng(6)
    d = single_atom_model()
    mt = sample_reduced_crt(d, 2, 0.5, rng)
    assert sorted(mt.leaf_label.values()) == [1, 2]
    assert mt.shape_text() == "(*,*)"


def _general_theorem2_model():
    # m_cap = 3: levels 1 and 2 explicit, level 3 serves every j >= 3
    return DiscreteDislocation.from_level_dict(
        {1: [((0.6, 0.4), 1.0), ((0.5, 0.3, 0.2), 0.4)],
         2: [((0.7, 0.3), 0.8)],
         3: [((0.45, 0.35, 0.2), 0.6), ((0.8, 0.2), 0.3)]},
        theorem2_mode=True)


def test_reduced_crt_sampled_shape_frequencies():
    # the root split of the reduced tree follows the model's splitting rule
    reps = 20_000
    for d, k, seed in ((single_atom_model(), 3, 8),
                       (_general_theorem2_model(), 4, 12)):
        counts = {}
        rng = np.random.default_rng(seed)
        for _ in range(reps):
            p = sample_reduced_crt(d, k, 0.5, rng, lengths=False).root_split()
            counts[p] = counts.get(p, 0) + 1
        st = splitting_rule(d, k)
        cats = [p for p, v in st.probs.items() if v > 0]
        rep = chi_square_gof([counts.get(c, 0) for c in cats],
                             [st.probs[c] for c in cats])
        assert rep.p_value > 1e-3, (k, rep.p_value)


def test_reduced_crt_without_lengths_is_the_fragmentation_tree():
    # one recursive builder: with lengths=False the reduced-tree sampler draws
    # nothing but splits, so at one seed it spans the same hierarchy as the
    # fragmentation-tree sampler, hung below its virtual root with unit edges
    for d in (single_atom_model(), _general_theorem2_model()):
        for k in range(1, 9):
            for seed in range(5):
                mt = sample_reduced_crt(d, k, 0.5, np.random.default_rng(seed),
                                        lengths=False)
                t = sample_fragmentation_tree(d, k, np.random.default_rng(seed))
                assert mt.vertices == t.vertices
                if k > 1:
                    assert mt.root_split() == t.root_split()
                assert set(mt.length.values()) == {1.0}


@settings(max_examples=40)
@given(dislocations(theorem2=True), st.integers(1, 300), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_reduced_crt_matches_per_vertex_builder(d, k, lengths, seed):
    # cached split laws against a validated sample_split partition at every
    # vertex, with the edge lengths drawn in between: the same tree and the
    # generator left in one state
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    edge = (lambda j: _edge_length(d, j, 0.5, ref, 1.0)) if lengths else (lambda j: 1.0)
    assert outcome(lambda: sample_reduced_crt(d, k, 0.5, rng, lengths, 1.0)) == \
        outcome(lambda: split_tree_reference(d, range(1, k + 1), ref, edge))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_reduced_crt_edge_length_oracle():
    # E[edge] = 1/(lambda + Phi(alpha)): the killed exponential functional of
    # an independent Exp(lambda) horizon integrates to that in closed form
    d = DiscreteDislocation.from_level_dict({1: [((0.5, 0.5), 1.0)]},
                                            theorem2_mode=True)
    alpha = 0.5
    levy = spinal_levy_measure(d, 2)
    assert levy.kill_rate > 0 and len(levy.jumps) == 1
    want = 1.0 / (levy.kill_rate + levy.laplace_exponent(alpha))
    rng = np.random.default_rng(9000)
    vals = [_edge_length(d, 2, alpha, rng, 1.0) for _ in range(20_000)]
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - want) < 4 * se


def test_reduced_crt_killing_identity():
    # spine termination rate for k = 2 equals lambda_2 = 1/2: the kill times
    # are Exp(1/2), so their mean is 2 within 3 standard errors
    d = single_atom_model()
    rng = np.random.default_rng(10)
    vals = []
    for _ in range(4000):
        mt = sample_reduced_crt(d, 2, 0.0, rng, leaf_cap=1.0)
        vals.append(mt.length[1])  # alpha = 0: length equals the kill time
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - 2.0) < 3 * se


def test_reduced_crt_leaf_edges_run_to_leaf_cap():
    # a leaf's spine is never killed, so its edge is the functional over the
    # whole horizon leaf_cap: at most leaf_cap, and leaf_cap itself at
    # alpha = 0; this is the rule, so it raises no warning
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (single_atom_model(), _general_theorem2_model()):
            assert spinal_levy_measure(d, 1).kill_rate == 0.0
            for k in (1, 2, 5):
                for alpha, cap in ((0.5, 1.0), (0.5, 3.0), (0.0, 2.0)):
                    mt = sample_reduced_crt(d, k, alpha, rng, leaf_cap=cap)
                    leaves = [mt.length[u] for u in mt.leaf_label]
                    assert len(leaves) == k and all(0 < ell <= cap for ell in leaves)
                    if alpha == 0.0:
                        assert leaves == pytest.approx([cap] * k)
