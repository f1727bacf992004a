import math
import warnings

import numpy as np
import pytest

from fragbox import (ArgumentError, KnWindow, LevyAtoms, SubordinatorPath,
                     UnsupportedCaseError, Partition,
                     pjs_limit_functional, pjs_tail_statistic, renewal_moment,
                     sample_Kn, sample_reduced_crt, simulate_subordinator,
                     spinal_levy_measure, splitting_rule)
from fragbox.dislocation import DiscreteDislocation
from fragbox.harness import chi_square_gof, single_atom_model

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


def test_path_csv_roundtrip():
    p = SubordinatorPath(5.0, [(1.0, 0.5), (2.5, 0.25)])
    q = SubordinatorPath.from_csv(p.to_csv(), 5.0)
    assert q.events == p.events


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
    # coupling by shared prefix: more draws can only reveal more values
    path = SubordinatorPath(10.0, [(0.5, 0.3), (1.5, 0.4), (3.0, 1.0)])
    w = KnWindow(0.0, 0.0, 10.0)
    for seed in range(30):
        ks = [sample_Kn(path, w, n, np.random.default_rng(seed))
              for n in (10, 100, 1000)]
        # same seed means shared prefix of uniforms under default_rng
        assert ks[0] <= ks[1] <= ks[2]


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
        errs.append(abs(kn / (n ** alpha * math.gamma(1 - alpha)) - lim) / lim)
    assert np.median(errs) <= 0.15


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


def test_reduced_crt_shapes():
    rng = np.random.default_rng(6)
    d = single_atom_model()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mt = sample_reduced_crt(d, 2, 0.5, rng)
    assert sorted(mt.leaf_labels.values()) == [1, 2]
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
            mt = sample_reduced_crt(d, k, 0.5, rng, lengths=False)
            top = mt.children[mt.children[0][0]]
            p = Partition.from_blocks(k, [mt.labels_under(c) for c in top])
            counts[p] = counts.get(p, 0) + 1
        st = splitting_rule(d, k)
        cats = [p for p, v in st.probs.items() if v > 0]
        rep = chi_square_gof([counts.get(c, 0) for c in cats],
                             [st.probs[c] for c in cats])
        assert rep.p_value > 1e-3, (k, rep.p_value)


def test_reduced_crt_edge_length_oracle():
    # E[edge] = 1/(lambda + Phi(alpha)): the killed exponential functional of
    # an independent Exp(lambda) horizon integrates to that in closed form
    from fragbox.spine import _edge_length

    d = DiscreteDislocation.from_level_dict({1: [((0.5, 0.5), 1.0)]},
                                            theorem2_mode=True)
    alpha = 0.5
    levy = spinal_levy_measure(d, 2)
    assert levy.kill_rate > 0 and len(levy.jumps) == 1
    want = 1.0 / (levy.kill_rate + levy.laplace_exponent(alpha))
    rng = np.random.default_rng(9000)
    vals = [_edge_length(d, 2, alpha, rng, 1.0)[0] for _ in range(20_000)]
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - want) < 4 * se


def test_reduced_crt_killing_identity():
    # spine termination rate for k = 2 equals lambda_2 = 1/2: the kill times
    # are Exp(1/2), so their mean is 2 within 3 standard errors
    d = single_atom_model()
    rng = np.random.default_rng(10)
    vals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(4000):
            mt = sample_reduced_crt(d, 2, 0.0, rng, leaf_cap=1.0)
            vals.append(mt.length[1])  # alpha = 0: length equals the kill time
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - 2.0) < 3 * se


def test_reduced_crt_warns_on_leaf_edges():
    d = single_atom_model()
    rng = np.random.default_rng(11)
    with pytest.warns(UserWarning):
        sample_reduced_crt(d, 1, 0.5, rng, leaf_cap=1.0)
