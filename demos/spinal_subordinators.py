"""Spinal subordinators: mass decay along a tagged path.

Following a size-k block down the tree, the -log mass along the spine is a
killed subordinator whose jump atoms and killing rate come straight from the
dislocation model.  Block counts in a survival window scale like n^alpha.
"""

import numpy as np

from fragbox import (KnWindow, LevyAtoms, crt_scale, pjs_limit_functional,
                     renewal_moment, sample_Kn, simulate_subordinator,
                     spinal_levy_measure)
from fragbox.harness import single_atom_model


def main():
    d = single_atom_model()
    print("== spinal measures of the running example ==")
    for k in (1, 2, 3):
        l = spinal_levy_measure(d, k)
        print(f"  k = {k}: jumps {[(round(z, 4), r) for z, r in l.jumps]}, "
              f"killing rate {l.kill_rate}")

    print()
    print("== one path of the k = 1 spine (jump size log 2, rate 1/2) ==")
    rng = np.random.default_rng(3)
    path = simulate_subordinator(spinal_levy_measure(d, 1), 10.0, rng)
    for t, z in path.events[:6]:
        print(f"  t = {t:6.3f}  jump {z:.4f}")
    print(f"  ({len(path.events)} jumps on [0, 10])")

    print()
    print("== K_n: distinct blocks seen in a survival window ==")
    alpha, n = 0.5, 10 ** 6
    l = LevyAtoms((), tail_alpha=alpha, tail_delta=1.0 / (10 * n))
    w = KnWindow(0.0, 0.0, 5.0)
    scale = crt_scale(n, alpha)
    for seed in range(5):
        r = np.random.default_rng(30 + seed)
        p = simulate_subordinator(l, 5.0, r)
        kn = sample_Kn(p, w, n, r)
        lim = pjs_limit_functional(p, w, alpha)
        print(f"  K_n / (n^a Gamma(1-a)) = {kn / scale:.4f}   "
              f"limit functional = {lim:.4f}")

    print()
    print("== renewal moments: E[(N_t/t)^2] ==")
    rng = np.random.default_rng(4)
    est = renewal_moment(lambda r, s: r.exponential(1.0, s), 100.0, 2, 20_000, rng)
    print(f"  Exp(1) inter-arrivals, t = 100: {est:.4f}  (Poisson identity: 1.01)")
    est = renewal_moment(lambda r, s: r.random(s) ** -2.0, 1000.0, 2, 5_000, rng)
    print(f"  infinite-mean Pareto inter-arrivals, t = 1000: {est:.2e}  (-> 0)")


if __name__ == "__main__":
    main()
