"""Alpha-gamma growth: sequential leaf insertion with edge/vertex weights.

Leaf edges weigh 1-alpha, inner edges gamma, a degree-(k+1) vertex
(k-1)alpha - gamma.  The n = 3 law has a tidy closed form, deleting a
uniform leaf is consistent, and the EPPF-style product formula disagrees
with the growth law by a clean normalization factor -- all shown below.
"""

import numpy as np

from fragbox import (alphagamma_eppf, alphagamma_growth_split_oracle,
                     delete_uniform_leaf, grow_alphagamma, tree_height)


def main():
    alpha, gamma = 0.5, 0.3
    rng = np.random.default_rng(2)

    print(f"== growth at (alpha, gamma) = ({alpha}, {gamma}) ==")
    for n in (3, 5, 8):
        print(f"  one tree with {n} leaves: {grow_alphagamma(alpha, gamma, n, rng).to_text()}")

    print()
    print("== n = 3 root-split law vs simulation ==")
    oracle = alphagamma_growth_split_oracle(alpha, gamma, 3)
    counts = {}
    reps = 20_000
    for _ in range(reps):
        pi = grow_alphagamma(alpha, gamma, 3, rng).root_split()
        counts[pi] = counts.get(pi, 0) + 1
    for p, v in sorted(oracle.probs.items(), key=lambda kv: kv[0].to_text()):
        print(f"  {p.to_text():>6}  exact {v:.4f}  sampled {counts.get(p, 0) / reps:.4f}")

    print()
    print("== deleting a uniform leaf from the 6-leaf tree ==")
    t6 = grow_alphagamma(alpha, gamma, 6, rng)
    print("  before:", t6.to_text())
    print("  after :", delete_uniform_leaf(t6, rng).to_text())

    print()
    print("== heights grow like n^gamma ==")
    for n in (100, 1000, 10000):
        hs = [tree_height(grow_alphagamma(alpha, gamma, n, rng)) for _ in range(20)]
        print(f"  n = {n:5d}: mean height {np.mean(hs):7.2f}, "
              f"height / n^gamma = {np.mean(hs) / n ** gamma:.3f}")

    print()
    print("== EPPF product formula vs growth law: a constant ratio ==")
    for n in (3, 4):
        table = alphagamma_growth_split_oracle(alpha, gamma, n)
        for p, pr in sorted(table.probs.items(), key=lambda kv: kv[0].to_text()):
            if pr <= 0 or p.cylinder_class() not in (1, 2):
                continue
            sizes = tuple(sorted((len(b) for b in p.blocks), reverse=True))
            val = alphagamma_eppf(alpha, gamma, sizes, p.cylinder_class())
            print(f"  n={n} {p.to_text():>8}: formula/growth = {val / pr:.6f} "
                  f"(= (1-alpha)/(n-alpha) = {(1 - alpha) / (n - alpha):.6f})")


if __name__ == "__main__":
    main()
