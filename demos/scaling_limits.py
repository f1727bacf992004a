"""Scaling limits: reduced trees, height exponents, GH stabilization.

Large discrete fragmentation trees, suitably rescaled, look like a continuum
tree.  This script shows the three desk-scale views of that statement:
reduced-tree edge lengths, the height-scaling exponent, and shrinking GH
distance along the growth chain.
"""

import numpy as np

from fragbox import (crt_scale, gh_distance_rooted, grow_alphagamma,
                     reduced_ladder, reduced_tree, sample_fragmentation_tree,
                     sample_reduced_crt, scaling_exponent)
from fragbox.harness import single_atom_model


def main():
    d = single_atom_model()
    rng = np.random.default_rng(5)

    print("== reduced tree on leaves {1, 2}: discrete vs continuum ==")
    # a unit edge is one spinal Poisson event; its mean duration is
    # 1 / (killing + jump rate), here exactly 2 for the pair spine
    from fragbox import spinal_levy_measure
    levy2 = spinal_levy_measure(d, 2)
    holding = 1.0 / (levy2.kill_rate + sum(r for _, r in levy2.jumps))
    reps = 2000
    disc = []
    for _ in range(reps):
        t = sample_fragmentation_tree(d, 128, rng)
        rt = reduced_tree(t, [1, 2])
        disc.append(holding * rt.length[rt.children[rt.root][0]])
    crt = []
    for _ in range(reps):
        mt = sample_reduced_crt(d, 2, 0.0, rng, leaf_cap=1.0)
        crt.append(mt.length[mt.children[mt.root][0]])
    print(f"  discrete root-edge mean (n = 128): {np.mean(disc):.4f}")
    print(f"  continuum root-edge mean:          {np.mean(crt):.4f}")
    print("  (both approach 1 / killing rate = 2)")

    print()
    print("== height-scaling exponent of the alpha-gamma model ==")
    model = {"family": "alphagamma", "alpha": 0.5, "gamma": 0.4}
    slope, err = scaling_exponent(model, [64, 128, 256, 512, 1024], 200,
                                  "height", rng)
    print(f"  fitted slope {slope:.3f} +- {err:.3f}  (exponent gamma = 0.4)")

    print()
    print("== GH stabilization along the growth chain ==")
    gamma, k = 0.4, 4
    sizes = [16, 64, 256, 1024]
    gaps = {n: [] for n in sizes[:-1]}
    for _ in range(10):
        t = grow_alphagamma(0.5, gamma, sizes[-1], rng)
        at = {n: rt.scaled(1.0 / crt_scale(n, gamma))
              for n, rt in zip(sizes, reduced_ladder(t, k, sizes))}
        for n in gaps:
            gaps[n].append(gh_distance_rooted(at[n], at[4 * n]))
    for n, g in gaps.items():
        print(f"  n = {n:3d} vs {4 * n:4d}: median GH gap {np.median(g):.4f}")


if __name__ == "__main__":
    main()
