"""From a discrete dislocation model to splitting rules and consistency.

The model assigns each cylinder class j its own atom list; the induced
splitting rule P_n is the normalized cylinder measure, and its total mass
lambda_n is the rate at which a block of size n splits.  The family is
consistent: deleting label n+1 projects P_{n+1} back onto P_n.
"""

import numpy as np

from fragbox import (consistency_residual, sample_split, splitting_rule,
                     rate, rate_closed_form)
from fragbox.harness import single_atom_model


def main():
    d = single_atom_model()
    print("== running example: one atom (1/2, 1/2) at level 1 ==")
    for n in (3, 4):
        print(f"splitting rule P_{n}:")
        t = splitting_rule(d, n)
        for p, v in sorted(t.probs.items(), key=lambda kv: kv[0].to_text()):
            if v > 0:
                print(f"  {p.to_text():>12}  {v:.6f}")

    print()
    print("== total rates: enumeration oracle and fast path ==")
    for n in (2, 3, 4, 5):
        print(f"  lambda_{n}: sum over partitions {rate(d, n):.6f}, "
              f"sum over mixture components {rate_closed_form(d, n):.6f}")

    print()
    print("== consistency residuals (should be ~ machine precision) ==")
    for n in (2, 3, 4, 5):
        print(f"  n = {n}: {consistency_residual(d, n):.2e}")

    print()
    print("== sampling a split without building the table ==")
    rng = np.random.default_rng(1)
    counts = {}
    reps = 20_000
    for _ in range(reps):
        p = sample_split(d, 3, rng)
        counts[p.to_text()] = counts.get(p.to_text(), 0) + 1
    t3 = splitting_rule(d, 3)
    for p, v in sorted(t3.probs.items(), key=lambda kv: kv[0].to_text()):
        if v > 0:
            print(f"  {p.to_text():>8}  exact {v:.4f}  sampled "
                  f"{counts.get(p.to_text(), 0) / reps:.4f}")


if __name__ == "__main__":
    main()
