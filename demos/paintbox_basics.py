"""Paintboxes, plain and modified.

A mass partition s paints each of n labels an atom color (or a unique dust
color); same color = same block.  The modified paintbox is the same thing
conditioned to agree with a fixed base partition on the first few labels.
"""

import numpy as np

from fragbox import (MassPartition, Partition, all_partitions,
                     kingman_cylinder_prob, kingman_sample,
                     modified_paintbox_prob, modified_paintbox_sample)


def main():
    s = MassPartition((0.6, 0.4))
    rng = np.random.default_rng(0)

    print("== Kingman paintbox, s = (0.6, 0.4) ==")
    print("five samples of a partition of [5]:")
    for _ in range(5):
        print("  ", kingman_sample(s, 5, rng).to_text())

    total = sum(kingman_cylinder_prob(s, p) for p in all_partitions(4))
    print(f"cylinder probabilities over all partitions of [4] sum to {total}")

    print()
    print("== modified paintbox: condition on 1 and 2 in different blocks ==")
    base = Partition.from_blocks(2, [[1], [2]])
    cats = [p for p in all_partitions(4)
            if p.to_text() in ("1|2 3 4", "1 3|2 4", "1 4|2 3", "1 3 4|2")]
    for p in cats:
        print(f"  P({p.to_text():>9}) = {modified_paintbox_prob(s, base, p):.4f}")

    counts = {}
    reps = 20_000
    for _ in range(reps):
        p = modified_paintbox_sample(s, base, 4, rng)
        counts[p.to_text()] = counts.get(p.to_text(), 0) + 1
    print("sampled frequencies agree:")
    for p in cats:
        print(f"  f({p.to_text():>9}) = {counts.get(p.to_text(), 0) / reps:.4f}")

    print()
    print("== degenerate conditioning is refused ==")
    one_atom = MassPartition((1.0,))
    try:
        modified_paintbox_prob(one_atom, base, cats[1])
    except Exception as e:
        print("  ", type(e).__name__, "-", e)


if __name__ == "__main__":
    main()
