"""One benchmark pass in a fresh interpreter (started by run.py).

    python3 bench/passrun.py WORKLOAD SEED PASS_INDEX TRACED SIZE WORKDIR

Imports fragbox from the checkout's src/, generates the pass's inputs from
(seed, pass index), then runs every item once, cold: the library's
lru_caches start empty, as they do on every CLI run.  With TRACED=1 the
public fragbox functions are wrapped in spans first.  The last line of
stdout is one JSON object with the pass's timings, counts and failures, and
the times of a fixed calibration job run before, between and after the
items (never inside one), from which run.py reads the host's speed.
"""

import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(ROOT, "bench", "reference.json")
REFERENCE_SEED = 0
REF_TOL = 1e-12
WORKLOAD_IDS = {"exact-tables": 1, "tree-growth": 2, "spine-paths": 3, "gh-pairs": 4}
CAL_EVERY_S = 0.05      # pass time between two host-speed samples
CAL_EDGE = 5            # samples before and after the items


def calibration_kernel():
    """A fixed pure-Python job (dict updates, float math, calls), a few ms
    long.  Its time tracks the speed that the host gives this process."""
    d = {}
    s = 0.0
    for i in range(6000):
        k = i & 127
        d[k] = d.get(k, 0.0) + i * 0.5
        s += math.sqrt(i)
    return s + len(d)


def calibrate(samples, clock):
    t0 = clock()
    calibration_kernel()
    t1 = clock()
    samples.append(t1 - t0)
    return t1


def import_fragbox():
    if not os.path.isfile(os.path.join(SRC, "fragbox", "__init__.py")):
        sys.exit(f"error: no fragbox sources under {SRC}")
    sys.path.insert(0, SRC)
    import fragbox
    if not os.path.abspath(fragbox.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported fragbox from {fragbox.__file__}, not {SRC}")
    return fragbox


def compare(ref, got, path="", out=None):
    """Paths at which got differs from ref by more than REF_TOL."""
    out = [] if out is None else out
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            out.append(f"{path}: keys differ")
        for k in set(ref) & set(got):
            compare(ref[k], got[k], f"{path}/{k}", out)
    elif isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if abs(ref - got) > REF_TOL:
            out.append(f"{path}: {got!r} != reference {ref!r}")
    elif ref != got:
        out.append(f"{path}: {got!r} != reference {ref!r}")
    return out


def main(argv):
    workload, seed, pass_index, traced, size, workdir = argv
    seed, pass_index, traced = int(seed), int(pass_index), traced == "1"
    fb = import_fragbox()
    import numpy as np
    import scipy
    import workloads
    from tracing import GLUE, Tracer

    rng = np.random.default_rng([seed, pass_index, WORKLOAD_IDS[workload]])
    ctx = workloads.Context(workdir)
    items, finals = workloads.build(workload, rng, ctx, size)
    # kinds are interleaved so that every kind sees the whole pass, not one
    # stretch of it; no item's output depends on the order
    order = rng.permutation(len(items))
    setup_done = time.monotonic()

    tracer = None
    if traced:
        tracer = Tracer(ctx.counts)
        tracer.install(fb)

    times, refs, failures, cal, cal_at = [], {}, [], [], []
    clock = time.perf_counter
    for _ in range(CAL_EDGE):
        calibrate(cal, clock)
    cal_in_pass = 0.0
    start = last_cal = clock()
    for i in order:
        now = clock()
        if now - last_cal >= CAL_EVERY_S:
            last_cal = calibrate(cal, clock)
            cal_in_pass += last_cal - now
        cal_at.append(len(cal) - 1)
        kind, fn = items[i]
        t0 = clock()
        try:
            ref = fn() if tracer is None else tracer.span(GLUE, fn)
        except Exception as e:  # any raised error is a failed item
            failures.append(f"item {i} ({kind}): {type(e).__name__}: {e}")
        else:
            if ref is not None:
                refs[str(i)] = ref
        times.append(clock() - t0)
    for name, fn in finals:
        try:
            fn() if tracer is None else tracer.span(GLUE, fn)
        except Exception as e:
            failures.append(f"final check {name}: {type(e).__name__}: {e}")
    wall = clock() - start - cal_in_pass
    for _ in range(CAL_EDGE):
        calibrate(cal, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if size == "full" and seed == REFERENCE_SEED and pass_index == 0:
        if os.environ.get("FRAGBOX_BENCH_WRITE_REFERENCE") == "1":
            print(json.dumps({"reference": refs}))
        elif os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                ref_all = json.load(f).get(workload, {})
            diffs = compare(ref_all, refs)
            failures += [f"reference {d}" for d in diffs[:20]]

    result = {
        "setup_done": setup_done,
        "wall_s": wall,
        "cal_s": statistics.median(cal),
        # per item, the median of the samples just before and around it
        "item_cal_s": [statistics.median(cal[max(0, j - 1):j + 2]) for j in cal_at],
        "item_s": times,
        "attempted": len(items) + len(finals) + ctx.extra_ops,
        "failed": len(failures),
        "failures": failures,
        "pooled": ctx.pooled,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.report(wall)
        result["wrapped"] = tracer.wrapped
        result["edges"] = tracer.edge_table()
    print(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main(sys.argv[1:])
