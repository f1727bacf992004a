"""fragbox benchmark: one workload, cold passes, every metric by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has src/fragbox.  Each pass is a
fresh interpreter (bench/passrun.py) that imports fragbox, builds the pass's
inputs from (seed, pass index) and runs every item once: a closed loop, one
client, one process, BLAS held to one thread.  Passes are started until the
next one would end after S seconds (at least one, two with tracing).  A pass
takes a few seconds, so a run has several and its medians are steady.

--trace 0 reports the end-to-end metrics:
  wall_s       time of one timed pass, checks included (median over passes)
  setup_s      process start, `import fragbox` and input generation (median)
  item_p50_ms  median time of one item, over the items of every pass
  item_p90_ms  90th-percentile item time, over the items of every pass
  peak_rss_mb  ru_maxrss of the pass process (median)
Times are given at a fixed reference speed of the host: a time is
multiplied by CAL_REF_S over the time of a calibration job that the pass ran
next to it (passrun.py samples it every 50 ms between items).  A shared
host's speed drifts by a third or more within minutes, for every process
alike, and this cancels the drift.  The unscaled medians and the host's
speed are printed too.
--trace 1 alternates plain and traced passes on the same inputs and reports
the per-layer metrics of bench/tracing.py, medians over the traced passes,
plus the tracing overhead (traced minus plain wall time); times are scaled
to the reference speed by each pass's median calibration.

Checks that need more samples than one pass has (the tree-growth height
slope) run once over the samples of every pass of the run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  `failed / attempted` is the failed fraction: raised errors and
failed checks.  `correct` is false when any of them happened.
Exit status 2 means the benchmark could not run at all.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

from tracing import METRICS, LAYERS  # noqa: E402
from passrun import WORKLOAD_IDS  # noqa: E402

PASS_TIMEOUT_S = 170.0
CAL_REF_S = 0.002       # the calibration job's time at the reference speed
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("item_p50_ms", "ms"),
              ("item_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def per_layer_units():
    units = {}
    for group, (_, fields) in METRICS.items():
        for field in fields:
            units[f"{group}.{field}"] = {"self_s": "s", "bytes": "bytes"}.get(field, "count")
    for layer in LAYERS + ("bench",):
        units[f"layer.{layer}.self_s"] = "s"
    units.update({"trace.accounted_frac": "fraction", "trace.wall_s": "s",
                  "trace.plain_wall_s": "s", "trace.overhead_s": "s",
                  "bench.failed_frac": "fraction"})
    return units


def env_stamp(versions):
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fragbox")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return dict(versions, commit=commit, src_sha256=digest.hexdigest()[:16],
                nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                cpu_model=cpu)


def run_pass(workload, seed, index, traced, size, deadline):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), workload, str(seed),
           str(index), "1" if traced else "0", size, workdir]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        ended = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: pass {index} of {workload} exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_done"] - spawned
    out["duration_s"] = ended - spawned
    return out


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(passes, scaled):
    """The end-to-end metrics, at the reference speed or as measured.  An
    item is scaled by the calibration next to it, a pass by the same factor
    weighted by item time, and the setup by the pass's median calibration."""
    walls, setups, items = [], [], []
    for p in passes:
        if scaled:
            pass_items = [t * CAL_REF_S / c for t, c in zip(p["item_s"], p["item_cal_s"])]
            walls.append(p["wall_s"] * sum(pass_items) / sum(p["item_s"]))
            setups.append(p["setup_s"] * CAL_REF_S / p["cal_s"])
        else:
            pass_items = p["item_s"]
            walls.append(p["wall_s"])
            setups.append(p["setup_s"])
        items += pass_items
    med = statistics.median
    return {
        "wall_s": med(walls),
        "setup_s": med(setups),
        "item_p50_ms": 1e3 * quantile(items, 50),
        "item_p90_ms": 1e3 * quantile(items, 90),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOAD_IDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: every item kind at a tiny size, one pass")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "fragbox", "__init__.py")):
        print(f"error: no fragbox sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    deadline = t_start + PASS_TIMEOUT_S
    budget = t_start + args.seconds
    plain, traced = [], []
    index = 0
    longest = 0.0
    kinds = (False, True) if args.trace else (False,)
    while True:
        for is_traced in kinds:
            p = run_pass(args.workload, args.seed, index, is_traced, args.size, deadline)
            (traced if is_traced else plain).append(p)
            longest = max(longest, p["duration_s"])
        index += 1
        needed = longest * len(kinds)
        if args.size == "smoke" or time.monotonic() + needed > budget:
            break

    passes = plain + traced
    pooled = {}
    for p in passes:
        for key, samples in p["pooled"].items():
            pooled.setdefault(key, []).extend(samples)
    sys.path.insert(0, SRC)
    from workloads import pooled_checks
    run_failures = pooled_checks(args.workload, pooled)
    failures = [f for p in passes for f in p["failures"]] + run_failures
    attempted = sum(p["attempted"] for p in passes) + len(pooled)
    failed = sum(p["failed"] for p in passes) + len(run_failures)
    med = statistics.median
    if args.trace:
        # times at the reference speed, each pass scaled by its own calibration
        def speed(p, name):
            return CAL_REF_S / p["cal_s"] if name.endswith("_s") else 1.0

        units = per_layer_units()
        metrics = {name: med(p["layers"][name] * speed(p, name) for p in traced)
                   for name in units if not name.startswith(("trace.", "bench."))}
        metrics["trace.accounted_frac"] = med(p["layers"]["trace.accounted_frac"]
                                              for p in traced)
        metrics["trace.wall_s"] = med(p["wall_s"] * speed(p, "s") for p in traced)
        metrics["trace.plain_wall_s"] = med(p["wall_s"] * speed(p, "s") for p in plain)
        metrics["trace.overhead_s"] = med(t["wall_s"] * speed(t, "s") - p["wall_s"] * speed(p, "s")
                                          for p, t in zip(plain, traced))
        metrics["bench.failed_frac"] = failed / attempted
    else:
        units = dict(END_TO_END)
        metrics = timing_metrics(plain, scaled=True)
        raw = timing_metrics(plain, scaled=False)

    stamp = env_stamp(passes[0]["versions"])
    print(f"# fragbox benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(plain)}+{len(traced)} "
          f"items/pass={len(plain[0]['item_s'])}"
          + (f" wrapped={traced[0]['wrapped']} functions" if traced else ""))
    print("# env " + json.dumps(stamp, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:44s} {value:16.6f} {units[name]}")
    if not args.trace:
        print(f"# host speed: calibration job {1e3 * med(p['cal_s'] for p in plain):.4f} ms "
              f"(median over passes), reference {1e3 * CAL_REF_S:.4f} ms; unscaled: "
              + ", ".join(f"{k}={v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"))
    if traced:
        print("# heaviest span edges (parent -> child, calls, total s) in traced pass 0")
        for parent, child, calls, total in traced[0]["edges"]:
            print(f"#   {parent:40s} -> {child:40s} {calls:9d} {total:10.4f}")
    for f in failures[:20]:
        print("# FAILED " + f)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
