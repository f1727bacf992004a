"""Regenerate bench/reference.json: the outputs of pass 0 on seed 0.

    python3 bench/write_reference.py

Run it only when a workload's inputs change on purpose; a change to fragbox
must reproduce the stored values instead.
"""

import json
import os
import subprocess
import sys

from passrun import REFERENCE, WORKLOAD_IDS
from run import SRC, ROOT

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               FRAGBOX_BENCH_WRITE_REFERENCE="1")
    reference = {}
    workdir = os.path.join(HERE, ".work", "reference")
    os.makedirs(workdir, exist_ok=True)
    for workload in WORKLOAD_IDS:
        out = subprocess.run([sys.executable, os.path.join(HERE, "passrun.py"), workload,
                              "0", "0", "0", "full", workdir],
                             cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        reference[workload] = json.loads(lines[-2])["reference"]
        failures = json.loads(lines[-1])["failures"]
        if failures:
            sys.exit(f"{workload}: not writing a reference from a failing pass: {failures}")
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, sort_keys=True, indent=0)
        f.write("\n")


if __name__ == "__main__":
    main()
