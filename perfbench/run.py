#!/usr/bin/env python3
"""glpart benchmark: validated CLI latency end to end, per-module spans.

Run from the repository root:

    python3 perfbench/run.py --workload chordal-validated --seed 1 \\
        --seconds 25 --trace 0

Workloads: chordal-validated, chordal-unchecked-large, almost-chordal-mixed.
Inputs are built from ``--seed`` with ``glpart generate``, taken from
``src/`` of this checkout; every output is checked (gate.py). ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` replays every operation stage by
stage (replay.py) and prints the per-layer metrics. The last line of standard
output is the JSON result; the line before it names the tail percentile, the
failure rate and digests of the inputs and outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "glpart", "cli.py")):
        print(f"error: no glpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        detail, result = bench.run(args.workload, args.seed, args.seconds,
                                   args.trace == 1, WORKDIR)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
