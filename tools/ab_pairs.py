#!/usr/bin/env python3
"""Paired A/B runs of the benchmark on two checkouts.

    python3 tools/ab_pairs.py PARENT CHANGE --workload chordal-validated \\
        --workload almost-chordal-mixed --pairs 10 --seed-base 100

PARENT and CHANGE are two checkouts of the repository. Pair i of each
workload runs ``perfbench/run.py --workload W --seed S+i --seconds T
--trace 0`` (S from ``--seed-base``) in both, the parent first on even i
and the change first on odd i, so that slow drift of the host falls on
both sides alike. The command and T come from PARENT's ``BENCHMARK.json``,
which must equal CHANGE's. The runs stop at the first run that exits
non-zero or reports ``"correct": false``. Each pair also compares the two
runs' ``outputs_digest``: a change that keeps every output byte-identical
differs in none.

For each workload and end-to-end metric of ``BENCHMARK.json`` the summary
gives both medians, the parent's interquartile range (IQR), the relative
difference of the medians and how many pairs the change won; a tie counts
for neither side. ``claim`` reads ``yes`` when the change won at least 9
pairs in 10 and its median is better than the parent's by more than the
parent's IQR; ``regress`` reads ``WORSE`` when the change's median is worse
by more than the metric's bound. The exit code is 0 when every run
completed, whatever the verdicts, and 1 when a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_run(stdout: str) -> tuple[dict, str | None]:
    """The result object on the last non-empty line of a run's stdout, and
    the ``outputs_digest`` of the detail line before it, if any."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed no result line")
    detail = json.loads(lines[-2]) if len(lines) > 1 else {}
    return json.loads(lines[-1]), detail.get("outputs_digest")


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartiles (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric over the (parent, change) result pairs
    of one workload. ``end_to_end`` is ``BENCHMARK.json``'s list of metrics,
    each with its ``name``, ``better`` ("lower" or "higher") and ``bound``
    (the relative worsening allowed)."""
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        med_old, med_new = statistics.median(old), statistics.median(new)
        spread = iqr(old)
        gain = sign * (med_new - med_old)  # > 0 when the change is better
        rel = (med_new - med_old) / med_old if med_old else 0.0
        rows.append({
            "metric": name,
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent": med_old,
            "change": med_new,
            "parent_iqr": spread,
            "rel": rel,
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "claim": wins * 10 >= 9 * len(pairs) and gain > spread,
            "regress": sign * rel < -spec["bound"],
        })
    return rows


def failed_ops(pairs: list[tuple[dict, dict]]) -> tuple[str, str]:
    """Failed / attempted operations over all runs, parent and change."""
    def share(side: int) -> str:
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        return f"{failed}/{attempted}"
    return share(0), share(1)


def _num(x: float) -> str:
    return f"{x:.4g}"


def format_rows(workload: str, pairs: list[tuple[dict, dict]],
                rows: list[dict]) -> str:
    head = (f"{'metric':<16} {'unit':<9} {'parent':>10} {'change':>10} "
            f"{'parent IQR':>16} {'diff':>7} {'wins':>7}  claim regress")
    fail_old, fail_new = failed_ops(pairs)
    out = [f"== {workload}: {len(pairs)} pairs, failed operations "
           f"parent {fail_old}, change {fail_new}", head]
    for r in rows:
        spread = r["parent_iqr"]
        rel_iqr = spread / r["parent"] if r["parent"] else 0.0
        out.append(
            f"{r['metric']:<16} {r['unit']:<9} {_num(r['parent']):>10} "
            f"{_num(r['change']):>10} {_num(spread):>7} ({rel_iqr:5.1%}) "
            f"{r['rel']:>+7.1%} {r['wins']:>3}/{r['pairs']:<3}  "
            f"{'yes' if r['claim'] else 'no':<5} "
            f"{'WORSE' if r['regress'] else 'ok'}")
    return "\n".join(out)


def run_once(checkout: str, command: list[str], workload: str, seed: int,
             seconds: float) -> tuple[dict, str | None]:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    result, digest = parse_run(proc.stdout)
    if not result.get("correct"):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} reported "
                           f"incorrect output: {proc.stdout.strip()[-500:]}")
    return result, digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = load_spec(args.parent)
    if load_spec(args.change) != spec:
        print("error: the two checkouts' BENCHMARK.json differ", file=sys.stderr)
        return 2
    command, seconds = spec["command"], spec["run_seconds"]
    code = 0
    for workload in args.workload:
        pairs = []
        differ = 0  # pairs whose CLI outputs differ
        try:
            for i in range(args.pairs):
                seed = args.seed_base + i
                step = 1 if i % 2 == 0 else -1
                got = [run_once(side, command, workload, seed, seconds)
                       for side in [args.parent, args.change][::step]]
                (old, old_digest), (new, new_digest) = got[::step]
                pairs.append((old, new))
                differ += old_digest != new_digest
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                      file=sys.stderr, flush=True)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        if pairs:
            print(format_rows(workload, pairs, summarise(pairs, spec["end_to_end"])),
                  flush=True)
            print(f"outputs digest differs in {differ} of {len(pairs)} pairs",
                  flush=True)
        if code:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
