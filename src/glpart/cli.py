"""Command line front end.

Subcommands: check, partition, verify, generate, oracle-compare. All JSON
output is deterministic (sorted keys, fixed separators, no timestamps);
timing numbers only appear under an explicit --timings flag so repeat runs
stay byte-identical.

Exit codes: 0 success, 1 solve or verification failure, 2 precondition or
demand failure, 3 parse or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .almost_chordal import gl_partition_almost_chordal
from .c4 import enumerate_induced_c4
from .chordal import ChordalityWitness, compute_peo
from .connectivity import _connectivity
from .errors import (
    CapError,
    DemandError,
    GlpartError,
    GraphFormatError,
    PipelineInvariantError,
    PreconditionError,
    SolverStallError,
)
from .generators import generate_almost_chordal, generate_ktree
from .graph import Graph, WeightedGraph
from .instances import Instance, format_instance, load_instance
from .oracle import DEFAULT_ORACLE_CAP, brute_force_gl
from .partition import (
    GLPartition,
    PartitionRequest,
    gl_partition_chordal,
    gl_partition_chordal_weighted,
)
from .recognition import _class_check
from .verify import DeviationRule, verify_partition

EXIT_OK = 0
EXIT_SOLVE = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3


def _emit(payload, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    inst = load_instance(args.file)
    g = inst.graph
    k = inst.request.k

    peo = compute_peo(g)
    chordal = not isinstance(peo, ChordalityWitness)
    chordal_witness = None
    if not chordal:
        chordal_witness = {
            "vertex": peo.vertex,
            "nonadjacent": list(peo.nonadjacent),
        }

    # one 4-cycle catalog serves recognition and the connectivity check
    catalog = enumerate_induced_c4(g)
    check = _class_check(g, catalog)
    violation = None
    if not check:
        violation = {
            "kind": check.violation.kind,
            "vertices": list(check.violation.vertices),
            "detail": check.violation.detail,
        }

    conn = _connectivity(g, k, catalog)
    separator = None
    if not conn and conn.witness is not None:
        separator = {
            "separator": sorted(conn.witness.separator),
            "separated_pair": list(conn.witness.separated_pair),
        }

    _emit(
        {
            "n": g.n,
            "m": g.edge_count(),
            "k": k,
            "chordal": chordal,
            "chordality_witness": chordal_witness,
            "class_member": check.ok,
            "class_violation": violation,
            "connectivity_at_least_k": conn.connected,
            "connectivity_reason": conn.reason,
            "separator": separator,
        },
        args.out,
    )
    required = set(args.require or [])
    failed = (
        ("chordal" in required and not chordal)
        or ("class" in required and not check.ok)
        or ("connectivity" in required and not conn.connected)
    )
    return EXIT_PRECONDITION if failed else EXIT_OK


def _partition_payload(inst: Instance, args):
    """Solve and return (partition, mode string, audit dict or None)."""
    validate = not args.skip_checks
    g = inst.graph
    if args.mode == "auto":
        peo = compute_peo(g)
        mode = "chordal" if not isinstance(peo, ChordalityWitness) else "almost-chordal"
    else:
        mode = args.mode

    if mode == "chordal":
        part = gl_partition_chordal_weighted(
            inst.wgraph,
            inst.request,
            validate=validate,
            debug_invariants=args.debug_invariants,
        )
        return part, "chordal-exact" if inst.is_unit() else "chordal-weighted", None

    result = gl_partition_almost_chordal(
        inst.wgraph,
        inst.request,
        validate=validate,
        debug_invariants=args.debug_invariants,
    )
    audit = {
        "added_chords": [list(e) for e in result.added_chords],
        "contracted_edges": [list(e) for e in result.contraction_edges],
        "merge_map": {
            str(min(grp)): sorted(grp) for grp in result.merge_groups
        },
    }
    return result.partition, "almost-chordal", audit


def _cmd_partition(args) -> int:
    t0 = time.perf_counter()
    inst = load_instance(args.file)
    t1 = time.perf_counter()
    partition, mode, audit = _partition_payload(inst, args)
    t2 = time.perf_counter()

    payload = {
        "parts": [sorted(p) for p in partition.parts],
        "deviation": partition.deviation,
        "mode": mode,
        "audit": audit,
    }
    if args.timings:
        payload["timing_ms"] = {
            "load": round(1000 * (t1 - t0), 3),
            "solve": round(1000 * (t2 - t1), 3),
        }
    _emit(payload, args.out)
    return EXIT_OK


def _load_parts(path: str, k: int) -> GLPartition:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"partition file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "parts" not in doc:
        raise GraphFormatError("partition file must be an object with a 'parts' key")
    raw = doc["parts"]
    if not isinstance(raw, list) or len(raw) != k:
        raise GraphFormatError(f"expected {k} parts")
    parts = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or not entry:
            raise GraphFormatError(f"part {i} must be a non-empty list")
        # JSON true/false load as bool, a subclass of int
        if not all(type(x) is int for x in entry):
            raise GraphFormatError(f"part {i} must contain integers")
        part = frozenset(entry)
        if len(part) != len(entry):
            raise GraphFormatError(f"part {i} lists a vertex twice")
        parts.append(part)
    deviation = doc.get("deviation", 0)
    if type(deviation) is not int:
        raise GraphFormatError("deviation must be an integer")
    return GLPartition(tuple(parts), deviation)


def _cmd_verify(args) -> int:
    inst = load_instance(args.file)
    partition = _load_parts(args.partition, inst.request.k)
    rule = DeviationRule.parse(args.deviation)
    try:
        report = verify_partition(inst.wgraph, inst.request, partition, rule)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    _emit(
        {
            "ok": report.ok,
            "disjoint": report.disjoint,
            "covers": report.covers,
            "first_violation": report.first_violation,
            "parts": [
                {
                    "index": p.index,
                    "terminal": p.terminal,
                    "size": p.size,
                    "weight": p.weight,
                    "demand": p.demand,
                    "has_terminal": p.has_terminal,
                    "connected": p.connected,
                    "demand_ok": p.demand_ok,
                }
                for p in report.parts
            ],
        },
        args.out,
    )
    return EXIT_OK if report.ok else EXIT_SOLVE


def _compose_demands(
    rng: random.Random, k: int, total: int, floors: list[int]
) -> list[int]:
    """Random composition of ``total`` with per-part floors."""
    base = sum(floors)
    if base > total:
        raise DemandError(f"floors sum to {base}, above the total {total}")
    demands = list(floors)
    for _ in range(total - base):
        demands[rng.randrange(k)] += 1
    return demands


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise DemandError(f"{flag} must be at least {low}, got {value}")


def _cmd_generate(args) -> int:
    _require_at_least("--cycles", args.cycles, 0)
    _require_at_least("--max-weight", args.max_weight, 1)
    # every instance needs two terminals (and a planted 4-cycle an anchor
    # clique of at least two vertices); a k-tree needs k + 1 vertices
    _require_at_least("--k", args.k, 2)
    _require_at_least("--n", args.n, args.k + 1)
    rng = random.Random(args.seed)
    if args.cycles > 0:
        need = args.k + 1 + 4 * args.cycles
        if args.n < need:
            raise DemandError(
                f"--n {args.n} cannot host {args.cycles} cycles over a "
                f"{args.k}-tree base; need --n >= {need}"
            )
        g = generate_almost_chordal(args.n, args.k, args.cycles, args.seed)
        comment = (
            f"seed={args.seed} k={args.k} cycles={args.cycles}"
            f" requested_cycles={args.cycles}"
        )
    else:
        g = generate_ktree(args.n, args.k, args.seed)
        comment = f"seed={args.seed} k={args.k} k-tree"

    if args.max_weight > 1:
        weights = tuple(rng.randint(1, args.max_weight) for _ in range(g.n))
    else:
        weights = (1,) * g.n
    wg = WeightedGraph(g, weights)
    terminals = tuple(sorted(rng.sample(range(g.n), args.k)))
    floors = [
        max(weights[t], args.min_demand) for t in terminals
    ]
    demands = _compose_demands(rng, args.k, wg.total_weight(), floors)
    inst = Instance(wg, PartitionRequest(terminals, tuple(demands)))
    text = format_instance(inst, comment)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_oracle_compare(args) -> int:
    _require_at_least("--trials", args.trials, 0)
    _require_at_least("--cycles", args.cycles, 0)
    _require_at_least("--k", args.k, 2)
    # every trial draws its n from [max(k + 1, 2k), --n-max]
    _require_at_least("--n-max", args.n_max, max(args.k + 1, 2 * args.k))
    rng = random.Random(args.seed)
    # cycles are capped so one planted gadget still fits under --n-max
    cycles_fit = max((args.n_max - args.k - 1) // 4, 0)
    cycles_eff = min(args.cycles, cycles_fit)
    if args.cycles > 0 and cycles_eff == 0:
        raise DemandError(
            f"--n-max {args.n_max} cannot host a planted cycle at k={args.k}; "
            f"need --n-max >= {args.k + 5}"
        )
    trials = []
    failures = 0
    for trial in range(args.trials):
        seed = rng.randrange(2**32)
        trng = random.Random(seed)
        k = args.k
        n = trng.randint(max(k + 1, 2 * k), args.n_max)
        entry = {"trial": trial, "seed": seed, "n": n, "k": k}
        if args.cycles > 0:
            n = trng.randint(k + 1 + 4 * cycles_eff, max(args.n_max, k + 1 + 4 * cycles_eff))
            g = generate_almost_chordal(n, k, cycles_eff, seed)
            entry["n"] = n
            entry["cycles"] = cycles_eff
            floors = [2] * k
            rule = DeviationRule.slack(1)
            entry["mode"] = "almost-chordal"
        else:
            g = generate_ktree(n, k, seed)
            floors = [1] * k
            rule = DeviationRule.exact()
            entry["mode"] = "chordal"
        terminals = tuple(sorted(trng.sample(range(n), k)))
        demands = tuple(_compose_demands(trng, k, n, floors))
        req = PartitionRequest(terminals, demands)

        if args.cycles > 0:
            solved = gl_partition_almost_chordal(
                WeightedGraph.unit(g), req, validate=False
            ).partition
        else:
            solved = gl_partition_chordal(g, req, validate=False)
        report = verify_partition(WeightedGraph.unit(g), req, solved, rule)
        oracle = brute_force_gl(g, req, cap=args.cap_n)
        oracle_ok = oracle is not None and verify_partition(
            WeightedGraph.unit(g), req, oracle, DeviationRule.exact()
        ).ok
        entry["solver_ok"] = report.ok
        entry["oracle_found"] = oracle_ok
        entry["agree"] = report.ok and oracle_ok
        if not entry["agree"]:
            failures += 1
            entry["violation"] = report.first_violation
        trials.append(entry)
    _emit(
        {
            "trials": len(trials),
            "failures": failures,
            "results": trials,
        },
        args.out,
    )
    return EXIT_OK if failures == 0 else EXIT_SOLVE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glpart",
        description=(
            "Connected vertex partitions with prescribed sizes or weights "
            "on chordal and almost chordal graphs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report chordality, class membership, connectivity")
    p.add_argument("file")
    p.add_argument(
        "--require",
        action="append",
        choices=["chordal", "class", "connectivity"],
        help="exit 2 unless this property holds (repeatable)",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("partition", help="solve an instance file")
    p.add_argument("file")
    p.add_argument(
        "--mode",
        choices=["auto", "chordal", "almost-chordal"],
        default="auto",
    )
    p.add_argument("--skip-checks", action="store_true")
    p.add_argument("--debug-invariants", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("verify", help="verify a partition JSON against an instance")
    p.add_argument("file")
    p.add_argument("partition")
    p.add_argument(
        "--deviation",
        default="exact",
        help="exact, window:N or slack:N (default exact)",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="write a seeded instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycles", type=int, default=0)
    p.add_argument("--max-weight", type=int, default=1)
    p.add_argument("--min-demand", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "oracle-compare",
        help="cross-check the constructive solver against exhaustive search",
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--cycles", type=int, default=0)
    p.add_argument("--cap-n", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DemandError, PreconditionError, CapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (SolverStallError, PipelineInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GlpartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE


if __name__ == "__main__":
    sys.exit(main())
