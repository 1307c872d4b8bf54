"""Command line front end.

Subcommands: check, partition, verify, generate, oracle-compare. Each
parses its input, calls the library and prints; ``partition`` and
``oracle-compare`` leave the choice of solver to ``partition.solve``. All
JSON output is deterministic (sorted keys, fixed separators, no
timestamps); timing numbers only appear under an explicit --timings flag
so repeat runs stay byte-identical. The output is byte-identical to
``json.dumps(payload, indent=2, sort_keys=True)``; ``_dumps`` writes that
layout itself so that each flat list goes through the C encoder.

Exit codes: 0 success, 1 solve or verification failure, 2 precondition or
demand failure, 3 parse or I/O failure.

``--out`` overwrites an existing file in place through raw ``os`` calls,
so the file holds exactly the UTF-8 bytes that stdout would have shown,
the bytes a text-mode ``open(path, "w")`` wrote on POSIX; ``_write`` says
why it does not truncate on open and what that costs after a crash.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call, so a process that calls ``main`` many
times (the tests, ``perfbench``) builds it only once; a one-shot ``glpart``
run builds it once either way. Reuse is safe: ``parse_args`` does not
modify the parser, each call parses into a fresh namespace, and the
``append`` action behind ``--require`` copies its list rather than growing
a shared default.

``main`` pauses Python's cyclic garbage collector for the whole command:
it notes ``gc.isenabled()``, calls ``gc.disable()``, and in a ``finally``
turns the collector back on only if it was on, so a normal return, every
mapped exit code, argparse's ``SystemExit`` and an escaping exception all
hand the caller back the state it had. The commands allocate many sets,
tuples and lists, which the collector would traverse again and again
while finding nothing to free: a census that runs every kind of command
in-process (``tests/test_collector.py``) finds no unreachable object
after any of them, so reference counting alone frees everything the
command drops, and the pause delays no memory. argparse's usage and help
text is the exception: its formatter leaves a cycle of a few objects,
which the caller's collector frees once ``main`` returns. A one-shot
``glpart`` run makes no collector pass at all. ``gc.disable`` is
process-wide: while a command runs, other threads' cyclic garbage also
waits until it returns. No other module of the package touches ``gc``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import random
import stat
import sys
import time

from .chordal import mcs_search
from .connectivity import vertex_connectivity_at_least
from .errors import (
    CapError,
    DemandError,
    GlpartError,
    GraphFormatError,
    PipelineInvariantError,
    PreconditionError,
    SolverStallError,
)
from .generators import (draw_request, generate_almost_chordal, generate_ktree,
                         instance_text, request_rng)
from .graph import WeightedGraph
from .instances import load_instance
from .oracle import brute_force_gl
from .partition import GLPartition, solve
from .recognition import class_violation
from .verify import DeviationRule, verify_partition

EXIT_OK = 0
EXIT_SOLVE = 1
EXIT_PRECONDITION = 2
EXIT_PARSE = 3

# exit code per handled error type; the first match wins, subclasses first
_EXIT_CODES = (
    ((GraphFormatError, OSError), EXIT_PARSE),
    ((DemandError, PreconditionError, CapError), EXIT_PRECONDITION),
    ((SolverStallError, PipelineInvariantError), EXIT_SOLVE),
    (ValueError, EXIT_PARSE),
    (GlpartError, EXIT_SOLVE),
)

# past n = 20 the exhaustive oracle's exponential time reaches minutes
_N_MAX = 20
# a generated instance takes about 125 bytes of memory per edge: at this
# many (n = 666,668, k = 3) generate peaked at 252 MB and took 3 s on a
# 2-core host with Python 3.11
_EDGES_MAX = 2_000_000


def _write(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path``, or to stdout when it is None or empty.

    A file gets exactly the UTF-8 bytes of ``text`` through raw ``os``
    calls: ``os.open`` without ``O_TRUNC``, ``os.write`` from offset 0
    until every byte is out, then ``os.ftruncate`` to the written length.
    On POSIX these are the bytes ``open(out_path, "w", encoding="utf-8")``
    wrote, since that does no newline translation there. The file is not
    truncated on open because truncating it to zero makes ext4
    (``auto_da_alloc``) start writing the new data to disk at close. Only a
    regular file is truncated; ``ftruncate`` fails on a special file such
    as ``/dev/null``. There is no fsync and the write is not atomic. A
    crash or a failed write mid-way can leave the new bytes followed by the
    old file's tail, or a mix of old and new pages, which can pass for a
    complete result, where truncating first left a short or empty file;
    and ext4 no longer guards against a zero-length file after a crash,
    since that guard hangs on the truncation to zero.
    """
    if out_path:
        data = text.encode("utf-8")
        fd = os.open(out_path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            done = os.write(fd, data)
            while done < len(data):
                done += os.write(fd, data[done:])
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    else:
        sys.stdout.write(text)


# element types the C encoder writes as scalars
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _dumps(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    a value whose dicts have str keys, as every payload here does.

    Any ``indent`` makes ``json`` fall back to its pure-Python encoder, so
    this writes the layout itself and hands each flat list of scalars to
    the C encoder in one call, with the newline and indent as separator.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join(
            json.dumps(key) + ": " + _dumps(item, inner)
            for key, item in sorted(value.items())
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _SCALARS.issuperset(map(type, value)):
            body = json.dumps(value, separators=(sep, ": "))[1:-1]
        else:
            body = sep.join(_dumps(item, inner) for item in value)
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(value)


def _emit(payload, out_path: str | None) -> None:
    _write(_dumps(payload) + "\n", out_path)


def _cmd_check(args) -> int:
    inst = load_instance(args.file)
    g = inst.graph
    k = inst.request.k

    witness = mcs_search(g).witness
    chordal = witness is None
    violation = class_violation(g)
    conn = vertex_connectivity_at_least(g, k)

    _emit(
        {
            "n": g.n,
            "m": g.edge_count(),
            "k": k,
            "chordal": chordal,
            "chordality_witness": None if chordal else dataclasses.asdict(witness),
            "class_member": violation is None,
            "class_violation": violation and dataclasses.asdict(violation),
            "connectivity_at_least_k": conn.connected,
            "connectivity_reason": conn.reason,
            "separator": conn.witness and dataclasses.asdict(conn.witness),
        },
        args.out,
    )
    required = set(args.require or [])
    failed = (
        ("chordal" in required and not chordal)
        or ("class" in required and violation is not None)
        or ("connectivity" in required and not conn.connected)
    )
    return EXIT_PRECONDITION if failed else EXIT_OK


def _cmd_partition(args) -> int:
    t0 = time.perf_counter()
    inst = load_instance(args.file)
    t1 = time.perf_counter()
    sol = solve(
        inst.wgraph, inst.request, mode=args.mode, validate=not args.skip_checks
    )
    t2 = time.perf_counter()

    edges = sol.contraction_edges
    payload = {
        "parts": [sorted(p) for p in sol.partition.parts],
        "deviation": sol.partition.deviation,
        "mode": sol.mode,
        "audit": None if sol.added_chords is None else {
            "added_chords": [list(e) for e in sol.added_chords],
            "contracted_edges": [list(e) for e in edges],
            # each merged group is a contracted pair, named by its kept id
            "merge_map": {str(u): [u, v] for u, v in sorted(edges)},
        },
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
    except RecursionError:
        raise GraphFormatError("partition file nests too deeply to read") from None
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
    try:
        rule = DeviationRule.parse(args.deviation)
    except ValueError as exc:
        raise DemandError(f"--deviation: {exc}") from None
    inst = load_instance(args.file)
    partition = _load_parts(args.partition, inst.request.k)
    try:
        report = verify_partition(inst.wgraph, inst.request, partition, rule)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    _emit(dataclasses.asdict(report), args.out)
    return EXIT_OK if report.ok else EXIT_SOLVE


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise DemandError(f"{flag} must be at least {low}, got {value}")


def _cmd_generate(args) -> int:
    _require_at_least("--cycles", args.cycles, 0)
    _require_at_least("--max-weight", args.max_weight, 1)
    _require_at_least("--min-demand", args.min_demand, 1)
    # every instance needs two terminals (and a planted 4-cycle an anchor
    # clique of at least two vertices); a k-tree needs k + 1 vertices and
    # each planted cycle four more
    _require_at_least("--k", args.k, 2)
    _require_at_least("--n", args.n, args.k + 1 + 4 * args.cycles)
    # a k-tree on b vertices has k*b - k(k + 1)/2 edges, a gadget 4 + 4k
    base = args.n - 4 * args.cycles
    edges = args.k * base - args.k * (args.k + 1) // 2 + 4 * args.cycles * (args.k + 1)
    if edges > _EDGES_MAX:
        raise DemandError(
            f"--n {args.n}, --k {args.k} and --cycles {args.cycles} give {edges} "
            f"edges, above the {_EDGES_MAX} that generate writes")
    text = instance_text(args.n, args.k, args.cycles, args.seed, args.max_weight,
                         args.min_demand)
    _write(text, args.out)
    return EXIT_OK


def _cmd_oracle_compare(args) -> int:
    _require_at_least("--trials", args.trials, 0)
    _require_at_least("--cycles", args.cycles, 0)
    _require_at_least("--k", args.k, 2)
    # each trial draws its n from [n_min, --n-max]: a member's k-tree needs
    # k + 1 vertices and each planted cycle four more, and its demand
    # floors of 2 need 2k; a k-tree trial draws from 2k too
    n_min = max(2 * args.k, args.k + 1 + 4 * args.cycles)
    _require_at_least("--n-max", args.n_max, n_min)
    if args.n_max > _N_MAX:
        raise DemandError(f"--n-max must be at most {_N_MAX}, got {args.n_max}")
    rng = random.Random(args.seed)
    trials = []
    failures = 0
    for trial in range(args.trials):
        seed = rng.randrange(2**32)
        trng = request_rng(seed)
        k = args.k
        n = trng.randint(n_min, args.n_max)
        entry = {"trial": trial, "seed": seed, "n": n, "k": k}
        if args.cycles > 0:
            g = generate_almost_chordal(n, k, args.cycles, seed)
            entry["cycles"] = args.cycles
            floor = 2
            rule = DeviationRule.slack(1)
            entry["mode"] = "almost-chordal"
        else:
            g = generate_ktree(n, k, seed)
            floor = 1
            rule = DeviationRule.exact()
            entry["mode"] = "chordal"
        wg = WeightedGraph.unit(g)
        req = draw_request(trng, wg.weights, k, floor)

        solved = solve(wg, req, mode=entry["mode"], validate=False).partition
        report = verify_partition(wg, req, solved, rule)
        oracle = brute_force_gl(g, req, cap=args.n_max)
        oracle_ok = oracle is not None and verify_partition(
            wg, req, oracle, DeviationRule.exact()
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call.

    ``set_defaults(func=...)`` keeps the handlers this module held at that
    first build; rebinding a ``_cmd_*`` name afterwards does not reach it.
    """
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
    p.add_argument("--n", type=int, required=True, help=(
        "vertices; with --k K and --cycles C the instance has"
        " K(n - 4C) - K(K + 1)/2 + 4C(K + 1) edges, at most"
        f" {_EDGES_MAX:,}"))
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
    p.add_argument("--n-max", type=int, default=10, help=(
        "largest n a trial draws (default 10); at least max(2k, k + 1 + 4C)"
        f" for --k K and --cycles C, and at most {_N_MAX}"))
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--cycles", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GlpartError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
