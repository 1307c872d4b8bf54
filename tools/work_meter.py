#!/usr/bin/env python3
"""Count the interpreter's work per module on a fixed set of CLI calls.

    python3 tools/work_meter.py [--json] [SRC ...]

Wall-clock A/B runs cannot resolve a change of a few per cent in a few
pairs; an opcode count does not drift with the host. For each SRC (a
checkout's ``src`` directory, default this checkout's), a fresh child
process imports ``glpart`` from it and runs each case of ``cases()`` through
``glpart.cli.main`` twice under ``sys.settrace``, with
``frame.f_trace_opcodes`` set, and ``sys.setprofile``: once warm, then
once counted. It counts the opcodes each module executes and the
``c_call`` events each module makes (calls into C, such as set algebra,
``heapq``, ``json`` or ``os``, whose work no opcode shows). Every module
of ``glpart`` gets its own row; ``(other)`` holds the rest, such as
``argparse`` and ``json``, and ``total`` the sum. The children run with
``PYTHONHASHSEED=0``. The warm run is traced too because from Python 3.12
on, where ``settrace`` rides on ``sys.monitoring``, a code object's first
traced call reports no opcodes.

The cases are fixed: ``partition``, validated and with ``--skip-checks``,
on a k-tree, a weighted k-tree and a class member at each n of ``SIZES``;
``check`` on a member and on a k-tree with a planted hole; and ``verify``
of a member's partition. The instance files are written once, by the
first SRC's ``glpart generate``, and every SRC reads the same files.

Given one SRC, this prints each case's totals and its modules' counts;
given two, the difference per module from the first to the second, and
only the modules that differ. ``--json`` prints one object instead: the
interpreter, and one row per tree, case and module. Counts change with
the Python version, so the report names the interpreter that ran it. The
meter reports and never gates; a claimed speed-up still needs the paired
wall-clock runs of ``tools/ab_pairs.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from collections.abc import Callable

TOOLS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TOOLS), "src")
SIZES = (1000, 4000)
OTHER, TOTAL = "(other)", "total"

# name, generate flags for n; every instance has k = 3, members n/25 rings
_INSTANCES = [
    ("ktree", lambda n: ["--k", "3", "--seed", "1"]),
    ("ktree-w", lambda n: ["--k", "3", "--max-weight", "5", "--seed", "2"]),
    ("member", lambda n: ["--k", "3", "--cycles", str(n // 25), "--min-demand",
                          "2", "--seed", "3"]),
]


def cases(sizes: tuple[int, ...] = SIZES) -> list[tuple[str, list[str]]]:
    """The (name, argv) of each case, paths relative to the work directory."""
    out = []
    for n in sizes:
        for name, _ in _INSTANCES:
            out.append((f"partition {name}-{n}",
                        ["partition", f"{name}-{n}.txt", "--out", "out.json"]))
            out.append((f"partition {name}-{n} --skip-checks",
                        ["partition", f"{name}-{n}.txt", "--skip-checks",
                         "--out", "out.json"]))
    n = sizes[0]
    out += [
        (f"check member-{n}", ["check", f"member-{n}.txt", "--out", "out.json"]),
        (f"check hole-{n}", ["check", f"hole-{n}.txt", "--out", "out.json"]),
        (f"verify member-{n}", ["verify", f"member-{n}.txt", f"member-{n}.part.json",
                                "--deviation", "slack:1", "--out", "out.json"]),
    ]
    return out


def plant_hole(text: str) -> str:
    """An instance file's text with a chordless 5-cycle of new unit-weight
    vertices, each joined to one k-clique, so the graph stays k-connected;
    the last demand grows by 5."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    n, m, k = map(int, lines[0].split())
    demands = list(map(int, lines[3].split()))
    demands[-1] += 5
    edges = [tuple(map(int, line.split())) for line in lines[4:]]
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    clique = [0]
    for v in sorted(adj[0]):
        if len(clique) < k and all(v in adj[u] for u in clique):
            clique.append(v)
    ring = range(n, n + 5)
    edges += [(u, r) for r in ring for u in clique]
    edges += [(ring[i - 1], ring[i]) for i in range(1, 5)] + [(ring[0], ring[4])]
    head = [f"{n + 5} {len(edges)} {k}", lines[1] + " 1" * 5, lines[2],
            " ".join(map(str, demands))]
    return "\n".join(head + [f"{u} {v}" for u, v in edges]) + "\n"


def meter(fn: Callable[[], object]) -> tuple[Counter, Counter]:
    """Call ``fn()`` once under the tracer and the profiler. Returns the
    opcodes executed and the C calls made, each keyed by the ``__name__``
    of the module whose code ran. Code of this module is left out, so
    neither the meter nor a ``fn`` written here counts itself."""
    opcodes: Counter = Counter()
    c_calls: Counter = Counter()
    own = globals()

    def on_call(frame, event, arg):
        if frame.f_globals is own:
            return None
        frame.f_trace_opcodes = True
        module = frame.f_globals.get("__name__")

        def on_event(frame, event, arg):
            if event == "opcode":
                opcodes[module] += 1
            return on_event
        return on_event

    def on_profile(frame, event, arg):
        if event == "c_call" and frame.f_globals is not own:
            c_calls[frame.f_globals.get("__name__")] += 1

    sys.setprofile(on_profile)
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return opcodes, c_calls


def bucket(counts: Counter, modules: list[str]) -> dict[str, int]:
    """``counts`` by module name folded into one entry per ``glpart`` module
    of ``modules``, ``(other)`` and ``total``."""
    out = dict.fromkeys(modules, 0)
    out[OTHER] = 0
    for name, count in counts.items():
        short = name[len("glpart."):] if name and name.startswith("glpart.") else None
        out[short if short in out else OTHER] += count
    out[TOTAL] = sum(counts.values())
    return out


def _prepare(workdir: str, sizes: tuple[int, ...]) -> None:
    from glpart import cli

    for n in sizes:
        for name, flags in _INSTANCES:
            path = os.path.join(workdir, f"{name}-{n}.txt")
            if cli.main(["generate", "--n", str(n), *flags(n), "--out", path]):
                raise SystemExit(f"generate {name}-{n} failed")
    n = sizes[0]
    with open(os.path.join(workdir, f"ktree-{n}.txt"), encoding="utf-8") as fh:
        hole = plant_hole(fh.read())
    with open(os.path.join(workdir, f"hole-{n}.txt"), "w", encoding="utf-8") as fh:
        fh.write(hole)
    member = os.path.join(workdir, f"member-{n}")
    if cli.main(["partition", member + ".txt", "--out", member + ".part.json"]):
        raise SystemExit(f"partition member-{n} failed")


def _measure(workdir: str, sizes: tuple[int, ...]) -> dict:
    import glpart
    from glpart import cli

    pkg = os.path.dirname(glpart.__file__)
    modules = sorted(f[:-3] for f in os.listdir(pkg)
                     if f.endswith(".py") and f != "__init__.py")
    os.chdir(workdir)
    out = {}
    for name, argv in cases(sizes):
        codes = []
        for _ in range(2):  # warm, then counted
            opcodes, c_calls = meter(lambda: codes.append(cli.main(argv)))
        if codes != [0, 0]:
            raise SystemExit(f"{name} exited {codes}")
        out[name] = {"opcodes": bucket(opcodes, modules),
                     "c_calls": bucket(c_calls, modules)}
    return {"python": sys.version.split()[0], "glpart": pkg, "cases": out}


def _child(action: str, src: str, workdir: str, sizes: str) -> None:
    """The body of a child process: import ``glpart`` from ``src``, then
    write the instances or measure them, printing the result as JSON."""
    sys.path.insert(0, os.path.abspath(src))
    sizes_ = tuple(map(int, sizes.split(",")))
    if action == "prepare":
        _prepare(workdir, sizes_)
    else:
        print(json.dumps(_measure(workdir, sizes_)))


def _run_child(action: str, src: str, workdir: str, sizes: tuple[int, ...]) -> str:
    code = (f"import sys; sys.path.insert(0, {TOOLS!r}); "
            "from work_meter import _child; _child(*sys.argv[1:])")
    proc = subprocess.run(
        [sys.executable, "-c", code, action, src, workdir, ",".join(map(str, sizes))],
        env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{src}: {action} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def measure(srcs: list[str], sizes: tuple[int, ...] = SIZES) -> list[dict]:
    """Each tree's counts, measured in a fresh child process per tree, on
    instances the first tree writes into one temporary directory."""
    with tempfile.TemporaryDirectory() as workdir:
        _run_child("prepare", srcs[0], workdir, sizes)
        return [dict(json.loads(_run_child("measure", src, workdir, sizes)), src=src)
                for src in srcs]


def rows(trees: list[dict]) -> list[dict]:
    """One row per tree, case and module, in the order measured."""
    return [
        {"src": tree["src"], "case": case, "module": module,
         "opcodes": counts["opcodes"][module], "c_calls": counts["c_calls"][module]}
        for tree in trees
        for case, counts in tree["cases"].items()
        for module in counts["opcodes"]
    ]


def _rel(old: int, new: int) -> str:
    return f"{(new - old) / old:+.3%}" if old else "new"


def format_report(trees: list[dict]) -> str:
    head = f"python {trees[0]['python']}; " + "; ".join(
        f"tree {i + 1}: {tree['glpart']}" for i, tree in enumerate(trees))
    out = [head]
    if len(trees) == 1:
        for case, counts in trees[0]["cases"].items():
            ops, calls = counts["opcodes"], counts["c_calls"]
            out.append(f"== {case}: {ops[TOTAL]:,} opcodes, {calls[TOTAL]:,} C calls")
            out += [f"   {module:<16} {ops[module]:>12,} {calls[module]:>10,}"
                    for module in ops if module != TOTAL and ops[module]]
        return "\n".join(out)
    old, new = trees[0]["cases"], trees[1]["cases"]
    for case in old:
        a, b = old[case], new.get(case)
        if b is None:
            out.append(f"== {case}: missing from tree 2")
            continue
        out.append(f"== {case}: opcodes {a['opcodes'][TOTAL]:,} -> "
                   f"{b['opcodes'][TOTAL]:,} "
                   f"({_rel(a['opcodes'][TOTAL], b['opcodes'][TOTAL])}), C calls "
                   f"{a['c_calls'][TOTAL]:,} -> {b['c_calls'][TOTAL]:,} "
                   f"({_rel(a['c_calls'][TOTAL], b['c_calls'][TOTAL])})")
        for module in sorted((set(a["opcodes"]) | set(b["opcodes"])) - {TOTAL}):
            pairs = [(a[kind].get(module, 0), b[kind].get(module, 0))
                     for kind in ("opcodes", "c_calls")]
            if any(x != y for x, y in pairs):
                out.append(f"   {module:<16} " + "  ".join(
                    f"{kind} {y - x:+,} ({_rel(x, y)})"
                    for kind, (x, y) in zip(("opcodes", "C calls"), pairs)))
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("srcs", nargs="*", default=[SRC], metavar="SRC",
                    help="src directories to measure (default: this checkout's)")
    ap.add_argument("--json", action="store_true", help="print JSON")
    args = ap.parse_args(argv)
    if len(args.srcs) > 2:
        ap.error("give at most two SRC trees")
    try:
        trees = measure(args.srcs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"python": trees[0]["python"], "rows": rows(trees)}, indent=2))
    else:
        print(format_report(trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
