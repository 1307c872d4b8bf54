"""Workloads, the closed measurement loop and the metrics.

Load is a closed loop with one client in one process: each operation is one
in-process call to ``glpart.cli.main``, issued only after the previous one
returned. A workload is a list of batches; each batch holds the same recipe
mix (different seeds), so a run that measures whole batches always measures
the same mix. A run measures a fixed number of batches, set from
``--seconds`` and the time one batch takes on a 2-core x86 sandbox, so every
run has the same number of operations; it stops early, after a whole batch,
only when the machine is so slow that the run passes 1.3 times
``--seconds``. Each batch runs in its own seeded shuffle; when all batches
are done the loop starts over on the same files.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

import glpart.cli as cli

import gate
import inputs
from calibrate import Calibration
from inputs import PLANTS, Recipe
from replay import CONNECTIVITY, SOLVERS, Spans, cli_view, replay

MIN_BATCHES = 2  # batches measured per run even when --seconds is short
OVERRUN = 1.3  # stop early past this multiple of --seconds


@dataclass(frozen=True)
class Workload:
    batch: Callable[[int], list[Recipe]]  # batch index -> its recipes
    batches: int  # batches built in set-up
    batch_s: float  # seconds one batch of operations takes, untraced
    skip_checks: bool
    ladder: tuple[int, ...]  # k=3 sizes, each double the one before


# Each mix puts both the median and the tail (the 11th slowest operation of
# a run) inside a group of alike solves, not on the edge between two groups:
# the chordal mixes have one solve of the largest size per batch, so a run
# has fewer than ten of them and the tail falls in the upper part of the
# middle size; the mixed one has two slow members per batch, so a run has
# well over ten and the tail falls in the middle of them.


def _validated(b):
    alt = b % 2 == 1
    return [Recipe(125, 3, False), Recipe(125, 3, True),
            Recipe(250, 3, False), Recipe(250, 3, True), Recipe(250, 3, alt),
            Recipe(250, 2, not alt), Recipe(250, 4, alt), Recipe(500, 3, alt)]


def _unchecked(b):
    alt = b % 2 == 1
    return [Recipe(1000, 3, False), Recipe(1000, 3, True),
            Recipe(2000, 3, False), Recipe(2000, 3, True),
            Recipe(2000, 2, alt), Recipe(2000, 4, not alt), Recipe(4000, 3, alt)]


def _mixed(b):
    # a non-member follows the member it is planted into; 2 in 8 are non-members
    alt = b % 2 == 1
    return [Recipe(200, 3, not alt, 8), Recipe(200, 3, alt, 8),
            Recipe(200, 3, alt, 8, PLANTS[b % 4]),
            Recipe(100, 3, False, 4), Recipe(100, 3, True, 4),
            Recipe(100, 3, False, 4), Recipe(100, 3, True, 4),
            Recipe(100, 3, True, 4, PLANTS[(b + 2) % 4])]


WORKLOADS = {
    # the per-pair max-flow connectivity check is nearly all of the time;
    # recognition and the 4-cycle code never run (auto mode sees a chordal graph)
    "chordal-validated": Workload(_validated, 8, 3.6, False, (125, 250, 500)),
    # growth loop, parse and emit only; connectivity does no work at all
    "chordal-unchecked-large": Workload(_unchecked, 8, 3.8, True, (1000, 2000, 4000)),
    # recognition and connectivity both ways: proving members clean and
    # finding witnesses in non-members; set-up is carried by the generator
    "almost-chordal-mixed": Workload(_mixed, 3, 2.9, False, (100, 200)),
}


def op_argv(case, out_path: str, skip_checks: bool) -> list[str]:
    if case.recipe.plant:
        return ["check", case.path, "--require", "class", "--require",
                "connectivity", "--out", out_path]
    return ["partition", case.path, "--out", out_path] + (
        ["--skip-checks"] if skip_checks else [])


def run_op(cli_main, argv) -> tuple[int | None, int, str]:
    """One timed CLI call; returns (exit code or None, ns, error text)."""
    err = ""
    t0 = perf_counter_ns()
    try:
        # the CLI's error lines are dropped; the exit code carries the verdict
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(argv)
    except (Exception, SystemExit) as exc:  # an escape is a failed operation
        rc, err = None, f"escaped cli.main: {type(exc).__name__}: {exc}"
    return rc, perf_counter_ns() - t0, err


@dataclass
class Measurement:
    latencies: list[int] = field(default_factory=list)  # wall ns
    scaled: list[float] = field(default_factory=list)  # ns at the reference speed
    cases: list = field(default_factory=list)  # the case of each latency
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    visits: int = 0  # batches measured
    gate_spans: Spans = field(default_factory=Spans)
    traced: Spans = field(default_factory=Spans)
    per_op: list[tuple] = field(default_factory=list)  # (case, ns, replay ns, spans)

    @property
    def failure_rate(self) -> float:
        return len(self.failures) / max(len(self.latencies), 1)


def measure(batches, cli_main, *, visits: int, seconds: float, seed: int,
            skip_checks: bool, out_path: str, trace: bool,
            calib: Calibration | None = None) -> Measurement:
    """The closed loop over ``visits`` whole batches; checks every output.

    A calibration kernel runs before the first operation and right after
    each one, so every latency is also rescaled to the reference speed.
    """
    rng = random.Random(f"order-{seed}")
    calib = calib or Calibration()
    m = Measurement()
    deadline = perf_counter_ns() + OVERRUN * seconds * 1e9
    before = calib.sample()
    while m.visits < visits and (m.visits < MIN_BATCHES or perf_counter_ns() < deadline):
        batch = list(batches[m.visits % len(batches)])
        rng.shuffle(batch)
        for case in batch:
            # each operation starts from an empty young generation, as a
            # fresh ``glpart`` process would, not from whatever the last
            # operation and its checks left behind
            gc.collect()
            rc, ns, err = run_op(cli_main, op_argv(case, out_path, skip_checks))
            after = calib.sample()
            m.latencies.append(ns)
            m.scaled.append(calib.rescale(ns, before, after))
            before = after
            m.cases.append(case)
            why = err or _judge(m, case, rc, out_path, skip_checks, ns, trace)
            if why:
                m.failures.append(f"{case.name}: {why}")
        m.visits += 1
    return m


def _judge(m: Measurement, case, rc, out_path, skip_checks, ns, trace) -> str | None:
    with open(out_path, encoding="utf-8") as fh:
        text = fh.read()
    why = gate.check_output(case, rc, text, m.gate_spans)
    if why is None and m.outputs.setdefault(case.name, text) != text:
        why = "output differs from an earlier run of the same instance"
    if why is None and trace:
        check = bool(case.recipe.plant)
        spans = Spans()
        t0 = perf_counter_ns()
        got = replay(case.path, check, skip_checks, spans)
        m.per_op.append((case, ns, perf_counter_ns() - t0, spans))
        m.traced.merge(spans)
        if got != cli_view(json.loads(text), check):
            why = "traced replay disagrees with the CLI output"
    return why


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    return max(50, math.floor(100 * (n - 10) / n))


def nearest_rank(sorted_values, pct: int):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


@contextlib.contextmanager
def timed_generators(spans: Spans):
    """Time, from outside, the generator calls ``glpart generate`` makes."""
    saved = {}
    for name in ("generate_ktree", "generate_almost_chordal"):
        fn = saved[name] = getattr(cli, name)

        def wrapped(*args, _fn=fn, _name=f"generators.{name}", **kwargs):
            return spans.call(_name, _fn, *args, **kwargs)

        setattr(cli, name, wrapped)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Set up, warm up, measure; returns (detail dict, result dict)."""
    wl = WORKLOADS[name]
    out_path = os.path.join(workdir, "out.json")
    calib = Calibration()

    # warm-up, untimed: one generate and one operation of the workload's kind
    warm = Recipe(60, 3, False, 1 if wl.batch(0)[0].member else 0)
    warm_path = os.path.join(workdir, "warm.txt")
    inputs.generate(cli.main, warm, 0, warm_path)
    cli.main(["partition", warm_path, "--out", out_path]
             + (["--skip-checks"] if wl.skip_checks else []))

    gen_spans = Spans()
    recipes = [wl.batch(b) for b in range(wl.batches)]
    with timed_generators(gen_spans) if trace else contextlib.nullcontext():
        batches, batch_s = inputs.timed_batches(cli.main, recipes, seed, workdir, calib)
    cases = [c for batch in batches for c in batch]
    # the benchmark's own objects are frozen out of the collector, so that
    # collections inside an operation pay only for the program's objects
    gc.collect()
    gc.freeze()

    # a traced operation also replays, which takes about as long again
    visits = max(MIN_BATCHES, round(seconds / (wl.batch_s * (2 if trace else 1))))
    m = measure(batches, cli.main, visits=visits, seconds=seconds, seed=seed,
                skip_checks=wl.skip_checks, out_path=out_path, trace=trace,
                calib=calib)

    attempted = len(m.latencies)
    pct = tail_percentile(attempted)
    detail = {
        "workload": name, "seed": seed, "trace": int(trace),
        "operations": attempted, "batches_measured": m.visits,
        "instances": len(cases),
        "tail_percentile": pct,
        "tail_samples_beyond": attempted - math.ceil(pct / 100 * attempted),
        "failure_rate": m.failure_rate,
        "wall_latency_p50_ms": statistics.median(m.latencies) / 1e6,
        "calibration_median_ms": statistics.median(calib.samples) / 1e6,
        "median_ms_by_n_k3": _median_ms_by_n(m, wl.ladder),
        "failures": m.failures[:5],
        "inputs_digest": hashlib.sha256(
            "".join(c.text for c in cases).encode()).hexdigest(),
        "outputs_digest": hashlib.sha256("".join(
            m.outputs.get(c.name, "") for c in cases).encode()).hexdigest(),
    }
    if trace:
        metrics = layer_metrics(wl, m, gen_spans, cases)
    else:
        # every time is at the reference speed (calibrate.py)
        metrics = {
            "latency_p50_ms": (statistics.median(m.scaled) / 1e6, "ms"),
            "latency_tail_ms": (nearest_rank(sorted(m.scaled), pct) / 1e6, "ms"),
            "throughput_vps": (
                sum(c.inst.n for c in m.cases) / (sum(m.scaled) / 1e9), "vertex/s"),
            "setup_s": (statistics.median(batch_s), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not m.failures,
        "attempted": attempted,
        "failed": len(m.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


def _median_ms_by_n(m: Measurement, ladder) -> dict[str, float]:
    """Median latency of the k=3 solves at each ladder size."""
    out = {}
    for n in ladder:
        ns = [t for t, c in zip(m.latencies, m.cases)
              if c.recipe.n == n and c.recipe.k == 3 and not c.recipe.plant]
        out[str(n)] = round(statistics.median(ns) / 1e6, 3)
    return out


def _doubling_ratio(times_by_n: dict[int, list[int]], ladder) -> float:
    """Geometric mean of time(2n) / time(n) along the ladder; 0 if unmeasured."""
    means = [statistics.fmean(times_by_n.get(n) or [0]) for n in ladder]
    if min(means) <= 0:
        return 0.0
    logs = [math.log(b / a) for a, b in zip(means, means[1:])]
    return math.exp(statistics.fmean(logs))


def layer_metrics(wl: Workload, m: Measurement, gen_spans: Spans, cases) -> dict:
    """Per-layer numbers from the traced replays.

    ``.ms`` is mean milliseconds per operation; ``.share`` is a fraction of
    the summed replay time; counts are per batch. Generator times are mean
    milliseconds per call, taken during set-up.
    """
    t = m.traced
    ops = max(len(m.per_op), 1)
    untraced_ns = sum(op[1] for op in m.per_op) or 1
    replay_ns = sum(op[2] for op in m.per_op) or 1
    span_ns = t.total_ns()
    visits = max(m.visits, 1)

    def ms(name, spans=t):
        return (spans.ns.get(name, 0) / ops / 1e6, "ms")

    def share(name):
        return (t.ns.get(name, 0) / replay_ns, "ratio")

    def count(name):
        return (t.counts.get(name, 0) / visits, "count")

    def per_call_ms(name):
        calls = gen_spans.calls.get(name, 0)
        return (gen_spans.ns.get(name, 0) / calls / 1e6 if calls else 0.0, "ms")

    solver_by_n: dict[int, list[int]] = {}
    conn_by_n: dict[int, list[int]] = {}
    for case, _, _, spans in m.per_op:
        r = case.recipe
        if r.k == 3 and not r.plant:
            solver_by_n.setdefault(r.n, []).append(sum(spans.ns.get(s, 0) for s in SOLVERS))
            conn_by_n.setdefault(r.n, []).append(spans.ns.get(CONNECTIVITY, 0))
    solver_ns = sum(t.ns.get(s, 0) for s in SOLVERS)
    short = sum(inputs.comment_field(c.inst, "requested_cycles")
                - inputs.comment_field(c.inst, "cycles")
                for c in cases if c.recipe.member and not c.recipe.plant)

    return {
        f"{CONNECTIVITY}.ms": ms(CONNECTIVITY),
        f"{CONNECTIVITY}.calls": (t.calls.get(CONNECTIVITY, 0) / visits, "count"),
        f"{CONNECTIVITY}.share": share(CONNECTIVITY),
        "connectivity.doubling_ratio": (_doubling_ratio(conn_by_n, wl.ladder), "ratio"),
        f"{SOLVERS[0]}.ms": ms(SOLVERS[0]),
        f"{SOLVERS[1]}.ms": ms(SOLVERS[1]),
        "partition.vertices_per_s": (
            t.counts.get("partition.vertices", 0) / (solver_ns / 1e9)
            if solver_ns else 0.0, "vertex/s"),
        "partition.doubling_ratio": (_doubling_ratio(solver_by_n, wl.ladder), "ratio"),
        "recognition.find_hole.ms": ms("recognition.find_hole"),
        "recognition.find_hole.share": share("recognition.find_hole"),
        "recognition.scan_catalog_violations.ms": ms("recognition.scan_catalog_violations"),
        "recognition.rejections": count("recognition.rejections"),
        "c4.enumerate_induced_c4.ms": ms("c4.enumerate_induced_c4"),
        "c4.cycles": count("c4.cycles"),
        "almost_chordal.add_terminal_chords.ms": ms("almost_chordal.add_terminal_chords"),
        "almost_chordal.chords": count("almost_chordal.chords"),
        "almost_chordal.build_contraction_plan.ms": ms("almost_chordal.build_contraction_plan"),
        "almost_chordal.contracted_edges": count("almost_chordal.contracted_edges"),
        "chordal.mcs_order.ms": ms("chordal.mcs_order"),
        "chordal.peo_violation.ms": ms("chordal.peo_violation"),
        "instances.parse_instance.ms": ms("instances.parse_instance"),
        "instances.parse_instance.share": share("instances.parse_instance"),
        "cli.overhead.ms": ((untraced_ns - span_ns) / ops / 1e6, "ms"),
        "graph.induced_subgraph.ms": ms("graph.induced_subgraph"),
        "graph.MergeMap.expand.ms": ms("graph.MergeMap.expand"),
        "generators.generate_ktree.ms": per_call_ms("generators.generate_ktree"),
        "generators.generate_almost_chordal.ms": per_call_ms(
            "generators.generate_almost_chordal"),
        "generators.cycles_short": (short, "count"),
        "verify.verify_partition.ms": ms("verify.verify_partition", m.gate_spans),
        "trace.coverage": (span_ns / untraced_ns, "ratio"),
        "trace.overhead": (replay_ns / untraced_ns - 1, "ratio"),
    }
