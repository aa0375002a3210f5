#!/usr/bin/env python3
"""The repository benchmark: one workload, one process, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile-paper --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):

* ``compile-paper``   cold COMPASS compiles of vgg16/resnet18/squeezenet on
  the S, M and L chips at batch 16 (paper GA 100x30 with instruction
  generation), plus one exact EDP-mode DP compile per model on M;
* ``serve-plain``     resnet18 on M:2, latency policy, dynamic batching, warm
  DP plan cache, open-loop Poisson at 0.7x fleet capacity;
* ``serve-resilient`` the same fleet and stream with a chip failure, a
  straggler, timeouts/retries, SLO + switch cost, the control plane and
  telemetry with a live-stream sink.

``--seed`` drives the GA seed and the traffic seed.  The run times the
program's imports in several fresh interpreters and sets the workload up
several times (the medians make ``setup_s``), then repeats the timed
operation for ``--seconds`` and reports medians.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` wraps the program's public
entry points with timing spans, alternates traced and untraced
operations and prints the per-layer metrics, writing every span to
``perfbench/out/``.  Every operation's output is checked; the last line
of standard output is the JSON result.  Exits 2 when the program's
sources are not next to ``perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: set-ups per run; ``setup_s`` counts the median
SETUPS = 9
#: fresh interpreters that each time the program's imports once;
#: ``setup_s`` counts the median
IMPORT_SAMPLES = 9
#: reference-loop samples on each side of a set-up phase: the serving
#: warm-up phase lasts only about 0.1 s, so one sample is too noisy
SETUP_REF_SAMPLES = 4
#: host seconds of one reference unit at the reference host's nominal
#: speed; times measured in ``ref`` units and reported in seconds
#: (``setup_s``, ``serve.telemetry.overhead_s``) are scaled by it
REF_NOMINAL_S = 0.010


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile-paper", "serve-plain",
                                 "serve-resilient"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def reference_loop() -> float:
    """Host seconds of a fixed reference computation (about 8-16 ms).

    It touches no ``repro`` code: a dictionary/list workload in the
    interpreter plus a small NumPy loop, the same mix the program runs.
    The host is shared, and its speed drifts with the load of other
    tenants by tens of percent over minutes; a step's time divided by the
    mean of the samples taken right before and after it (``ref`` units)
    does not drift with it.
    """
    import numpy as np

    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(40_000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    rows = [(i, i * 0.5) for i in range(15_000)]
    values = np.arange(15_000.0)
    for _ in range(20):
        values = np.sqrt(values + 1.0)
    if total < 0 or len(rows) != 15_000 or not values[0] > 0:
        raise AssertionError("reference loop miscomputed")
    return time.perf_counter() - start


class Runner:
    """Runs one workload's set-ups and operations and keeps the timings."""

    def __init__(self, workload, tracer=None, targets=()) -> None:
        self.workload = workload
        self.tracer = tracer
        self.targets = list(targets)
        #: per set-up: (seconds, ref units)
        self.setup_times = []
        #: warm-up compile time of each set-up: (seconds, ref units)
        self.compile_times = []
        self.setup_deltas = []
        #: per variant, per timed operation: [(seconds, ref units)] per step
        self.step_times = {}
        self.op_deltas = []
        #: every reference-loop sample
        self.ref_s = []
        self.outcomes = []
        #: the last operation's summary per variant
        self.last_summary = {}
        self._ops = 0

    def _bracketed(self, fn, samples: int):
        """Run ``fn`` between reference samples; returns (result, s, ref).

        ``samples`` reference loops run right before and right after
        ``fn``; their mean is the host speed ``fn`` ran at.
        """
        before = [reference_loop() for _ in range(samples)]
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        after = [reference_loop() for _ in range(samples)]
        self.ref_s += before + after
        return result, elapsed, elapsed / statistics.fmean(before + after)

    def setup(self) -> None:
        tracer = self.tracer
        gc.collect()
        before = tracer.snapshot() if tracer else None
        total_s = total_ref = 0.0
        for name, phase in self.workload.setup_phases():
            with (tracer.installed(self.targets) if tracer
                  else contextlib.nullcontext()):
                _, elapsed, ref = self._bracketed(phase, SETUP_REF_SAMPLES)
            total_s += elapsed
            total_ref += ref
            if name == "compile":
                self.compile_times.append((elapsed, ref))
        self.setup_times.append((total_s, total_ref))
        if tracer:
            self.setup_deltas.append(tracer.delta(tracer.snapshot(), before))

    def operation(self, variant: str, timed: bool = True,
                  steps: Optional[int] = None) -> None:
        """Run, time and check one operation, a step at a time.

        Each step is timed on its own, between reference-loop samples;
        ``traced`` wraps the steps in the tracer's spans (each step is a
        ``bench.op`` root span).  Outputs are checked and dropped right
        after their step, so no step runs with an earlier one's heap alive.
        ``steps`` limits the operation to its first steps (warm-up).
        """
        tracer = self.tracer if variant == "traced" else None
        workload = self.workload
        before = tracer.snapshot() if tracer else None
        times, outcomes = [], []
        for step_index, step in enumerate(workload.steps(
                "main" if variant == "traced" else variant)[:steps]):
            gc.collect()
            if tracer:
                def spanned(step=step):
                    with tracer.span("bench.op"):
                        return step()
                with tracer.installed(self.targets):
                    output, elapsed, ref = self._bracketed(
                        spanned, workload.ref_samples)
            else:
                output, elapsed, ref = self._bracketed(
                    step, workload.ref_samples)
            times.append((elapsed, ref))
            outcomes.append(workload.finish_step(output, self._ops, step_index))
            del output
        self._ops += 1
        if tracer:
            self.op_deltas.append(tracer.delta(tracer.snapshot(), before))
        self.outcomes.extend(outcomes)
        self.last_summary[variant] = workload.summarize(outcomes)
        if timed:
            self.step_times.setdefault(variant, []).append(times)

    def run(self, seconds: float) -> None:
        for _ in range(SETUPS):
            self.setup()
        if self.workload.warmup_steps:
            self.operation("main", timed=False,
                           steps=self.workload.warmup_steps)
        variants = list(self.workload.traced_variants if self.tracer
                        else ("main",))
        deadline = time.perf_counter() + seconds
        while True:
            # rotate the order each round, so no variant always runs first
            variants = variants[1:] + variants[:1]
            for variant in variants:
                self.operation(variant)
            if time.perf_counter() >= deadline:
                break

    # ------------------------------------------------------------------
    def op_time(self, variant: str = "main", unit: int = 0) -> float:
        """The median operation: the sum over steps of each step's median.

        ``unit`` 0 gives host seconds, 1 reference-loop units.  Summing
        per-step medians keeps one slow repetition of one step (a garbage
        collection landing there, a burst of host load) out of the total.
        """
        ops = self.step_times[variant]
        return sum(median([op[i][unit] for op in ops])
                   for i in range(len(ops[0])))

    def compile_time(self, unit: int = 0) -> float:
        """Median warm-up compile time over the set-ups."""
        return median([times[unit] for times in self.compile_times])

    def setup_time(self, unit: int = 0) -> float:
        """Median set-up time."""
        return median([times[unit] for times in self.setup_times])


def import_probe() -> None:
    """Print the program's import time in ``ref`` units.

    Run in a fresh interpreter by :func:`import_ref`; the reference
    samples come after the imports, so NumPy's import is counted.
    """
    sys.path.insert(0, SRC)
    import bench_workloads as bw

    start = time.perf_counter()
    bw.load()
    elapsed = time.perf_counter() - start
    refs = [reference_loop() for _ in range(2 * SETUP_REF_SAMPLES)]
    print(elapsed / statistics.fmean(refs))


def import_ref() -> float:
    """Median import time over fresh interpreters, in ``ref`` units."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); "
            "import run; run.import_probe()")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        child = subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True, timeout=60)
        samples.append(float(child.stdout))
    return median(samples)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench_workloads as bw
    from bench_trace import Tracer

    bw.load()
    # the set-up metric belongs to the untraced run only
    imports_ref = 0.0 if args.trace else import_ref()

    workload = bw.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, tracer, bw.trace_targets() if tracer else ())
    runner.run(args.seconds)

    attempted = len(runner.outcomes)
    failures = [f for o in runner.outcomes for f in o.failures]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: "
          f"{len(runner.step_times['main'])} timed operations of "
          f"{workload.work_per_op} requests, median {runner.op_time():.4f} s "
          f"({runner.op_time(unit=1):.2f} ref); "
          f"set-up median {runner.setup_time():.4f} s (imports apart); "
          f"reference loop median {median(runner.ref_s) * 1e3:.2f} ms; "
          f"{attempted} operations checked, {len(failures)} failed "
          f"(error_rate {len(failures) / attempted:.4g})")
    if tracer:
        metrics = layer_metrics(workload, runner, len(failures) / attempted)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz")
        spans = tracer.save(path)
        print(f"# {spans} spans written to {os.path.relpath(path, ROOT)}")
        print_self_times(runner.op_deltas)
    else:
        metrics = end_to_end_metrics(workload, runner, imports_ref)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end_metrics(workload, runner, imports_ref):
    """The untraced run's end-to-end metrics (``name -> (value, unit)``).

    ``setup_s`` is the set-up's ``ref``-unit time scaled to seconds at
    the nominal reference speed, so host drift does not move it.
    """
    is_compile = workload.op_is_compile
    plans = workload.plan_metrics()
    op_ref = runner.op_time(unit=1)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": ((imports_ref + runner.setup_time(unit=1)) * REF_NOMINAL_S,
                    "s"),
        # compile-paper: the compile set; serving: the plan-cache warm-up
        "compile_ref": (op_ref if is_compile else runner.compile_time(unit=1),
                        "ref"),
        "requests_per_ref": (workload.work_per_op / op_ref, "1/ref"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "plan_latency_ms": (plans["plan_latency_ms"], "sim_ms"),
        "plan_edp": (plans["plan_edp"], "mJ.ms"),
    }


def combine(deltas):
    """Per-name median ``(calls, self_s, inclusive_s)`` over snapshots."""
    names = {name for delta in deltas for name in delta}
    out = {}
    for name in names:
        rows = [d.get(name, (0, 0.0, 0.0)) for d in deltas]
        out[name] = tuple(median([row[i] for row in rows]) for i in range(3))
    return out


def layer_metrics(workload, runner, error_rate):
    """The traced run's per-layer metrics (``name -> (value, unit)``).

    Each layer value is its median per set-up plus its median per traced
    operation; times are self times unless noted in ``NOTES.md``.
    """
    setup, op = combine(runner.setup_deltas), combine(runner.op_deltas)

    def calls(*names):
        return sum(setup.get(n, (0,))[0] + op.get(n, (0,))[0] for n in names)

    def self_s(*names):
        return sum(setup.get(n, (0, 0.0))[1] + op.get(n, (0, 0.0))[1]
                   for n in names)

    def incl_s(name):
        return setup.get(name, (0, 0, 0.0))[2] + op.get(name, (0, 0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    is_compile = workload.op_is_compile
    last = runner.last_summary["traced"]
    spans = workload.span_counts(last)
    serving = {} if is_compile else last
    get = serving.get
    fills = calls("perf.fill", "perf.profile")
    fill_s = self_s("perf.matrix", "perf.fill", "perf.profile")
    instructions = last.get("instructions", 0)
    isa_s = self_s("isa.scheduler")
    events = (workload.work_per_op + get("retries", 0) + get("batches", 0)
              + get("ticks", 0) + get("timeouts", 0)
              + workload.fault_events) if serving else 0
    run_s = self_s("serve.simulator")
    ticks = get("ticks", 0)
    tick_s = self_s("serve.control")
    main_s = runner.op_time()
    # in ref units, so host drift between the two medians cancels
    telemetry_s = ((runner.op_time(unit=1) - runner.op_time("twin", unit=1))
                   * REF_NOMINAL_S if "twin" in runner.step_times else 0.0)
    roots = [d["bench.op"] for d in runner.op_deltas]
    coverage = median([1.0 - s / i for _, s, i in roots])
    return {
        "compile_s": (main_s if is_compile else runner.compile_time(), "s"),
        "requests_per_s": (workload.work_per_op / main_s, "1/s"),
        "host.reference_ms": (median(runner.ref_s) * 1e3, "ms"),
        "models.build_s": (self_s("models"), "s"),
        "graph.nodes": (workload.graph_nodes, "count"),
        "core.decomposition.s": (self_s("core.decomposition"), "s"),
        "core.decomposition.units": (spans["units"], "count"),
        "core.validity.s": (self_s("core.validity"), "s"),
        "core.validity.valid_spans": (spans["valid_spans"], "count"),
        "perf.span_fills": (fills, "count"),
        "perf.fill_s": (fill_s, "s"),
        "perf.us_per_fill": (ratio(fill_s, fills) * 1e6, "us"),
        "perf.matrix_hit_ratio": (ratio(spans["matrix_hits"],
                                        spans["matrix_hits"]
                                        + spans["matrix_fills"]), "ratio"),
        "core.ga.s": (self_s("core.ga"), "s"),
        "core.ga.evaluations": (last.get("ga_evaluations", 0), "count"),
        "core.ga.dedup_hits": (last.get("ga_dedup_hits", 0), "count"),
        "core.ga.generations": (last.get("ga_generations", 0), "count"),
        "search.dp.edp_s": (self_s("search.dp.edp"), "s"),
        "search.dp.edp_frontier_states": (self_s("#edp_frontier_states"),
                                          "count"),  # a tracer counter
        "isa.scheduler.s": (isa_s, "s"),
        "isa.instructions": (instructions, "count"),
        "isa.ns_per_instruction": (ratio(isa_s, instructions) * 1e9, "ns"),
        "sim.simulate_s": (self_s("sim"), "s"),
        "serve.plans.warmup_s": (incl_s("serve.plans.warmup"), "s"),
        "serve.plans.warmup_compiles": (spans.get("warmup_compiles", 0),
                                        "count"),
        "serve.plans.lookups": (get("lookups", 0), "count"),
        "serve.plans.hit_rate": (ratio(get("lookup_hits", 0),
                                       get("lookups", 0)), "ratio"),
        "serve.traffic.generate_s": (incl_s("serve.traffic"), "s"),
        "serve.simulator.run_s": (run_s, "s"),
        "serve.simulator.events": (events, "count"),
        "serve.simulator.us_per_event": (ratio(run_s, events) * 1e6, "us"),
        "serve.scheduler.choose_calls": (calls("serve.scheduler",
                                               "serve.batcher"), "count"),
        "serve.scheduler.choose_s": (self_s("serve.scheduler",
                                            "serve.batcher"), "s"),
        "serve.scheduler.mean_batch": (get("mean_batch", 0.0), "req/batch"),
        "serve.fleet.plan_switches": (get("plan_switches", 0), "count"),
        "serve.control.ticks": (ticks, "count"),
        "serve.control.tick_s": (tick_s, "s"),
        "serve.control.us_per_tick": (ratio(tick_s, ticks) * 1e6, "us"),
        "serve.control.useful_tick_ratio": (ratio(get("control_actions", 0),
                                                  ticks), "ratio"),
        "serve.faults.retries": (get("retries", 0), "count"),
        "serve.faults.timeouts": (get("timeouts", 0), "count"),
        "serve.faults.lost": (get("lost", 0), "count"),
        "serve.telemetry.overhead_s": (telemetry_s, "s"),
        "serve.telemetry.windows": (get("windows", 0), "count"),
        "serve.telemetry.stream_messages": (get("stream_messages", 0),
                                            "count"),
        "served_p50_ms": (get("served_p50_ms", 0.0), "sim_ms"),
        "served_p99_ms": (get("served_p99_ms", 0.0), "sim_ms"),
        "served_throughput_rps": (get("served_throughput_rps", 0.0),
                                  "1/sim_s"),
        "slo_attainment": (get("slo_attainment", 0.0), "ratio"),
        "served_failed_frac": (get("served_failed_frac", 0.0), "ratio"),
        "error_rate": (error_rate, "ratio"),
        "trace.overhead_frac": (runner.op_time("traced", unit=1)
                                / runner.op_time(unit=1) - 1.0, "ratio"),
        "trace.coverage": (coverage, "ratio"),
    }


def print_self_times(op_deltas):
    """Per-layer self time of one timed operation (median), largest first."""
    op = combine(op_deltas)
    total = op["bench.op"][2]
    print("# self time per timed operation (median over traced operations):")
    for name, (calls, self_s, _) in sorted(op.items(), key=lambda kv: -kv[1][1]):
        if not name.startswith("#"):
            print(f"#   {name:24s} {self_s:10.4f} s {self_s / total:7.1%} "
                  f"{int(calls):>9d} calls")


if __name__ == "__main__":
    sys.exit(main())
