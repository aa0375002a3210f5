"""The benchmark's three workloads, their output checks and their metrics.

Each workload object has the same surface, which ``run.py`` drives:

* ``setup_phases()`` lists the set-up's phases as ``(name, fn)``; the
  runner times each (a phase named ``compile`` is the workload's compile
  time), repeats the set-up and keeps the last one's state;
* ``steps(variant)`` lists one operation's steps (a compile each on
  compile-paper, one serving run on the serve workloads); the runner
  times each step on its own;
* ``finish_step(output, op_index, step_index)`` runs the output checks on
  a step's output (untimed) and returns an :class:`Outcome`, and
  ``summarize(outcomes)`` folds one operation's outcomes into its counts;
* ``work_per_op`` is the number of requests one operation completes, and
  ``plan_metrics()`` the simulated quality of the compiled plans.

Nothing here imports ``repro`` at module import time: ``load()`` does, so
``run.py`` can time the imports as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

#: models and chips of the paper's evaluation (Table I/II)
PAPER_MODELS = ("vgg16", "resnet18", "squeezenet")
PAPER_CHIPS = ("S", "M", "L")
COMPILE_BATCH = 16

SERVE_MODEL = "resnet18"
SERVE_FLEET = "M:2"
SERVE_BATCHES = (1, 2, 4, 8, 16)
SERVE_MAX_WAIT_US = 200.0
#: offered load as a share of ``fleet_capacity_rps``
SERVE_LOAD = 0.7
#: requests in each open-loop Poisson stream
SERVE_REQUESTS = 10_000
#: streams per serving operation (stream j of seed s has traffic seed
#: ``s * SERVE_STREAMS + j``): averaging over several streams keeps one
#: stream's luck out of the host-time metrics, while each run stays short
SERVE_STREAMS = 4
#: outcome metrics averaged (not summed) over an operation's streams
MEAN_COUNTS = ("served_p50_ms", "served_p99_ms", "served_throughput_rps",
               "slo_attainment", "served_failed_frac", "mean_batch")
SLO_MS = 12.0
#: telemetry timeline window of serve-resilient and the steady-state probe
TIMELINE_US = 2000.0
#: steady-state guard: last-decile mean window p50 may exceed the first
#: decile's by at most this factor plus ``STEADY_SLACK_MS``
STEADY_FACTOR = 1.5
STEADY_SLACK_MS = 1.0

#: the ``repro`` modules and names the workloads use, filled in by load()
repro = SimpleNamespace()


def load() -> None:
    """Import the program (timed by the caller as part of set-up)."""
    import repro.core.compiler as compiler
    import repro.evaluation.registry as registry
    import repro.models as models
    import repro.serve as serve
    from repro.core.fitness import FitnessEvaluator, FitnessMode
    from repro.core.ga import GAConfig
    from repro.hardware.config import get_chip_config
    from repro.perf.spantable import span_table_for
    from repro.search import DPOptimalSearch
    from repro.sim.metrics import edp_mj_ms

    vars(repro).update(
        compiler=compiler, registry=registry, models=models, serve=serve,
        FitnessEvaluator=FitnessEvaluator, FitnessMode=FitnessMode,
        GAConfig=GAConfig, get_chip_config=get_chip_config,
        span_table_for=span_table_for, DPOptimalSearch=DPOptimalSearch,
        edp_mj_ms=edp_mj_ms)


def digest(data: object) -> str:
    """Stable hash of a JSON-compatible value (floats by exact repr)."""
    text = json.dumps(data, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Outcome:
    """Checked result of one step (one compile, or one serving run)."""

    #: descriptions of the step's failed checks (at most one)
    failures: List[str]
    #: deterministic work counts and simulated results of the operation
    counts: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# compile-paper
# ----------------------------------------------------------------------
class CompilePaper:
    """Cold COMPASS compiles of the paper's models on the S/M/L chips."""

    name = "compile-paper"
    work_per_op = len(PAPER_MODELS) * (len(PAPER_CHIPS) + 1)
    warmup_steps = 0
    #: the timed operation is the compile set itself
    op_is_compile = True
    #: operation variants a traced run alternates
    traced_variants = ("main", "traced")
    #: reference-loop samples taken before and after each timed step:
    #: the longer a step, the more samples it takes to estimate the host
    #: speed it ran at (a compile step lasts up to 3 s)
    ref_samples = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graphs: Dict[str, object] = {}
        self.chips: Dict[str, object] = {}
        self.first_plans: Optional[Dict[str, float]] = None
        #: per-step output digests of the first operation
        self._digests: List[str] = []

    def setup_phases(self) -> list:
        return [("inputs", self._build_inputs)]

    def _build_inputs(self) -> None:
        self.chips = {c: repro.get_chip_config(c) for c in PAPER_CHIPS}
        self.graphs = {m: repro.models.build_model(m) for m in PAPER_MODELS}

    @property
    def graph_nodes(self) -> int:
        return sum(len(g) for g in self.graphs.values())

    def steps(self, variant: str = "main") -> list:
        """One compile per step: 3 latency compiles per model, then EDP."""
        compiler = repro.compiler
        latency = compiler.CompilerOptions(
            batch_size=COMPILE_BATCH, ga_config=repro.GAConfig(seed=self.seed))
        edp = compiler.CompilerOptions(
            batch_size=COMPILE_BATCH, optimizer="dp",
            fitness_mode=repro.FitnessMode.EDP)

        def compile_step(kind, model, chip, options):
            def step():
                result = compiler.CompassCompiler(
                    self.chips[chip], options).compile(self.graphs[model])
                return kind, model, chip, result
            return step

        steps = []
        for model in PAPER_MODELS:
            for chip in PAPER_CHIPS:
                steps.append(compile_step("latency", model, chip, latency))
            steps.append(compile_step("edp", model, "M", edp))
        return steps

    def finish_step(self, output, op_index: int, step_index: int) -> Outcome:
        kind, model, chip, result = output
        label = f"{kind} {model}@{chip}"
        decomposition, report = result.decomposition, result.report
        stats = repro.span_table_for(
            decomposition, result.options.dram_config).stats
        counts = {
            "units": decomposition.num_units,
            "valid_spans": int(result.validity.as_matrix().sum()),
            "matrix_hits": stats.matrix_hits,
            "matrix_fills": stats.matrix_fills,
            "instructions": result.schedule.total_instructions,
        }
        problem = self._check_group(result)
        if kind == "latency":
            counts["latency_ms"] = report.latency_per_inference_ms
            ga = result.ga_result
            counts.update(ga_evaluations=ga.evaluations,
                          ga_dedup_hits=ga.dedup_hits,
                          ga_generations=ga.generations_run)
            if problem is None and op_index == 0:
                problem = self._check_against_dp(result)
        else:
            counts["edp"] = report.edp_per_inference
            if problem is None and not result.search_result.exact:
                problem = "EDP DP result is not exact"
        out = digest([label, list(result.group.boundaries),
                      report.total_latency_ns, report.total_energy_pj,
                      result.schedule.total_instructions])
        if op_index == 0:
            self._digests.append(out)
        elif problem is None and out != self._digests[step_index]:
            problem = "output differs from the first repetition"
        failures = [f"{label}: {problem}"] if problem is not None else []
        return Outcome(failures, counts)

    def summarize(self, outcomes: Sequence[Outcome]) -> Dict[str, float]:
        """Work counts of one compile set, and its plans' geomean quality."""
        counts: Dict[str, float] = {}
        for outcome in outcomes:
            for key, value in outcome.counts.items():
                if key not in ("latency_ms", "edp"):
                    counts[key] = counts.get(key, 0) + value
        plans = {
            "plan_latency_ms": geomean([o.counts["latency_ms"] for o in outcomes
                                        if "latency_ms" in o.counts]),
            "plan_edp": geomean([o.counts["edp"] for o in outcomes
                                 if "edp" in o.counts]),
        }
        if self.first_plans is None:
            self.first_plans = plans
        counts.update(plans)
        return counts

    @staticmethod
    def _check_group(result) -> Optional[str]:
        """The chosen spans tile all units and each is valid."""
        num_units = result.decomposition.num_units
        spans = result.group.spans()
        if not spans or spans[0][0] != 0 or spans[-1][1] != num_units:
            return f"spans {spans} do not cover units 0..{num_units}"
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if end != start:
                return f"spans {spans} are not contiguous"
        for start, end in spans:
            if not result.validity.is_valid(start, end):
                return f"span [{start}, {end}) is not valid"
        return None

    @staticmethod
    def _check_against_dp(result) -> Optional[str]:
        """The GA's latency is no better than the exact DP optimum."""
        evaluator = repro.FitnessEvaluator(
            result.decomposition, batch_size=COMPILE_BATCH,
            mode=repro.FitnessMode.LATENCY)
        optimum = repro.DPOptimalSearch(
            result.decomposition, evaluator, result.validity).run().best_fitness
        found = result.search_result.best_fitness
        if found < optimum:
            return f"GA fitness {found!r} beats the DP optimum {optimum!r}"
        return None

    def span_counts(self, counts: Dict[str, float]) -> Dict[str, float]:
        return counts

    def plan_metrics(self) -> Dict[str, float]:
        return dict(self.first_plans)


# ----------------------------------------------------------------------
# serve-plain / serve-resilient
# ----------------------------------------------------------------------
class ServePlain:
    """resnet18 on M:2, latency policy, dynamic batching, warm DP plans."""

    name = "serve-plain"
    work_per_op = SERVE_REQUESTS * SERVE_STREAMS
    op_is_compile = False
    traced_variants = ("main", "traced")
    ref_samples = 1
    #: one untimed step first, so first-run costs (lazy imports, caches
    #: filling) stay out of the timed metrics
    warmup_steps = 1
    #: attach a live-stream sink to the main variant
    live_sink = False
    #: fault-schedule entries one operation replays
    fault_events = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cache = None
        #: (requests, traffic description) of every stream
        self.inputs: List[tuple] = []
        self.span_us = 0.0
        self._digests: Dict[int, str] = {}
        self._steady_checked: set = set()

    def setup_phases(self) -> list:
        """Compile the plans cold (the "compile" phase), then the stream."""
        return [("compile", self._warm_plans), ("inputs", self._build_inputs)]

    def _warm_plans(self) -> None:
        serve = repro.serve
        repro.registry.clear_registry()
        self.cache = serve.PlanCache(optimizer="dp")
        self.cache.warmup((SERVE_MODEL,),
                          serve.Fleet.from_spec(SERVE_FLEET).chip_names,
                          SERVE_BATCHES)

    def _build_inputs(self) -> None:
        serve = repro.serve
        rate = SERVE_LOAD * serve.fleet_capacity_rps(
            self.cache, serve.Fleet.from_spec(SERVE_FLEET), (SERVE_MODEL,),
            SERVE_BATCHES)
        self.inputs = []
        for stream in range(SERVE_STREAMS):
            traffic = serve.PoissonTraffic(
                SERVE_MODEL, num_requests=SERVE_REQUESTS,
                seed=self.seed * SERVE_STREAMS + stream, rate_rps=rate)
            self.inputs.append((traffic.generate(), traffic.describe()))
        self.span_us = SERVE_REQUESTS / rate * 1e6

    @property
    def graph_nodes(self) -> int:
        return len(repro.registry.shared_graph(SERVE_MODEL))

    def simulator_kwargs(self, variant: str) -> Dict[str, object]:
        return dict(policy="latency", batch_sizes=SERVE_BATCHES,
                    max_wait_us=SERVE_MAX_WAIT_US, switch_cost=False)

    def steps(self, variant: str = "main") -> list:
        """One step per stream: a simulator on a fresh fleet, run over it."""
        return [lambda stream=stream: self._serve(variant, stream)
                for stream in range(SERVE_STREAMS)]

    def _serve(self, variant: str, stream: int):
        serve = repro.serve
        # a fresh fleet every run: the autoscaler appends chips to the
        # Fleet it is given, so a reused one would not start at M:2
        simulator = serve.ServingSimulator(
            serve.Fleet.from_spec(SERVE_FLEET), self.cache,
            **self.simulator_kwargs(variant))
        messages = [0]
        if variant == "main" and self.live_sink:
            def sink(kind, payload):
                messages[0] += 1
            simulator.stream_sink = sink
        requests, info = self.inputs[stream]
        before = self.cache.stats
        report = simulator.run(requests, traffic_info=info)
        after = self.cache.stats
        return report, messages[0], after.requests - before.requests, \
            after.hits - before.hits

    def finish_step(self, output, op_index: int, step_index: int) -> Outcome:
        report, messages, lookups, hits = output
        failures: List[str] = []
        # offered is the benchmark's own count, not the report's
        offered = len(self.inputs[step_index][0])
        fates = report.completed + report.shed + report.timeouts + report.lost
        if fates != offered:
            failures.append(f"fates {fates} != offered {offered}")
        failures.extend(self.extra_checks(report, offered))
        core = determinism_core(report)
        first = self._digests.setdefault(step_index, core)
        if core != first:
            failures.append("output differs from the first repetition")
        if not failures and step_index not in self._steady_checked:
            self._steady_checked.add(step_index)
            problem = self.steady_problem(report, step_index)
            if problem is not None:
                failures.append(problem)
        counts = serving_counts(report)
        counts.update(lookups=lookups, lookup_hits=hits,
                      stream_messages=messages)
        return Outcome(failures[:1], counts)

    def summarize(self, outcomes: Sequence[Outcome]) -> Dict[str, float]:
        """Counts summed over the streams, outcome metrics averaged."""
        counts: Dict[str, float] = {}
        for outcome in outcomes:
            for key, value in outcome.counts.items():
                counts[key] = counts.get(key, 0) + value
        for key in MEAN_COUNTS:
            counts[key] /= len(outcomes)
        return counts

    def extra_checks(self, report, offered: int) -> List[str]:
        if report.completed != offered:
            return [f"completed {report.completed} != offered {offered} "
                    f"on the fault-free fleet"]
        return []

    def steady_problem(self, report, stream: int) -> Optional[str]:
        """Steady-state guard on a telemetry-on replay's timeline.

        Telemetry is a pure observer, so the replay must match the timed
        runs exactly; that is checked here too.
        """
        serve = repro.serve
        kwargs = self.simulator_kwargs("main")
        kwargs["telemetry"] = serve.TelemetryConfig(
            timeline_interval_us=TIMELINE_US)
        requests, info = self.inputs[stream]
        replay = serve.ServingSimulator(
            serve.Fleet.from_spec(SERVE_FLEET), self.cache, **kwargs
        ).run(requests, traffic_info=info)
        if determinism_core(replay) != determinism_core(report):
            return "telemetry-on replay differs from the plain run"
        return steady_state_problem(replay.timeline, self.span_us)

    def plan_metrics(self) -> Dict[str, float]:
        """Geomean per-inference latency and EDP of the warm M plans."""
        latencies, edps = [], []
        for batch in SERVE_BATCHES:
            plan = self.cache.get(SERVE_MODEL, "M", batch)
            latencies.append(plan.latency_ns / batch * 1e-6)
            edps.append(repro.edp_mj_ms(plan.energy_pj, plan.latency_ns, batch))
        return {"plan_latency_ms": geomean(latencies), "plan_edp": geomean(edps)}

    def span_counts(self, counts: Dict[str, float]) -> Dict[str, float]:
        """Decomposition/span-table counts of the set-up's warm-up compiles."""
        decomposition, validity = repro.registry.shared_decomposition(
            SERVE_MODEL, "M")
        stats = repro.span_table_for(decomposition).stats
        return {"units": decomposition.num_units,
                "valid_spans": int(validity.as_matrix().sum()),
                "matrix_hits": stats.matrix_hits,
                "matrix_fills": stats.matrix_fills,
                "warmup_compiles": self.cache.stats.warmup_compiles}


class ServeResilient(ServePlain):
    """serve-plain's fleet and stream with faults, control and telemetry."""

    name = "serve-resilient"
    live_sink = True
    #: its steps last about 1.5 s, against 0.12 s on serve-plain
    ref_samples = 2
    #: "twin" is the telemetry-off twin (overhead and purity)
    traced_variants = ("main", "traced", "twin")

    def _build_inputs(self) -> None:
        super()._build_inputs()
        serve = repro.serve
        span = self.span_us
        self.faults = [
            serve.parse_inject(f"chip_fail@{0.2 * span:.0f}:chip=0,"
                               f"until={0.5 * span:.0f}"),
            serve.parse_inject(f"straggler@{0.5 * span:.0f}:chip=1,"
                               f"factor=1.5,until={0.8 * span:.0f}"),
        ]
        self.fault_events = SERVE_STREAMS * len(serve.materialize(
            self.faults, len(serve.Fleet.from_spec(SERVE_FLEET))))

    def simulator_kwargs(self, variant: str) -> Dict[str, object]:
        serve = repro.serve
        kwargs = super().simulator_kwargs(variant)
        kwargs.update(
            slos={SERVE_MODEL: SLO_MS}, switch_cost=True, faults=self.faults,
            fault_tolerance=serve.FaultTolerance(
                timeout_us=0.5 * self.span_us, max_retries=2,
                retry_priority=True),
            control=serve.ControlConfig(
                interval_us=200.0, hedge_after_pct=90.0, autoscale=True,
                min_chips=2, max_chips=4, cooldown_us=1000.0),
        )
        if variant == "main":
            kwargs["telemetry"] = serve.TelemetryConfig(
                timeline_interval_us=TIMELINE_US, trace_every=10)
        return kwargs

    def extra_checks(self, report, offered: int) -> List[str]:
        return []

    def steady_problem(self, report, stream: int) -> Optional[str]:
        return steady_state_problem(report.timeline, self.span_us)


def determinism_core(report) -> str:
    """Digest of the report minus its telemetry and timeline blocks."""
    data = report.determinism_dict()
    data.pop("telemetry", None)
    data.pop("timeline", None)
    return digest(data)


def serving_counts(report) -> Dict[str, float]:
    """Deterministic outcome and work counts of one serving run."""
    offered = report.num_requests
    failed = report.shed + report.timeouts + report.lost
    control = report.control or {}
    actions = sum(control.get(k, 0) for k in (
        "quarantines", "readmissions", "hedges", "scale_ups", "scale_downs",
        "replacements"))
    slo = report.slo.get(SERVE_MODEL)
    return {
        "served_p50_ms": report.latency_ms["p50"],
        "served_p99_ms": report.latency_ms["p99"],
        "served_throughput_rps": report.throughput_rps,
        # misses include every shed, timed-out and lost request
        "slo_attainment": (round(slo["attainment"] * report.completed) / offered
                           if slo else 0.0),
        "served_failed_frac": failed / offered,
        "batches": report.batches,
        "mean_batch": report.mean_batch,
        "plan_switches": report.plan_switches,
        "retries": report.retries,
        "timeouts": report.timeouts,
        "lost": report.lost,
        "ticks": control.get("ticks", 0),
        "control_actions": actions,
        "windows": len(report.timeline),
    }


def steady_state_problem(timeline, span_us: float) -> Optional[str]:
    """Latency of the last tenth of the stream must not run away.

    Compares the completion-weighted mean window p50 of the first and the
    last decile of the arrival span (both outside the fault windows, which
    cover 20-80% of it).  A growing backlog shows as a last decile far
    above the first.
    """
    span_ms = span_us * 1e-3

    def mean_p50(lo: float, hi: float) -> Optional[float]:
        rows = [r for r in timeline
                if lo <= r["t_ms"] < hi and r["completed"]]
        done = sum(r["completed"] for r in rows)
        return (sum(r["p50_ms"] * r["completed"] for r in rows) / done
                if done else None)

    first = mean_p50(0.0, 0.1 * span_ms)
    last = mean_p50(0.9 * span_ms, span_ms)
    if first is None or last is None:
        return "steady-state guard: no completions in the first/last decile"
    if last > STEADY_FACTOR * first + STEADY_SLACK_MS:
        return (f"backlog grows: last-decile p50 {last:.3f} ms vs "
                f"first-decile {first:.3f} ms")
    return None


WORKLOADS = {cls.name: cls for cls in (CompilePaper, ServePlain, ServeResilient)}


# ----------------------------------------------------------------------
# tracing targets
# ----------------------------------------------------------------------
def trace_targets() -> list:
    """Public entry points to wrap, as ``Tracer.installed`` targets.

    Span names are the layer names the per-layer metrics use.  Functions
    imported by name into another module are wrapped where they are
    called from; methods are wrapped on the class that defines them.
    """
    from repro.core.validity import ValidityMap
    from repro.isa.scheduler import InstructionScheduler
    from repro.onchip.estimator import PartitionEstimator
    from repro.perf.spanmatrix import SpanMatrix
    from repro.search.base import PartitionSearch
    from repro.serve import scheduler as serve_scheduler
    from repro.serve import traffic as serve_traffic
    from repro.serve.control import Controller
    from repro.sim.simulator import ExecutionSimulator

    serve = repro.serve
    latency_mode = repro.FitnessMode.LATENCY

    def search_span(search, *args, **kwargs) -> str:
        if search.name == "ga":
            return "core.ga"
        if search.name == "dp" and search.evaluator.mode is not latency_mode:
            return "search.dp.edp"
        return "search." + search.name

    def count_frontier(tracer, args, result) -> None:
        sizes = getattr(args[0], "frontier_sizes", None)
        if sizes:
            tracer.count("edp_frontier_states", sum(sizes))

    def defining(module, base, attr):
        return [cls for cls in vars(module).values()
                if isinstance(cls, type) and issubclass(cls, base)
                and attr in cls.__dict__]

    targets = [
        (repro.models, "build_model", "models", None),
        (repro.registry, "build_model", "models", None),
        (repro.compiler, "decompose_model", "core.decomposition", None),
        (repro.registry, "decompose_model", "core.decomposition", None),
        (ValidityMap, "__init__", "core.validity", None),
        (SpanMatrix, "ensure_spans", "perf.matrix", None),
        (PartitionEstimator, "slim_profile", "perf.fill", None),
        (PartitionEstimator, "profile", "perf.profile", None),
        (PartitionSearch, "run", search_span, count_frontier),
        (InstructionScheduler, "schedule_model", "isa.scheduler", None),
        (ExecutionSimulator, "simulate", "sim", None),
        (serve.PlanCache, "get", "serve.plans", None),
        (serve.PlanCache, "warmup", "serve.plans.warmup", None),
        (serve.ServingSimulator, "run", "serve.simulator", None),
        (serve.DynamicBatcher, "choose", "serve.batcher", None),
    ]
    targets += [(cls, "generate", "serve.traffic", None) for cls in defining(
        serve_traffic, serve_traffic.TrafficGenerator, "generate")]
    targets += [(cls, "choose_worker", "serve.scheduler", None)
                for cls in defining(serve_scheduler,
                                    serve_scheduler.SchedulingPolicy,
                                    "choose_worker")
                if cls is not serve_scheduler.SchedulingPolicy]
    targets += [(Controller, name, "serve.control", None)
                for name in ("assess", "scale_decision", "update_utilisation")]
    return targets
