"""Discrete-event serving simulator: request streams against a chip fleet.

The simulator replays a seed-deterministic request stream
(:mod:`repro.serve.traffic`) against a :class:`~repro.serve.fleet.Fleet` of
chips running compiled partition plans (:mod:`repro.serve.plans`), with a
:class:`~repro.serve.scheduler.SchedulingPolicy` choosing chips and a
:class:`~repro.serve.scheduler.DynamicBatcher` choosing batch sizes.  It
produces a :class:`ServingReport` with the quantities the paper's
single-inference metrics are a proxy for: sustained throughput, p50/p95/p99
request latency, queue depths, per-chip utilisation and energy.

Each run is one private ``_Run`` object that holds the run's state as
attributes: :meth:`ServingSimulator.run` builds it, runs its event loop and
returns its report.  Six event kinds drive the loop, each handled by one
``_Run.on_*`` method, in a deterministic total order ``(time, kind, tie,
sequence)`` — the tie component is the chip index for chip-bound events
(completions, faults), so same-instant events resolve by chip id instead
of heap insertion order:

* **chip-free** — a chip finished its batch; its requests complete (and,
  under closed-loop traffic, their clients issue follow-up requests —
  arrivals are injected into the live event heap, they need not be known
  up front).
* **fault** — an injected fault event fires (:mod:`repro.serve.faults`):
  a chip fails (its in-flight batch is killed and the riders retried or
  lost), recovers, starts or stops straggling, or drops to degraded DRAM
  timings.  Ordered after chip-free at the same instant, so a batch
  completing exactly when its chip dies still completes.
* **arrival** — a request joins its model's FIFO queue (and updates the
  per-model interarrival EMA the batcher's wait estimates use; zero gaps
  from simultaneous arrivals are skipped — they carry no rate information
  and would collapse the EMA toward zero).  With admission control
  enabled, an arrival that finds the fleet over budget is shed instead.
  Retries re-enter here too, flagged by ``Request.attempt``.
* **timeout** — a queued request exhausted its wait budget; it abandons
  the queue and retries (deterministic exponential backoff) or counts as
  timed out.
* **batch-deadline** — a held queue's batching-delay budget expired; the
  next dispatch for that model is forced.
* **control tick** — the self-healing control plane
  (:mod:`repro.serve.control`) wakes on its fixed interval, last at any
  instant so it observes the settled state: it quarantines chips whose
  expected completions stalled or whose service-ratio EMA marks them as
  stragglers, hedges queued requests stuck past the latency-window
  percentile budget (first copy to complete wins; the loser is cancelled
  or goes uncounted), grows/shrinks the fleet against windowed SLO
  attainment and utilisation (new chips arrive cold and pay the
  plan-switch weight-replacement cost on first dispatch), and re-pins
  resident plans across the idle survivors after any topology change.
  The tick chain re-arms itself only while there is something left to
  control, so it never keeps a finished run alive.

After every event the simulator dispatches greedily: while an idle chip and
a non-empty queue exist (queues ordered by the policy — FIFO across models
by default, deficit round-robin under the ``fair`` policy), the batcher
picks a size, the policy picks a chip, and the batch occupies the chip for
the plan's service latency.  With plan-switch cost modelled
(:func:`~repro.serve.fleet.switch_cost_enabled`), the service latency
depends on what the chip's crossbars already hold: a plan switch pays the
incoming plan's weight-replacement term on top of the compiled latency
(and is counted per chip), a warm re-dispatch pays the compiled latency
unchanged.

Every dispatched batch is recorded in flight and finalised at its
chip-free event: only then do its requests complete, their latencies
count and the chip's busy time, energy and batch counters grow (a chip
may die first, killing the batch instead).  With faults injected or any
:class:`~repro.serve.faults.FaultTolerance` knob active, requests lost to
failures/timeouts re-enter as retries and the report grows a ``faults``
block (failures, retries, timeouts, shed/lost counts, lost work,
availability) plus per-chip downtime columns; a run with an active
control plane also gets them and adds a ``control`` block.  Those blocks
are the only difference between a fault-free run and the same run with
an inert fault-tolerance knob, and a fault-free open-loop report still
matches the pre-fault simulator's (pinned in ``tests/test_serve.py``).
Nothing
consumes randomness at simulation time — chaos fault schedules are
pre-drawn from their own seed — so a fixed-seed scenario, faulty or not,
replays to a bit-identical report (plan-cache statistics are reported,
but deliberately excluded from the deterministic core, see
``determinism_dict``).
"""

from __future__ import annotations

import heapq
import math
import threading
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.hardware.config import get_chip_config
from repro.serve.control import COLD_PLAN, ControlConfig, Controller, place_plans
from repro.serve.faults import (
    ACTION_DRAM,
    ACTION_FAIL,
    ACTION_RECOVER,
    ACTION_STRAGGLE,
    FaultEvent,
    FaultTolerance,
    faults_enabled,
    materialize,
    parse_inject,
    validate_fault_targets,
)
from repro.serve.fleet import (
    ChipWorker,
    Fleet,
    is_plan_switch,
    plan_for,
    service_latency_ns,
    switch_cost_enabled,
)
from repro.serve.plans import CompiledPlan, PlanCache
from repro.serve.scheduler import DynamicBatcher, SchedulingPolicy, make_policy
from repro.serve.telemetry import (
    FLUSH_EVERY_BOUNDARIES,
    TelemetryConfig,
    TelemetrySession,
    telemetry_enabled,
)
from repro.serve.traffic import ClosedLoopTraffic, Request, retry_request
from repro.sim.metrics import nearest_rank_percentile

#: deterministic event ordering at one instant: completions free chips
#: first, then faults strike, then arrivals/retries queue, then timeouts
#: abandon, then batch deadlines force dispatches, then the control plane
#: ticks (so a tick always observes the settled state of its instant).
#: Telemetry boundary samples need no heap events at all — they are taken
#: lazily when the loop pops the first event *past* a window boundary,
#: reading exactly the state a dedicated tick at that boundary would see.
_EVENT_FREE, _EVENT_FAULT, _EVENT_ARRIVAL, _EVENT_TIMEOUT, _EVENT_DEADLINE = (
    0, 1, 2, 3, 4,
)
_EVENT_CONTROL = 5

#: smoothing factor of the per-model interarrival EMA
_EMA_ALPHA = 0.2

#: hedge-race states of a request id (the keys of ``_Run.race``): its hedge
#: copy is flying; the hedge is flying and the original died under it; one
#: copy completed and was counted while the other still runs
_HEDGE_FLYING, _HEDGE_ORPHANED, _HEDGE_SETTLED = 0, 1, 2


@dataclass(slots=True)
class _Inflight:
    """One dispatched batch that has not completed yet.

    Every dispatch creates one, keyed by chip, and the batch's chip-free
    event finalises it — unless the chip dies first: the record carries
    everything finalisation (or the failure handler) needs.
    """

    epoch: int
    start_ns: float
    completion_ns: float
    service_ns: float
    plan: CompiledPlan
    batch: int
    requests: List[Request]
    model: str
    #: nominal healthy-chip service time — compiled latency at nominal DRAM
    #: plus any switch weight-replacement — the controller's service-ratio
    #: baseline (0 when no controller runs)
    nominal_ns: float
    #: speculative hedge duplicate: its lone rider is also queued or
    #: in flight elsewhere, and only the first copy to complete is counted
    hedge: bool


class CommandQueue:
    """Thread-safe FIFO of mid-run commands for a live simulation.

    The observatory's control endpoints ``put`` command dictionaries from
    the service thread; the simulator ``drain``s the queue at its next
    event pop, so a command lands at a well-defined point in the
    deterministic event order (whatever instant the simulation had
    reached).  The *arrival point* of a command depends on wall-clock
    timing, so a commanded run is reproducible only given the same
    command schedule — the report's ``commands`` block records exactly
    when each one landed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: List[Dict[str, object]] = []

    def put(self, command: Dict[str, object]) -> None:
        """Enqueue one command dict (see ``ServingSimulator.run``)."""
        with self._lock:
            self._items.append(dict(command))

    def drain(self) -> List[Dict[str, object]]:
        """Pop every queued command in FIFO order (empty list if none)."""
        if not self._items:  # racy peek: a late command drains next pop
            return []
        with self._lock:
            items = self._items
            self._items = []
        return items


@dataclass
class ServingReport:
    """Outcome of one serving run (all quantities deterministic per seed).

    Two histograms describe the batching mix: ``batch_histogram`` counts
    the *nominal* compiled batch size of every dispatch (the plan that
    occupied the chip — padded slots included, which is what latency and
    energy are charged for), while ``served_histogram`` counts the
    requests each dispatch actually served.  They differ exactly on padded
    batches, and ``mean_batch`` is served requests per dispatch
    (``completed / batches``) — consistent with ``served_histogram``.

    Fault-aware runs (``fault_tolerance``) additionally account every
    request's fate — ``completed + shed + timeouts + lost`` covers the
    offered stream unless the run ended with requests still queued — plus
    lost work, retry counts and fleet availability (chip-uptime fraction
    over the makespan).
    """

    fleet_spec: str
    policy: str
    traffic: Dict[str, object]
    models: Tuple[str, ...]
    optimizer: str
    mode: str
    batch_sizes: Tuple[int, ...]
    max_wait_us: float
    num_requests: int
    completed: int
    makespan_ms: float
    throughput_rps: float
    offered_rps: float
    latency_ms: Dict[str, float]
    wait_ms: Dict[str, float]
    queue_depth: Dict[str, float]
    batches: int
    mean_batch: float
    batch_histogram: Dict[int, int]
    served_histogram: Dict[int, int]
    padded_batches: int
    per_chip: List[Dict[str, object]]
    total_energy_mj: float
    energy_per_request_mj: float
    #: whether plan-switch weight-replacement cost was modelled
    switch_cost: bool = False
    #: total plan switches across the fleet (0 when switch cost is off)
    plan_switches: int = 0
    #: total weight-replacement time charged to switches (ms)
    switch_ms: float = 0.0
    #: per-model SLO blocks (only for models given a target): target,
    #: p50/p95/p99 latency and the attained fraction
    slo: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: whether faults were injected or fault-tolerance machinery was active
    fault_tolerance: bool = False
    #: chip failures applied
    failures: int = 0
    #: retry attempts injected (after chip failures and timeouts)
    retries: int = 0
    #: requests abandoned by timeout with no attempts left
    timeouts: int = 0
    #: arrivals rejected by admission control
    shed: int = 0
    #: requests lost to chip failures with no attempts left
    lost: int = 0
    #: chip time wasted on batches killed mid-flight (ms)
    lost_work_ms: float = 0.0
    #: dispatches that bypassed batching because a model was behind SLO
    degraded_dispatches: int = 0
    #: chip-uptime fraction over the makespan (1.0 = no downtime)
    availability: float = 1.0
    #: control-plane block (detections vs injected truth, hedge outcomes,
    #: scale events, re-placements) — empty when no controller ran
    control: Dict[str, object] = field(default_factory=dict)
    #: mid-run commands applied (or rejected) by a live observatory run,
    #: in application order with the simulation instant each one landed
    #: at — empty for ordinary runs.  Command arrival instants depend on
    #: wall-clock timing, so this block is excluded from the
    #: determinism core.
    commands: List[Dict[str, object]] = field(default_factory=list)
    #: per-window metrics timeline rows (empty unless a timeline interval
    #: was configured) — deterministic per seed
    timeline: List[Dict[str, object]] = field(default_factory=list)
    #: telemetry hub snapshot (counters/gauges/histograms + config echo)
    #: — empty when no telemetry ran
    telemetry: Dict[str, object] = field(default_factory=dict)
    plan_cache: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def determinism_dict(self) -> Dict[str, object]:
        """The seed-deterministic core of the report.

        Everything except the plan-cache counters and the telemetry hub
        snapshot (whose gauges embed those same counters), which
        legitimately differ between cold-cache and warm-cache runs of the
        same seed; the fixed-seed replay tests compare exactly this
        dictionary.  The ``timeline`` block *is* deterministic and stays.
        """
        data = self.as_dict()
        data.pop("plan_cache", None)
        data.pop("telemetry", None)
        # command arrival points depend on wall-clock service timing
        data.pop("commands", None)
        return data

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-compatible dictionary (for serialization).

        The ``switch`` block appears only when plan-switch cost was
        modelled, the ``slo`` block only when SLO targets were set, the
        ``faults`` block only when faults were injected or fault-tolerance
        machinery was active, and the ``control`` block only when the
        self-healing control plane ran — so a run with every feature off
        serializes exactly like the pre-fault model did.
        """
        data: Dict[str, object] = {
            "fleet": self.fleet_spec,
            "policy": self.policy,
            "traffic": dict(self.traffic),
            "models": list(self.models),
            "optimizer": self.optimizer,
            "mode": self.mode,
            "batch_sizes": list(self.batch_sizes),
            "max_wait_us": self.max_wait_us,
            "num_requests": self.num_requests,
            "completed": self.completed,
            "makespan_ms": self.makespan_ms,
            "throughput_rps": self.throughput_rps,
            "offered_rps": self.offered_rps,
            "latency_ms": dict(self.latency_ms),
            "wait_ms": dict(self.wait_ms),
            "queue_depth": dict(self.queue_depth),
            "batches": self.batches,
            "mean_batch": self.mean_batch,
            "batch_histogram": {str(k): v for k, v in sorted(self.batch_histogram.items())},
            "served_histogram": {str(k): v for k, v in sorted(self.served_histogram.items())},
            "padded_batches": self.padded_batches,
            "per_chip": [dict(row) for row in self.per_chip],
            "total_energy_mj": self.total_energy_mj,
            "energy_per_request_mj": self.energy_per_request_mj,
        }
        if self.switch_cost:
            data["switch"] = {
                "plan_switches": self.plan_switches,
                "switch_ms": self.switch_ms,
            }
        if self.slo:
            data["slo"] = {model: dict(block)
                           for model, block in sorted(self.slo.items())}
        if self.fault_tolerance:
            data["faults"] = {
                "failures": self.failures,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "shed": self.shed,
                "lost": self.lost,
                "lost_work_ms": self.lost_work_ms,
                "degraded_dispatches": self.degraded_dispatches,
                "availability": self.availability,
            }
        if self.control:
            data["control"] = dict(self.control)
        if self.commands:
            data["commands"] = [dict(entry) for entry in self.commands]
        if self.timeline:
            data["timeline"] = [dict(row) for row in self.timeline]
        if self.telemetry:
            data["telemetry"] = dict(self.telemetry)
        data["plan_cache"] = dict(self.plan_cache)
        return data

    def summary_row(self) -> Dict[str, object]:
        """One flat headline row (for tables and benchmarks)."""
        return {
            "fleet": self.fleet_spec,
            "policy": self.policy,
            "traffic": str(self.traffic.get("traffic", "")),
            "requests": self.completed,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.latency_ms.get("p50", 0.0),
            "p95_ms": self.latency_ms.get("p95", 0.0),
            "p99_ms": self.latency_ms.get("p99", 0.0),
            "mean_batch": self.mean_batch,
            "plan_switches": self.plan_switches,
            "utilisation": (
                sum(float(row["utilisation"]) for row in self.per_chip) / len(self.per_chip)
                if self.per_chip else 0.0
            ),
            "energy_per_request_mj": self.energy_per_request_mj,
        }


class ServingSimulator:
    """Replays a request stream against a fleet of chips.

    ``switch_cost`` toggles plan-switch weight-replacement modelling
    (``None`` follows the ``REPRO_SERVE_SWITCH_COST`` environment default,
    which is on).  ``slos`` maps model names to latency targets in
    milliseconds; models with a target get a per-model percentile and
    attainment block in the report.

    ``faults`` is a sequence of :class:`~repro.serve.faults.FaultEvent`
    records to inject (materialised at construction, so an out-of-range
    chip index fails fast; dropped wholesale when ``REPRO_SERVE_FAULTS=0``),
    and ``fault_tolerance`` configures the survival machinery — timeouts,
    capped retries with deterministic backoff, admission control and
    SLO-driven degradation.  ``control`` configures the self-healing
    control plane (:class:`~repro.serve.control.ControlConfig`):
    quarantine-based failure detection, hedged requests, SLO-driven
    autoscaling and plan re-placement, all driven from a fixed control
    tick.  All runs share one accounting path (see the module docstring);
    the three only decide which events occur and which report blocks
    appear, so with none in play an open-loop report matches the
    pre-fault simulator's.

    ``telemetry`` configures the passive observability layer
    (:class:`~repro.serve.telemetry.TelemetryConfig`): a per-window
    metrics timeline, streaming percentile sketches and every-K-th
    request lifecycle tracing.  Telemetry is a **pure observer** — it
    reads simulation state and consumes no randomness, so a telemetry-on
    run replays the telemetry-off event order exactly and its report is
    bit-identical minus the new ``timeline``/``telemetry`` blocks
    (dropped wholesale when ``REPRO_SERVE_TELEMETRY=0``).  The last run's
    :class:`~repro.serve.telemetry.TelemetrySession` is kept on
    ``telemetry_session`` so callers can export the Chrome trace.
    """

    def __init__(
        self,
        fleet: Fleet,
        plan_cache: PlanCache,
        policy: Union[str, SchedulingPolicy] = "latency",
        batcher: Optional[DynamicBatcher] = None,
        batch_sizes: Sequence[int] = (1, 2, 4, 8, 16),
        max_wait_us: float = 0.0,
        switch_cost: Optional[bool] = None,
        slos: Optional[Dict[str, float]] = None,
        faults: Optional[Sequence[FaultEvent]] = None,
        fault_tolerance: Optional[FaultTolerance] = None,
        control: Optional[ControlConfig] = None,
        telemetry: Optional[TelemetryConfig] = None,
    ) -> None:
        self.fleet = fleet
        self.plan_cache = plan_cache
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.batcher = (
            batcher if batcher is not None
            else DynamicBatcher(batch_sizes=batch_sizes, max_wait_us=max_wait_us)
        )
        self.switch_cost = (
            switch_cost_enabled() if switch_cost is None else bool(switch_cost)
        )
        self.slos: Dict[str, float] = dict(slos or {})
        for model, target_ms in self.slos.items():
            if target_ms <= 0:
                raise ValueError(
                    f"SLO target must be positive, got {model}={target_ms}"
                )
        self.fault_tolerance = (
            fault_tolerance if fault_tolerance is not None else FaultTolerance()
        )
        self.control = control if control is not None else ControlConfig()
        self.telemetry = (
            telemetry if telemetry is not None and telemetry_enabled()
            else TelemetryConfig()
        )
        #: the last run's telemetry session (trace export reads it)
        self.telemetry_session: Optional[TelemetrySession] = None
        #: live-stream sink ``sink(kind, payload)`` — the observatory
        #: attaches one before ``run`` so completed timeline windows,
        #: fault events and command receipts stream out mid-run.  ``None``
        #: (the default) keeps the pure batch path: telemetry renders the
        #: whole timeline once at the end of the run.
        self.stream_sink = None
        if self.control.active and self.control.scale_chip is not None:
            get_chip_config(self.control.scale_chip)  # fail fast on bad names
        self.fault_events: Tuple[FaultEvent, ...] = tuple(faults or ())
        self._fault_schedule: List[Tuple[float, str, int, float]] = (
            materialize(self.fault_events, fleet.base_size)
            if self.fault_events and faults_enabled() else []
        )

    # ------------------------------------------------------------------
    def run(
        self,
        requests: Union[Sequence[Request], ClosedLoopTraffic],
        traffic_info: Optional[Dict[str, object]] = None,
        commands: Optional[CommandQueue] = None,
    ) -> ServingReport:
        """Simulate serving the request stream; returns the full report.

        ``requests`` is either a pregenerated list (open-loop traffic,
        trace replay) or a :class:`~repro.serve.traffic.ClosedLoopTraffic`
        generator, whose clients issue each follow-up request only when
        the previous one completes — those arrivals are injected into the
        event heap mid-run.

        ``commands`` is an optional :class:`CommandQueue` another thread
        feeds while the run is live (the observatory's control
        endpoints).  Supported ops: ``inject_fault`` (``spec`` in
        ``parse_inject`` syntax, scheduled relative to the drain
        instant), ``set_policy`` (``policy`` name), and
        ``autoscale_bounds`` (``min_chips``/``max_chips``, requires an
        active control plane).  Commands drain at event pops, so each
        lands at a well-defined simulation instant recorded in the
        report's ``commands`` block; they change only the run's own
        policy and control config, so the simulator instance stays
        reusable and the report echoes its configured baseline.
        """
        if traffic_info is None and isinstance(requests, ClosedLoopTraffic):
            traffic_info = requests.describe()
        run = _Run(self, requests, commands)
        run.loop()
        return run.report(traffic_info)


class _ExactSamples:
    """A sample list, sorted in place, read through the interface of
    :class:`~repro.serve.telemetry.StreamingQuantiles` (``count``, ``max``,
    ``mean()``, ``percentile(q)``), so the report reads exact and
    ``--streaming-percentiles`` runs alike."""

    __slots__ = ("values", "count", "max")

    def __init__(self, values: List[float]) -> None:
        values.sort()
        self.values = values
        self.count = len(values)
        self.max = values[-1] if values else 0.0

    def mean(self) -> float:
        return sum(self.values) / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        return nearest_rank_percentile(self.values, q)


class _Run:
    """One :meth:`ServingSimulator.run`: its state, one handler per event kind.

    The simulator builds one per run, calls :meth:`loop` and returns
    :meth:`report`.  The ``on_*`` handlers (indexed by event kind) change
    the state; the loop samples telemetry boundaries, drains mid-run
    commands and dispatches greedily around them.
    """

    def __init__(self, sim: ServingSimulator,
                 requests: Union[Sequence[Request], ClosedLoopTraffic],
                 commands: Optional[CommandQueue]) -> None:
        self.sim = sim
        self.session = None
        if isinstance(requests, ClosedLoopTraffic):
            self.session = requests.session()
            initial = self.session.initial()
            self.expected = self.session.num_requests
            self.remaining: Dict[str, int] = self.session.model_counts()
        else:
            initial = sorted(requests, key=lambda r: (r.arrival_ns, r.request_id))
            self.expected = len(initial)
            self.remaining = Counter(request.model for request in initial)
        if not initial:
            raise ValueError("cannot simulate an empty request stream")
        self.fleet = sim.fleet
        self.plan_cache = sim.plan_cache
        self.batcher = sim.batcher
        self.switch_cost = sim.switch_cost
        self.slos = sim.slos
        self.fleet.reset()
        sim.policy.reset()
        #: the run's own policy and control config: mid-run commands
        #: replace these, never the simulator's
        self.policy = sim.policy
        self.ft = ft = sim.fault_tolerance
        self.ctrl = ctrl = (Controller(sim.control) if sim.control.active
                            else None)
        #: whether the report carries the fault blocks (and the run accepts
        #: mid-run ``inject_fault`` commands) — it shapes the report only,
        #: never the simulation
        self.use_ft = bool(sim._fault_schedule) or ft.active or ctrl is not None
        self.shedding = ft.shed_queue_depth > 0 or ft.shed_wait_us > 0
        #: queued (id, attempt) keys, read only by timeouts and hedging
        self.track_queued = ft.timeout_us > 0 or ctrl is not None
        #: the passive telemetry session (None when every knob is off, so
        #: the hot path pays a single `is not None` check per hook site)
        self.tele = tele = (
            TelemetrySession(sim.telemetry, slo_models=sorted(self.slos))
            if sim.telemetry.active else None
        )
        sim.telemetry_session = tele
        if tele is not None and sim.stream_sink is not None:
            tele.sink = sim.stream_sink
        self.commands = commands
        self.applied_commands: List[Dict[str, object]] = []
        #: constant-memory substitutes for the latency/wait sample lists
        #: (only under --streaming-percentiles; None keeps the exact path)
        self.stream = tele.stream if tele is not None else None

        # --- event heap: (time, kind, tie, seq, payload) ----------------
        # tie is the chip index for chip-bound events (free/fault), so
        # same-instant chip events resolve by chip id, never by heap
        # insertion order; seq keeps arrival/deadline FIFO within a tie.
        # Every key is unique, so any valid heap pops in the same order.
        self.events: List[Tuple[float, int, int, int, object]] = [
            (request.arrival_ns, _EVENT_ARRIVAL, 0, seq, request)
            for seq, request in enumerate(initial)
        ]
        heapq.heapify(self.events)
        self.seq = len(initial)
        self.first_arrival = first_arrival = min(r.arrival_ns for r in initial)
        for at_us, action, chip, factor in sim._fault_schedule:
            self.push(first_arrival + at_us * 1e3, _EVENT_FAULT, chip,
                      (action, chip, factor))
        self.interval_ns = sim.control.interval_us * 1e3
        if ctrl is not None:
            self.push(first_arrival + self.interval_ns, _EVENT_CONTROL, 0, None)
        #: index of the *next* timeline boundary — boundary k closes window
        #: k - 1 at first_arrival + k * interval (multiplied out, never
        #: accumulated, so boundary times carry no float drift).  Boundaries
        #: are sampled lazily at event pops, never queued as heap events —
        #: ``inf`` keeps the per-pop check to one always-false comparison
        #: when the timeline is off.
        self.tele_k = 1
        self.tele_next_ns = math.inf
        self.tele_flush_k = 0
        if tele is not None:
            tele.start(first_arrival)
            if tele.timeline is not None:
                self.tele_next_ns = first_arrival + tele.timeline.interval_ns

        self.queues: Dict[str, Deque[Request]] = {}
        self.ema: Dict[str, float] = {}
        self.last_arrival: Dict[str, float] = {}
        self.pending_deadline: Dict[str, float] = {}
        self.forced: Dict[str, bool] = {}

        self.latencies: List[float] = []
        self.waits: List[float] = []
        #: per-model latencies, tracked only for models with an SLO target
        #: (the SLO blocks are the sole consumer)
        self.by_model: Dict[str, List[float]] = {}
        self.batch_histogram: Dict[int, int] = {}
        self.served_histogram: Dict[int, int] = {}
        self.padded_batches = 0
        self.batches = 0
        self.last_completion = 0.0
        self.last_arrival_ns = first_arrival

        #: the batch each busy chip is executing, by chip index
        self.inflight: Dict[int, _Inflight] = {}
        self.queued_keys: Set[Tuple[int, int]] = set()
        #: running [attained, completed] per SLO model (degradation
        #: trigger and the report's SLO attainment)
        self.slo_running: Dict[str, List[int]] = {}
        #: chip failures and request fates (also the telemetry ``faults``
        #: gauge, which holds this dict rather than the run)
        self.fault_counts: Dict[str, int] = dict.fromkeys(
            ("failures", "retries", "timeouts", "shed", "lost"), 0)
        self.degraded = 0
        self.smallest_batch = self.batcher.batch_sizes[0]
        #: the hedge race: request id -> ``_HEDGE_*`` state, for every
        #: request with a hedge copy in play (empty unless the controller
        #: hedges)
        self.race: Dict[int, int] = {}

        # time-weighted queue depth accounting; ``depth`` is always the
        # number of queued requests (every queue insert/remove pairs with
        # a ``change_depth``)
        self.depth = 0
        self.depth_last_t = first_arrival
        self.depth_integral = 0.0
        self.depth_max = 0

        if tele is not None:
            # existing stat surfaces register as lazy gauge sources — the
            # hub re-reads them at every snapshot instead of copying state
            tele.hub.register_source("plan_cache",
                                     self.plan_cache.stats.as_dict)
            workers = self.fleet.workers
            tele.hub.register_source("fleet", lambda: {
                "chips": len(workers),
                "up": sum(1 for w in workers if w.up),
                "busy_ms": sum(w.busy_ns for w in workers) * 1e-6,
                "energy_mj": sum(w.energy_pj for w in workers) * 1e-9,
                "plan_switches": sum(w.plan_switches for w in workers),
            })
            if self.use_ft:
                tele.hub.register_source("faults", self.fault_counts.copy)
            if ctrl is not None:
                tele.hub.register_source("control", ctrl.counters)

    # --- the event loop -----------------------------------------------
    def push(self, time: float, kind: int, tie: int, payload: object) -> None:
        heapq.heappush(self.events, (time, kind, tie, self.seq, payload))
        self.seq += 1

    def loop(self) -> None:
        events = self.events
        heappop = heapq.heappop
        commands = self.commands
        dispatch = self.dispatch
        handlers = (self.on_free, self.on_fault, self.on_arrival,
                    self.on_timeout, self.on_deadline, self.on_control)
        tele_next_ns = self.tele_next_ns
        while events:
            now, kind, _, _, payload = heappop(events)
            if now > tele_next_ns:
                tele_next_ns = self.sample_boundaries(now)
            if commands is not None:
                for command in commands.drain():
                    self.apply_command(command, now)
            handlers[kind](now, payload)
            dispatch(now)

    def sample_boundaries(self, now: float) -> float:
        """Sample every timeline boundary strictly before ``now``.

        State only changes when events process, and worker busy-until
        horizons are themselves future event times, so each boundary reads
        exactly the queue depth / utilisation / control counters a
        dedicated boundary tick would have seen — without the heap
        traffic.  Boundaries at exactly ``now`` wait: same-instant events
        settle first.  Returns the next boundary time.
        """
        ctl_snap = self.ctrl.counters() if self.ctrl is not None else None
        workers = self.fleet.workers
        tele = self.tele
        sample = tele.timeline.sample
        interval_ns = tele.timeline.interval_ns
        depth = self.depth
        k = self.tele_k
        next_ns = self.tele_next_ns
        while next_ns < now:
            up_chips = 0
            busy = 0
            for w in workers:
                if w.up:
                    up_chips += 1
                    if w.busy_until_ns > next_ns:
                        busy += 1
            sample(k - 1, depth, busy / up_chips if up_chips else 0.0,
                   ctl_snap)
            k += 1
            next_ns = self.first_arrival + k * interval_ns
        self.tele_k = k
        self.tele_next_ns = next_ns
        if tele.sink is not None:
            # a live observatory is watching: boundaries just closed at
            # least one window — every K-th time, render and stream the
            # windows now provably final against the current lower bound
            # on the run end
            self.tele_flush_k += 1
            if self.tele_flush_k >= FLUSH_EVERY_BOUNDARIES:
                self.tele_flush_k = 0
                tele.flush_stream(max(self.last_completion,
                                      self.last_arrival_ns))
        return next_ns

    # --- event handlers (indexed by event kind) -------------------------
    def on_free(self, now: float, index: int) -> None:
        """A chip finished its batch (or a plan pre-warm)."""
        record = self.inflight.get(index)
        worker = self.fleet.workers[index]
        if (record is not None and record.completion_ns == now
                and record.epoch == worker.epoch):
            self.finalize(worker, record, now)
        # otherwise the event is stale (the chip died, and maybe
        # recovered, since this batch was dispatched) or it ends a plan
        # pre-warm, which carries no batch

    def on_fault(self, now: float, payload: Tuple[str, int, float]) -> None:
        """An injected fault fires on one chip."""
        action, chip, factor = payload
        worker = self.fleet.workers[chip]
        if action == ACTION_FAIL:
            if worker.up:
                self.fail_chip(worker, now)
        elif action == ACTION_RECOVER:
            if not worker.up:
                if self.tele is not None:
                    self.tele.fault(now, "recover", chip)
                worker.up = True
                # recorded as a window, not a running sum: the report
                # clamps every window to the simulation horizon, so a
                # recovery scheduled past the last event can never yield
                # downtime > wall time
                worker.outages.append((worker.down_since_ns, now))
                worker.down_since_ns = None
                worker.busy_until_ns = now
        elif action == ACTION_STRAGGLE:
            # in-flight batches keep their completion time; the new factor
            # prices every dispatch from here on
            worker.latency_factor = factor
        elif action == ACTION_DRAM:
            worker.dram_factor = factor

    def on_arrival(self, now: float, request: Request) -> None:
        """A request (or a retry) joins its model's queue, or is shed."""
        model = request.model
        tele = self.tele
        if tele is not None:
            tele.arrival(now, request)
        if request.attempt == 0:
            last_arrival = self.last_arrival
            previous = last_arrival.get(model)
            if previous is not None:
                gap = request.arrival_ns - previous
                # simultaneous arrivals (duplicate trace timestamps, batch
                # completions under closed-loop traffic) carry no rate
                # information: a zero gap would drag the EMA toward 0 and
                # make the batcher hold to the deadline
                if gap > 0:
                    ema = self.ema
                    current = ema.get(model)
                    ema[model] = (
                        gap if current is None
                        else _EMA_ALPHA * gap + (1.0 - _EMA_ALPHA) * current
                    )
            last_arrival[model] = request.arrival_ns
            if request.arrival_ns > self.last_arrival_ns:
                self.last_arrival_ns = request.arrival_ns
            self.remaining[model] -= 1
            if self.shedding and self.should_shed(request):
                self.fault_counts["shed"] += 1
                if tele is not None:
                    tele.shed(now, request)
                self.release_client(request, now)
                return
        # retries skip the rate bookkeeping above — a re-submission is not
        # new offered load — and bypass admission control (the request was
        # already admitted once)
        queue = self.queues.get(model)
        if queue is None:
            queue = self.queues[model] = deque()
        if request.priority > 0:
            # a promoted final-attempt retry queues ahead of plain
            # arrivals, behind earlier promoted ones (stable order)
            position = 0
            while (position < len(queue)
                   and queue[position].priority >= request.priority):
                position += 1
            queue.insert(position, request)
        else:
            queue.append(request)
        self.change_depth(now, +1)
        if self.track_queued:
            self.queued_keys.add((request.request_id, request.attempt))
        if self.ft.timeout_us > 0:
            self.push(now + self.ft.timeout_us * 1e3, _EVENT_TIMEOUT, 0,
                      request)

    def on_timeout(self, now: float, request: Request) -> None:
        """A queued request exhausted its wait budget."""
        key = (request.request_id, request.attempt)
        if key not in self.queued_keys or request.request_id in self.race:
            # already dispatched, or a hedge is racing for it: the wait is
            # being mitigated, so the original keeps queueing instead of
            # burning a retry attempt
            return
        self.leave_queue(request, now, "timeout")
        if not self.try_retry(request, now):
            self.fault_counts["timeouts"] += 1
            if self.tele is not None:
                self.tele.timeout(now, request)
            self.release_client(request, now)

    def on_deadline(self, now: float, model: str) -> None:
        """A held queue's batching budget expired: force its next dispatch."""
        if self.pending_deadline.get(model) == now and self.queues.get(model):
            self.forced[model] = True
            self.pending_deadline.pop(model, None)

    def on_control(self, now: float, _payload: None) -> None:
        """One control-plane tick (only scheduled when a controller runs)."""
        ctrl = self.ctrl
        config = ctrl.config
        workers = self.fleet.workers
        ctrl.ticks += 1
        ctrl.update_utilisation(now, workers)
        changed = ctrl.assess(now, workers)
        budget_ns = ctrl.hedge_budget_ns()
        if budget_ns is not None:
            self.hedge(now, budget_ns)
        decision = ctrl.scale_decision(now, workers, self.depth)
        if decision > 0:
            self.add_chip(now)
            changed = True
        elif decision < 0:
            changed = self.retire_chip(now) or changed
        if changed and config.replace_plans:
            self.replace_resident_plans(now)
        self.dispatch(now)
        # re-arm the tick only while there is something left to control:
        # external events or in-flight work still coming, or a queue that
        # quarantined/scalable capacity could yet serve.  A finished run
        # must not be kept alive by its own control ticks (they also never
        # extend the makespan).  The tick's own event is already popped and
        # the chain re-arms one event at a time, so everything still in the
        # heap is external — no scan needed.
        blocked_live = any(w.up and w.index in ctrl.blocked for w in workers)
        can_grow = (config.autoscale
                    and len(workers) - len(ctrl.retired) < config.max_chips)
        if self.events or self.inflight or (
                self.depth > 0 and (blocked_live or can_grow)):
            self.push(now + self.interval_ns, _EVENT_CONTROL, 0, None)

    # --- request accounting -------------------------------------------
    def change_depth(self, now: float, delta: int) -> None:
        self.depth_integral += self.depth * (now - self.depth_last_t)
        self.depth_last_t = now
        self.depth += delta
        if self.depth > self.depth_max:
            self.depth_max = self.depth

    def leave_queue(self, request: Request, now: float, outcome: str) -> None:
        """A queued request leaves without dispatch (timeout / cancelled)."""
        self.queued_keys.discard((request.request_id, request.attempt))
        self.queues[request.model].remove(request)
        self.change_depth(now, -1)
        if self.tele is not None:
            self.tele.queue_exit(now, request, outcome)

    def release_client(self, request: Request, now: float) -> None:
        """Hand a finished request back to its closed-loop client.

        Served or not (shed, lost, timed out): a rejected client still
        thinks and moves on to its next request, so one fault cannot
        deadlock the client population.
        """
        if self.session is not None:
            follow_up = self.session.on_complete(request, now)
            if follow_up is not None:
                self.push(follow_up.arrival_ns, _EVENT_ARRIVAL, 0, follow_up)

    def try_retry(self, request: Request, now: float) -> bool:
        """Re-inject a failed request if attempts remain."""
        ft = self.ft
        if request.attempt >= ft.max_retries:
            return False
        self.fault_counts["retries"] += 1
        if self.tele is not None:
            self.tele.retry(now, request)
        # a retry entering its final attempt may jump the queue
        # (``retry_priority``): losing it again loses it for good
        priority = (
            1 if ft.retry_priority
            and request.attempt + 1 >= ft.max_retries else None
        )
        retry = retry_request(request, now + ft.backoff_ns(request.attempt),
                              priority=priority)
        self.push(retry.arrival_ns, _EVENT_ARRIVAL, 0, retry)
        return True

    def retry_or_lose(self, request: Request, now: float) -> None:
        """A killed rider retries, or is lost when out of attempts."""
        if not self.try_retry(request, now):
            self.fault_counts["lost"] += 1
            if self.tele is not None:
                self.tele.lost(now, request)
            self.release_client(request, now)

    def should_shed(self, request: Request) -> bool:
        """Admission-control decision for a first-attempt arrival."""
        ft = self.ft
        if ft.shed_queue_depth > 0 and self.depth >= ft.shed_queue_depth:
            return True
        if ft.shed_wait_us > 0:
            up_chips = [w for w in self.fleet.workers if w.up]
            if not up_chips:
                return True
            # crude but deterministic wait estimate: the backlog spread
            # over the live chips, each request costing the fastest
            # single-request service this model has on any live class
            fastest = min(
                self.plan_cache.get(request.model, chip_name,
                                    self.smallest_batch).latency_ns
                for chip_name in {w.chip_name for w in up_chips}
            )
            estimated_wait = self.depth * fastest / len(up_chips)
            if estimated_wait > ft.shed_wait_us * 1e3:
                return True
        return False

    def behind_slo(self, model: str) -> bool:
        """Whether graceful degradation should kick in for ``model``."""
        if self.ft.degrade_below <= 0 or model not in self.slos:
            return False
        running = self.slo_running.get(model)
        if not running or running[1] == 0:
            return False
        return running[0] / running[1] < self.ft.degrade_below

    def settle_hedge(self, request: Request, record: _Inflight,
                     now: float) -> bool:
        """Settle a completing copy's hedge race; False if it is uncounted."""
        race = self.race
        rid = request.request_id
        state = race.get(rid)
        if state is None:
            return True
        ctrl = self.ctrl
        if state == _HEDGE_SETTLED:
            # the other copy of this hedged request completed first and was
            # counted; this late copy is not a second completion (and a
            # losing hedge copy is wasted speculative work)
            del race[rid]
            if record.hedge:
                ctrl.hedges_wasted += 1
            return False
        if not record.hedge:
            # the original beat its hedge; the hedge finishes (or dies)
            # uncounted
            race[rid] = _HEDGE_SETTLED
            return True
        ctrl.hedges_won += 1
        if state == _HEDGE_ORPHANED:
            # the original died with its chip while the hedge flew;
            # nothing left to cancel
            del race[rid]
        elif (rid, request.attempt) in self.queued_keys:
            # the original never dispatched: cancel it
            del race[rid]
            self.leave_queue(request, now, "cancelled")
            ctrl.hedges_cancelled += 1
        else:
            # the original is executing: when it completes it goes
            # uncounted
            race[rid] = _HEDGE_SETTLED
        return True

    def finalize(self, worker: ChipWorker, record: _Inflight,
                 now: float) -> None:
        """Complete a batch at its chip-free event."""
        del self.inflight[worker.index]
        worker.busy_ns += record.service_ns
        worker.batches_served += 1
        served = len(record.requests)
        worker.requests_served += served
        worker.energy_pj += record.plan.energy_pj
        self.batches += 1
        batch_histogram = self.batch_histogram
        served_histogram = self.served_histogram
        batch_histogram[record.batch] = batch_histogram.get(record.batch, 0) + 1
        served_histogram[served] = served_histogram.get(served, 0) + 1
        if served < record.batch:
            self.padded_batches += 1
        ctrl = self.ctrl
        if ctrl is not None and record.nominal_ns > 0:
            ctrl.note_completion(worker.index,
                                 record.service_ns / record.nominal_ns)
        slos = self.slos
        slo_running = self.slo_running
        stream = self.stream
        tele = self.tele
        session = self.session
        race = self.race
        latencies = self.latencies
        waits = self.waits
        start_ns = record.start_ns
        for request in record.requests:
            if race and not self.settle_hedge(request, record, now):
                if tele is not None:
                    tele.end_service(now, request, worker, "uncounted")
                continue
            model = request.model
            arrival_ns = request.arrival_ns
            # request.origin_ns, inlined: this runs once per request
            first_ns = request.first_arrival_ns
            total = now - (arrival_ns if first_ns is None else first_ns)
            wait_ns = start_ns - arrival_ns
            slo_ok: Optional[bool] = None
            if model in slos:
                slo_ok = total <= slos[model] * 1e6
                running = slo_running.get(model)
                if running is None:
                    running = slo_running[model] = [0, 0]
                running[1] += 1
                if slo_ok:
                    running[0] += 1
            if stream is None:
                latencies.append(total)
                waits.append(wait_ns)
                if slo_ok is not None:
                    self.by_model.setdefault(model, []).append(total)
            else:
                stream.note(total, wait_ns, model, slo_ok)
            if tele is not None:
                tele.completion(now, request, total, wait_ns, slo_ok, worker)
            if ctrl is not None:
                ctrl.note_request(total, slo_ok)
            if session is not None:
                self.release_client(request, now)
        if now > self.last_completion:
            self.last_completion = now

    # --- chips --------------------------------------------------------
    def idle_chips(self, now: float) -> List[ChipWorker]:
        """Chips that may take a dispatch at ``now``, in index order.

        Up and free, not holding a batch whose chip-free event is later in
        this same instant, and not quarantined or retired by the
        controller.
        """
        inflight = self.inflight
        ctrl = self.ctrl
        return [w for w in self.fleet.workers
                if w.idle_at(now) and w.index not in inflight
                and (ctrl is None or ctrl.available(w))]

    def fail_chip(self, worker: ChipWorker, now: float) -> None:
        """A chip dies; its in-flight batch dies with it."""
        worker.up = False
        worker.epoch += 1
        worker.failures += 1
        worker.down_since_ns = now
        self.fault_counts["failures"] += 1
        tele = self.tele
        if tele is not None:
            tele.fault(now, "fail", worker.index)
        record = self.inflight.pop(worker.index, None)
        if record is None:
            return
        # the batch's partial work is wasted and every rider retries (with
        # backoff) or is lost — unless a hedge covers it, or its other copy
        # already won
        worker.lost_batches += 1
        worker.lost_requests += len(record.requests)
        worker.lost_ns += now - record.start_ns
        if tele is not None:
            tele.batch_killed(now, record.requests, worker)
        race = self.race
        for request in record.requests:
            rid = request.request_id
            state = race.get(rid)
            if state == _HEDGE_SETTLED:
                # already counted via the copy that completed first
                del race[rid]
                continue
            if record.hedge:
                # the hedge died; the original still covers the request
                # unless it was itself killed earlier
                race.pop(rid, None)
                if state != _HEDGE_ORPHANED:
                    continue
            elif state is not None:
                # the original died but its hedge is still flying: the
                # hedge carries the request now
                race[rid] = _HEDGE_ORPHANED
                continue
            self.retry_or_lose(request, now)

    def occupy(self, worker: ChipWorker, plan: CompiledPlan,
               service_ns: float, model: str, batch: int,
               riders: List[Request], now: float,
               hedge: bool = False) -> float:
        """Start a batch on ``worker``; returns its completion time.

        The batch is recorded in flight until its chip-free event
        finalises it (or the chip dies first).
        """
        switched = is_plan_switch(plan, worker, self.switch_cost)
        if switched:
            worker.plan_switches += 1
            worker.switch_ns += plan.weight_replace_ns
        worker.loaded_plan = plan.key
        completion = now + service_ns
        worker.busy_until_ns = completion
        self.push(completion, _EVENT_FREE, worker.index, worker.index)
        if self.tele is not None:
            self.tele.dispatch(now, riders, worker, model, batch, completion,
                               switched, hedge=hedge)
        nominal_ns = 0.0
        if self.ctrl is not None:
            # ratio baseline: the *healthy-chip* price of this dispatch, so
            # stragglers and degraded DRAM both show up as ratio > 1
            nominal_plan = self.plan_cache.get(model, worker.chip_name, batch)
            nominal_ns = nominal_plan.latency_ns + (
                nominal_plan.weight_replace_ns if switched else 0.0)
        # positional: once per batch, keyword construction costs twice as
        # much
        self.inflight[worker.index] = _Inflight(
            worker.epoch, now, completion, service_ns, plan, batch, riders,
            model, nominal_ns, hedge)
        return completion

    def dispatch(self, now: float) -> None:
        """Dispatch greedily while an idle chip and a ready queue exist."""
        queues = self.queues
        policy = self.policy
        batcher = self.batcher
        plan_cache = self.plan_cache
        switch_cost = self.switch_cost
        forced = self.forced
        pending_deadline = self.pending_deadline
        ctrl = self.ctrl
        while True:
            idle = self.idle_chips(now)
            if not idle:
                return
            progressed = False
            for model in policy.order_queues(queues):
                queue = queues[model]

                # cost each candidate batch size on the chip the policy
                # would actually dispatch it to — on a heterogeneous fleet
                # the next larger batch may route to a different chip class
                # than the current one, and with switch cost on a cold
                # chip's switch charge must be part of the comparison
                def cost_of(candidate_batch: int) -> float:
                    worker = policy.choose_worker(
                        idle, model, candidate_batch, plan_cache, now,
                        switch_cost,
                    )
                    plan = plan_for(plan_cache, worker, model, candidate_batch)
                    return service_latency_ns(plan, worker, switch_cost)

                if forced.get(model):
                    batch = batcher.dispatch_size(len(queue))
                elif self.behind_slo(model):
                    # graceful degradation: the model is missing its SLO —
                    # skip the batching hold and take the latency-optimal
                    # dispatch for the queue we have
                    fitting = ([b for b in batcher.batch_sizes
                                if b <= len(queue)] or [self.smallest_batch])
                    batch = min(fitting, key=lambda b: (cost_of(b), b))
                    self.degraded += 1
                else:
                    batch, deadline = batcher.choose(
                        queue_len=len(queue),
                        now_ns=now,
                        oldest_arrival_ns=queue[0].arrival_ns,
                        ema_interarrival_ns=self.ema.get(model, math.inf),
                        latency_of=cost_of,
                        more_arrivals=self.remaining.get(model, 0) > 0,
                    )
                    if batch == 0:
                        if pending_deadline.get(model) != deadline:
                            pending_deadline[model] = deadline
                            self.push(deadline, _EVENT_DEADLINE, 0, model)
                        continue
                worker = policy.choose_worker(
                    idle, model, batch, plan_cache, now, switch_cost
                )
                served = min(batch, len(queue))
                batch_requests = [queue.popleft() for _ in range(served)]
                forced.pop(model, None)
                pending_deadline.pop(model, None)
                plan = plan_for(plan_cache, worker, model, batch)
                completion = self.occupy(
                    worker, plan, service_latency_ns(plan, worker, switch_cost),
                    model, batch, batch_requests, now)
                if self.track_queued:
                    queued_keys = self.queued_keys
                    for request in batch_requests:
                        queued_keys.discard((request.request_id,
                                             request.attempt))
                if ctrl is not None:
                    ctrl.note_dispatch(worker.index, model, batch, completion,
                                       worker.epoch)
                policy.note_dispatch(model, served)
                self.change_depth(now, -served)
                progressed = True
                break
            if not progressed:
                return

    # --- control-plane actuators (only called when ctrl is not None) ---
    def hedge(self, now: float, budget_ns: float) -> None:
        """Speculatively duplicate requests stuck past the hedge budget.

        Two kinds of victim: a rider *in flight* on a slow batch (the
        classic tail-tolerance hedge — duplicated only when a second chip
        could actually beat the original's completion) and a request still
        *queued* past the budget (possible while the batcher holds its
        queue; its timeout is suppressed while the hedge flies).  Every
        hedge is a single-request batch on an idle chip; whichever copy
        completes first is counted, the loser is cancelled if still queued
        or finishes uncounted.
        """
        race = self.race
        inflight = self.inflight
        for index in sorted(inflight):
            record = inflight[index]
            if record.hedge:
                continue
            for request in record.requests:
                if (now - request.origin_ns > budget_ns
                        and request.request_id not in race
                        and not self.launch_hedge(request, record.model,
                                                  record.completion_ns, now)):
                    return
        queues = self.queues
        for model in self.policy.order_queues(queues):
            for request in queues[model]:  # a hedge leaves the queue as is
                if (now - request.origin_ns > budget_ns
                        and request.request_id not in race
                        and not self.launch_hedge(request, model, None, now)):
                    return

    def launch_hedge(self, request: Request, model: str,
                     beat_ns: Optional[float], now: float) -> bool:
        """Fly one hedge copy; False when no chip is idle."""
        idle = self.idle_chips(now)
        if not idle:
            return False
        smallest = self.smallest_batch
        worker = self.policy.choose_worker(
            idle, model, smallest, self.plan_cache, now, self.switch_cost)
        plan = plan_for(self.plan_cache, worker, model, smallest)
        service_ns = service_latency_ns(plan, worker, self.switch_cost)
        completion = now + service_ns
        if beat_ns is not None and completion >= beat_ns:
            return True  # the hedge cannot win: not worth chip time
        self.occupy(worker, plan, service_ns, model, smallest, [request], now,
                    hedge=True)
        # the original stays where it is — no depth change, no policy
        # bookkeeping: a hedge is extra chip work, not extra offered load
        self.race[request.request_id] = _HEDGE_FLYING
        ctrl = self.ctrl
        health = ctrl.health_for(worker.index)
        health.expected_ns = completion
        health.expected_epoch = worker.epoch
        ctrl.hedges += 1
        return True

    def add_chip(self, now: float) -> None:
        """Autoscale up: append a cold chip.

        Its ``loaded_plan`` is the :data:`~repro.serve.control.COLD_PLAN`
        sentinel, so (with switch cost modelled) the first dispatch is a
        plan switch and pays the incoming plan's weight-replacement — new
        capacity is not free capacity.
        """
        ctrl = self.ctrl
        workers = self.fleet.workers
        chip_name = (ctrl.config.scale_chip or workers[0].chip_name).upper()
        worker = ChipWorker(index=len(workers), chip_name=chip_name)
        worker.loaded_plan = COLD_PLAN
        worker.busy_until_ns = now
        workers.append(worker)
        ctrl.last_scale_ns = now
        ctrl.scale_ups += 1

    def retire_chip(self, now: float) -> bool:
        """Autoscale down: decommission the newest idle healthy chip."""
        candidates = self.idle_chips(now)
        if not candidates:
            return False
        ctrl = self.ctrl
        ctrl.retired.add(candidates[-1].index)
        ctrl.last_scale_ns = now
        ctrl.scale_downs += 1
        return True

    def replace_resident_plans(self, now: float) -> None:
        """Re-pin resident plans across the idle survivors.

        Runs after any topology change (quarantine, re-admission, scale
        event): a small assignment solve over the span-matrix prices,
        weighted by the observed traffic mix, decides which plan each idle
        available chip should hold; chips whose assignment differs
        pre-warm it, paying the weight-replacement cost up front so the
        next dispatch runs warm.

        Without switch-cost modelling there is no weight-replacement to
        pre-pay and ``loaded_plan`` never affects latency, so the whole
        pass is skipped.
        """
        if not self.switch_cost:
            return
        ctrl = self.ctrl
        weights = ctrl.model_weights()
        chips = self.idle_chips(now)
        if not weights or not chips:
            return
        by_index = {w.index: w for w in chips}
        plan_cache = self.plan_cache

        def plan_of(worker: ChipWorker, model: str) -> CompiledPlan:
            batch = ctrl.preferred_batch(model, self.smallest_batch)
            return plan_for(plan_cache, worker, model, batch)

        def price(index: int, model: str) -> float:
            worker = by_index[index]
            return plan_of(worker, model).latency_ns * worker.latency_factor

        def miss(model: str) -> float:
            return min(price(w.index, model)
                       + plan_of(w, model).weight_replace_ns
                       for w in chips)

        assignment = place_plans([w.index for w in chips],
                                 sorted(weights), weights, price, miss)
        applied = False
        for index in sorted(assignment):
            worker = by_index[index]
            plan = plan_of(worker, assignment[index])
            if worker.loaded_plan == plan.key:
                continue  # already warm: nothing to pay
            # pre-warming is a plan switch paid up front: the chip is busy
            # writing crossbar weights until it completes
            warm_ns = plan.weight_replace_ns * worker.latency_factor
            worker.plan_switches += 1
            worker.switch_ns += plan.weight_replace_ns
            worker.busy_ns += warm_ns
            worker.busy_until_ns = now + warm_ns
            ctrl.replacement_ns += warm_ns
            # a no-payload free event re-triggers dispatch when the warm-up
            # completes (there is no inflight record, so the handler only
            # runs the dispatch pass)
            self.push(now + warm_ns, _EVENT_FREE, worker.index, worker.index)
            worker.loaded_plan = plan.key
            applied = True
        if applied:
            ctrl.replacements += 1

    # --- mid-run commands ---------------------------------------------
    def apply_command(self, command: Dict[str, object], now: float) -> None:
        """Apply one observatory command at simulation instant ``now``.

        Every command is recorded (applied or rejected) with the instant
        it landed; rejections never raise — a bad command from a live
        client must not kill the run.
        """
        op = str(command.get("op", ""))
        entry: Dict[str, object] = {
            "op": op,
            "t_ms": (now - self.first_arrival) * 1e-6,
        }
        try:
            if op == "inject_fault":
                if not self.use_ft:
                    raise ValueError(
                        "inject_fault needs a fault-aware run "
                        "(fault_tolerance or control active)")
                spec = str(command["spec"])
                fault_events = [parse_inject(spec)]
                chips = len(self.fleet.workers)
                validate_fault_targets(fault_events, chips)
                schedule = materialize(fault_events, chips)
                for at_us, action, chip, factor in schedule:
                    self.push(now + at_us * 1e3, _EVENT_FAULT, chip,
                              (action, chip, factor))
                entry["spec"] = spec
                entry["events"] = len(schedule)
            elif op == "set_policy":
                name = str(command["policy"])
                policy = make_policy(name)
                policy.reset()
                self.policy = policy
                entry["policy"] = name
            elif op == "autoscale_bounds":
                if self.ctrl is None:
                    raise ValueError(
                        "autoscale_bounds needs an active control plane")
                lo = int(command["min_chips"])
                hi = int(command["max_chips"])
                self.ctrl.config = replace(self.ctrl.config, autoscale=True,
                                           min_chips=lo, max_chips=hi)
                entry["min_chips"] = lo
                entry["max_chips"] = hi
            else:
                raise ValueError(f"unknown command op {op!r}")
            entry["status"] = "applied"
        except (KeyError, TypeError, ValueError) as exc:
            entry["status"] = "rejected"
            entry["error"] = str(exc)
        self.applied_commands.append(entry)
        if self.tele is not None and self.tele.sink is not None:
            self.tele.sink("event", dict(entry, type="command"))

    # --- report -------------------------------------------------------
    def report(self, traffic_info: Optional[Dict[str, object]]) -> ServingReport:
        sim = self.sim
        workers = self.fleet.workers
        # the clock starts at the first arrival, not t=0: replayed traces
        # may carry large epoch-style timestamps, and the idle prefix before
        # the first request exists must not dilute throughput/utilisation
        # (the queue-depth integral already starts there)
        end_ns = max(self.last_completion, self.last_arrival_ns)
        makespan_ns = end_ns - self.first_arrival
        span_s = makespan_ns * 1e-9
        offered_span_s = (self.last_arrival_ns - self.first_arrival) * 1e-9
        for worker in workers:
            # close the books on chips still down when the run ends, then
            # sum the outage windows clamped to the horizon: a chip whose
            # scripted recovery lies beyond the last event reports at most
            # the run's wall time as downtime, never more
            outages = list(worker.outages)
            if not worker.up and worker.down_since_ns is not None:
                outages.append((worker.down_since_ns, end_ns))
                worker.down_since_ns = end_ns
            downtime_ns = 0.0
            for start_ns, stop_ns in outages:
                downtime_ns += max(
                    0.0, min(stop_ns, end_ns) - min(start_ns, end_ns))
            worker.downtime_ns = downtime_ns
        total_downtime_ns = sum(w.downtime_ns for w in workers)
        availability = (
            max(0.0, min(1.0, 1.0 - total_downtime_ns
                         / (len(workers) * makespan_ns)))
            if makespan_ns > 0 else 1.0
        )
        # latency / wait / per-model samples: the P² sketches under
        # --streaming-percentiles (documented error bound on
        # :class:`~repro.serve.telemetry.P2Quantile`), else the exact
        # nearest-rank percentiles of the sorted sample lists
        stream = self.stream
        if stream is not None:
            lat, wait, by_model = stream.lat, stream.wait, stream.by_model
        else:
            lat = _ExactSamples(self.latencies)
            wait = _ExactSamples(self.waits)
            by_model = {model: _ExactSamples(values)
                        for model, values in self.by_model.items()}
        completed = lat.count
        total_energy_pj = sum(w.energy_pj for w in workers)
        per_chip = []
        for worker in workers:
            row: Dict[str, object] = {
                "chip": worker.label,
                "class": worker.chip_name,
                "batches": worker.batches_served,
                "requests": worker.requests_served,
                "busy_ms": worker.busy_ns * 1e-6,
                "utilisation": worker.utilisation(makespan_ns),
                "energy_mj": worker.energy_pj * 1e-9,
            }
            if self.switch_cost:
                row["plan_switches"] = worker.plan_switches
                row["switch_ms"] = worker.switch_ns * 1e-6
            if self.use_ft:
                row["failures"] = worker.failures
                row["downtime_ms"] = worker.downtime_ns * 1e-6
                row["lost_requests"] = worker.lost_requests
            per_chip.append(row)
        slo_blocks: Dict[str, Dict[str, float]] = {}
        no_samples = _ExactSamples([])
        for model, target_ms in sorted(self.slos.items()):
            samples = by_model.get(model, no_samples)
            attained, count = self.slo_running.get(model, (0, 0))
            slo_blocks[model] = {
                "target_ms": target_ms,
                "completed": count,
                "p50_ms": samples.percentile(50.0) * 1e-6,
                "p95_ms": samples.percentile(95.0) * 1e-6,
                "p99_ms": samples.percentile(99.0) * 1e-6,
                "attainment": attained / count if count else 0.0,
            }
        timeline_rows: List[Dict[str, object]] = []
        telemetry_block: Dict[str, object] = {}
        tele = self.tele
        if tele is not None:
            up_end = sum(1 for w in workers if w.up)
            busy_end = sum(1 for w in workers
                           if w.up and w.busy_until_ns > end_ns)
            timeline_rows = tele.finish(
                end_ns, self.depth, busy_end / up_end if up_end else 0.0,
                self.ctrl.counters() if self.ctrl is not None else None,
            )
            # exact-mode hub histograms are batch-folded from the sample
            # lists here rather than per completion (order-independent)
            tele.fill_histograms(self.latencies, self.waits)
            telemetry_block = tele.snapshot()
        return ServingReport(
            fleet_spec=self.fleet.spec,
            policy=sim.policy.name,
            traffic=dict(traffic_info or {}),
            models=tuple(sorted(self.last_arrival)),
            optimizer=self.plan_cache.optimizer,
            mode=self.plan_cache.mode.value,
            batch_sizes=self.batcher.batch_sizes,
            max_wait_us=self.batcher.max_wait_ns * 1e-3,
            num_requests=self.expected,
            completed=completed,
            makespan_ms=makespan_ns * 1e-6,
            throughput_rps=completed / span_s if span_s > 0 else 0.0,
            offered_rps=(self.expected / offered_span_s
                         if offered_span_s > 0 else 0.0),
            latency_ms={
                "mean": lat.mean() * 1e-6,
                "p50": lat.percentile(50.0) * 1e-6,
                "p95": lat.percentile(95.0) * 1e-6,
                "p99": lat.percentile(99.0) * 1e-6,
                "max": lat.max * 1e-6,
            },
            wait_ms={
                "mean": wait.mean() * 1e-6,
                "p95": wait.percentile(95.0) * 1e-6,
                "max": wait.max * 1e-6,
            },
            queue_depth={
                "mean": (self.depth_integral / makespan_ns
                         if makespan_ns > 0 else 0.0),
                "max": float(self.depth_max),
            },
            batches=self.batches,
            mean_batch=completed / self.batches if self.batches else 0.0,
            batch_histogram=self.batch_histogram,
            served_histogram=self.served_histogram,
            padded_batches=self.padded_batches,
            per_chip=per_chip,
            total_energy_mj=total_energy_pj * 1e-9,
            energy_per_request_mj=(total_energy_pj * 1e-9 / completed
                                   if completed else 0.0),
            switch_cost=self.switch_cost,
            plan_switches=sum(w.plan_switches for w in workers),
            switch_ms=sum(w.switch_ns for w in workers) * 1e-6,
            slo=slo_blocks,
            fault_tolerance=self.use_ft,
            **self.fault_counts,
            lost_work_ms=sum(w.lost_ns for w in workers) * 1e-6,
            degraded_dispatches=self.degraded,
            availability=availability,
            control=(self.ctrl.as_dict(workers, self.fleet.base_size)
                     if self.ctrl is not None else {}),
            commands=self.applied_commands,
            timeline=timeline_rows,
            telemetry=telemetry_block,
            plan_cache=self.plan_cache.stats.as_dict(),
        )
