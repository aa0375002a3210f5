"""Scenario specs: the one way a serving run is built.

A scenario spec is one JSON object describing a serving run: models,
fleet, scheduling, plan compilation, traffic, SLOs, faults, fault
tolerance, control plane and telemetry.  Both serving surfaces build
through it: ``repro serve`` turns its flags into a spec dict, and the
live observatory takes specs over HTTP
(:meth:`~repro.serve.service.jobs.Observatory.submit` adds the service's
own rules first).  Building is split in two:

* :func:`validate_spec` — type and structure checks, then the serving
  constructors' own value checks run on a throwaway simulator and
  traffic generator.  It is cheap (no plan is compiled), so a bad spec
  raises ``ValueError`` before any work starts — the service answers it
  with a ``400``;
* :func:`build_scenario` — the expensive part (plan-cache warmup, rate
  auto-derivation, request generation); the service runs it on the
  scenario's worker thread.

Example spec (every key is optional)::

    {
      "models": ["resnet18"],
      "fleet": "M:2",
      "policy": "latency",
      "batches": [1, 2, 4, 8],
      "max_wait_us": 200.0,
      "optimizer": "dp",
      "mode": "latency",
      "cache_capacity": 64,
      "seed": 0,
      "ga": {"population": 30, "generations": 10},
      "traffic": {"kind": "poisson", "requests": 120, "utilization": 0.8},
      "slo": {"resnet18": 12.0},
      "inject": ["chip_fail@500:chip=0,until=2000"],
      "fault_tolerance": {"timeout_us": 4000, "max_retries": 2},
      "control": {"interval_us": 200, "autoscale": "1:4"},
      "telemetry": {"timeline_us": 500}
    }

Traffic kinds are the :data:`~repro.serve.traffic.TRAFFIC_GENERATORS`
names.  The open-loop kinds (``poisson``, ``bursty``, ``diurnal``) take
``requests`` and either ``rate_rps`` or a ``utilization`` of the fleet's
capacity; ``closed`` takes ``requests``, ``clients``, ``concurrency`` and
``think_us``; ``trace`` replays the file at ``path`` and serves the
trace's models.  The ``ga`` block sizes the ``ga`` optimizer (seeded by
the spec's ``seed``); without it the plan cache's default ``GAConfig``
applies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.core.fitness import FitnessMode
from repro.core.ga import GAConfig
from repro.models import list_models
from repro.serve import (
    TRAFFIC_GENERATORS,
    ClosedLoopTraffic,
    ControlConfig,
    FaultEvent,
    FaultTolerance,
    Fleet,
    PlanCache,
    ServingSimulator,
    TelemetryConfig,
    TraceTraffic,
    fleet_capacity_rps,
    parse_inject,
    validate_fault_targets,
)
from repro.serve.traffic import Request, TrafficGenerator, validate_traffic

#: the top-level spec keys
_SPEC_KEYS = (
    "models", "fleet", "policy", "batches", "max_wait_us", "optimizer",
    "mode", "cache_capacity", "seed", "ga", "traffic", "slo", "inject",
    "fault_tolerance", "control", "telemetry",
)

#: offered-rate keyword of each open-loop traffic generator
_RATE_KEYWORDS = {
    "poisson": "rate_rps", "bursty": "rate_rps", "diurnal": "base_rate_rps",
}


def _integer(value: object, label: str) -> int:
    """``value`` if it is a JSON integer (a boolean is not one here)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return value


def _number(value: object, label: str) -> float:
    """``value`` as a float if it is a JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number, got {value!r}")
    return float(value)


def _string(value: object, label: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{label} must be a string, got {value!r}")
    return value


def _object(value: object, label: str) -> Dict[str, object]:
    """A copy of a JSON object block."""
    if not isinstance(value, dict):
        raise ValueError(f"{label} must be an object")
    return dict(value)


def _check_keys(block: Dict[str, object], known: Sequence[str],
                label: str) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {label} key(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}")


def _config_from(cls, block: object, label: str):
    """Instantiate a config dataclass from a JSON block, strictly.

    Unknown keys are an error (a typo'd knob must not silently no-op);
    the dataclass's own ``__post_init__`` validation supplies the value
    checks.
    """
    block = _object(block, label)
    _check_keys(block, [field.name for field in dataclasses.fields(cls)],
                label)
    try:
        return cls(**block)
    except TypeError as exc:
        raise ValueError(f"bad {label} block: {exc}") from None


def _control_from(block: object) -> ControlConfig:
    """Control block; ``autoscale`` accepts the ``"MIN:MAX"`` form.

    The interval is the control plane's master switch, so asking for
    hedging or autoscaling without it is an error, not a silent no-op.
    """
    block = _object(block, "control")
    autoscale = block.get("autoscale")
    if isinstance(autoscale, str):
        lo, sep, hi = autoscale.partition(":")
        try:
            if not sep:
                raise ValueError(autoscale)
            block["min_chips"], block["max_chips"] = int(lo), int(hi)
        except ValueError:
            raise ValueError(
                f"bad control.autoscale {autoscale!r}; expected MIN:MAX "
                "chip counts") from None
        block["autoscale"] = True
    config = _config_from(ControlConfig, block, "control")
    if not config.active and (config.hedge_after_pct > 0 or config.autoscale):
        raise ValueError(
            "hedging and autoscaling need the control plane: set a positive "
            "control interval (control.interval_us, --control-interval-us)")
    return config


def _telemetry_from(block: object) -> TelemetryConfig:
    """Telemetry block (``timeline_us`` aliases ``timeline_interval_us``)."""
    block = _object(block or {}, "telemetry")
    if "timeline_us" in block:
        block["timeline_interval_us"] = block.pop("timeline_us")
    return _config_from(TelemetryConfig, block, "telemetry")


def _ga_from(block: object, seed: int) -> GAConfig:
    """GA block: ``population`` and ``generations``, seeded by the spec."""
    block = _object(block, "ga")
    _check_keys(block, ("population", "generations"), "ga")
    return GAConfig.sized(
        _integer(block.get("population", GAConfig.population_size),
                 "ga.population"),
        _integer(block.get("generations", GAConfig.generations),
                 "ga.generations"),
        seed=seed)


def _trace_models(path: str) -> List[str]:
    """The models a trace file requests (reads and checks the file)."""
    try:
        return list(TraceTraffic(path).models)
    except OSError as err:
        raise ValueError(
            f"cannot read trace {path!r}: {err.strerror or err}") from None


@dataclass
class ScenarioSpec:
    """A validated (but not yet built) scenario."""

    models: List[str]
    fleet_spec: str
    policy: str
    batch_sizes: List[int]
    max_wait_us: float
    optimizer: str
    mode: FitnessMode
    cache_capacity: int
    seed: int
    #: GA sizing (``None``: the plan cache's default ``GAConfig``)
    ga_config: Optional[GAConfig]
    traffic_kind: str
    #: generator keyword arguments, all but the offered rate
    traffic_kwargs: Dict[str, object]
    slos: Dict[str, float]
    faults: List[FaultEvent]
    fault_tolerance: FaultTolerance
    control: Optional[ControlConfig]
    telemetry: TelemetryConfig
    #: rate auto-derivation target when the spec gave no explicit rate
    utilization: float
    rate_rps: Optional[float]


@dataclass
class BuiltScenario:
    """A fully built scenario, ready for ``simulator.run``."""

    simulator: ServingSimulator
    #: either the pregenerated request list or the closed-loop generator
    workload: Union[Sequence[Request], ClosedLoopTraffic]
    traffic_info: Dict[str, object]


def _simulator(spec: ScenarioSpec) -> ServingSimulator:
    """A fresh simulator for the spec, on a cold plan cache."""
    cache = PlanCache(capacity=spec.cache_capacity, optimizer=spec.optimizer,
                      mode=spec.mode, ga_config=spec.ga_config)
    return ServingSimulator(
        Fleet.from_spec(spec.fleet_spec),
        cache,
        policy=spec.policy,
        batch_sizes=spec.batch_sizes,
        max_wait_us=spec.max_wait_us,
        slos=spec.slos,
        faults=spec.faults,
        fault_tolerance=spec.fault_tolerance,
        control=spec.control,
        telemetry=spec.telemetry,
    )


def _traffic(spec: ScenarioSpec, rate_rps: Optional[float]) -> TrafficGenerator:
    """The spec's traffic generator (``rate_rps`` feeds the open-loop kinds)."""
    kwargs = dict(spec.traffic_kwargs)
    rate_keyword = _RATE_KEYWORDS.get(spec.traffic_kind)
    if rate_keyword is not None:
        kwargs[rate_keyword] = rate_rps
    return TRAFFIC_GENERATORS[spec.traffic_kind](**kwargs)


def validate_spec(raw: Dict[str, object]) -> ScenarioSpec:
    """Validate a scenario spec without compiling anything.

    Raises ``ValueError`` with a client-presentable message for every
    input the build would reject.
    """
    if not isinstance(raw, dict):
        raise ValueError("scenario spec must be a JSON object")
    _check_keys(raw, _SPEC_KEYS, "spec")
    seed = _integer(raw.get("seed", 0), "seed")

    traffic = _object(raw.get("traffic") or {}, "traffic")
    kind = _string(traffic.pop("kind", "poisson"), "traffic.kind")
    validate_traffic(kind)
    rate_rps: Optional[float] = None
    utilization = 0.7
    if kind == "trace":
        if "models" in raw:
            raise ValueError(
                "trace traffic serves the trace's models; drop 'models'")
        path = _string(traffic.pop("path", None), "traffic.path")
        models = _trace_models(path)
        kwargs: Dict[str, object] = {"path": path}
    else:
        models = raw.get("models") or ["resnet18"]
        kwargs = {
            "models": models,
            "num_requests": _integer(traffic.pop("requests", 200),
                                     "traffic.requests"),
            "seed": seed,
        }
        rate = traffic.pop("rate_rps", None)
        if rate is not None:
            rate_rps = _number(rate, "traffic.rate_rps")
        utilization = _number(traffic.pop("utilization", utilization),
                              "traffic.utilization")
        if kind == "closed":
            kwargs["clients"] = _integer(traffic.pop("clients", 4),
                                         "traffic.clients")
            kwargs["concurrency"] = _integer(traffic.pop("concurrency", 1),
                                             "traffic.concurrency")
            kwargs["mean_think_s"] = _number(
                traffic.pop("think_us", 200.0), "traffic.think_us") * 1e-6
    if traffic:
        raise ValueError(
            "unknown traffic key(s): " + ", ".join(sorted(traffic)))

    if (not isinstance(models, list) or not models
            or not all(isinstance(model, str) for model in models)):
        raise ValueError("models must be a non-empty list of model names")
    available = set(list_models())
    for model in models:
        if model not in available:
            raise ValueError(
                f"unknown model {model!r}; available: "
                + ", ".join(sorted(available)))

    mode_name = _string(raw.get("mode", "latency"), "mode")
    if mode_name not in ("latency", "edp"):
        raise ValueError(f"mode must be 'latency' or 'edp', got {mode_name!r}")

    batches = raw.get("batches") or [1, 2, 4, 8, 16]
    if not isinstance(batches, list):
        raise ValueError("batches must be a list of positive integers")

    slo_block = _object(raw.get("slo") or {}, "slo")
    slos: Dict[str, float] = {}
    for model, target in slo_block.items():
        if model not in models:
            raise ValueError(
                f"slo names unknown model {model!r}; served models: "
                + ", ".join(sorted(models)))
        slos[model] = _number(target, f"slo target of {model!r}")

    inject = raw.get("inject") or []
    if (not isinstance(inject, list)
            or not all(isinstance(entry, str) for entry in inject)):
        raise ValueError("inject must be a list of fault spec strings")
    fleet_spec = _string(raw.get("fleet", "M:1"), "fleet")
    faults = [parse_inject(entry) for entry in inject]
    # checked apart from the simulator's own, which skips the schedule
    # when REPRO_SERVE_FAULTS=0: a chip the fleet lacks is wrong input
    validate_fault_targets(faults, len(Fleet.from_spec(fleet_spec)))

    control_block = raw.get("control")
    ga_block = raw.get("ga")
    spec = ScenarioSpec(
        models=list(models),
        fleet_spec=fleet_spec,
        policy=_string(raw.get("policy", "latency"), "policy"),
        batch_sizes=sorted({_integer(batch, "each batch size")
                            for batch in batches}),
        max_wait_us=_number(raw.get("max_wait_us", 200.0), "max_wait_us"),
        optimizer=_string(raw.get("optimizer", "dp"), "optimizer"),
        mode=FitnessMode.EDP if mode_name == "edp" else FitnessMode.LATENCY,
        cache_capacity=_integer(raw.get("cache_capacity", 64),
                                "cache_capacity"),
        seed=seed,
        ga_config=None if ga_block is None else _ga_from(ga_block, seed),
        traffic_kind=kind,
        traffic_kwargs=kwargs,
        slos=slos,
        faults=faults,
        fault_tolerance=_config_from(
            FaultTolerance, raw.get("fault_tolerance") or {},
            "fault_tolerance"),
        control=(None if control_block is None
                 else _control_from(control_block)),
        telemetry=_telemetry_from(raw.get("telemetry")),
        utilization=utilization,
        rate_rps=rate_rps,
    )
    # the constructors' own value checks, on throwaway instances (the
    # trace was already loaded above; the auto rate is utilization x a
    # positive capacity, so the utilization carries its sign until
    # build_scenario knows the capacity)
    try:
        _simulator(spec)
    except KeyError as err:  # an unknown chip name for the autoscaler
        raise ValueError(err.args[0]) from None
    if kind != "trace":
        _traffic(spec, rate_rps if rate_rps is not None else utilization)
    return spec


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    """Build the simulator + workload (expensive: plan-cache warmup)."""
    simulator = _simulator(spec)
    cache, fleet = simulator.plan_cache, simulator.fleet
    cache.warmup(spec.models, fleet.chip_names, spec.batch_sizes)
    rate = spec.rate_rps
    if rate is None and spec.traffic_kind in _RATE_KEYWORDS:
        rate = spec.utilization * fleet_capacity_rps(
            cache, fleet, spec.models, spec.batch_sizes)
    generator = _traffic(spec, rate)
    workload: Union[Sequence[Request], ClosedLoopTraffic] = (
        generator if isinstance(generator, ClosedLoopTraffic)
        else generator.generate())
    return BuiltScenario(
        simulator=simulator,
        workload=workload,
        traffic_info=generator.describe(),
    )
