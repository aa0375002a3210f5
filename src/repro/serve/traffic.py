"""Seed-deterministic traffic generation for the serving simulator.

A traffic generator produces the request stream a serving run replays: a
list of :class:`Request` records sorted by arrival time.  Everything is
driven by one ``numpy`` PCG64 generator seeded explicitly, so a fixed seed
yields a bit-identical request stream — the property the fixed-seed serving
tests pin, in the same spirit as the GA's batched-randomness contract.

Five generators cover the scenarios the serving layer models:

* :class:`PoissonTraffic` — memoryless arrivals at a constant offered rate,
  the canonical open-loop load model;
* :class:`BurstyTraffic` — an on/off modulated Poisson process (exponential
  burst/idle phase durations), stressing queue depth and batching;
* :class:`DiurnalTraffic` — a sinusoidally rate-modulated Poisson process
  (thinning construction), a compressed day/night load curve;
* :class:`TraceTraffic` — replay of a recorded trace file, so real request
  logs (or a previous run's ``save_trace``) can be re-served bit-identically;
* :class:`ClosedLoopTraffic` — *closed-loop* clients with a concurrency
  limit and think time: each client's next request is issued only when its
  previous one completes, so the offered rate adapts to the fleet instead
  of being fixed in advance.  Unlike the open-loop generators it cannot
  pregenerate a stream — pass the generator itself to
  :meth:`~repro.serve.simulator.ServingSimulator.run`, which injects
  arrivals dynamically as requests complete.

Generators are registered by name in :data:`TRAFFIC_GENERATORS`; the CLI's
``repro serve --traffic`` option routes here.
"""

from __future__ import annotations

import abc
import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

#: nanoseconds per second (simulated time is kept in ns like every latency
#: in the estimator stack)
_NS_PER_S = 1e9


@dataclass(frozen=True)
class Request:
    """One inference request: who arrives, for which model, and when.

    ``client`` tags the closed-loop client that issued the request (so the
    simulator can hand the completion back to the right client); open-loop
    generators leave it at ``-1``.  ``attempt`` counts fault-tolerant
    re-submissions: generators always issue attempt 0, and the simulator
    re-injects a request lost to a chip failure or timeout as attempt
    ``n + 1`` via :func:`retry_request` — same identity, new arrival time.
    ``priority`` orders queue admission: a request with a higher priority
    is inserted ahead of lower-priority queued work and its queue is
    preferred by :meth:`~repro.serve.scheduler.SchedulingPolicy.
    order_queues`.  Generators always issue priority 0; the simulator
    raises it for a retry on its final attempt when
    :attr:`~repro.serve.faults.FaultTolerance.retry_priority` is set.
    ``first_arrival_ns`` is the first attempt's arrival time, carried by
    every retry (``None`` on the first attempt itself, see
    :attr:`origin_ns`).
    """

    request_id: int
    model: str
    arrival_ns: float
    client: int = -1
    attempt: int = 0
    priority: int = 0
    first_arrival_ns: Optional[float] = None

    @property
    def origin_ns(self) -> float:
        """When the request first arrived: the end-to-end latency baseline."""
        if self.first_arrival_ns is None:
            return self.arrival_ns
        return self.first_arrival_ns


def retry_request(request: Request, arrival_ns: float,
                  priority: Optional[int] = None) -> Request:
    """The next attempt of a failed request, re-arriving at ``arrival_ns``.

    Identity (id, model, client) and the first attempt's arrival time are
    preserved — a retry is the same request trying again after its
    deterministic backoff, not new offered load.  ``priority`` overrides
    the retry's queue priority (``None`` keeps the original's).
    """
    return dataclasses.replace(
        request, arrival_ns=float(arrival_ns), attempt=request.attempt + 1,
        priority=request.priority if priority is None else int(priority),
        first_arrival_ns=request.origin_ns,
    )


class TrafficGenerator(abc.ABC):
    """Base class of the seed-deterministic request-stream generators."""

    #: registry name of the generator (the ``--traffic`` value)
    name: str = "base"

    def __init__(
        self,
        models: Union[str, Sequence[str]],
        num_requests: int = 200,
        seed: int = 0,
        model_weights: Optional[Sequence[float]] = None,
    ) -> None:
        if isinstance(models, str):
            models = (models,)
        if not models:
            raise ValueError("traffic needs at least one model")
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        self.models: Tuple[str, ...] = tuple(models)
        self.num_requests = num_requests
        self.seed = seed
        if model_weights is not None:
            if len(model_weights) != len(self.models):
                raise ValueError("model_weights must match models")
            total = float(sum(model_weights))
            if total <= 0:
                raise ValueError("model_weights must sum to a positive value")
            model_weights = tuple(w / total for w in model_weights)
        self.model_weights: Optional[Tuple[float, ...]] = (
            tuple(model_weights) if model_weights is not None else None
        )

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _arrival_times_ns(self, rng: np.random.Generator) -> np.ndarray:
        """Sorted arrival times (ns) of ``num_requests`` requests."""

    def generate(self) -> List[Request]:
        """The request stream: deterministic for a fixed seed.

        Arrival times are drawn first, model assignments second, so the two
        streams cannot interleave differently across generator subclasses.
        """
        rng = np.random.default_rng(self.seed)
        arrivals = self._arrival_times_ns(rng)
        if len(self.models) == 1:
            names = [self.models[0]] * len(arrivals)
        else:
            indices = rng.choice(
                len(self.models), size=len(arrivals), p=self.model_weights
            )
            names = [self.models[int(i)] for i in indices]
        return [
            Request(request_id=i, model=names[i], arrival_ns=float(t))
            for i, t in enumerate(arrivals)
        ]

    def describe(self) -> Dict[str, object]:
        """Flat description of the traffic for reports (JSON-compatible)."""
        return {
            "traffic": self.name,
            "models": list(self.models),
            "num_requests": self.num_requests,
            "seed": self.seed,
        }


class PoissonTraffic(TrafficGenerator):
    """Memoryless arrivals at a constant offered rate (requests/second)."""

    name = "poisson"

    def __init__(self, models, num_requests: int = 200, seed: int = 0,
                 rate_rps: float = 100.0, model_weights=None) -> None:
        super().__init__(models, num_requests, seed, model_weights)
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        self.rate_rps = rate_rps

    def _arrival_times_ns(self, rng: np.random.Generator) -> np.ndarray:
        gaps = rng.exponential(_NS_PER_S / self.rate_rps, size=self.num_requests)
        return np.cumsum(gaps)

    def describe(self) -> Dict[str, object]:
        data = super().describe()
        data["rate_rps"] = self.rate_rps
        return data


class BurstyTraffic(TrafficGenerator):
    """On/off modulated Poisson arrivals (exponential phase durations).

    During a burst, requests arrive at ``rate_rps``; during idle phases at
    ``rate_rps * idle_factor`` (0 by default: silence).  Phase durations are
    exponential with means ``mean_burst_s`` / ``mean_idle_s``.  Bursts pile
    requests up faster than the fleet drains them, which is exactly the
    regime dynamic batching is for.
    """

    name = "bursty"

    def __init__(self, models, num_requests: int = 200, seed: int = 0,
                 rate_rps: float = 100.0, mean_burst_s: float = 0.05,
                 mean_idle_s: float = 0.05, idle_factor: float = 0.0,
                 model_weights=None) -> None:
        super().__init__(models, num_requests, seed, model_weights)
        if rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if mean_burst_s <= 0 or mean_idle_s < 0:
            raise ValueError("phase durations must be positive")
        if not 0.0 <= idle_factor <= 1.0:
            raise ValueError("idle_factor must be in [0, 1]")
        self.rate_rps = rate_rps
        self.mean_burst_s = mean_burst_s
        self.mean_idle_s = mean_idle_s
        self.idle_factor = idle_factor

    def _arrival_times_ns(self, rng: np.random.Generator) -> np.ndarray:
        arrivals: List[float] = []
        t = 0.0
        burst = True
        while len(arrivals) < self.num_requests:
            mean_s = self.mean_burst_s if burst else self.mean_idle_s
            phase_end = t + rng.exponential(mean_s * _NS_PER_S)
            rate = self.rate_rps if burst else self.rate_rps * self.idle_factor
            if rate > 0:
                clock = t
                while len(arrivals) < self.num_requests:
                    clock += rng.exponential(_NS_PER_S / rate)
                    if clock >= phase_end:
                        break
                    arrivals.append(clock)
            t = phase_end
            burst = not burst
        return np.asarray(arrivals)

    def describe(self) -> Dict[str, object]:
        data = super().describe()
        data.update(rate_rps=self.rate_rps, mean_burst_s=self.mean_burst_s,
                    mean_idle_s=self.mean_idle_s, idle_factor=self.idle_factor)
        return data


class DiurnalTraffic(TrafficGenerator):
    """Sinusoidally rate-modulated Poisson arrivals (a compressed day).

    The instantaneous rate is ``base_rate_rps * (1 + amplitude *
    sin(2*pi*t/period_s))``; arrivals are generated by thinning a Poisson
    process at the peak rate, which is exact and stays deterministic because
    the candidate and acceptance draws come from the same seeded stream.
    """

    name = "diurnal"

    def __init__(self, models, num_requests: int = 200, seed: int = 0,
                 base_rate_rps: float = 100.0, amplitude: float = 0.8,
                 period_s: float = 1.0, model_weights=None) -> None:
        super().__init__(models, num_requests, seed, model_weights)
        if base_rate_rps <= 0:
            raise ValueError("base_rate_rps must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.base_rate_rps = base_rate_rps
        self.amplitude = amplitude
        self.period_s = period_s

    def _arrival_times_ns(self, rng: np.random.Generator) -> np.ndarray:
        peak = self.base_rate_rps * (1.0 + self.amplitude)
        omega = 2.0 * np.pi / (self.period_s * _NS_PER_S)
        arrivals: List[float] = []
        t = 0.0
        while len(arrivals) < self.num_requests:
            t += rng.exponential(_NS_PER_S / peak)
            rate = self.base_rate_rps * (1.0 + self.amplitude * np.sin(omega * t))
            if rng.random() < rate / peak:
                arrivals.append(t)
        return np.asarray(arrivals)

    def describe(self) -> Dict[str, object]:
        data = super().describe()
        data.update(base_rate_rps=self.base_rate_rps, amplitude=self.amplitude,
                    period_s=self.period_s)
        return data


class TraceTraffic(TrafficGenerator):
    """Replay of a recorded trace file (see :func:`save_trace`).

    The trace pins the whole stream — arrival times and model assignment —
    so a replayed run is bit-identical to the run that recorded it,
    whatever generator produced the original stream.
    """

    name = "trace"

    def __init__(self, path: str) -> None:
        self.path = path
        requests = load_trace(path)
        if not requests:
            raise ValueError(f"trace {path!r} contains no requests")
        models = sorted({r.model for r in requests})
        super().__init__(models, num_requests=len(requests), seed=0)
        self._requests = requests

    def _arrival_times_ns(self, rng: np.random.Generator) -> np.ndarray:
        return np.asarray([r.arrival_ns for r in self._requests])

    def generate(self) -> List[Request]:
        return list(self._requests)

    def describe(self) -> Dict[str, object]:
        data = super().describe()
        data["path"] = self.path
        return data


class ClosedLoopSession:
    """One run's worth of closed-loop client state (see :class:`ClosedLoopTraffic`).

    All randomness — think times and model assignments — is pre-drawn from
    the traffic seed.  Draw ``k * clients + c`` belongs to client ``c``'s
    ``k``-th request (and is also its ``request_id``), so what a client
    asks for and how long it thinks depend only on the seed and on how
    many of its own requests it has issued — never on the order in which
    the simulator reports other clients' completions.  The opening wave
    (slot ``s`` goes to client ``s % clients``) is exactly this indexing.
    """

    def __init__(self, traffic: "ClosedLoopTraffic") -> None:
        rng = np.random.default_rng(traffic.seed)
        n = traffic.num_requests
        mean_think_ns = traffic.mean_think_s * _NS_PER_S
        # think times first, model assignments second — the same draw order
        # contract as TrafficGenerator.generate()
        self._think = (
            rng.exponential(mean_think_ns, size=n) if mean_think_ns > 0
            else np.zeros(n)
        )
        if len(traffic.models) == 1:
            self._names = [traffic.models[0]] * n
        else:
            indices = rng.choice(len(traffic.models), size=n,
                                 p=traffic.model_weights)
            self._names = [traffic.models[int(i)] for i in indices]
        self.num_requests = n
        self.clients = traffic.clients
        self.concurrency = traffic.concurrency
        #: draw index of each client's next request
        self._next = list(range(traffic.clients))
        #: every request issued so far, in issue order (for trace recording)
        self.issued: List[Request] = []

    # ------------------------------------------------------------------
    def model_counts(self) -> Dict[str, int]:
        """How many requests each model will receive over the whole session."""
        counts: Dict[str, int] = {}
        for name in self._names:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def _issue(self, client: int, after_ns: float) -> Optional[Request]:
        """Client ``client``'s next request, thinking from ``after_ns``."""
        index = self._next[client]
        if index >= self.num_requests:
            return None
        self._next[client] = index + self.clients
        request = Request(request_id=index, model=self._names[index],
                          arrival_ns=float(after_ns + self._think[index]),
                          client=client)
        self.issued.append(request)
        return request

    def initial(self) -> List[Request]:
        """The opening wave: every client fills its concurrency window."""
        slots = min(self.num_requests, self.clients * self.concurrency)
        return [self._issue(slot % self.clients, 0.0) for slot in range(slots)]

    def on_complete(self, request: Request, completion_ns: float) -> Optional[Request]:
        """The completed request's client issues its next request (or ``None``)."""
        return self._issue(request.client, completion_ns)


class ClosedLoopTraffic(TrafficGenerator):
    """Closed-loop clients: think, send, wait for the reply, repeat.

    ``clients`` concurrent clients each keep up to ``concurrency`` requests
    outstanding; a client issues its next request ``think`` seconds
    (exponential, mean ``mean_think_s``) after its previous one completes.
    Offered load is therefore *response-dependent* — a saturated fleet is
    never swamped beyond ``clients * concurrency`` outstanding requests,
    which is exactly how interactive traffic differs from the open-loop
    generators.  Requires simulator cooperation: pass the generator to
    :meth:`~repro.serve.simulator.ServingSimulator.run` instead of a
    pregenerated request list.
    """

    name = "closed"

    def __init__(self, models, num_requests: int = 200, seed: int = 0,
                 clients: int = 4, concurrency: int = 1,
                 mean_think_s: float = 0.0002, model_weights=None) -> None:
        super().__init__(models, num_requests, seed, model_weights)
        if clients <= 0:
            raise ValueError("clients must be positive")
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if mean_think_s < 0:
            raise ValueError("mean_think_s must be non-negative")
        self.clients = clients
        self.concurrency = concurrency
        self.mean_think_s = mean_think_s
        #: the most recent session (holds the realised stream after a run)
        self.last_session: Optional[ClosedLoopSession] = None

    def _arrival_times_ns(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError(
            "closed-loop arrivals depend on completions"
        )  # pragma: no cover - generate() is overridden below

    def generate(self) -> List[Request]:
        raise ValueError(
            "closed-loop traffic has no pregenerated stream: arrivals depend "
            "on completions; pass the generator itself to ServingSimulator.run()"
        )

    def session(self) -> ClosedLoopSession:
        """A fresh client-state session (one per simulator run)."""
        self.last_session = ClosedLoopSession(self)
        return self.last_session

    def describe(self) -> Dict[str, object]:
        data = super().describe()
        data.update(clients=self.clients, concurrency=self.concurrency,
                    mean_think_s=self.mean_think_s)
        return data


def save_trace(requests: Sequence[Request], path: str) -> None:
    """Record a request stream to a JSON trace file for later replay.

    Closed-loop client tags are preserved (the ``client`` field is written
    only for tagged requests, so open-loop traces keep the original shape).
    """
    entries: List[Dict[str, object]] = []
    for r in requests:
        entry: Dict[str, object] = {
            "id": r.request_id, "model": r.model, "arrival_ns": r.arrival_ns
        }
        if r.client >= 0:
            entry["client"] = r.client
        entries.append(entry)
    payload = {"version": 1, "requests": entries}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def load_trace(path: str) -> List[Request]:
    """Read a trace file back into a sorted request stream.

    Raises ``ValueError`` (not a raw ``KeyError``/``TypeError``) for files
    that parse as JSON but lack the expected shape — traces are
    user-supplied, so malformed content is an expected input.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        requests = [
            Request(request_id=int(entry["id"]), model=str(entry["model"]),
                    arrival_ns=float(entry["arrival_ns"]),
                    client=int(entry.get("client", -1)))
            for entry in payload["requests"]
        ]
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise ValueError(f"malformed trace file {path!r}: {err}") from None
    requests.sort(key=lambda r: (r.arrival_ns, r.request_id))
    return requests


#: Traffic generators by registry name (the ``--traffic`` values).
TRAFFIC_GENERATORS: Dict[str, Type[TrafficGenerator]] = {
    PoissonTraffic.name: PoissonTraffic,
    BurstyTraffic.name: BurstyTraffic,
    DiurnalTraffic.name: DiurnalTraffic,
    TraceTraffic.name: TraceTraffic,
    ClosedLoopTraffic.name: ClosedLoopTraffic,
}


def validate_traffic(name: str) -> None:
    """Raise ``ValueError`` for a name not in :data:`TRAFFIC_GENERATORS`."""
    if name not in TRAFFIC_GENERATORS:
        known = ", ".join(sorted(TRAFFIC_GENERATORS))
        raise ValueError(f"unknown traffic {name!r}; expected one of: {known}")
