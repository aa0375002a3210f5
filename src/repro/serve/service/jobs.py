"""Scenario jobs and the observatory that runs them.

The :class:`Observatory` is the service's single source of truth: it owns
every submitted :class:`ScenarioJob`, the :class:`BroadcastHub`, and the
bridge between each scenario's worker thread and the asyncio loop.

Threading model — the one rule everything else follows:

* the **simulation** runs on a per-job daemon thread (``simulator.run``
  is pure CPU; the loop stays responsive);
* the simulator's stream sink hops every message onto the loop with
  ``call_soon_threadsafe`` — from one producer thread that is FIFO, so
  windows arrive on the loop in simulation order;
* all job/hub state is therefore **loop-thread-only** after submission:
  routes and WebSocket handlers read it without locks.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import traceback
from typing import Dict, List, Optional

from repro.serve.simulator import CommandQueue
from repro.serve.service.broadcast import BroadcastHub, Subscription
from repro.serve.service.scenario import (
    ScenarioSpec,
    build_scenario,
    validate_spec,
)

#: job lifecycle states
PENDING, RUNNING, COMPLETED, FAILED = (
    "pending", "running", "completed", "failed")

#: traffic kinds the service accepts (``trace`` needs a server-side file —
#: out of scope for a JSON submission API)
SERVICE_TRAFFIC_KINDS = ("poisson", "bursty", "diurnal", "closed")

#: a submitted scenario with no timeline interval still streams — the
#: observatory exists to watch windows, so a default interval applies
DEFAULT_TIMELINE_US = 500.0


def _service_spec(raw_spec: Dict[str, object]) -> Dict[str, object]:
    """The service's rules on top of the shared spec: no trace replay,
    and a default timeline interval."""
    traffic = raw_spec.get("traffic")
    if isinstance(traffic, dict) and traffic.get("kind") == "trace":
        raise ValueError(
            "traffic kind 'trace' is not serveable over the API; "
            f"use one of: {', '.join(SERVICE_TRAFFIC_KINDS)}")
    telemetry = raw_spec.get("telemetry") or {}
    if (isinstance(telemetry, dict) and "timeline_us" not in telemetry
            and "timeline_interval_us" not in telemetry):
        raw_spec = dict(raw_spec, telemetry=dict(
            telemetry, timeline_us=DEFAULT_TIMELINE_US))
    return raw_spec


class ScenarioJob:
    """One submitted scenario: spec, live telemetry, and its outcome."""

    def __init__(self, job_id: str, spec: ScenarioSpec,
                 raw_spec: Dict[str, object]) -> None:
        self.job_id = job_id
        self.spec = spec
        self.raw_spec = raw_spec
        self.state = PENDING
        #: streamed timeline rows, in window order (the rolling timeline)
        self.windows: List[Dict[str, object]] = []
        #: fault / command events, in simulation order
        self.events: List[Dict[str, object]] = []
        #: latest mid-run hub snapshot (then the final one at completion)
        self.hub_snapshot: Dict[str, object] = {}
        #: final report dict (present once state == completed)
        self.report: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        #: mid-run control commands enqueue here; the simulator drains
        self.commands = CommandQueue()
        self.done = asyncio.Event()
        self.thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """The poll endpoint's view of this job."""
        status: Dict[str, object] = {
            "id": self.job_id,
            "state": self.state,
            "windows": len(self.windows),
            "events": len(self.events),
            "models": list(self.spec.models),
            "fleet": self.spec.fleet_spec,
            "traffic": self.spec.traffic_kind,
        }
        if self.error is not None:
            status["error"] = self.error
        return status

    def backlog(self) -> List[Dict[str, object]]:
        """Replay for a late subscriber: everything published so far.

        A subscriber that connects mid-run (or after the run) receives the
        same message sequence a from-the-start subscriber saw — windows
        first, then events, then the terminal message if the job is done.
        """
        messages = [{"type": "window", "job": self.job_id, "data": row}
                    for row in self.windows]
        messages.extend({"type": "event", "job": self.job_id, "data": event}
                        for event in self.events)
        if self.state == COMPLETED:
            messages.append({"type": "report", "job": self.job_id,
                             "data": self.report})
        elif self.state == FAILED:
            messages.append({"type": "error", "job": self.job_id,
                             "data": {"error": self.error}})
        return messages


class Observatory:
    """All live service state: jobs, broadcast hub, thread bridging."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None,
                 queue_maxsize: int = 1024) -> None:
        self.loop = loop or asyncio.get_event_loop()
        self.hub = BroadcastHub(maxsize=queue_maxsize)
        self.jobs: Dict[str, ScenarioJob] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def submit(self, raw_spec: Dict[str, object]) -> ScenarioJob:
        """Validate and launch one scenario (raises ``ValueError`` on a
        bad spec — before any thread starts)."""
        spec = validate_spec(_service_spec(raw_spec))
        if spec.telemetry.timeline_interval_us <= 0:
            raise ValueError(
                "telemetry.timeline_us must be positive: the observatory "
                "streams per-window telemetry")
        job = ScenarioJob(f"s{next(self._ids)}", spec, dict(raw_spec))
        self.jobs[job.job_id] = job
        thread = threading.Thread(
            target=self._worker, args=(job,),
            name=f"scenario-{job.job_id}", daemon=True)
        job.thread = thread
        thread.start()
        return job

    def get(self, job_id: str) -> Optional[ScenarioJob]:
        return self.jobs.get(job_id)

    def command(self, job_id: str, command: Dict[str, object]) -> bool:
        """Enqueue a mid-run command; False if the job is already done."""
        job = self.jobs[job_id]
        if job.state in (COMPLETED, FAILED):
            return False
        job.commands.put(command)
        return True

    def subscribe(self, job_id: str) -> Subscription:
        """Subscribe to a job's stream, with full backlog replay."""
        job = self.jobs[job_id]
        subscription = self.hub.subscribe(job_id)
        for message in job.backlog():
            subscription.deliver(message)
        if job.state in (COMPLETED, FAILED):
            subscription.deliver(None)
        return subscription

    def service_stats(self) -> Dict[str, object]:
        """Observatory-level gauges for /metrics."""
        states = {PENDING: 0, RUNNING: 0, COMPLETED: 0, FAILED: 0}
        for job in self.jobs.values():
            states[job.state] += 1
        stats: Dict[str, object] = {
            f"scenarios_{state}": count for state, count in states.items()}
        stats.update(self.hub.stats())
        return stats

    def hub_snapshots(self) -> Dict[str, Dict[str, object]]:
        """Per-job hub snapshots for /metrics (latest streamed, or the
        final report's telemetry block once a job completes)."""
        return {job_id: job.hub_snapshot
                for job_id, job in self.jobs.items() if job.hub_snapshot}

    # --- worker thread ------------------------------------------------
    def _worker(self, job: ScenarioJob) -> None:
        """Runs on the job's daemon thread; only touches job state via
        the loop."""
        call = self.loop.call_soon_threadsafe
        try:
            built = build_scenario(job.spec)
            built.simulator.stream_sink = (
                lambda kind, payload: call(self._on_stream, job, kind,
                                           payload))
            call(self._on_running, job)
            report = built.simulator.run(built.workload,
                                         traffic_info=built.traffic_info,
                                         commands=job.commands)
            call(self._on_done, job, report.as_dict())
        except Exception:  # a broken scenario must not kill the service
            call(self._on_failed, job, traceback.format_exc())

    # --- loop-thread callbacks ----------------------------------------
    def _on_running(self, job: ScenarioJob) -> None:
        job.state = RUNNING
        self.hub.publish(job.job_id, {"type": "status", "job": job.job_id,
                                      "data": job.status()})

    def _on_stream(self, job: ScenarioJob, kind: str,
                   payload: Dict[str, object]) -> None:
        if kind == "window":
            job.windows.append(payload)
            message = {"type": "window", "job": job.job_id, "data": payload}
        elif kind == "event":
            job.events.append(payload)
            message = {"type": "event", "job": job.job_id, "data": payload}
        elif kind == "hub":
            job.hub_snapshot = payload
            message = {"type": "hub", "job": job.job_id, "data": payload}
        else:
            return
        self.hub.publish(job.job_id, message)

    def _on_done(self, job: ScenarioJob, report: Dict[str, object]) -> None:
        job.state = COMPLETED
        job.report = report
        telemetry = report.get("telemetry")
        if telemetry:
            job.hub_snapshot = telemetry
        self.hub.publish(job.job_id, {"type": "report", "job": job.job_id,
                                      "data": report})
        self.hub.close_topic(job.job_id)
        job.done.set()

    def _on_failed(self, job: ScenarioJob, error: str) -> None:
        job.state = FAILED
        job.error = error
        self.hub.publish(job.job_id, {"type": "error", "job": job.job_id,
                                      "data": {"error": error}})
        self.hub.close_topic(job.job_id)
        job.done.set()
