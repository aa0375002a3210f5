"""Tests of the live observatory (:mod:`repro.serve.service`).

Four contracts: the broadcast hub never blocks a producer on a slow
subscriber (bounded queues, counted drops); ``/metrics`` emits valid
Prometheus text exposition (parsed back with a strict grammar check);
mid-run commands land at deterministic points in the simulator's event
order, are recorded applied-or-rejected, and stay out of the determinism
dict; and the service end to end is **hermetic** — an ephemeral port, a
tiny scenario, at least two live windows over a real WebSocket, the final
report, and a clean shutdown, all event-driven with no sleeps.
"""

import json
import re

import pytest

from repro.core.ga import GAConfig
from repro.serve import (
    CommandQueue,
    ControlConfig,
    FaultTolerance,
    Fleet,
    PlanCache,
    PoissonTraffic,
    ServingSimulator,
    TelemetryConfig,
    fleet_capacity_rps,
    save_trace,
)
from repro.serve.service import (
    BroadcastHub,
    ServerThread,
    WebSocketClient,
    render_prometheus,
    request_json,
    validate_spec,
)
from repro.serve.service.jobs import DEFAULT_TIMELINE_US

BATCHES = (1, 2, 4)


# ----------------------------------------------------------------------
# broadcast hub: bounded fan-out
# ----------------------------------------------------------------------
class TestBroadcastHub:
    def test_fanout_preserves_order(self):
        hub = BroadcastHub(maxsize=8)
        a = hub.subscribe("t")
        b = hub.subscribe("t")
        for k in range(3):
            assert hub.publish("t", {"k": k}) == 2
        for subscription in (a, b):
            got = [subscription.queue.get_nowait() for _ in range(3)]
            assert [m["k"] for m in got] == [0, 1, 2]
        assert hub.publish("other", {}) == 0  # no subscribers, no error

    def test_slow_consumer_drops_are_counted_not_blocking(self):
        hub = BroadcastHub(maxsize=2)
        slow = hub.subscribe("t")
        fast = hub.subscribe("t")
        for k in range(5):
            hub.publish("t", {"k": k})
            fast.queue.get_nowait()  # fast keeps up; slow never reads
        # slow kept the 2 oldest messages and dropped the other 3
        assert slow.dropped == 3
        assert [slow.queue.get_nowait()["k"] for _ in range(2)] == [0, 1]
        assert fast.dropped == 0
        assert hub.stats()["dropped"] == 3  # live drops visible in stats
        hub.unsubscribe(slow)
        # the total survives the subscriber going away
        assert hub.dropped == 3
        assert hub.stats() == {"published": 5, "dropped": 3,
                               "subscribers": 1}

    def test_close_topic_delivers_sentinel(self):
        hub = BroadcastHub(maxsize=4)
        subscription = hub.subscribe("t")
        hub.publish("t", {"k": 0})
        hub.close_topic("t")
        assert subscription.queue.get_nowait() == {"k": 0}
        assert subscription.queue.get_nowait() is None

    def test_unsubscribe_twice_is_harmless(self):
        hub = BroadcastHub()
        subscription = hub.subscribe("t")
        hub.unsubscribe(subscription)
        hub.unsubscribe(subscription)
        assert hub.subscriber_count() == 0


# ----------------------------------------------------------------------
# Prometheus text exposition: strict grammar check
# ----------------------------------------------------------------------
_TYPE_LINE = re.compile(
    r"# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)\Z")
_SAMPLE_LINE = re.compile(
    r"([a-zA-Z_:][a-zA-Z0-9_:]*)"            # metric name
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*="      # optional label pairs
    r'"(?:[^"\\]|\\.)*",?)*)\})?'
    r" (-?(?:[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?|\+Inf|NaN))\Z")


def parse_exposition(text):
    """Parse exposition text strictly; returns {family: (kind, samples)}
    where samples is a list of (name, labels-dict, float) tuples."""
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    current = None
    for line in text.splitlines():
        typed = _TYPE_LINE.match(line)
        if typed:
            name, kind = typed.groups()
            assert name not in families, f"duplicate TYPE for {name}"
            families[name] = (kind, [])
            current = name
            continue
        sampled = _SAMPLE_LINE.match(line)
        assert sampled, f"line outside the exposition grammar: {line!r}"
        name, raw_labels, value = sampled.groups()
        base = re.sub(r"_(bucket|sum|count)\Z", "", name)
        family = name if name in families else base
        assert family in families, f"sample before its TYPE: {line!r}"
        assert family == current, f"family interleaving at: {line!r}"
        labels = dict(re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]'
                                 r'|\\.)*)"', raw_labels or ""))
        families[family][1].append((name, labels, float(value)))
    return families


class TestPrometheusExposition:
    def _snapshot(self):
        return {
            "counters": {"arrivals": 12, "completions": 10},
            "gauges": {"fleet": {"chips": 2, "name": "M:2"},
                       "plan_cache": {"hits": 5, "size": 3}},
            "histograms": {
                "latency_ns": {"count": 4, "mean": 6.0, "max": 12.0,
                               "p50": 6.0, "p95": 12.0, "p99": 12.0,
                               "bins": {"2": 3, "3": 1}},
            },
        }

    def test_grammar_and_families(self):
        text = render_prometheus(
            {"s1": self._snapshot()},
            {"scenarios_completed": 1, "published": 7})
        families = parse_exposition(text)
        assert families["repro_serve_service_published"][0] == "gauge"
        kind, samples = families["repro_serve_events_total"]
        assert kind == "counter"
        assert ({label["event"] for _, label, _ in samples}
                == {"arrivals", "completions"})
        assert all(label["job"] == "s1" for _, label, _ in samples)

    def test_counter_families_end_in_total(self):
        text = render_prometheus({"s1": self._snapshot()}, {})
        for name, (kind, _) in parse_exposition(text).items():
            if kind == "counter":
                assert name.endswith("_total"), name

    def test_histogram_buckets_cumulative_and_consistent(self):
        text = render_prometheus({"s1": self._snapshot()}, {})
        _, samples = parse_exposition(text)["repro_serve_latency_ns"]
        buckets = [(label["le"], value) for name, label, value in samples
                   if name.endswith("_bucket")]
        # log2 bin b covers [2^b, 2^(b+1)): bins 2 and 3 -> le 8 and 16
        assert [b[0] for b in buckets] == ["8.0", "16.0", "+Inf"]
        counts = [b[1] for b in buckets]
        assert counts == sorted(counts)  # cumulative, monotone
        count = next(v for n, _, v in samples if n.endswith("_count"))
        assert counts[-1] == count == 4.0
        total = next(v for n, _, v in samples if n.endswith("_sum"))
        assert total == pytest.approx(6.0 * 4)  # mean * count

    def test_non_numeric_gauges_and_label_escapes(self):
        snapshot = {"gauges": {"fleet": {"spec": "M:2", "chips": 2}}}
        text = render_prometheus({'s"1\n': snapshot}, {})
        families = parse_exposition(text)
        _, samples = families["repro_serve_gauge"]
        # the string-valued gauge is skipped, the numeric one kept, and
        # the hostile job id arrives escaped but intact
        assert len(samples) == 1
        assert samples[0][1]["key"] == "chips"
        assert samples[0][1]["job"] == 's\\"1\\n'

    def test_empty_inputs_render_empty_exposition(self):
        assert render_prometheus({}, {}) == "\n"


# ----------------------------------------------------------------------
# scenario spec validation
# ----------------------------------------------------------------------
class TestScenarioSpec:
    def test_defaults_fill_in(self):
        spec = validate_spec({})
        assert spec.models == ["resnet18"]
        assert spec.traffic_kind == "poisson"
        # the builder itself adds no timeline: that default is the
        # observatory's (see TestServiceEndToEnd)
        assert not spec.telemetry.active

    @pytest.mark.parametrize("raw, fragment", [
        ({"models": ["nosuchnet"]}, "unknown model"),
        ({"model": ["resnet18"]}, "unknown spec key"),
        ({"traffic": {"kind": "trace"}}, "traffic.path must be a string"),
        ({"traffic": {"kind": "poisson", "rps": 10}}, "unknown traffic"),
        ({"traffic": {"requests": 0}}, "must be positive"),
        ({"batches": [0]}, "positive integers"),
        ({"slo": {"vgg16": 5.0}}, "slo names unknown model"),
        ({"control": {"autoscale": "4"}}, "MIN:MAX"),
        ({"control": {"hedge_pct": 90}}, "unknown control key"),
        ({"fault_tolerance": {"retries": 2}},
         "unknown fault_tolerance key"),
        ({"telemetry": {"trace_each": 5}}, "unknown telemetry key"),
        ({"inject": ["chip_fail@0:chip=9"]}, "chip"),
        ({"mode": "both"}, "mode must be"),
        # wrong JSON types are presentable errors, not TypeErrors
        ({"seed": None}, "seed must be an integer"),
        ({"models": [{}]}, "list of model names"),
        ({"slo": {"resnet18": [1]}}, "slo target of 'resnet18'"),
        ({"traffic": {"requests": None}}, "traffic.requests"),
        ({"batches": [True]}, "batch size must be an integer"),
        ({"ga": {"population": "many"}}, "ga.population"),
        # values the serving constructors would reject at build time
        ({"cache_capacity": 0}, "capacity must be positive"),
        ({"max_wait_us": -1}, "max_wait_us must be non-negative"),
        ({"slo": {"resnet18": 0}}, "SLO target must be positive"),
        ({"traffic": {"kind": "closed", "clients": 0}},
         "clients must be positive"),
        ({"traffic": {"rate_rps": 0}}, "rate_rps must be positive"),
        ({"traffic": {"kind": "diurnal", "rate_rps": -5}},
         "rate_rps must be positive"),
        ({"control": {"interval_us": 200, "scale_chip": "Z"}},
         "unknown chip"),
        ({"control": {"hedge_after_pct": 90}}, "need the control plane"),
        ({"control": {"autoscale": "1:4"}}, "need the control plane"),
        ({"traffic": {"kind": "trace", "path": "/nonexistent/trace.json"}},
         "cannot read trace"),
    ])
    def test_bad_specs_raise_presentable_errors(self, raw, fragment):
        with pytest.raises(ValueError, match=fragment):
            validate_spec(raw)

    def test_autoscale_string_expands(self):
        spec = validate_spec({"control": {"interval_us": 200,
                                          "autoscale": "1:3"}})
        assert spec.control.autoscale
        assert (spec.control.min_chips, spec.control.max_chips) == (1, 3)

    def test_trace_serves_the_trace_models(self, tmp_path):
        trace = tmp_path / "trace.json"
        save_trace(PoissonTraffic(["lenet5", "squeezenet"], num_requests=6,
                                  seed=1).generate(), str(trace))
        spec = validate_spec({"traffic": {"kind": "trace",
                                          "path": str(trace)}})
        assert spec.models == ["lenet5", "squeezenet"]
        with pytest.raises(ValueError, match="trace's models"):
            validate_spec({"models": ["lenet5"],
                           "traffic": {"kind": "trace", "path": str(trace)}})

    def test_ga_block_sizes_the_ga_with_the_spec_seed(self):
        spec = validate_spec({"seed": 9, "optimizer": "ga",
                              "ga": {"population": 12, "generations": 3}})
        assert spec.ga_config == GAConfig.sized(12, 3, seed=9)
        assert validate_spec({}).ga_config is None

    def test_closed_loop_knobs(self):
        spec = validate_spec({"traffic": {"kind": "closed", "clients": 6,
                                          "requests": 30}})
        assert spec.traffic_kwargs["clients"] == 6
        assert spec.traffic_kwargs["num_requests"] == 30


# ----------------------------------------------------------------------
# mid-run commands: deterministic application in the event order
# ----------------------------------------------------------------------
def _command_run(commands, control=False):
    """A small fault-aware run with ``commands`` pre-queued, so every
    command lands at the first event pop — a fixed, reproducible point."""
    model = "resnet18"
    fleet = Fleet.from_spec("M:2")
    cache = PlanCache(optimizer="dp")
    cache.warmup((model,), fleet.chip_names, BATCHES)
    rate = 0.8 * fleet_capacity_rps(cache, fleet, (model,), BATCHES)
    traffic = PoissonTraffic(model, num_requests=40, seed=5, rate_rps=rate)
    queue = CommandQueue()
    for command in commands:
        queue.put(command)
    simulator = ServingSimulator(
        fleet, cache, policy="latency", batch_sizes=BATCHES,
        max_wait_us=200.0,
        fault_tolerance=FaultTolerance(max_retries=2),
        control=(ControlConfig(interval_us=500.0) if control else None),
        telemetry=TelemetryConfig(timeline_interval_us=500.0),
    )
    report = simulator.run(traffic.generate(),
                           traffic_info=traffic.describe(),
                           commands=queue)
    return simulator, report


class TestMidRunCommands:
    def test_set_policy_applies_and_restores(self):
        simulator, report = _command_run([{"op": "set_policy",
                                           "policy": "fifo"}])
        (entry,) = report.commands
        assert entry["op"] == "set_policy"
        assert entry["status"] == "applied"
        assert entry["policy"] == "fifo"
        assert entry["t_ms"] >= 0.0
        # the construction-time policy is restored once the run ends
        assert report.policy == "latency"
        assert simulator.policy.name == "latency"

    def test_inject_fault_schedules_real_faults(self):
        _, report = _command_run(
            [{"op": "inject_fault", "spec": "chip_fail@100:chip=0"}])
        (entry,) = report.commands
        assert entry["status"] == "applied"
        assert entry["events"] >= 1
        assert report.failures >= 1  # the commanded fault actually struck

    def test_rejections_are_recorded_not_raised(self):
        _, report = _command_run([
            {"op": "autoscale_bounds", "min_chips": 1, "max_chips": 4},
            {"op": "set_policy", "policy": "nosuchpolicy"},
            {"op": "warp_time"},
            {"op": "inject_fault"},  # missing spec
        ])
        statuses = [entry["status"] for entry in report.commands]
        assert statuses == ["rejected"] * 4  # no control plane, bad args
        assert all("error" in entry for entry in report.commands)
        assert report.completed == report.num_requests  # run unharmed

    def test_autoscale_bounds_needs_and_updates_controller(self):
        simulator, report = _command_run(
            [{"op": "autoscale_bounds", "min_chips": 1, "max_chips": 2}],
            control=True)
        (entry,) = report.commands
        assert entry["status"] == "applied"
        assert (entry["min_chips"], entry["max_chips"]) == (1, 2)
        # the construction-time control config is restored after the run
        assert not simulator.control.autoscale

    def test_commands_block_in_dict_but_not_determinism(self):
        _, report = _command_run([{"op": "set_policy", "policy": "fifo"}])
        assert "commands" in report.as_dict()
        assert "commands" not in report.determinism_dict()
        _, plain = _command_run([])
        assert "commands" not in plain.as_dict()

    def test_commanded_run_with_same_schedule_is_reproducible(self):
        schedule = [{"op": "set_policy", "policy": "fifo"}]
        _, first = _command_run(schedule)
        _, second = _command_run(schedule)
        assert first.determinism_dict() == second.determinism_dict()
        assert first.as_dict()["commands"] == second.as_dict()["commands"]

    def test_drain_empties_fifo(self):
        queue = CommandQueue()
        queue.put({"op": "a"})
        queue.put({"op": "b"})
        assert [c["op"] for c in queue.drain()] == ["a", "b"]
        assert queue.drain() == []


# ----------------------------------------------------------------------
# the hermetic end-to-end smoke: real sockets, no sleeps
# ----------------------------------------------------------------------
#: tiny but multi-window: ~40 requests over 2 chips with a fine window
SMOKE_SPEC = {
    "models": ["resnet18"],
    "fleet": "M:2",
    "policy": "latency",
    "batches": [1, 2, 4],
    "seed": 7,
    "traffic": {"kind": "poisson", "requests": 40, "utilization": 0.8},
    "slo": {"resnet18": 12.0},
    "fault_tolerance": {"max_retries": 1},
    "telemetry": {"timeline_us": 300},
}


@pytest.fixture(scope="class")
def smoke(request):
    """One server + one streamed scenario, shared by the class below.

    Every wait is event-driven: the constructor returns once the port is
    bound, the WebSocket generator ends when the server closes the stream
    after the terminal report — no sleeps anywhere.
    """
    server = ServerThread(port=0)  # ephemeral port
    state = {"server": server, "host": server.host, "port": server.port}
    try:
        status, body = request_json(server.host, server.port, "POST",
                                    "/scenarios", SMOKE_SPEC)
        assert status == 201, body
        state["job_id"] = body["id"]
        client = WebSocketClient(server.host, server.port,
                                 f"/scenarios/{body['id']}/stream")
        state["messages"] = list(client.messages())
        client.close()
        yield state
    finally:
        server.stop()


@pytest.mark.usefixtures("smoke")
class TestServiceEndToEnd:
    def test_healthz(self, smoke):
        status, body = request_json(smoke["host"], smoke["port"], "GET",
                                    "/healthz")
        assert (status, body) == (200, {"ok": True})

    def test_stream_delivers_windows_then_terminal_report(self, smoke):
        kinds = [message["type"] for message in smoke["messages"]]
        assert kinds.count("window") >= 2
        assert kinds[-1] == "report"  # exactly one terminal message
        assert kinds.count("report") == 1
        assert all(message["job"] == smoke["job_id"]
                   for message in smoke["messages"])

    def test_streamed_windows_equal_report_timeline_byte_for_byte(
            self, smoke):
        windows = [message["data"] for message in smoke["messages"]
                   if message["type"] == "window"]
        report = smoke["messages"][-1]["data"]
        assert json.dumps(windows, sort_keys=True) == \
            json.dumps(report["timeline"], sort_keys=True)

    def test_report_endpoint_matches_streamed_report(self, smoke):
        status, body = request_json(
            smoke["host"], smoke["port"], "GET",
            f"/scenarios/{smoke['job_id']}/report")
        assert status == 200
        assert body["report"] == smoke["messages"][-1]["data"]
        assert body["report"]["completed"] > 0

    def test_status_and_listing(self, smoke):
        status, body = request_json(smoke["host"], smoke["port"], "GET",
                                    f"/scenarios/{smoke['job_id']}")
        assert status == 200
        assert body["state"] == "completed"
        assert body["windows"] >= 2
        status, body = request_json(smoke["host"], smoke["port"], "GET",
                                    "/scenarios")
        assert status == 200
        assert smoke["job_id"] in [job["id"] for job in body["scenarios"]]

    def test_rolling_timeline_endpoint(self, smoke):
        status, body = request_json(
            smoke["host"], smoke["port"], "GET",
            f"/scenarios/{smoke['job_id']}/timeline")
        assert status == 200
        report = smoke["messages"][-1]["data"]
        assert body["timeline"] == report["timeline"]

    def test_late_subscriber_replays_the_full_backlog(self, smoke):
        # the job is long done: a fresh WebSocket still sees every
        # window, every event and the terminal report, in order (hub
        # snapshots and status changes are live-only ephemera)
        client = WebSocketClient(smoke["host"], smoke["port"],
                                 f"/scenarios/{smoke['job_id']}/stream")
        replay = list(client.messages())
        client.close()
        durable = [m for m in smoke["messages"]
                   if m["type"] in ("window", "event", "report")]
        assert replay == durable
        assert replay[-1] == smoke["messages"][-1]

    def test_metrics_is_valid_exposition_with_job_data(self, smoke):
        status, text = request_json(smoke["host"], smoke["port"], "GET",
                                    "/metrics")
        assert status == 200
        families = parse_exposition(text)
        kind, samples = families["repro_serve_events_total"]
        assert kind == "counter"
        jobs = {label["job"] for _, label, _ in samples}
        assert smoke["job_id"] in jobs
        completions = next(
            value for _, label, value in samples
            if label["event"] == "completions"
            and label["job"] == smoke["job_id"])
        assert completions == 40.0
        # the latency histogram made it through as cumulative buckets
        _, hist = families["repro_serve_latency_ns"]
        assert any(name.endswith("_bucket") for name, _, _ in hist)
        _, service = families["repro_serve_service_scenarios_completed"]
        assert service[0][2] >= 1.0

    def test_commands_after_completion_conflict(self, smoke):
        status, body = request_json(
            smoke["host"], smoke["port"], "POST",
            f"/scenarios/{smoke['job_id']}/commands",
            {"op": "set_policy", "policy": "fifo"})
        assert status == 409

    def test_error_routes(self, smoke):
        host, port = smoke["host"], smoke["port"]
        assert request_json(host, port, "GET", "/nosuch")[0] == 404
        assert request_json(host, port, "GET", "/scenarios/zz")[0] == 404
        assert request_json(host, port, "DELETE", "/healthz")[0] == 405
        assert request_json(host, port, "PUT", "/scenarios")[0] == 405
        status, body = request_json(host, port, "POST", "/scenarios",
                                    {"models": ["nosuchnet"]})
        assert status == 400
        assert "unknown model" in body["error"]
        # a wrong JSON type is a 400 too, not a dropped connection
        status, body = request_json(host, port, "POST", "/scenarios",
                                    {"seed": None})
        assert status == 400
        assert "seed must be an integer" in body["error"]
        status, body = request_json(
            host, port, "POST",
            f"/scenarios/{smoke['job_id']}/commands", {"op": "warp"})
        assert status == 400
        assert "op must be one of" in body["error"]

    def test_service_rules_apply_at_submit(self, smoke):
        host, port = smoke["host"], smoke["port"]
        status, body = request_json(
            host, port, "POST", "/scenarios",
            dict(SMOKE_SPEC, traffic={"kind": "trace", "path": "t.json"}))
        assert status == 400
        assert "not serveable" in body["error"]
        status, body = request_json(
            host, port, "POST", "/scenarios",
            dict(SMOKE_SPEC, telemetry={"timeline_us": 0}))
        assert status == 400
        assert "timeline_us must be positive" in body["error"]
        # no timeline interval: the observatory still streams, on a
        # default window
        spec = {key: value for key, value in SMOKE_SPEC.items()
                if key != "telemetry"}
        status, body = request_json(host, port, "POST", "/scenarios", spec)
        assert status == 201
        job = smoke["server"].observatory.get(body["id"])
        assert job.spec.telemetry.timeline_interval_us == DEFAULT_TIMELINE_US

    def test_bad_scenario_fails_job_not_service(self, smoke):
        # a spec that validates but cannot build: the job fails, the
        # service stays up, and the stream delivers the error terminally
        status, body = request_json(
            smoke["host"], smoke["port"], "POST", "/scenarios",
            dict(SMOKE_SPEC, fleet="M:1", control={"interval_us": 200,
                                                   "autoscale": "1:9"}))
        if status != 201:
            pytest.skip("autoscale bounds validated at submit")
        client = WebSocketClient(smoke["host"], smoke["port"],
                                 f"/scenarios/{body['id']}/stream")
        messages = list(client.messages())
        client.close()
        assert messages[-1]["type"] in ("report", "error")
        # whatever the outcome, the service still answers
        assert request_json(smoke["host"], smoke["port"], "GET",
                            "/healthz")[0] == 200
