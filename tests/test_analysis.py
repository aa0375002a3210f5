"""Tests of the invariant linter (:mod:`repro.analysis`, ``repro lint``).

Every rule gets a paired good/bad fixture: the bad snippet fails without
the rule (each test asserts the specific rule id and line), the good
snippet pins the sanctioned idiom the rule must keep accepting.  On top
of the rules: inline suppression semantics, baseline round-trip and
staleness, the ``--format json`` schema, the ``--stats`` counters, and
the self-check — today's ``src/`` lints clean against the committed
baseline, which is the tier-1 teeth of the whole subsystem.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import (
    ALL_RULES,
    Finding,
    find_baseline,
    iter_python_files,
    lint_file,
    lint_stats,
    load_baseline,
    path_matches,
    render_json,
    render_text,
    run_lint,
    save_baseline,
    scan_suppressions,
    select_rules,
)
from repro.analysis.rules.asyncsafety import BlockingAsyncRule
from repro.analysis.rules.envgate import EnvGateRule
from repro.analysis.rules.identity import IdentityKeyRule
from repro.analysis.rules.ordering import OrderedIterationRule
from repro.analysis.rules.purity import TelemetryPurityRule
from repro.analysis.rules.rng import UnseededRngRule
from repro.analysis.rules.sums import SequentialSumRule
from repro.analysis.rules.wallclock import WallClockRule

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def lint_snippet(tmp_path, rel_path, source, rules=ALL_RULES):
    """Write ``source`` at ``tmp_path/rel_path`` and lint that one file."""
    path = tmp_path / rel_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(str(path), rel_path, rules)


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------

class TestWallClockRule:
    def test_bad_time_time_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/sim/x.py", """\
            import time
            def stamp():
                return time.time()
            """, [WallClockRule])
        assert rule_ids(active) == ["wall-clock"]
        assert active[0].line == 3

    def test_bad_aliased_perf_counter_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/sim/x.py", """\
            from time import perf_counter as pc
            t = pc()
            """, [WallClockRule])
        assert rule_ids(active) == ["wall-clock"]

    def test_bad_datetime_now_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/sim/x.py", """\
            import datetime
            stamp = datetime.datetime.now()
            """, [WallClockRule])
        assert rule_ids(active) == ["wall-clock"]

    def test_good_simulated_time_clean(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/sim/x.py", """\
            def advance(clock, dt):
                return clock + dt
            """, [WallClockRule])
        assert active == []

    def test_benchmarks_excluded(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "benchmarks/run_bench.py", """\
            import time
            t0 = time.perf_counter()
            """, [WallClockRule])
        assert active == []


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------

class TestUnseededRngRule:
    def test_bad_global_numpy_draw_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            import numpy as np
            x = np.random.rand(3)
            """, [UnseededRngRule])
        assert rule_ids(active) == ["unseeded-rng"]

    def test_bad_unseeded_default_rng_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            import numpy as np
            rng = np.random.default_rng()
            """, [UnseededRngRule])
        assert rule_ids(active) == ["unseeded-rng"]

    def test_bad_stdlib_random_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            import random
            x = random.random()
            """, [UnseededRngRule])
        assert rule_ids(active) == ["unseeded-rng"]

    def test_good_seeded_default_rng_clean(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            import numpy as np
            rng = np.random.default_rng(123)
            seq = np.random.SeedSequence(7)
            r = np.random.Generator(np.random.PCG64(seq))
            """, [UnseededRngRule])
        assert active == []

    def test_good_generator_argument_draw_clean(self, tmp_path):
        # draws from a passed-in generator are the sanctioned idiom
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            def mutate(genome, rng):
                return rng.random() < 0.5
            """, [UnseededRngRule])
        assert active == []


# ----------------------------------------------------------------------
# ordered-iteration
# ----------------------------------------------------------------------

class TestOrderedIterationRule:
    def test_bad_set_literal_loop_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/x.py", """\
            for chip in {1, 2, 3}:
                print(chip)
            """, [OrderedIterationRule])
        assert rule_ids(active) == ["ordered-iteration"]

    def test_bad_set_call_comprehension_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/search/x.py", """\
            def collect(items):
                return [x for x in set(items)]
            """, [OrderedIterationRule])
        assert rule_ids(active) == ["ordered-iteration"]

    def test_bad_keys_iteration_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/perf/x.py", """\
            def walk(table):
                for k in table.keys():
                    print(k)
            """, [OrderedIterationRule])
        assert rule_ids(active) == ["ordered-iteration"]

    def test_good_sorted_iteration_clean(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/x.py", """\
            def drain(inflight, table):
                for req in sorted(inflight):
                    print(req)
                for k in table:
                    print(k)
            """, [OrderedIterationRule])
        assert active == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            for chip in {1, 2, 3}:
                print(chip)
            """, [OrderedIterationRule])
        assert active == []


# ----------------------------------------------------------------------
# identity-key
# ----------------------------------------------------------------------

class TestIdentityKeyRule:
    def test_bad_id_in_sort_key_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/sim/x.py", """\
            def order(events):
                return sorted(events, key=lambda e: id(e))
            """, [IdentityKeyRule])
        assert rule_ids(active) == ["identity-key"]

    def test_bad_hash_in_heap_tuple_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/sim/x.py", """\
            import heapq
            def push(heap, event):
                heapq.heappush(heap, (event.at, hash(event), event))
            """, [IdentityKeyRule])
        assert rule_ids(active) == ["identity-key"]

    def test_bad_id_in_list_sort_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/sim/x.py", """\
            def order(events):
                events.sort(key=lambda e: (e.at, id(e)))
            """, [IdentityKeyRule])
        assert rule_ids(active) == ["identity-key"]

    def test_good_stable_field_key_clean(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/sim/x.py", """\
            import heapq
            def push(heap, event):
                heapq.heappush(heap, (event.at, event.chip_index, event))
            def order(events):
                return sorted(events, key=lambda e: e.chip_index)
            """, [IdentityKeyRule])
        assert active == []

    def test_good_id_outside_ordering_clean(self, tmp_path):
        # id() as a cache key is fine — only ordering positions are flagged
        active, _ = lint_snippet(tmp_path, "repro/sim/x.py", """\
            def memo(cache, node):
                cache[id(node)] = node
            """, [IdentityKeyRule])
        assert active == []


# ----------------------------------------------------------------------
# sequential-sum
# ----------------------------------------------------------------------

class TestSequentialSumRule:
    def test_bad_np_sum_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            import numpy as np
            def fitness(parts):
                return np.sum(parts)
            """, [SequentialSumRule])
        assert rule_ids(active) == ["sequential-sum"]

    def test_bad_method_sum_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/perf/x.py", """\
            def total(spans):
                return spans.sum()
            """, [SequentialSumRule])
        assert rule_ids(active) == ["sequential-sum"]

    def test_bad_fsum_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/search/x.py", """\
            import math
            def total(parts):
                return math.fsum(parts)
            """, [SequentialSumRule])
        assert rule_ids(active) == ["sequential-sum"]

    def test_good_int_wrapped_count_clean(self, tmp_path):
        # the house idiom: int(...) documents "this is a count"
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            def live(mask):
                return int(mask.sum())
            """, [SequentialSumRule])
        assert active == []

    def test_good_python_sum_loop_clean(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            def fitness(parts):
                total = 0.0
                for part in parts:
                    total += part
                return total
            """, [SequentialSumRule])
        assert active == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/x.py", """\
            import numpy as np
            total = np.sum([1.0, 2.0])
            """, [SequentialSumRule])
        assert active == []


# ----------------------------------------------------------------------
# telemetry-purity
# ----------------------------------------------------------------------

class TestTelemetryPurityRule:
    def test_bad_foreign_attribute_write_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            def observe(sim):
                sim.finished = True
            """, [TelemetryPurityRule])
        assert rule_ids(active) == ["telemetry-purity"]
        assert "'sim'" in active[0].message

    def test_bad_foreign_subscript_write_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/telemetry.py", """\
            def record(fleet):
                fleet.slots[0] = None
            """, [TelemetryPurityRule])
        assert rule_ids(active) == ["telemetry-purity"]

    def test_bad_foreign_annotated_type_flagged(self, tmp_path):
        # annotated with a type from *outside* the service package: foreign
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            from repro.serve.simulator import ServingSimulator
            def poke(sim: ServingSimulator):
                sim.now = 0.0
            """, [TelemetryPurityRule])
        assert rule_ids(active) == ["telemetry-purity"]

    def test_good_self_state_clean(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            class Tracker:
                def observe(self, sim):
                    self.last = sim.now
            """, [TelemetryPurityRule])
        assert active == []

    def test_good_rebound_local_copy_clean(self, tmp_path):
        # the copy idiom: rebinding the parameter makes it own state
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            def enrich(block):
                block = dict(block)
                block["extra"] = 1
                return block
            """, [TelemetryPurityRule])
        assert active == []

    def test_good_own_module_class_clean(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            class Job:
                pass
            def advance(job: Job):
                job.state = "running"
            """, [TelemetryPurityRule])
        assert active == []

    def test_good_service_package_class_clean(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            from repro.serve.service.broadcast import Subscription
            def drop(subscription: Subscription):
                subscription.dropped = 0
            """, [TelemetryPurityRule])
        assert active == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/fleet.py", """\
            def place(fleet):
                fleet.plan = None
            """, [TelemetryPurityRule])
        assert active == []


# ----------------------------------------------------------------------
# blocking-async
# ----------------------------------------------------------------------

class TestBlockingAsyncRule:
    def test_bad_time_sleep_in_coroutine_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            import time
            async def handler():
                time.sleep(1)
            """, [BlockingAsyncRule])
        assert rule_ids(active) == ["blocking-async"]

    def test_bad_bare_queue_get_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            async def pump(q):
                item = q.get()
            """, [BlockingAsyncRule])
        assert rule_ids(active) == ["blocking-async"]

    def test_bad_open_in_coroutine_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            async def dump(path):
                with open(path) as handle:
                    return handle.read()
            """, [BlockingAsyncRule])
        assert rule_ids(active) == ["blocking-async"]

    def test_good_awaited_get_clean(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            async def pump(q):
                item = await q.get()
            """, [BlockingAsyncRule])
        assert active == []

    def test_good_scheduled_get_clean(self, tmp_path):
        # coroutine handed to ensure_future, not called blocking
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            import asyncio
            async def pump(subscription):
                getter = asyncio.ensure_future(subscription.get())
                await getter
            """, [BlockingAsyncRule])
        assert active == []

    def test_good_sync_function_ignored(self, tmp_path):
        # worker threads are allowed to block; only coroutines are scoped
        active, _ = lint_snippet(tmp_path, "repro/serve/service/x.py", """\
            import time
            def worker(q):
                time.sleep(1)
                return q.get()
            """, [BlockingAsyncRule])
        assert active == []


# ----------------------------------------------------------------------
# env-gate
# ----------------------------------------------------------------------

class TestEnvGateRule:
    def test_bad_getenv_outside_envflags_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            import os
            quick = os.getenv("REPRO_BENCH_QUICK")
            """, [EnvGateRule])
        assert rule_ids(active) == ["env-gate"]
        assert "REPRO_BENCH_QUICK" in active[0].message

    def test_bad_environ_subscript_flagged(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            import os
            quick = os.environ["REPRO_BENCH_QUICK"]
            """, [EnvGateRule])
        assert rule_ids(active) == ["env-gate"]

    def test_envflags_module_may_read(self, tmp_path):
        (tmp_path / "ROADMAP.md").write_text(
            "| `REPRO_DEMO` | off | demo flag |\n")
        active, _ = lint_snippet(tmp_path, "src/repro/envflags.py", """\
            import os
            def demo():
                return os.environ.get("REPRO_DEMO", "0")
            """, [EnvGateRule])
        assert active == []

    def test_undocumented_flag_in_envflags_flagged(self, tmp_path):
        (tmp_path / "ROADMAP.md").write_text(
            "| `REPRO_DEMO` | off | demo flag |\n")
        active, _ = lint_snippet(tmp_path, "src/repro/envflags.py", """\
            import os
            def rogue():
                return os.environ.get("REPRO_UNDOCUMENTED", "0")
            """, [EnvGateRule])
        assert rule_ids(active) == ["env-gate"]
        assert "REPRO_UNDOCUMENTED" in active[0].message

    def test_repo_envflags_matches_roadmap_table(self):
        # the live doc-sync check against the real ROADMAP.md
        from repro.analysis.rules.envgate import roadmap_env_table
        from repro.envflags import REGISTERED_NAMES
        documented = roadmap_env_table(REPO_ROOT)
        assert documented is not None
        missing = set(REGISTERED_NAMES) - documented
        assert not missing, f"flags undocumented in ROADMAP.md: {missing}"
        # and the other way: a retired flag takes its table row with it
        stale = documented - set(REGISTERED_NAMES)
        assert not stale, f"ROADMAP.md documents unregistered flags: {stale}"


# ----------------------------------------------------------------------
# engine: scoping, suppression, parse errors, file iteration
# ----------------------------------------------------------------------

class TestEngine:
    def test_path_matches_directory_and_file_patterns(self):
        assert path_matches("src/repro/serve/fleet.py", ["repro/serve"])
        assert path_matches("repro/serve/service/x.py", ["repro/serve"])
        assert not path_matches("src/repro/core/ga.py", ["repro/serve"])
        assert path_matches("src/repro/serve/telemetry.py",
                            ["repro/serve/telemetry.py"])
        assert not path_matches("src/repro/serve/fleet.py",
                                ["repro/serve/telemetry.py"])

    def test_line_suppression(self, tmp_path):
        active, suppressed = lint_snippet(tmp_path, "repro/core/x.py", """\
            import numpy as np
            rng = np.random.default_rng()  # repro-lint: disable=unseeded-rng
            """, [UnseededRngRule])
        assert active == []
        assert rule_ids(suppressed) == ["unseeded-rng"]

    def test_line_suppression_is_rule_specific(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py", """\
            import numpy as np
            rng = np.random.default_rng()  # repro-lint: disable=wall-clock
            """, [UnseededRngRule])
        assert rule_ids(active) == ["unseeded-rng"]

    def test_file_suppression(self, tmp_path):
        active, suppressed = lint_snippet(tmp_path, "repro/core/x.py", """\
            # repro-lint: disable-file=unseeded-rng
            import numpy as np
            a = np.random.default_rng()
            b = np.random.default_rng()
            """, [UnseededRngRule])
        assert active == []
        assert len(suppressed) == 2

    def test_disable_all_suppression(self, tmp_path):
        active, suppressed = lint_snippet(tmp_path, "repro/core/x.py", """\
            import time
            t = time.time()  # repro-lint: disable=all
            """, [WallClockRule])
        assert active == []
        assert rule_ids(suppressed) == ["wall-clock"]

    def test_scan_suppressions(self):
        per_line, file_level = scan_suppressions(
            "# repro-lint: disable-file=wall-clock\n"
            "x = 1  # repro-lint: disable=unseeded-rng,env-gate\n")
        assert file_level == {"wall-clock"}
        assert per_line == {2: {"unseeded-rng", "env-gate"}}

    def test_parse_error_reported(self, tmp_path):
        active, _ = lint_snippet(tmp_path, "repro/core/x.py",
                                 "def broken(:\n", ALL_RULES)
        assert rule_ids(active) == ["parse-error"]

    def test_iter_python_files_sorted_and_deduped(self, tmp_path):
        for name in ("b.py", "a.py", "c.txt"):
            (tmp_path / name).write_text("x = 1\n")
        sub = tmp_path / "__pycache__"
        sub.mkdir()
        (sub / "a.cpython-311.pyc.py").write_text("x = 1\n")
        files = list(iter_python_files([str(tmp_path), str(tmp_path / "a.py")]))
        assert files == [str(tmp_path / "a.py"), str(tmp_path / "b.py")]

    def test_select_rules_unknown_id_raises(self):
        with pytest.raises(ValueError):
            select_rules(["no-such-rule"])
        (selected,) = select_rules(["wall-clock"])
        assert selected is WallClockRule


# ----------------------------------------------------------------------
# baseline round-trip
# ----------------------------------------------------------------------

class TestBaseline:
    def _seed_file(self, tmp_path):
        path = tmp_path / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text("import numpy as np\n"
                        "a = np.random.default_rng()\n"
                        "b = np.random.default_rng()\n")
        return path

    def test_round_trip_consumes_findings(self, tmp_path):
        self._seed_file(tmp_path)
        first = run_lint([str(tmp_path)], [UnseededRngRule], root=str(tmp_path))
        assert len(first.reported) == 2

        baseline_path = tmp_path / "lint_baseline.json"
        save_baseline(str(baseline_path), first.reported)
        loaded = load_baseline(str(baseline_path))
        assert sum(loaded.values()) == 2

        second = run_lint([str(tmp_path)], [UnseededRngRule],
                          root=str(tmp_path), baseline=loaded)
        assert second.reported == []
        assert len(second.baselined) == 2
        assert second.stale_baseline == []

    def test_baseline_tolerates_line_drift(self, tmp_path):
        path = self._seed_file(tmp_path)
        first = run_lint([str(tmp_path)], [UnseededRngRule], root=str(tmp_path))
        baseline_path = tmp_path / "lint_baseline.json"
        save_baseline(str(baseline_path), first.reported)

        # unrelated edit above the findings shifts every line number
        path.write_text("import numpy as np\n\n\n"
                        "a = np.random.default_rng()\n"
                        "b = np.random.default_rng()\n")
        again = run_lint([str(tmp_path)], [UnseededRngRule],
                         root=str(tmp_path),
                         baseline=load_baseline(str(baseline_path)))
        assert again.reported == []
        assert len(again.baselined) == 2

    def test_stale_entries_surface(self, tmp_path):
        path = self._seed_file(tmp_path)
        first = run_lint([str(tmp_path)], [UnseededRngRule], root=str(tmp_path))
        baseline_path = tmp_path / "lint_baseline.json"
        save_baseline(str(baseline_path), first.reported)

        path.write_text("import numpy as np\n"
                        "a = np.random.default_rng(0)\n"
                        "b = np.random.default_rng(1)\n")  # both fixed
        again = run_lint([str(tmp_path)], [UnseededRngRule],
                         root=str(tmp_path),
                         baseline=load_baseline(str(baseline_path)))
        assert again.reported == []
        assert again.baselined == []
        assert len(again.stale_baseline) == 1  # one key, count 2 unconsumed

    def test_new_finding_still_reports_past_baseline(self, tmp_path):
        self._seed_file(tmp_path)
        first = run_lint([str(tmp_path)], [UnseededRngRule], root=str(tmp_path))
        baseline_path = tmp_path / "lint_baseline.json"
        # grandfather only ONE of the two identical findings
        save_baseline(str(baseline_path), first.reported[:1])
        again = run_lint([str(tmp_path)], [UnseededRngRule],
                         root=str(tmp_path),
                         baseline=load_baseline(str(baseline_path)))
        assert len(again.baselined) == 1
        assert len(again.reported) == 1

    def test_find_baseline_walks_up(self, tmp_path):
        (tmp_path / "lint_baseline.json").write_text(
            json.dumps({"version": 1, "findings": []}))
        nested = tmp_path / "src" / "repro"
        nested.mkdir(parents=True)
        assert find_baseline(str(nested)) == str(tmp_path / "lint_baseline.json")
        assert load_baseline(find_baseline(str(nested))) == {}

    def test_load_rejects_wrong_version(self, tmp_path):
        bad = tmp_path / "lint_baseline.json"
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            load_baseline(str(bad))


# ----------------------------------------------------------------------
# reporting: text, JSON schema, stats table
# ----------------------------------------------------------------------

class TestReporting:
    def _run(self, tmp_path):
        path = tmp_path / "repro" / "core" / "x.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import numpy as np\n"
            "a = np.random.default_rng()\n"
            "b = np.random.default_rng()  # repro-lint: disable=unseeded-rng\n")
        return run_lint([str(tmp_path)], ALL_RULES, root=str(tmp_path))

    def test_render_text_format(self, tmp_path):
        text = render_text(self._run(tmp_path))
        assert "repro/core/x.py:2: [unseeded-rng]" in text
        assert "1 finding(s) in 1 file(s) (0 baselined, 1 suppressed inline)" \
            in text

    def test_render_json_schema(self, tmp_path):
        payload = json.loads(render_json(self._run(tmp_path)))
        assert payload["version"] == 1
        assert payload["files"] == 1
        assert set(payload) == {"version", "files", "findings", "baselined",
                                "suppressed", "stale_baseline", "stats"}
        (finding,) = payload["findings"]
        assert set(finding) == {"file", "line", "rule", "message"}
        assert finding["rule"] == "unseeded-rng"
        assert finding["file"] == "repro/core/x.py"
        assert payload["stats"]["unseeded-rng.reported"] == 1
        assert payload["stats"]["total.suppressed"] == 1

    def test_stats_rows_and_dict(self, tmp_path):
        stats = lint_stats(self._run(tmp_path), ALL_RULES)
        # fixed row set: every rule prints a row even at zero findings
        assert [row["rule"] for row in stats.rows] == \
            [cls.rule_id for cls in ALL_RULES]
        by_rule = {row["rule"]: row for row in stats.rows}
        assert by_rule["unseeded-rng"] == {
            "rule": "unseeded-rng", "findings": 2, "baselined": 0,
            "suppressed": 1, "reported": 1}
        flat = stats.as_dict()
        assert flat["total.findings"] == 2
        rendered = stats.render()
        assert "unseeded-rng" in rendered and "total" in rendered

    def test_findings_are_deterministically_ordered(self, tmp_path):
        run = self._run(tmp_path)
        assert run.reported == sorted(run.reported)
        assert isinstance(run.reported[0], Finding)


# ----------------------------------------------------------------------
# the teeth: today's src/ lints clean (tier-1)
# ----------------------------------------------------------------------

class TestRepoIsClean:
    def test_src_lints_clean_against_committed_baseline(self):
        src = os.path.join(REPO_ROOT, "src")
        baseline = load_baseline(
            os.path.join(REPO_ROOT, "lint_baseline.json"))
        run = run_lint([src], ALL_RULES, root=REPO_ROOT, baseline=baseline)
        assert run.files > 50
        assert run.reported == [], render_text(run)
        # the committed baseline must not hold stale (already-fixed) entries
        assert run.stale_baseline == []
