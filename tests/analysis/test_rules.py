"""Per-rule firing and non-firing fixtures.

Every rule id has at least one fixture that fires it and one that stays
clean, so a rule that silently stops matching (or starts over-matching)
fails here rather than in review.
"""

from tests.analysis.conftest import rule_ids


class TestRPL101NondeterministicCall:
    def test_fires_on_random_import_in_simulator_scope(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/clock.py",
            "import random\n",
            select=["RPL101"],
        )
        assert rule_ids(report) == ["RPL101"]

    def test_fires_on_wall_clock_call(self, lint_fixture):
        report = lint_fixture(
            "repro/memory/timing.py",
            """
            import time as _t

            def now():
                return _t.time()
            """,
            select=["RPL101"],
        )
        # One finding for the import, one for the call.
        assert rule_ids(report) == ["RPL101", "RPL101"]

    def test_clean_outside_simulator_scope(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/shuffle.py",
            "import random\n",
            select=["RPL101"],
        )
        assert report.ok

    def test_clean_simulator_module_without_nondeterminism(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/alu.py",
            "def add(a, b):\n    return a + b\n",
            select=["RPL101"],
        )
        assert report.ok


class TestRPL102SetIteration:
    def test_fires_on_bare_set_iteration(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/wake.py",
            """
            ready = {3, 1, 2}

            def drain():
                for seq in ready:
                    print(seq)
            """,
            select=["RPL102"],
        )
        assert rule_ids(report) == ["RPL102"]

    def test_clean_when_sorted(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/wake.py",
            """
            ready = {3, 1, 2}

            def drain():
                for seq in sorted(ready):
                    print(seq)
            """,
            select=["RPL102"],
        )
        assert report.ok


class TestRPL103IdOrdering:
    def test_fires_on_id_call(self, lint_fixture):
        report = lint_fixture(
            "repro/doppelganger/table.py",
            """
            def key_for(uop):
                return id(uop)
            """,
            select=["RPL103"],
        )
        assert rule_ids(report) == ["RPL103"]

    def test_fires_on_sort_key_id(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/queue.py",
            """
            def order(uops):
                return sorted(uops, key=id)
            """,
            select=["RPL103"],
        )
        assert rule_ids(report) == ["RPL103"]

    def test_clean_on_seq_ordering(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/queue.py",
            """
            def order(uops):
                return sorted(uops, key=lambda u: u.seq)
            """,
            select=["RPL103"],
        )
        assert report.ok


class TestRPL201FingerprintCompleteness:
    def test_fires_when_exclusion_constant_missing(self, lint_fixture):
        report = lint_fixture(
            "repro/common/config.py",
            """
            from dataclasses import asdict

            def config_fingerprint(config):
                payload = asdict(config)
                payload.pop("guardrails", None)
                return str(payload)
            """,
            select=["RPL201"],
        )
        assert rule_ids(report) == ["RPL201"]
        assert "FINGERPRINT_EXCLUDED_FIELDS" in report.findings[0].message

    def test_fires_on_unsanctioned_pop(self, lint_fixture):
        report = lint_fixture(
            "repro/common/config.py",
            """
            from dataclasses import asdict

            FINGERPRINT_EXCLUDED_FIELDS = frozenset()

            def config_fingerprint(config):
                payload = asdict(config)
                payload.pop("guardrails", None)
                return str(payload)
            """,
            select=["RPL201"],
        )
        assert rule_ids(report) == ["RPL201"]
        assert "guardrails" in report.findings[0].message

    def test_fires_on_stale_exclusion_entry(self, lint_fixture):
        report = lint_fixture(
            "repro/common/config.py",
            """
            from dataclasses import asdict

            FINGERPRINT_EXCLUDED_FIELDS = frozenset({"guardrails", "ghost"})

            def config_fingerprint(config):
                payload = asdict(config)
                payload.pop("guardrails", None)
                return str(payload)
            """,
            select=["RPL201"],
        )
        assert rule_ids(report) == ["RPL201"]
        assert "ghost" in report.findings[0].message

    def test_fires_on_hand_built_payload(self, lint_fixture):
        report = lint_fixture(
            "repro/common/config.py",
            """
            FINGERPRINT_EXCLUDED_FIELDS = frozenset()

            def config_fingerprint(config):
                payload = {"core": config.core}
                return str(payload)
            """,
            select=["RPL201"],
        )
        assert rule_ids(report) == ["RPL201"]

    def test_fires_on_exclusion_of_nonexistent_field(self, lint_fixture):
        report = lint_fixture(
            "repro/common/config.py",
            """
            from dataclasses import asdict, dataclass

            @dataclass
            class SystemConfig:
                core: int = 0
                guardrails: int = 0

            FINGERPRINT_EXCLUDED_FIELDS = frozenset({"guardrails", "bogus"})

            def config_fingerprint(config):
                payload = asdict(config)
                payload.pop("guardrails", None)
                payload.pop("bogus", None)
                return str(payload)
            """,
            select=["RPL201"],
        )
        assert rule_ids(report) == ["RPL201"]
        assert "bogus" in report.findings[0].message

    def test_clean_when_pops_and_exclusions_agree(self, lint_fixture):
        report = lint_fixture(
            "repro/common/config.py",
            """
            from dataclasses import asdict

            FINGERPRINT_EXCLUDED_FIELDS = frozenset({"guardrails"})

            def config_fingerprint(config):
                payload = asdict(config)
                payload.pop("guardrails", None)
                return str(payload)
            """,
            select=["RPL201"],
        )
        assert report.ok

    def test_not_triggered_without_fingerprint_function(self, lint_fixture):
        report = lint_fixture(
            "repro/common/other.py",
            "def unrelated():\n    return 1\n",
            select=["RPL201"],
        )
        assert report.ok


class TestRPL301TypedErrors:
    def test_fires_on_builtin_raise(self, lint_fixture):
        report = lint_fixture(
            "repro/memory/cache.py",
            """
            def check(ways):
                if ways < 1:
                    raise ValueError("need ways")
            """,
            select=["RPL301"],
        )
        assert rule_ids(report) == ["RPL301"]

    def test_clean_on_repro_error_subclass(self, lint_fixture):
        report = lint_fixture(
            "repro/memory/cache.py",
            """
            from repro.common.errors import ConfigError

            def check(ways):
                if ways < 1:
                    raise ConfigError("need ways")
            """,
            select=["RPL301"],
        )
        assert report.ok

    def test_clean_on_local_subclass_and_reraise(self, lint_fixture):
        report = lint_fixture(
            "repro/memory/cache.py",
            """
            from repro.common.errors import ReproError

            class CacheError(ReproError):
                pass

            def check(ways):
                try:
                    if ways < 1:
                        raise CacheError("need ways")
                except CacheError:
                    raise
            """,
            select=["RPL301"],
        )
        assert report.ok


class TestRPL401Layering:
    def test_fires_on_scheme_importing_pipeline(self, lint_fixture):
        report = lint_fixture(
            "repro/schemes/sneaky.py",
            "from repro.pipeline.uop import MicroOp\n",
            select=["RPL401"],
        )
        assert rule_ids(report) == ["RPL401"]

    def test_fires_on_memory_importing_pipeline(self, lint_fixture):
        report = lint_fixture(
            "repro/memory/driver.py",
            "from repro.pipeline.core import Core\n",
            select=["RPL401"],
        )
        assert rule_ids(report) == ["RPL401"]

    def test_fires_on_core_importing_guardrails(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/core2.py",
            "from repro.guardrails.watchdog import Watchdog\n",
            select=["RPL401"],
        )
        assert rule_ids(report) == ["RPL401"]

    def test_schemes_base_is_exempt(self, lint_fixture):
        report = lint_fixture(
            "repro/schemes/base.py",
            "from repro.pipeline.uop import MicroOp\n",
            select=["RPL401"],
        )
        assert report.ok

    def test_type_checking_imports_are_exempt(self, lint_fixture):
        report = lint_fixture(
            "repro/schemes/typed.py",
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.pipeline.core import Core
            """,
            select=["RPL401"],
        )
        assert report.ok


class TestRPL501PicklableSubmit:
    def test_fires_on_lambda_submit(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/pool.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def sweep(jobs):
                with ProcessPoolExecutor() as pool:
                    return pool.submit(lambda: 1).result()
            """,
            select=["RPL501"],
        )
        assert rule_ids(report) == ["RPL501"]

    def test_fires_on_nested_function_submit(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/pool.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def sweep(jobs):
                def work(job):
                    return job
                with ProcessPoolExecutor() as pool:
                    return pool.submit(work, jobs[0]).result()
            """,
            select=["RPL501"],
        )
        assert rule_ids(report) == ["RPL501"]

    def test_fires_on_bound_method_submit(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/pool.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            class Runner:
                def work(self, job):
                    return job

                def sweep(self, jobs):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(self.work, jobs[0]).result()
            """,
            select=["RPL501"],
        )
        assert rule_ids(report) == ["RPL501"]

    def test_clean_on_module_level_worker(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/pool.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def work(job):
                return job

            def sweep(jobs):
                with ProcessPoolExecutor() as pool:
                    return pool.submit(work, jobs[0]).result()
            """,
            select=["RPL501"],
        )
        assert report.ok

    def test_inactive_without_process_pool(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/pool.py",
            """
            from concurrent.futures import ThreadPoolExecutor

            def sweep(jobs):
                with ThreadPoolExecutor() as pool:
                    return pool.submit(lambda: 1).result()
            """,
            select=["RPL501"],
        )
        assert report.ok


class TestRPL502WorkerGlobalMutation:
    _PREAMBLE = """
        from concurrent.futures import ProcessPoolExecutor

        _CACHE = {}

        def sweep(jobs):
            with ProcessPoolExecutor() as pool:
                return [pool.submit(work, job).result() for job in jobs]
    """

    def test_fires_on_subscript_write(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/pool.py",
            self._PREAMBLE
            + """
        def work(job):
            _CACHE[job] = 1
            return job
            """,
            select=["RPL502"],
        )
        assert rule_ids(report) == ["RPL502"]

    def test_fires_on_global_statement(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/pool.py",
            self._PREAMBLE
            + """
        def work(job):
            global _CACHE
            _CACHE = {}
            return job
            """,
            select=["RPL502"],
        )
        assert "RPL502" in rule_ids(report)

    def test_fires_on_mutator_call(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/pool.py",
            self._PREAMBLE
            + """
        def work(job):
            _CACHE.update({job: 1})
            return job
            """,
            select=["RPL502"],
        )
        assert rule_ids(report) == ["RPL502"]

    def test_clean_on_pure_worker(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/pool.py",
            self._PREAMBLE
            + """
        def work(job):
            local = {}
            local[job] = 1
            return job
            """,
            select=["RPL502"],
        )
        assert report.ok


class TestRPL601MutableDefault:
    def test_fires_on_list_default(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/collect.py",
            "def gather(item, acc=[]):\n    acc.append(item)\n    return acc\n",
            select=["RPL601"],
        )
        assert rule_ids(report) == ["RPL601"]

    def test_fires_on_dict_call_default(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/collect.py",
            "def gather(item, acc=dict()):\n    return acc\n",
            select=["RPL601"],
        )
        assert rule_ids(report) == ["RPL601"]

    def test_clean_on_none_default(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/collect.py",
            """
            def gather(item, acc=None):
                if acc is None:
                    acc = []
                acc.append(item)
                return acc
            """,
            select=["RPL601"],
        )
        assert report.ok


class TestRPL602UnregisteredStat:
    _STATS = """
        from dataclasses import dataclass

        @dataclass
        class SimStats:
            cycles: int = 0
            l1_hits: int = 0
    """

    def test_fires_on_typoed_counter(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/count.py",
            self._STATS
            + """
        class Core:
            def step(self):
                self.stats.l1_hitz += 1
            """,
            select=["RPL602"],
        )
        assert rule_ids(report) == ["RPL602"]
        assert "l1_hitz" in report.findings[0].message

    def test_clean_on_declared_counter(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/count.py",
            self._STATS
            + """
        class Core:
            def step(self):
                self.stats.l1_hits += 1
            """,
            select=["RPL602"],
        )
        assert report.ok

    def test_uses_live_simstats_without_local_class(self, lint_fixture):
        report = lint_fixture(
            "repro/pipeline/count.py",
            """
            class Core:
                def step(self):
                    self.stats.committed_instructions += 1
                    self.stats.committed_instructionz += 1
            """,
            select=["RPL602"],
        )
        assert rule_ids(report) == ["RPL602"]
        assert "committed_instructionz" in report.findings[0].message


class TestRPL801NonAtomicJsonWrite:
    def test_fires_on_open_plus_json_dump(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/manifest.py",
            """
            import json

            def write(path, payload):
                with open(path, "w") as handle:
                    json.dump(payload, handle)
            """,
            select=["RPL801"],
        )
        assert rule_ids(report) == ["RPL801"]
        assert "atomic_write_json" in report.findings[0].message

    def test_fires_on_write_text_of_dumps(self, lint_fixture):
        report = lint_fixture(
            "repro/fuzz/repro_files.py",
            """
            import json

            def save(path, payload):
                path.write_text(json.dumps(payload, indent=2))
            """,
            select=["RPL801"],
        )
        assert rule_ids(report) == ["RPL801"]

    def test_clean_with_temp_and_os_replace(self, lint_fixture):
        report = lint_fixture(
            "repro/guardrails/dumps.py",
            """
            import json
            import os

            def write(path, payload):
                tmp = str(path) + ".tmp"
                with open(tmp, "w") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, path)
            """,
            select=["RPL801"],
        )
        assert report.ok

    def test_clean_with_path_replace(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/manifest.py",
            """
            import json

            def write(path, tmp, payload):
                tmp.write_text(json.dumps(payload))
                tmp.replace(path)
            """,
            select=["RPL801"],
        )
        assert report.ok

    def test_str_replace_is_not_an_exemption(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/manifest.py",
            """
            import json

            def write(path, payload):
                name = str(path).replace(".json", ".out")
                with open(name, "w") as handle:
                    json.dump(payload, handle)
            """,
            select=["RPL801"],
        )
        assert rule_ids(report) == ["RPL801"]

    def test_scoped_to_persistent_packages(self, lint_fixture):
        report = lint_fixture(
            "repro/analysis/export.py",
            """
            import json

            def write(path, payload):
                with open(path, "w") as handle:
                    json.dump(payload, handle)
            """,
            select=["RPL801"],
        )
        assert report.ok

    def test_rename_in_another_function_does_not_excuse(self, lint_fixture):
        report = lint_fixture(
            "repro/harness/manifest.py",
            """
            import json
            import os

            def atomic(path, tmp):
                os.replace(tmp, path)

            def sloppy(path, payload):
                with open(path, "w") as handle:
                    json.dump(payload, handle)
            """,
            select=["RPL801"],
        )
        assert rule_ids(report) == ["RPL801"]

