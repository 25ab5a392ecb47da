"""Fault-tolerant sweep tests: hung workers, crashed workers, bounded
retry, deterministic-failure semantics, and the failure manifest.

Workers are forked, so a monkeypatched ``run_benchmark`` inside
``repro.harness.parallel`` propagates into the pool — each test swaps in
a stub that is instant for healthy pairs and hangs/crashes/raises for a
designated victim.  ``mp_context="fork"`` is pinned explicitly so the
tests fail loudly rather than silently change meaning if the platform
default ever moves.
"""

import json
import os
import time

import pytest

from repro.common.errors import (
    EmptyMeasurementError,
    JobTimeoutError,
    WorkerCrashError,
)
from repro.common.stats import RunResult, SimStats
from repro.harness import parallel
from repro.harness.jobs import FAILURE_MANIFEST_NAME
from repro.harness.parallel import ParallelSession, SweepJob, execute_job

BENCHMARKS = ("mcf", "hmmer", "lbm")


def fake_result(benchmark, scheme):
    stats = SimStats()
    stats.committed_instructions = 1000
    stats.cycles = 2000
    return RunResult(benchmark=benchmark, scheme=scheme, stats=stats, metadata={})


def make_session(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("warmup", 10)
    kwargs.setdefault("measure", 10)
    kwargs.setdefault("cache_dir", tmp_path)
    kwargs.setdefault("retry_backoff", 0.05)
    kwargs.setdefault("mp_context", "fork")
    return ParallelSession(**kwargs)


def read_manifest(tmp_path):
    return json.loads((tmp_path / FAILURE_MANIFEST_NAME).read_text())


class TestHungWorker:
    def test_sweep_survives_a_hung_worker(self, tmp_path, monkeypatch):
        """Acceptance: one artificially hung worker — the sweep completes
        the remaining jobs and writes a failure manifest naming it."""

        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            if benchmark == "mcf":
                time.sleep(300)
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        session = make_session(tmp_path, job_timeout=1.5, retries=0)
        results = session.sweep(BENCHMARKS, ("unsafe",), skip_errors=True)

        assert [r.benchmark for r in results] == ["hmmer", "lbm"]
        assert len(session.skipped) == 1
        skip = session.skipped[0]
        assert (skip.benchmark, skip.scheme) == ("mcf", "unsafe")
        assert skip.error_type == "JobTimeoutError"

        manifest = read_manifest(tmp_path)
        assert len(manifest["failures"]) == 1
        record = manifest["failures"][0]
        assert record["benchmark"] == "mcf"
        assert record["error_type"] == "JobTimeoutError"
        assert record["transient"] is True
        assert record["key"][0] == "mcf"

    def test_timeout_raises_typed_error_without_skip(self, tmp_path, monkeypatch):
        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            if benchmark == "mcf":
                time.sleep(300)
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        session = make_session(tmp_path, job_timeout=1.5, retries=0)
        with pytest.raises(JobTimeoutError, match=r"\(mcf, unsafe\)"):
            session.sweep(BENCHMARKS, ("unsafe",))

    def test_hung_run_is_retried_not_replayed(self, tmp_path, monkeypatch):
        """A timeout is transient: the next sweep re-runs the pair instead
        of replaying the memoized failure — and can succeed."""

        marker = tmp_path / "fixed"

        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            if benchmark == "mcf" and not marker.exists():
                time.sleep(300)
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        session = make_session(tmp_path, job_timeout=1.5, retries=0)
        session.sweep(BENCHMARKS, ("unsafe",), skip_errors=True)
        assert session.skipped

        marker.write_text("worker behaves now")
        results = session.sweep(BENCHMARKS, ("unsafe",), skip_errors=True)
        assert [r.benchmark for r in results] == list(BENCHMARKS)
        assert session.failures() == []
        assert read_manifest(tmp_path)["failures"] == []


class TestCrashedWorker:
    def test_sweep_survives_a_dead_worker(self, tmp_path, monkeypatch):
        """A worker that dies breaks the pool; retry waves re-run the
        in-flight jobs so only the deterministic culprit ends up failed."""

        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            if benchmark == "lbm":
                time.sleep(0.5)  # let the healthy jobs finish first
                os._exit(13)
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        session = make_session(tmp_path, retries=2)
        results = session.sweep(BENCHMARKS, ("unsafe",), skip_errors=True)

        assert [r.benchmark for r in results] == ["mcf", "hmmer"]
        crash_skips = [s for s in session.skipped if s.benchmark == "lbm"]
        assert crash_skips and crash_skips[0].error_type == "WorkerCrashError"
        manifest = read_manifest(tmp_path)
        assert any(
            record["benchmark"] == "lbm"
            and record["error_type"] == "WorkerCrashError"
            for record in manifest["failures"]
        )

    def test_crash_raises_typed_error_without_skip(self, tmp_path, monkeypatch):
        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            if benchmark == "lbm":
                time.sleep(0.5)
                os._exit(13)
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        session = make_session(tmp_path, retries=1)
        with pytest.raises(WorkerCrashError, match=r"\(lbm, unsafe\)"):
            session.sweep(BENCHMARKS, ("unsafe",))


class TestRetrySemantics:
    def test_transient_failure_succeeds_on_retry(self, tmp_path, monkeypatch):
        """First attempt blows up with a non-simulator error; the retry
        wave succeeds and no failure is recorded anywhere."""
        flag = tmp_path / "already-failed-once"

        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            if benchmark == "hmmer" and not flag.exists():
                flag.write_text("")
                raise RuntimeError("spurious infrastructure hiccup")
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        session = make_session(tmp_path, jobs=1, retries=1)
        results = session.sweep(BENCHMARKS, ("unsafe",))
        assert [r.benchmark for r in results] == list(BENCHMARKS)
        assert session.skipped == []
        assert session.failures() == []
        assert read_manifest(tmp_path)["failures"] == []

    def test_deterministic_error_is_never_retried(self, tmp_path, monkeypatch):
        calls = []

        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            calls.append(benchmark)
            if benchmark == "hmmer":
                raise EmptyMeasurementError(
                    "program shorter than warmup window",
                    benchmark=benchmark,
                    scheme=scheme,
                )
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        session = make_session(tmp_path, jobs=1, retries=3)
        session.sweep(BENCHMARKS, ("unsafe",), skip_errors=True)
        assert calls.count("hmmer") == 1
        record = next(r for r in session.failures() if r.benchmark == "hmmer")
        assert record.attempts == 1
        assert record.transient is False

    def test_retries_are_bounded(self, tmp_path, monkeypatch):
        calls_log = tmp_path / "calls.log"

        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            with open(calls_log, "a") as handle:
                handle.write(f"{benchmark}\n")
            if benchmark == "hmmer":
                raise RuntimeError("always transient, never lucky")
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        session = make_session(tmp_path, jobs=1, retries=2)
        session.sweep(BENCHMARKS, ("unsafe",), skip_errors=True)
        calls = calls_log.read_text().split()
        assert calls.count("hmmer") == 3  # 1 attempt + 2 retries
        assert calls.count("mcf") == 1  # healthy jobs resolve in wave one
        record = next(r for r in session.failures() if r.benchmark == "hmmer")
        assert record.attempts == 3


class TestExecuteJobInterrupts:
    def test_keyboard_interrupt_returns_transient_payload(self, monkeypatch):
        """Ctrl-C in a worker must come back as data, not unwind the pool
        protocol mid-write — the parent flushes finished results first."""

        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        from repro.common.config import small_config

        payload = execute_job(
            SweepJob.build("mcf", "unsafe", 10, 10, small_config())
        )
        assert payload["ok"] is False
        assert payload["error_type"] == "KeyboardInterrupt"
        assert payload["transient"] is True

    def test_unexpected_exception_returns_transient_payload(self, monkeypatch):
        def stub(benchmark, scheme, config=None, warmup=0, measure=0):
            raise ValueError("simulator bug du jour")

        monkeypatch.setattr(parallel, "run_benchmark", stub)
        from repro.common.config import small_config

        payload = execute_job(
            SweepJob.build("mcf", "unsafe", 10, 10, small_config())
        )
        assert payload["ok"] is False
        assert payload["error_type"] == "ValueError"
        assert payload["transient"] is True


class TestFailuresNeverDiskCached:
    def test_empty_measurement_skip_is_not_disk_cached(self, tmp_path, monkeypatch):
        """Satellite regression: a pair skipped for EmptyMeasurementError
        must leave no cache file, so fixing the workload is picked up by
        the very next session instead of being masked until the cache
        directory is cleared."""

        def broken(benchmark, scheme, config=None, warmup=0, measure=0):
            if benchmark == "hmmer":
                raise EmptyMeasurementError(
                    "program shorter than warmup window",
                    benchmark=benchmark,
                    scheme=scheme,
                )
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", broken)
        first = make_session(tmp_path, jobs=1)
        first.sweep(BENCHMARKS, ("unsafe",), skip_errors=True)
        assert len(first.skipped) == 1

        failed_key = first._key("hmmer", "unsafe")
        assert not first._cache_path(failed_key).exists()
        top_level = sorted(p.name for p in tmp_path.iterdir())
        assert FAILURE_MANIFEST_NAME in top_level
        assert len(list(tmp_path.rglob("v2-*.json"))) == 2

        # "The fix": the same pair now works; a fresh session pointed at
        # the same cache dir re-simulates it rather than replaying the
        # stale failure, and the healthy pairs stay disk hits.
        def fixed(benchmark, scheme, config=None, warmup=0, measure=0):
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", fixed)
        second = make_session(tmp_path, jobs=1)
        results = second.sweep(BENCHMARKS, ("unsafe",))
        assert [r.benchmark for r in results] == list(BENCHMARKS)
        assert second.simulated == 1
        assert second.disk_hits == 2
        assert read_manifest(tmp_path)["failures"] == []

    def test_inline_run_failure_not_disk_cached(self, tmp_path, monkeypatch):
        def broken(benchmark, scheme, config=None, warmup=0, measure=0):
            raise EmptyMeasurementError(
                "program shorter than warmup window",
                benchmark=benchmark,
                scheme=scheme,
            )

        monkeypatch.setattr(parallel, "run_benchmark", broken)
        session = make_session(tmp_path, jobs=1)
        with pytest.raises(EmptyMeasurementError):
            session.run("hmmer", "unsafe")
        assert not session._cache_path(session._key("hmmer", "unsafe")).exists()


class TestDumpPathPropagation:
    def test_invariant_failure_ships_dump_path_through_pool(
        self, tmp_path, monkeypatch
    ):
        """A guardrail error raised inside a worker reaches the parent as
        a typed error carrying the crash-dump path for the manifest."""
        from repro.common.errors import InvariantViolationError

        dump = tmp_path / "dumps" / "crash-fake.txt"

        def broken(benchmark, scheme, config=None, warmup=0, measure=0):
            if benchmark == "mcf":
                raise InvariantViolationError(
                    "invariant 'rename' violated",
                    invariant="rename",
                    violations=["[rename] r3 leaked"],
                    dump_path=str(dump),
                )
            return fake_result(benchmark, scheme)

        monkeypatch.setattr(parallel, "run_benchmark", broken)
        session = make_session(tmp_path, jobs=1)
        results = session.sweep(BENCHMARKS, ("unsafe",), skip_errors=True)
        assert [r.benchmark for r in results] == ["hmmer", "lbm"]
        assert session.skipped[0].error_type == "InvariantViolationError"
        assert session.skipped[0].dump_path == str(dump)
        record = read_manifest(tmp_path)["failures"][0]
        assert record["dump_path"] == str(dump)

        with pytest.raises(InvariantViolationError) as excinfo:
            session.run("mcf", "unsafe")
        assert excinfo.value.invariant == "rename"
        assert excinfo.value.dump_path == str(dump)
