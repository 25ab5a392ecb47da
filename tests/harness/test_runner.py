"""Tests for the experiment runner and session."""

import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError, EmptyMeasurementError
from repro.common.stats import RunResult, SimStats
from repro.harness.parallel import ParallelSession
from repro.harness.runner import (
    BASELINE_SCHEME,
    FIGURE_SCHEMES,
    run_benchmark,
    run_key,
    run_program,
)
from repro.workloads.kernels import stream_kernel


class TestRunProgram:
    def test_measurement_window_deltas(self):
        program = stream_kernel(iterations=1 << 20, footprint_words=1 << 12)
        result = run_program(program, "unsafe", warmup=1000, measure=2000)
        stats = result.stats
        assert 2000 <= stats.committed_instructions <= 2100
        assert stats.cycles > 0
        assert result.metadata["warmup"] == 1000

    def test_zero_warmup_allowed(self):
        program = stream_kernel(iterations=1 << 20, footprint_words=1 << 12)
        result = run_program(program, "unsafe", warmup=0, measure=1500)
        assert result.stats.committed_instructions >= 1500

    def test_warmup_excluded_from_counters(self):
        program = stream_kernel(iterations=1 << 20, footprint_words=1 << 12)
        short = run_program(program, "unsafe", warmup=4000, measure=1000)
        # Measurement counters reflect only the window, not the warmup.
        assert short.stats.committed_instructions <= 1100

    def test_program_shorter_than_warmup_raises_typed_error(self):
        """Regression: a program that halts during warmup used to return
        an all-zero delta, surfacing later as a confusing zero-IPC crash."""
        tiny = stream_kernel(iterations=4, footprint_words=64)
        with pytest.raises(EmptyMeasurementError) as excinfo:
            run_program(tiny, "unsafe", warmup=5000, measure=1000)
        assert "shorter than warmup window" in str(excinfo.value)
        assert excinfo.value.benchmark == "stream"
        assert excinfo.value.scheme == "unsafe"

    def test_short_program_with_room_to_measure_is_fine(self):
        # Halting *inside* the measurement window is a legitimate run.
        tiny = stream_kernel(iterations=16, footprint_words=64)
        result = run_program(tiny, "unsafe", warmup=0, measure=100_000)
        assert result.stats.committed_instructions > 0


class TestRunBenchmark:
    def test_labels_attached(self):
        result = run_benchmark("hmmer", "dom+ap", warmup=500, measure=1500)
        assert result.benchmark == "hmmer"
        assert result.scheme == "dom+ap"

    def test_unknown_benchmark_fails_fast(self):
        with pytest.raises(ConfigError):
            run_benchmark("nonexistent", "unsafe")


class TestInlineSession:
    """``ParallelSession(jobs=1)`` runs each pair inline and memoizes it."""

    def test_memoization(self):
        session = ParallelSession(warmup=500, measure=1200, jobs=1)
        first = session.run("hmmer", "unsafe")
        second = session.run("hmmer", "unsafe")
        assert first is second
        assert session.cached_runs() == 1

    def test_normalized_ipc_baseline_is_one(self):
        session = ParallelSession(warmup=500, measure=1200, jobs=1)
        assert session.normalized_ipc("hmmer", BASELINE_SCHEME) == pytest.approx(1.0)

    def test_sweep_covers_grid(self):
        session = ParallelSession(warmup=500, measure=1000, jobs=1)
        results = session.sweep(["hmmer"], ["unsafe", "dom"])
        assert len(results) == 2
        assert session.cached_runs() == 2

    def test_figure_scheme_order(self):
        assert FIGURE_SCHEMES == ("nda", "nda+ap", "stt", "stt+ap", "dom", "dom+ap")


class TestSessionCacheKey:
    """Regression tests: the memo used to key on (benchmark, scheme) only,
    so mutating the session after a run silently replayed stale results."""

    def test_measure_change_invalidates_memo(self):
        session = ParallelSession(warmup=400, measure=900, jobs=1)
        short = session.run("hmmer", "unsafe")
        session.measure = 1800
        long = session.run("hmmer", "unsafe")
        assert long is not short
        assert long.stats.committed_instructions > short.stats.committed_instructions
        assert session.cached_runs() == 2

    def test_warmup_change_invalidates_memo(self):
        session = ParallelSession(warmup=400, measure=900, jobs=1)
        first = session.run("hmmer", "unsafe")
        session.warmup = 1200
        second = session.run("hmmer", "unsafe")
        assert second is not first

    def test_config_change_invalidates_memo(self):
        session = ParallelSession(warmup=400, measure=900, jobs=1)
        default = session.run("hmmer", "unsafe")
        session.config = small_config()
        small = session.run("hmmer", "unsafe")
        assert small is not default
        # The scaled-down core is genuinely slower: stale replay would
        # have returned the default-config cycle count.
        assert small.stats.cycles != default.stats.cycles

    def test_key_includes_windows_and_fingerprint(self):
        session = ParallelSession(warmup=400, measure=900, jobs=1)
        key = session._key("hmmer", "dom")
        assert key == run_key("hmmer", "dom", 400, 900, session.config)
        assert key[2:4] == (400, 900)
        assert key[4] == session.config.fingerprint()

    def test_unchanged_session_still_memoizes(self):
        session = ParallelSession(warmup=400, measure=900, jobs=1)
        assert session.run("hmmer", "unsafe") is session.run("hmmer", "unsafe")
        assert session.cached_runs() == 1


class TestNormalizedIpcErrors:
    def test_zero_ipc_baseline_raises_typed_error(self):
        """Regression: a zero-IPC baseline used to raise a bare
        ZeroDivisionError that aborted a whole figure sweep."""
        session = ParallelSession(warmup=400, measure=900, jobs=1)
        key = session._key("hmmer", BASELINE_SCHEME)
        session._memo[key] = RunResult(
            benchmark="hmmer", scheme=BASELINE_SCHEME, stats=SimStats()
        )
        with pytest.raises(EmptyMeasurementError) as excinfo:
            session.normalized_ipc("hmmer", "dom")
        assert excinfo.value.benchmark == "hmmer"
        assert excinfo.value.scheme == BASELINE_SCHEME
