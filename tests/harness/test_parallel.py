"""Tests for the parallel, persistent experiment runner.

The headline contracts: a pooled sweep is bit-identical to direct
``run_benchmark`` calls for every pair, and a second session pointed at
a warm on-disk cache re-simulates nothing.
"""

import pickle

import pytest

from repro.common.config import default_config, small_config
from repro.common.errors import EmptyMeasurementError
from repro.common.stats import RunResult, SimStats
from repro.harness.parallel import ParallelSession, SweepJob, execute_job
from repro.harness.runner import run_benchmark

BENCHMARKS = ("hmmer", "mcf", "libquantum")
SCHEMES = ("unsafe", "dom")
WARMUP, MEASURE = 300, 900


@pytest.fixture(scope="module")
def serial_results():
    config = default_config()
    return [
        run_benchmark(benchmark, scheme, config, WARMUP, MEASURE)
        for benchmark in BENCHMARKS
        for scheme in SCHEMES
    ]


class TestParity:
    def test_parallel_matches_serial_bit_identical(self, serial_results, tmp_path):
        """Acceptance: >= 6 pairs with --jobs 4 equal direct runs."""
        session = ParallelSession(
            warmup=WARMUP, measure=MEASURE, jobs=4, cache_dir=tmp_path
        )
        results = session.sweep(BENCHMARKS, SCHEMES)
        assert len(results) == len(serial_results) == 6
        for parallel, serial in zip(results, serial_results):
            assert parallel.benchmark == serial.benchmark
            assert parallel.scheme == serial.scheme
            assert parallel.stats == serial.stats  # every counter, exactly
        assert session.counters()["simulated"] == 6

    def test_result_order_is_request_order(self, tmp_path):
        session = ParallelSession(warmup=WARMUP, measure=MEASURE, jobs=2)
        results = session.sweep(("mcf", "hmmer"), ("dom", "unsafe"))
        labels = [(r.benchmark, r.scheme) for r in results]
        assert labels == [
            ("mcf", "dom"), ("mcf", "unsafe"), ("hmmer", "dom"), ("hmmer", "unsafe")
        ]

    def test_inline_run_matches_pool(self, serial_results):
        session = ParallelSession(warmup=WARMUP, measure=MEASURE, jobs=1)
        result = session.run("hmmer", "unsafe")
        assert result.stats == serial_results[0].stats


START_BENCHMARKS = ("hmmer", "mcf", "gcc", "namd")
START_SCHEMES = ("unsafe", "nda", "stt", "dom", "dom+ap", "stt+ap")


def sweep_rows(session):
    results = session.sweep(START_BENCHMARKS, START_SCHEMES)
    return [(r.benchmark, r.scheme, r.stats) for r in results]


@pytest.fixture(scope="module")
def inline_rows():
    return sweep_rows(ParallelSession(warmup=500, measure=1500, jobs=1))


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_every_start_method_matches_the_inline_sweep(inline_rows, method):
    """A worker's results must not depend on what it inherited: under
    fork it shares the parent's heap (and freezes it), under forkserver
    and spawn it imports everything afresh."""
    session = ParallelSession(warmup=500, measure=1500, jobs=2, mp_context=method)
    assert sweep_rows(session) == inline_rows
    assert session.simulated == len(inline_rows)


class TestDiskCache:
    def test_warm_cache_resimulates_nothing(self, serial_results, tmp_path):
        """Acceptance: second invocation with a warm cache simulates 0."""
        first = ParallelSession(
            warmup=WARMUP, measure=MEASURE, jobs=4, cache_dir=tmp_path
        )
        first.sweep(BENCHMARKS, SCHEMES)
        assert first.simulated == 6

        second = ParallelSession(
            warmup=WARMUP, measure=MEASURE, jobs=4, cache_dir=tmp_path
        )
        results = second.sweep(BENCHMARKS, SCHEMES)
        assert second.simulated == 0
        assert second.disk_hits == 6
        assert second.cached_runs() == 6
        for cached, serial in zip(results, serial_results):
            assert cached.stats == serial.stats

    def test_window_change_misses(self, tmp_path):
        first = ParallelSession(
            warmup=WARMUP, measure=MEASURE, jobs=1, cache_dir=tmp_path
        )
        first.run("hmmer", "unsafe")
        longer = ParallelSession(
            warmup=WARMUP, measure=MEASURE + 500, jobs=1, cache_dir=tmp_path
        )
        longer.run("hmmer", "unsafe")
        assert longer.disk_hits == 0
        assert longer.simulated == 1

    def test_config_change_misses(self, tmp_path):
        first = ParallelSession(
            warmup=WARMUP, measure=MEASURE, jobs=1, cache_dir=tmp_path
        )
        first.run("hmmer", "unsafe")
        small = ParallelSession(
            config=small_config(), warmup=WARMUP, measure=MEASURE,
            jobs=1, cache_dir=tmp_path,
        )
        small.run("hmmer", "unsafe")
        assert small.disk_hits == 0
        assert small.simulated == 1

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        session = ParallelSession(
            warmup=WARMUP, measure=MEASURE, jobs=1, cache_dir=tmp_path
        )
        session.run("hmmer", "unsafe")
        entries = list(tmp_path.rglob("v2-*.json"))
        assert len(entries) == 1
        for path in entries:
            path.write_text("{ torn write")
        fresh = ParallelSession(
            warmup=WARMUP, measure=MEASURE, jobs=1, cache_dir=tmp_path
        )
        result = fresh.run("hmmer", "unsafe")
        assert fresh.simulated == 1
        assert result.stats.committed_instructions > 0
        # The torn entry was quarantined, not silently dropped.
        assert fresh.store.counters()["quarantined"] == 1
        assert list((tmp_path / "quarantine").iterdir())

    def test_no_cache_dir_still_memoizes(self):
        session = ParallelSession(warmup=WARMUP, measure=MEASURE, jobs=1)
        first = session.run("hmmer", "unsafe")
        second = session.run("hmmer", "unsafe")
        assert first is second
        assert session.simulated == 1
        assert session.memo_hits == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_pair_listed_twice_is_one_simulation_and_one_memo_hit(self, jobs):
        session = ParallelSession(warmup=200, measure=500, jobs=jobs)
        results = session.sweep(("hmmer",), ("dom+ap", "dom+ap"))
        assert results[0] is results[1]
        counters = session.counters()
        # simulated + from disk + memoized adds up to the 2 results.
        assert (counters["simulated"], counters["disk_hits"],
                counters["memo_hits"]) == (1, 0, 1)


class TestJobSpec:
    def test_job_is_picklable(self):
        job = SweepJob.build("hmmer", "dom", WARMUP, MEASURE, small_config())
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job

    def test_execute_job_returns_plain_data(self):
        job = SweepJob.build("hmmer", "unsafe", 200, 600, small_config())
        payload = execute_job(job)
        assert payload["ok"]
        result = RunResult.from_dict(payload["result"])
        assert result.benchmark == "hmmer"
        # The window may stop a commit-group short of the target.
        assert result.stats.committed_instructions >= 590
        assert result.metadata == {"warmup": 200, "measure": 600}

    def test_execute_job_ships_errors_as_data(self, tiny_benchmark):
        # The tiny program halts long before a 5k warmup: the worker must
        # return the typed error as data, not raise (a raise would poison
        # the whole pool).
        payload = execute_job(
            SweepJob.build(tiny_benchmark, "unsafe", 5000, 1000, small_config())
        )
        assert not payload["ok"]
        assert payload["error_type"] == "EmptyMeasurementError"
        assert payload["benchmark"] == tiny_benchmark


@pytest.fixture
def tiny_benchmark(monkeypatch):
    """Register a benchmark that halts after a few dozen instructions
    (shorter than any warmup window used below)."""
    from repro.workloads import profiles

    spec = profiles.WorkloadSpec(
        name="tiny",
        suite="spec2006",
        kernel="stream",
        params={"iterations": 4, "footprint_words": 64},
    )
    monkeypatch.setitem(profiles.PROFILES_BY_NAME, "tiny", spec)
    return "tiny"


class TestErrorHandling:
    """Error paths run inline (jobs=1) so the monkeypatched registry is
    visible; the pool path shares the exact same execute_job code."""

    def test_run_raises_typed_error(self, tiny_benchmark):
        session = ParallelSession(
            config=small_config(), warmup=5000, measure=1000, jobs=1
        )
        with pytest.raises(EmptyMeasurementError) as excinfo:
            session.run(tiny_benchmark, "unsafe")
        assert excinfo.value.benchmark == tiny_benchmark
        assert excinfo.value.scheme == "unsafe"
        assert "shorter than warmup" in str(excinfo.value)

    def test_sweep_skip_errors_reports_and_continues(self, tiny_benchmark):
        session = ParallelSession(
            config=small_config(), warmup=2000, measure=1000, jobs=1
        )
        results = session.sweep(
            (tiny_benchmark, "hmmer"), ("unsafe",), skip_errors=True
        )
        # hmmer survives, the tiny program is reported, the sweep lives.
        assert [r.benchmark for r in results] == ["hmmer"]
        assert len(session.skipped) == 1
        assert session.skipped[0].benchmark == tiny_benchmark
        assert "shorter than warmup" in session.skipped[0].message

    def test_sweep_without_skip_errors_raises(self, tiny_benchmark):
        session = ParallelSession(
            config=small_config(), warmup=2000, measure=1000, jobs=1
        )
        with pytest.raises(EmptyMeasurementError):
            session.sweep((tiny_benchmark,), ("unsafe",))

    def test_failures_memoized_not_resimulated(self, tiny_benchmark):
        session = ParallelSession(
            config=small_config(), warmup=5000, measure=1000, jobs=1
        )
        for _ in range(3):
            with pytest.raises(EmptyMeasurementError):
                session.run(tiny_benchmark, "unsafe")
        assert session.simulated == 1

