"""JobEngine retry-backoff contracts, and what its workers inherit.

The schedule is seeded jittered-exponential: deterministic for a given
``(retries, base, cap, seed)`` so a failing run replays with the same
pacing, jittered so a crashed wave's survivors do not re-stampede the
machine in lockstep, and capped so a long retry ladder cannot stall a
campaign for minutes per wave.

A pool worker freezes the heap it starts with, so its per-job garbage
collections walk only what it allocated; the parent never freezes.
"""

import gc

import pytest

from repro.harness.jobs import JobEngine, backoff_schedule


class TestBackoffSchedule:
    def test_pinned_deterministic_schedule(self):
        """The exact schedule for the default seed is part of the engine's
        replayability contract; an accidental reseed breaks replays."""
        assert backoff_schedule(3, 0.5) == (
            0.30724324115254587,
            0.577953351385971,
            1.087657532350552,
        )

    def test_same_inputs_same_schedule(self):
        assert backoff_schedule(5, 0.25) == backoff_schedule(5, 0.25)

    def test_seed_changes_schedule(self):
        assert backoff_schedule(3, 0.5) != backoff_schedule(3, 0.5, seed=1)

    def test_exponential_envelope_with_jitter(self):
        """Every delay lands in [0.5, 1.0] x base x 2^wave (half-jitter)."""
        base = 0.5
        for wave, delay in enumerate(backoff_schedule(6, base, cap=1e9)):
            ceiling = base * (2 ** wave)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_cap_bounds_every_delay(self):
        cap = 4.0
        schedule = backoff_schedule(8, 1.0, cap=cap)
        assert len(schedule) == 8
        assert max(schedule) <= cap
        # The ladder actually reaches the cap region, not just under it.
        assert max(schedule) > cap / 2

    def test_zero_base_means_no_sleeping(self):
        assert backoff_schedule(3, 0.0) == (0.0, 0.0, 0.0)

    def test_zero_retries_empty_schedule(self):
        assert backoff_schedule(0, 0.5) == ()


class TestEngineUsesSchedule:
    def test_engine_precomputes_its_schedule(self):
        engine = JobEngine(
            worker=_noop_worker, jobs=1, retries=3, retry_backoff=0.5
        )
        assert engine.backoff == backoff_schedule(3, 0.5)

    def test_engine_respects_cap_and_seed(self):
        engine = JobEngine(
            worker=_noop_worker,
            jobs=1,
            retries=4,
            retry_backoff=1.0,
            backoff_cap=2.0,
            backoff_seed=7,
        )
        assert engine.backoff == backoff_schedule(4, 1.0, cap=2.0, seed=7)
        assert max(engine.backoff) <= 2.0


def _noop_worker(job):
    return {"ok": True, "value": job}


def _freeze_count_worker(job):
    return {"ok": True, "frozen": gc.get_freeze_count()}


class TestWorkerHeapFreeze:
    def test_pool_workers_freeze_what_they_inherit(self):
        payloads = {}
        engine = JobEngine(_freeze_count_worker, jobs=2)
        engine.run([(index, index) for index in range(4)], payloads.__setitem__)
        assert sorted(payloads) == [0, 1, 2, 3]
        assert all(payload["frozen"] > 0 for payload in payloads.values())

    def test_inline_engine_leaves_the_parent_unfrozen(self):
        payloads = {}
        engine = JobEngine(_freeze_count_worker, jobs=1)
        engine.run([(index, index) for index in range(2)], payloads.__setitem__)
        assert [payload["frozen"] for payload in payloads.values()] == [0, 0]
        assert gc.get_freeze_count() == 0
