"""JobEngine retry-backoff contracts, and what its workers inherit.

The schedule is seeded jittered-exponential: deterministic for a given
``(retries, base, cap, seed)`` so a failing run replays with the same
pacing, jittered so a crashed wave's survivors do not re-stampede the
machine in lockstep, and capped so a long retry ladder cannot stall a
campaign for minutes per wave.

A pool worker freezes the heap it starts with, so its per-job garbage
collections walk only what it allocated; the parent never freezes.  (An
interpreter may start with a frozen heap of its own, so each freeze test
compares with the count it reads before the run.)

A wave that times out or breaks its pool kills the workers and joins the
pool, so the retry wave or the next session forks a parent that runs no
pool manager or queue-feeder thread.
"""

import gc
import os
import threading
import time

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


def _noop_worker(job):
    return {"ok": True, "value": job}


def _freeze_count_worker(job):
    return {"ok": True, "frozen": gc.get_freeze_count()}


class TestWorkerHeapFreeze:
    def test_pool_workers_freeze_what_they_inherit(self):
        before = gc.get_freeze_count()
        payloads = {}
        engine = JobEngine(_freeze_count_worker, jobs=2)
        engine.run([(index, index) for index in range(4)], payloads.__setitem__)
        assert sorted(payloads) == [0, 1, 2, 3]
        assert all(payload["frozen"] > before for payload in payloads.values())

    def test_inline_engine_leaves_the_parent_unfrozen(self):
        before = gc.get_freeze_count()
        payloads = {}
        engine = JobEngine(_freeze_count_worker, jobs=1)
        engine.run([(index, index) for index in range(2)], payloads.__setitem__)
        assert [payload["frozen"] for payload in payloads.values()] == [before, before]
        assert gc.get_freeze_count() == before


def _hang_on_one(job):
    if job == "hang":
        time.sleep(60)
    return {"ok": True, "value": job}


def _crash_on_one(job):
    if job == "crash":
        os._exit(1)
    return {"ok": True, "value": job}


class TestKilledPoolsAreJoined:
    def test_a_timed_out_retried_run_leaves_no_thread_behind(self):
        before = threading.enumerate()
        payloads = {}
        engine = JobEngine(_hang_on_one, jobs=2, job_timeout=1.0, retries=1)
        engine.run([("hang", "hang"), ("ok", "ok")], payloads.__setitem__)
        assert payloads["ok"]["ok"]
        assert payloads["hang"]["error_type"] == "JobTimeoutError"
        assert payloads["hang"]["attempts"] == 2
        assert threading.enumerate() == before

    def test_a_broken_pool_run_leaves_no_thread_behind(self):
        before = threading.enumerate()
        payloads = {}
        engine = JobEngine(_crash_on_one, jobs=2, retries=1, retry_backoff=0.0)
        engine.run([("crash", "crash"), ("ok", "ok")], payloads.__setitem__)
        assert payloads["crash"]["error_type"] == "WorkerCrashError"
        assert payloads["crash"]["attempts"] == 2
        assert threading.enumerate() == before
