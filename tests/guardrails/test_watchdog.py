"""Watchdog tests: commit-starvation detection, deadlock/livelock
classification, window clamping against long-latency misses, and crash
dumps."""

import pytest

from repro.common.config import GuardrailConfig, small_config
from repro.common.errors import DeadlockError
from repro.guardrails import Watchdog, smoke_program
from repro.guardrails.watchdog import MIN_WINDOW_LATENCIES
from repro.pipeline.core import Core
from repro.schemes import make_scheme


def make_core(dump_dir=None, watchdog_window=200_000):
    config = small_config().with_overrides(
        guardrails=GuardrailConfig(
            watchdog_window=watchdog_window,
            dump_dir=str(dump_dir) if dump_dir else None,
        )
    )
    core = Core(smoke_program(), make_scheme("unsafe"), config=config)
    core.run(max_instructions=600)
    assert not core.halted
    return core


def wedge(core):
    """Make the core look commit-starved without waiting 200k steps.

    The watchdog counts *steps* since the last commit (cycle deltas would
    misread idle-skip jumps as starvation), so a wedge is a stale commit
    step; the cycle counter is aged too so dumps stay coherent.
    """
    core._last_commit_step = core._step_count - core.watchdog.window - 1
    core._last_commit_cycle = core.cycle - core.watchdog.window - 1


def dram_chase_program(hops=6):
    """A serial pointer chase: each load misses to DRAM, so the idle-skip
    clock jumps by roughly a full DRAM latency between commits."""
    from repro.isa.builder import CodeBuilder

    b = CodeBuilder()
    chain = [0x200000 + 8192 * i for i in range(hops + 1)]
    for here, there in zip(chain, chain[1:]):
        b.set_memory(here, there)
    b.li(1, chain[0])
    for _ in range(hops):
        b.load(1, 1)
    b.store(1, 0, disp=8)
    b.halt()
    return b.build(name="watchdog_dram_chase")


class TestIdleSkipImmunity:
    def test_long_miss_jump_does_not_false_trip(self):
        """Regression (idle-skip blind spot): a watchdog window *smaller*
        than one DRAM miss must not trip on a healthy pointer chase.

        Each miss makes the clock jump ~90 cycles in one step; the old
        cycle-delta test read that jump as 90 idle "cycles" and tripped
        once the window was below the miss latency.  Counting steps, the
        chase takes only a handful of iterations per commit.
        """
        core = Core(dram_chase_program(), make_scheme("unsafe"))
        core.watchdog.window = 50  # far below one DRAM round trip
        core.run()  # must not raise
        assert core.halted

        # The scenario is real: the same program shows inter-commit cycle
        # gaps beyond the window, which a cycle-delta watchdog would have
        # misread as starvation.
        probe = Core(dram_chase_program(), make_scheme("unsafe"))
        gaps, prev = [], 0
        while not probe.halted:
            probe.step()
            if probe._last_commit_cycle != prev:
                gaps.append(probe._last_commit_cycle - prev)
                prev = probe._last_commit_cycle
        assert max(gaps) > 50

    def test_true_deadlock_still_trips_with_step_counting(self):
        """In a genuine wedge no jumps happen (every step is +1 cycle), so
        step counting trips at the same point cycle counting did."""
        core = make_core()
        wedge(core)
        with pytest.raises(DeadlockError):
            core.run(max_instructions=10_000)


class TestWindow:
    def test_window_clamped_to_memory_horizon(self):
        """A window shorter than the worst-case miss chain is useless —
        it would misread a single slow access as a wedge."""
        core = make_core(watchdog_window=10)
        assert core.watchdog.window >= (
            MIN_WINDOW_LATENCIES * core.hierarchy.max_latency
        )

    def test_healthy_run_never_trips(self):
        core = make_core()
        core.run(max_instructions=2_000)  # must not raise


class TestClassification:
    def test_busy_machine_is_livelock(self):
        core = make_core()
        wedge(core)
        assert core._events or core._ready or core._mem_queue
        with pytest.raises(DeadlockError) as excinfo:
            core.watchdog.trip(core)
        error = excinfo.value
        assert error.kind == "livelock"
        assert "nothing" in str(error) and "retired" in str(error)

    def test_idle_machine_is_deadlock(self):
        core = make_core()
        wedge(core)
        core._events.clear()
        core._ready.clear()
        core._mem_queue.clear()
        core._mem_retry.clear()
        core._forward_retry.clear()
        core._prefetch_queue.clear()
        with pytest.raises(DeadlockError) as excinfo:
            core.watchdog.trip(core)
        error = excinfo.value
        assert error.kind == "deadlock"
        assert "can never unblock" in str(error)

    def test_snapshot_names_the_oldest_instruction(self):
        core = make_core()
        wedge(core)
        with pytest.raises(DeadlockError) as excinfo:
            core.watchdog.trip(core)
        error = excinfo.value
        head = core.rob[0]
        assert f"seq={head.seq}" in str(error)
        assert error.snapshot["oldest"]["seq"] == head.seq
        assert error.snapshot["watchdog"]["window"] == core.watchdog.window


class TestEndToEnd:
    def test_run_loop_trips_the_watchdog(self):
        """core.run() itself must raise once the window lapses."""
        core = make_core()
        wedge(core)
        with pytest.raises(DeadlockError):
            core.run(max_instructions=10_000)

    def test_step_trips_the_watchdog(self):
        """core.step() runs run()'s loop body, watchdog check included, so
        step-driven harnesses get the same protection."""
        core = make_core()
        wedge(core)
        with pytest.raises(DeadlockError):
            core.step()

    def test_trip_writes_crash_dump(self, tmp_path):
        core = make_core(dump_dir=tmp_path)
        wedge(core)
        with pytest.raises(DeadlockError) as excinfo:
            core.watchdog.trip(core)
        error = excinfo.value
        assert error.dump_path is not None
        assert str(tmp_path) in error.dump_path
        text = (tmp_path / error.dump_path.split("/")[-1]).read_text()
        assert "repro crash dump" in text
        assert "pipeline occupancy" in text
        assert "cache / MSHR state" in text
        assert error.dump_path in str(error)

    def test_watchdog_armed_even_with_guardrails_off(self):
        config = small_config().with_overrides(
            guardrails=GuardrailConfig(level="off")
        )
        core = Core(smoke_program(), make_scheme("unsafe"), config=config)
        core.run(max_instructions=400)
        assert core.invariant_checker is None
        wedge(core)
        with pytest.raises(DeadlockError):
            core.run(max_instructions=10_000)


class TestWatchdogStandalone:
    def test_watchdog_reads_config_window(self):
        config = small_config().with_overrides(
            guardrails=GuardrailConfig(watchdog_window=500_000)
        )
        core = Core(smoke_program(), make_scheme("unsafe"), config=config)
        assert Watchdog(core).window == 500_000
