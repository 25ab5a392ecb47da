"""Coherence-interference stress: §4.5 under load, for every scheme."""

import pytest

from repro.harness.interference import (
    InterferenceEvent,
    InterferenceInjector,
    periodic_interference,
)
from repro.pipeline.core import Core
from repro.schemes import SCHEME_LABELS, make_scheme
from repro.workloads.kernels import STREAM_BASE, stream_kernel


def victim(iterations=1 << 20, footprint_words=1 << 10):
    return stream_kernel(
        iterations=iterations, footprint_words=footprint_words, seed=17
    )


class TestScheduleConstruction:
    def test_periodic_schedule(self):
        events = periodic_interference([0x100, 0x200], start=50, period=10, count=5)
        assert len(events) == 5
        assert [e.cycle for e in events] == [50, 60, 70, 80, 90]
        assert all(e.address in (0x100, 0x200) for e in events)

    def test_values_optional(self):
        plain = periodic_interference([0x100], count=3)
        valued = periodic_interference([0x100], count=3, values=True)
        assert all(e.value is None for e in plain)
        assert all(e.value is not None for e in valued)

    def test_empty_addresses_rejected(self):
        with pytest.raises(ValueError):
            periodic_interference([])

    def test_deterministic_with_seed(self):
        a = periodic_interference([1, 2, 3], count=10, seed=4)
        b = periodic_interference([1, 2, 3], count=10, seed=4)
        assert [(e.cycle, e.address) for e in a] == [
            (e.cycle, e.address) for e in b
        ]


class TestQuietInjector:
    @pytest.mark.parametrize("idle_skip", [True, False])
    def test_empty_schedule_matches_core_run(self, idle_skip):
        """With nothing to inject, the step-driven injector loop is
        ``Core.run``: same SimStats, including the budget-break cycle
        count (never the clock after a trailing idle-skip jump)."""
        from repro.workloads.profiles import build_workload

        ran = Core(build_workload("omnetpp_s"), make_scheme("unsafe"),
                   idle_skip=idle_skip)
        ran.run(max_instructions=501)
        stepped = Core(build_workload("omnetpp_s"), make_scheme("unsafe"),
                       idle_skip=idle_skip)
        InterferenceInjector(stepped, []).run(max_instructions=501)
        assert stepped.stats.as_dict() == ran.stats.as_dict()


class TestInterferenceUnderLoad:
    @pytest.mark.parametrize("scheme", SCHEME_LABELS)
    def test_invalidation_storm_preserves_correctness(self, scheme):
        """Invalidations (without data changes) must never change the
        architectural result — only timing."""
        program = victim()
        reference = Core(program, make_scheme(scheme))
        reference.run(max_instructions=4000)
        lines = [STREAM_BASE + 64 * k for k in range(16)]
        stressed = Core(victim(), make_scheme(scheme))
        injector = InterferenceInjector(
            stressed, periodic_interference(lines, start=40, period=60, count=60)
        )
        injector.run(max_instructions=4000)
        assert injector.injected > 10
        assert stressed.arch.read_reg(3) == reference.arch.read_reg(3)

    def test_invalidations_slow_the_victim(self):
        """Losing warm lines costs refetches: cycles must not decrease."""
        program = victim(footprint_words=1 << 8)  # hot, fully L1-resident
        quiet = Core(program, make_scheme("unsafe"))
        quiet.run(max_instructions=3000)
        lines = [STREAM_BASE + 64 * k for k in range(8)]
        noisy = Core(victim(footprint_words=1 << 8), make_scheme("unsafe"))
        injector = InterferenceInjector(
            noisy, periodic_interference(lines, start=20, period=25, count=120)
        )
        injector.run(max_instructions=3000)
        assert noisy.stats.cycles >= quiet.stats.cycles

    def test_interference_with_doppelgangers_in_flight(self):
        """The §4.5 path under stress: predicted addresses get matched by
        invalidations while doppelgangers are in flight; the run must
        stay architecturally correct."""
        program = victim()
        reference = Core(program, make_scheme("dom+ap"))
        reference.run(max_instructions=4000)
        lines = [STREAM_BASE + 64 * k for k in range(32)]
        stressed = Core(victim(), make_scheme("dom+ap"))
        injector = InterferenceInjector(
            stressed, periodic_interference(lines, start=30, period=15, count=200)
        )
        injector.run(max_instructions=4000)
        assert stressed.arch.read_reg(3) == reference.arch.read_reg(3)

    def test_peer_store_values_become_visible(self):
        """An invalidation paired with a memory update: loads that re-fetch
        the line observe the peer's value (no stale preload survives)."""
        from repro.isa.builder import CodeBuilder

        b = CodeBuilder()
        b.set_memory(0x4000, 5)
        b.li(1, 400)
        b.li(2, 0)
        b.li(3, 0)
        b.label("loop")
        b.load(4, 0, disp=0x4000)
        b.add(3, 3, 4)
        b.addi(2, 2, 1)
        b.blt(2, 1, "loop")
        b.store(3, 0, disp=8)
        b.halt()
        core = Core(b.build(), make_scheme("stt+ap"))
        injector = InterferenceInjector(
            core, [InterferenceEvent(cycle=200, address=0x4000, value=9)]
        )
        injector.run()
        assert core.halted
        checksum = core.arch.read_mem(8)
        # k iterations read 5, the rest read 9, for some 0 <= k <= 400 —
        # and since the event fires at cycle 200, some of each occurred.
        possible = {5 * k + 9 * (400 - k) for k in range(401)}
        assert checksum in possible
        assert checksum not in (5 * 400, 9 * 400), "peer store never observed"
