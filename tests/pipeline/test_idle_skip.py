"""The idle-cycle fast-forward must be an optimization, never a semantic.

With ``idle_skip`` on, the core's scheduling loop jumps the clock to the
next timed event when provably nothing can happen.  These tests pin the
conditions: jumps only occur while stalled, never lose events, and leave
committed state identical to what a stall-free (always-busy) run
produces.

The equivalence contract is checked differentially: ``idle_skip=False``
runs the same loop as the per-cycle reference (every phase visited
every cycle, clock +1), and every scheme × workload pairing must produce
bit-identical :class:`SimStats` — including the cycle count — in both
modes.
"""

import random

import pytest

from repro.common.config import GuardrailConfig, small_config
from repro.isa.builder import CodeBuilder
from repro.pipeline.core import Core
from repro.schemes import SCHEME_LABELS, make_scheme


def assert_stats_identical(event_core, reference_core):
    """Bit-identical SimStats (cycles included) between the two loops."""
    a = event_core.stats.as_dict()
    b = reference_core.stats.as_dict()
    diffs = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    assert not diffs, f"event-driven vs reference loop diverged: {diffs}"


def dram_stall_program(hops=6):
    b = CodeBuilder()
    chain = [0x100000 + 8192 * i for i in range(hops + 1)]
    for here, there in zip(chain, chain[1:]):
        b.set_memory(here, there)
    b.li(1, chain[0])
    for _ in range(hops):
        b.load(1, 1)
    b.store(1, 0, disp=8)
    b.halt()
    return b.build(name="dram_stalls")


class TestIdleSkipping:
    def test_steps_fewer_than_cycles_on_memory_stalls(self):
        """A serial DRAM chase is mostly idle: the number of step() calls
        must be far below the simulated cycle count."""
        core = Core(dram_stall_program(), make_scheme("unsafe"))
        steps = 0
        while not core.halted:
            core.step()
            steps += 1
        assert core.stats.committed_instructions > 0
        assert steps < core.cycle / 3

    def test_clock_is_monotone(self):
        core = Core(dram_stall_program(), make_scheme("unsafe"))
        last = -1
        while not core.halted:
            assert core.cycle > last
            last = core.cycle
            core.step()

    def test_skip_preserves_architectural_result(self):
        program = dram_stall_program()
        reference = program.interpret().state.read_mem(8)
        core = Core(dram_stall_program(), make_scheme("unsafe"))
        core.run()
        assert core.arch.read_mem(8) == reference

    def test_skip_preserves_timing_against_manual_stepping(self):
        """Stepping manually (which also uses the same skip logic) and
        run() must agree exactly on the final cycle count."""
        stepped = Core(dram_stall_program(), make_scheme("unsafe"))
        while not stepped.halted:
            stepped.step()
        ran = Core(dram_stall_program(), make_scheme("unsafe"))
        ran.run()
        assert stepped.cycle == ran.cycle

    @pytest.mark.parametrize("scheme", ["nda", "stt", "dom", "dom+ap"])
    def test_skip_safe_under_every_scheme(self, scheme):
        program = dram_stall_program()
        reference = program.interpret().state.read_mem(8)
        core = Core(dram_stall_program(), make_scheme(scheme))
        core.run()
        assert core.arch.read_mem(8) == reference


def mshr_burst_program(loads=40):
    """More independent misses in flight than the MSHR file can hold, so
    overflowing loads park in the MSHR retry queue and re-attempt at the
    file's next-free cycle — the wake source idle skipping must honor."""
    b = CodeBuilder()
    base = 0x400000
    for i in range(loads):
        b.set_memory(base + 8192 * i, i * 3 + 1)
    b.li(1, base)
    for i in range(loads):
        b.load(2 + (i % 24), 1, disp=8192 * i)
    b.halt()
    return b.build(name="mshr_burst")


def forward_block_program():
    """A store whose data arrives from a DRAM miss, then a load to the
    same address: the load's forward attempt blocks on the unready store
    and parks in the forward retry queue until the producer completes."""
    b = CodeBuilder()
    b.set_memory(0x500000, 77)
    b.li(1, 0x500000)
    b.load(2, 1)          # DRAM miss produces the store data
    b.store(2, 1, disp=8)  # store waits on r2
    b.load(3, 1, disp=8)   # must forward from the blocked store
    b.store(3, 0, disp=16)
    b.halt()
    return b.build(name="forward_block")


class TestDifferentialEquivalence:
    """Satellite 3: skip-on vs skip-off must commit *identical* stats —
    every counter, including the cycle count — across all schemes."""

    @pytest.mark.parametrize("scheme", SCHEME_LABELS)
    @pytest.mark.parametrize(
        "workload", ["mcf", "hmmer", "lbm", "gcc", "libquantum", "omnetpp"]
    )
    def test_figure6_workloads_bit_identical(self, workload, scheme, stand_in):
        budget = 1_500
        event = Core(stand_in(workload), make_scheme(scheme))
        event.run(max_instructions=budget)
        reference = Core(stand_in(workload), make_scheme(scheme), idle_skip=False)
        reference.run(max_instructions=budget)
        assert_stats_identical(event, reference)

    @pytest.mark.parametrize("scheme", SCHEME_LABELS)
    def test_mshr_pressure_bit_identical(self, scheme):
        event = Core(mshr_burst_program(), make_scheme(scheme))
        event.run()
        reference = Core(
            mshr_burst_program(), make_scheme(scheme), idle_skip=False
        )
        reference.run()
        assert event.halted and reference.halted
        assert_stats_identical(event, reference)

    @pytest.mark.parametrize("scheme", SCHEME_LABELS)
    def test_forward_block_bit_identical(self, scheme):
        event = Core(forward_block_program(), make_scheme(scheme))
        event.run()
        reference = Core(
            forward_block_program(), make_scheme(scheme), idle_skip=False
        )
        reference.run()
        assert event.halted and reference.halted
        assert_stats_identical(event, reference)
        assert event.arch.read_mem(16) == 77

    def test_budget_break_cycles_match(self):
        """Stopping mid-stall must not leak the trailing idle-skip jump
        into the reported cycle count (measurement-boundary contract)."""
        for budget in (1, 3, 5, 7):
            event = Core(dram_stall_program(), make_scheme("dom+ap"))
            event.run(max_instructions=budget)
            reference = Core(
                dram_stall_program(), make_scheme("dom+ap"), idle_skip=False
            )
            reference.run(max_instructions=budget)
            assert event.stats.cycles == reference.stats.cycles, budget


def random_program(seed, length=90):
    """A seeded random mix of ALU ops, (dependent) loads, stores, forward
    branches, and one bounded backward loop — guaranteed to halt, shaped
    to exercise shadows, squashes, forwarding, and the stride prefetcher."""
    rng = random.Random(seed)
    b = CodeBuilder()
    base = 0x10000
    words = 64
    for i in range(words):
        # Values double as in-range offsets so chased pointers stay legal.
        b.set_memory(base + 8 * i, 8 * rng.randrange(words))
    b.li(1, base)
    for r in range(2, 8):
        b.li(r, rng.randrange(1, 200))
    b.li(15, 2)  # backward-loop trip counter
    b.label("loop")
    alu_ops = ("add", "sub", "xor", "and_", "or_", "mul")
    skip_until = -1
    for i in range(length):
        kind = rng.choices(
            ("alu", "load", "chase", "store", "branch"),
            weights=(4, 3, 2, 2, 2),
        )[0]
        if kind == "alu":
            op = getattr(b, rng.choice(alu_ops))
            op(rng.randrange(2, 12), rng.randrange(1, 12), rng.randrange(1, 12))
        elif kind == "load":
            b.load(rng.randrange(2, 12), 1, disp=8 * rng.randrange(words))
        elif kind == "chase":
            # Dependent load: use a loaded value as the next offset.
            b.load(13, 1, disp=8 * rng.randrange(words))
            b.add(14, 1, 13)
            b.load(rng.randrange(2, 12), 14)
        elif kind == "store":
            b.store(rng.randrange(2, 12), 1, disp=8 * rng.randrange(words))
        elif kind == "branch" and b.here >= skip_until:
            # Forward branch over the next few emitted instructions.
            skip_until = b.here + 1 + rng.randrange(2, 6)
            op = getattr(b, rng.choice(("beq", "bne", "blt", "bge")))
            op(rng.randrange(1, 12), rng.randrange(1, 12), skip_until)
    # Pad so any trailing forward branch has a real landing site.
    while b.here < skip_until:
        b.nop()
    b.addi(15, 15, -1)
    b.bne(15, 0, "loop")
    b.store(2, 1, disp=0)
    b.halt()
    return b.build(name=f"random_{seed}")


class TestPropertySweep:
    """Satellite 4: seeded random programs × schemes × guardrails on/off.

    Every combination must produce bit-identical SimStats between the
    event-driven loop and the per-cycle reference loop, and guardrails
    (a pure observer) must never perturb simulated timing."""

    GUARDRAIL_LEVELS = ("off", "full")

    @pytest.mark.parametrize("guardrails", GUARDRAIL_LEVELS)
    @pytest.mark.parametrize("scheme", SCHEME_LABELS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_programs_bit_identical(self, seed, scheme, guardrails):
        config = small_config().with_overrides(
            guardrails=GuardrailConfig(level=guardrails, check_interval=64)
        )
        event = Core(random_program(seed), make_scheme(scheme), config=config)
        event.run()
        reference = Core(
            random_program(seed),
            make_scheme(scheme),
            config=config,
            idle_skip=False,
        )
        reference.run()
        assert event.halted and reference.halted
        assert_stats_identical(event, reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_guardrails_do_not_perturb_timing(self, seed):
        """The same program under level=off and level=full must time out
        identically — the checker observes, it never schedules."""
        stats = {}
        for level in self.GUARDRAIL_LEVELS:
            config = small_config().with_overrides(
                guardrails=GuardrailConfig(level=level, check_interval=64)
            )
            core = Core(random_program(seed), make_scheme("dom+ap"), config=config)
            core.run()
            stats[level] = core.stats.as_dict()
        assert stats["off"] == stats["full"]
