"""Targeted behavioural tests for the out-of-order core."""

import pytest

from repro.common.config import SystemConfig, CoreConfig
from repro.common.errors import SimulationLimitError
from repro.isa.assembler import assemble
from repro.isa.builder import CodeBuilder
from repro.isa.program import Program
from repro.pipeline.core import Core
from repro.schemes import make_scheme

from tests.conftest import counting_loop, run_to_completion


class TestBasicExecution:
    def test_straight_line_commits_in_order(self):
        program = Program(assemble("li r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt"))
        core = run_to_completion(program, "unsafe")
        assert core.arch.read_reg(3) == 3
        assert core.stats.committed_instructions == 4

    def test_loop_program(self):
        core = run_to_completion(counting_loop(50), "unsafe")
        assert core.arch.read_mem(8) == sum(range(50))

    def test_r0_write_discarded(self):
        program = Program(assemble("li r0, 99\naddi r1, r0, 1\nhalt"))
        core = run_to_completion(program, "unsafe")
        assert core.arch.read_reg(0) == 0
        assert core.arch.read_reg(1) == 1

    def test_max_instructions_budget(self):
        core = Core(counting_loop(10**6), make_scheme("unsafe"))
        stats = core.run(max_instructions=500)
        assert 500 <= stats.committed_instructions < 600
        assert not core.halted

    def test_cycle_budget_enforced(self):
        program = Program(assemble("loop: jmp loop"))
        config = SystemConfig(max_cycles=5000)
        core = Core(program, make_scheme("unsafe"), config=config)
        with pytest.raises(SimulationLimitError, match="exceeded"):
            core.run()

    def test_cycle_budget_enforced_when_stepping(self):
        program = Program(assemble("loop: jmp loop"))
        config = SystemConfig(max_cycles=500)
        core = Core(program, make_scheme("unsafe"), config=config)
        with pytest.raises(SimulationLimitError, match="exceeded"):
            for _ in range(1_000):
                core.step()

    def test_ipc_reported(self):
        core = run_to_completion(counting_loop(100), "unsafe")
        assert core.stats.ipc > 0.5

    def test_stats_count_instruction_classes(self):
        b = CodeBuilder()
        b.li(1, 5)
        b.li(2, 0)
        b.label("loop")
        b.load(3, 0, disp=0x100)
        b.store(3, 0, disp=0x108)
        b.addi(2, 2, 1)
        b.blt(2, 1, "loop")
        b.halt()
        core = run_to_completion(b.build(), "unsafe")
        assert core.stats.committed_loads == 5
        assert core.stats.committed_stores == 5
        assert core.stats.committed_branches == 5


class TestBranchHandling:
    def test_mispredictions_squash_wrong_path(self):
        """First encounter of a taken branch mispredicts (predictor cold)."""
        program = Program(
            assemble(
                """
                li r1, 1
                beq r1, r1, target
                li r2, 111     # wrong path
                halt
            target:
                li r2, 222
                halt
                """
            )
        )
        core = run_to_completion(program, "unsafe")
        assert core.arch.read_reg(2) == 222
        assert core.stats.branch_mispredictions >= 1
        assert core.stats.squashed_instructions >= 1

    def test_predictor_learns_loop_branch(self):
        core = run_to_completion(counting_loop(200), "unsafe")
        # A 200-iteration loop branch should mispredict only a handful of
        # times once the gshare counters warm up.
        assert core.stats.branch_mispredictions < 30

    def test_wrong_path_instructions_fetched_not_committed(self):
        core = run_to_completion(counting_loop(50), "unsafe")
        assert core.stats.fetched_instructions > core.stats.committed_instructions
        assert (
            core.stats.fetched_instructions
            == core.stats.committed_instructions + core.stats.squashed_instructions
            + _inflight_allowance(core)
        )

    def test_jmp_is_free_of_misprediction(self):
        program = Program(
            assemble("jmp over\nli r1, 111\nover: li r1, 5\nhalt")
        )
        core = run_to_completion(program, "unsafe")
        assert core.arch.read_reg(1) == 5
        assert core.stats.branch_mispredictions == 0


def _inflight_allowance(core) -> int:
    """Instructions still in the ROB when halt committed."""
    return len(core.rob)


class TestCapacityLimits:
    def test_tiny_rob_still_correct(self):
        config = SystemConfig(
            core=CoreConfig(rob_entries=8, iq_entries=4, lq_entries=4, sq_entries=4,
                            decode_width=2, issue_width=2, commit_width=2)
        )
        core = Core(counting_loop(30), make_scheme("unsafe"), config=config)
        core.run()
        assert core.arch.read_mem(8) == sum(range(30))

    def test_single_port_core_still_correct(self):
        config = SystemConfig(core=CoreConfig(load_ports=1, store_ports=1))
        b = CodeBuilder()
        b.set_array(0x1000, list(range(64)))
        b.li(1, 64)
        b.li(2, 0)
        b.li(3, 0)
        b.label("loop")
        b.shli(4, 2, 3)
        b.addi(4, 4, 0x1000)
        b.load(5, 4)
        b.add(3, 3, 5)
        b.addi(2, 2, 1)
        b.blt(2, 1, "loop")
        b.store(3, 0, disp=8)
        b.halt()
        core = Core(b.build(), make_scheme("unsafe"), config=config)
        core.run()
        assert core.arch.read_mem(8) == sum(range(64))

    def test_narrow_core_slower_than_wide(self):
        narrow = SystemConfig(
            core=CoreConfig(decode_width=1, issue_width=1, commit_width=1)
        )
        program = counting_loop(300)
        slow = Core(program, make_scheme("unsafe"), config=narrow)
        slow.run()
        fast = Core(program, make_scheme("unsafe"))
        fast.run()
        assert slow.stats.cycles > fast.stats.cycles


class TestMemoryBehaviour:
    def test_load_sees_committed_store(self):
        program = Program(
            assemble(
                """
                li r1, 7
                store r1, [r0 + 0x100]
                load r2, [r0 + 0x100]
                addi r2, r2, 1
                store r2, [r0 + 0x108]
                halt
                """
            )
        )
        core = run_to_completion(program, "unsafe")
        assert core.arch.read_mem(0x108) == 8

    def test_cache_warms_across_iterations(self):
        b = CodeBuilder()
        b.li(1, 100)
        b.li(2, 0)
        b.label("loop")
        b.load(3, 0, disp=0x2000)  # same line every iteration
        b.addi(2, 2, 1)
        b.blt(2, 1, "loop")
        b.halt()
        core = run_to_completion(b.build(), "unsafe")
        assert core.stats.l1_hits > 90

    def test_dram_latency_visible_in_cycles(self):
        """A pointer chase across distinct lines pays serialized misses."""
        b = CodeBuilder()
        chain = [0x10000 + 4096 * i for i in range(20)]
        for here, there in zip(chain, chain[1:]):
            b.set_memory(here, there)
        b.set_memory(chain[-1], 0)
        b.li(1, 0x10000)
        for _ in range(19):
            b.load(1, 1)
        b.store(1, 0, disp=8)
        b.halt()
        core = run_to_completion(b.build(), "unsafe")
        memory = core.config.memory
        dram_roundtrip = memory.l3.latency + memory.dram_latency
        assert core.stats.cycles > 19 * dram_roundtrip
