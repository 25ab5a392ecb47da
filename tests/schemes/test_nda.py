"""Behavioural tests for NDA-P (permissive propagation)."""

import pytest

from repro.isa.builder import CodeBuilder
from repro.pipeline.core import Core
from repro.pipeline.uop import UopState
from repro.schemes import make_scheme
from repro.schemes.base import READY


def speculative_load_program():
    """A load under a slowly-resolving branch, with a dependent add."""
    b = CodeBuilder()
    b.set_memory(0x1000, 77)
    b.li(1, 1)
    # Slow predicate: a chain of multiplies keeps the branch unresolved.
    b.li(2, 1)
    for _ in range(12):
        b.mul(2, 2, 2)
    b.beq(2, 0, "never")      # not taken; resolves late
    b.load(3, 0, disp=0x1000)  # speculative while the branch is pending
    b.addi(4, 3, 1)            # dependent: NDA must delay this
    b.label("never")
    b.store(4, 0, disp=8)
    b.halt()
    return b.build(name="nda_probe")


class TestPermissivePropagation:
    def test_architecturally_correct(self):
        core = Core(speculative_load_program(), make_scheme("nda"))
        core.run()
        assert core.arch.read_mem(8) == 78

    def test_speculative_load_issues_but_value_locked(self):
        """NDA-P lets the load access memory; only propagation waits."""
        core = Core(speculative_load_program(), make_scheme("nda"))
        core.hierarchy.warm([0x1000])  # L1 hit: completes under the shadow
        load_seq = None
        saw_completed_but_locked = False
        for _ in range(500):
            if core.halted:
                break
            core.step()
            for uop in core.rob:
                if uop.inst.is_load and uop.pc > 10:
                    load_seq = uop.seq
                    if (
                        uop.state == UopState.COMPLETED
                        and core.shadows.is_speculative(uop.seq)
                    ):
                        # Completed (memory access done) yet still under a
                        # shadow: value must be locked.
                        assert core.scheme.value_block_seq(uop) != READY
                        saw_completed_but_locked = True
        assert load_seq is not None
        assert saw_completed_but_locked, "load never observed locked"

    def test_delayed_propagations_counted(self):
        core = Core(speculative_load_program(), make_scheme("nda"))
        core.hierarchy.warm([0x1000])
        core.run()
        assert core.stats.delayed_propagations > 0

    def test_nonspeculative_load_propagates_freely(self):
        b = CodeBuilder()
        b.set_memory(0x1000, 5)
        b.load(1, 0, disp=0x1000)  # no older branches/stores: non-speculative
        b.addi(2, 1, 1)
        b.store(2, 0, disp=8)
        b.halt()
        core = Core(b.build(), make_scheme("nda"))
        baseline = Core(b.build(), make_scheme("unsafe"))
        stats = core.run()
        base_stats = baseline.run()
        assert core.arch.read_mem(8) == 6
        # Without speculation NDA adds no cycles over the baseline.
        assert stats.cycles == base_stats.cycles

    def test_non_load_values_never_locked(self):
        scheme = make_scheme("nda")
        core = Core(speculative_load_program(), scheme)
        core.run()
        # ALU producers are always READY under NDA regardless of shadows.
        from repro.isa.instructions import Instruction, Opcode
        from repro.pipeline.decode import decode_instruction
        from repro.pipeline.uop import MicroOp

        add = decode_instruction(Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3))
        alu = MicroOp(10**9, 0, add, 0)
        assert scheme.value_block_seq(alu) == READY


class TestNDASlowdown:
    def test_nda_never_faster_than_unsafe_on_dependent_chains(self):
        from repro.workloads.kernels import pointer_chase_kernel

        program = pointer_chase_kernel(
            iterations=1 << 20, nodes=1 << 10, sequential_fraction=0.0,
            dependent_check=True, odd_fraction=0.2, seed=5,
        )
        unsafe = Core(program, make_scheme("unsafe"))
        unsafe.run(max_instructions=4000)
        nda = Core(program, make_scheme("nda"))
        nda.run(max_instructions=4000)
        assert nda.stats.ipc <= unsafe.stats.ipc * 1.02
