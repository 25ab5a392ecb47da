"""Behavioural tests for Speculative Taint Tracking."""

import pytest

from repro.isa.builder import CodeBuilder
from repro.pipeline.core import Core
from repro.pipeline.uop import UNTAINTED
from repro.schemes import make_scheme
from repro.schemes.base import READY


def tainted_transmit_program():
    """A speculative load whose value forms another load's address."""
    b = CodeBuilder()
    b.set_memory(0x1000, 0x2000)   # value that becomes an address
    b.set_memory(0x2000, 123)
    b.li(1, 1)
    b.li(2, 1)
    for _ in range(12):
        b.mul(2, 2, 2)             # slow predicate
    b.beq(2, 0, "skip")            # unresolved branch: shadow source
    b.load(3, 0, disp=0x1000)      # speculative -> tainted output
    b.load(4, 3)                   # transmitter: tainted address
    b.label("skip")
    b.store(4, 0, disp=8)
    b.halt()
    return b.build(name="stt_probe")


class TestTaintPropagation:
    def test_architecturally_correct(self):
        core = Core(tainted_transmit_program(), make_scheme("stt"))
        core.run()
        assert core.arch.read_mem(8) == 123

    def test_speculative_load_output_tainted(self):
        scheme = make_scheme("stt")
        core = Core(tainted_transmit_program(), scheme)
        core.hierarchy.warm([0x1000])  # producer completes under the shadow
        saw_tainted = False
        for _ in range(400):
            if core.halted:
                break
            core.step()
            for uop in core.rob:
                if uop.inst.is_load and uop.completed and uop.taint != UNTAINTED:
                    assert scheme.is_tainted(uop.taint) or (
                        not core.shadows.is_speculative(uop.taint)
                    )
                    saw_tainted = True
        assert saw_tainted

    def test_tainted_address_load_delayed(self):
        core = Core(tainted_transmit_program(), make_scheme("stt"))
        core.hierarchy.warm([0x1000])
        core.run()
        assert core.stats.delayed_transmitters > 0

    def test_dependent_alu_executes_despite_taint(self):
        """STT's ILP advantage over NDA-P: tainted values propagate to
        non-transmitters, so a dependent ALU chain completes sooner."""
        b = CodeBuilder()
        b.set_memory(0x1000, 3)
        b.li(2, 1)
        for _ in range(14):
            b.mul(2, 2, 2)
        b.beq(2, 0, "skip")
        b.load(3, 0, disp=0x1000)
        for _ in range(8):
            b.addi(3, 3, 1)        # dependent, non-transmitting chain
        b.label("skip")
        b.store(3, 0, disp=8)
        b.halt()
        program = b.build()
        stt = Core(program, make_scheme("stt"))
        stt.run()
        nda = Core(program, make_scheme("nda"))
        nda.run()
        assert stt.arch.read_mem(8) == nda.arch.read_mem(8) == 11
        assert stt.stats.cycles <= nda.stats.cycles

    def test_taint_clears_at_visibility_point(self):
        scheme = make_scheme("stt")
        core = Core(tainted_transmit_program(), scheme)
        core.run()
        # After the run no shadows remain: any recorded taint is cleared.
        assert not scheme.is_tainted(5)
        assert not scheme.is_tainted(UNTAINTED)

    def test_untainted_operand_never_blocks(self):
        scheme = make_scheme("stt")
        core = Core(tainted_transmit_program(), scheme)
        # Before running anything the frontier is infinite.
        from repro.isa.instructions import Instruction, Opcode
        from repro.pipeline.decode import decode_instruction
        from repro.pipeline.uop import MicroOp

        load = MicroOp(
            1, 0, decode_instruction(Instruction(Opcode.LOAD, rd=1, rs1=2)), 0
        )
        load.taint = UNTAINTED
        assert scheme.load_block_seq(load) == READY


class TestMaxRootRepresentation:
    def test_max_root_exactness(self):
        """If the youngest root is non-speculative, so is every older one —
        the property that makes max-root taint exact, not conservative."""
        from repro.pipeline.shadows import ShadowTracker

        shadows = ShadowTracker()
        shadows.branch_dispatched(10)
        # Roots 5 and 8 are both older than the unresolved branch at 10:
        # both non-speculative, so a merged taint max(5, 8) = 8 is clear.
        assert shadows.is_nonspeculative(8)
        assert shadows.is_nonspeculative(5)
        # Roots 11 and 15 are both covered; max = 15 is tainted, and so is
        # the older 11 — blocking on 15 never under-blocks 11.
        assert shadows.is_speculative(15)
        assert shadows.is_speculative(11)
