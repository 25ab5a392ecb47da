"""Behavioural tests for Delay-on-Miss."""

import pytest

from repro.isa.builder import CodeBuilder
from repro.pipeline.core import Core
from repro.schemes import make_scheme


def speculative_miss_program(warm_secret=False):
    """A load under a slow branch that misses (or hits) in the L1."""
    b = CodeBuilder()
    b.set_memory(0x9000, 42)
    b.li(2, 1)
    for _ in range(14):
        b.mul(2, 2, 2)             # slow predicate keeps the shadow open
    b.beq(2, 0, "skip")
    b.load(3, 0, disp=0x9000)      # speculative access
    b.label("skip")
    b.store(3, 0, disp=8)
    b.halt()
    return b.build(name="dom_probe")


class TestDelayOnMiss:
    def test_architecturally_correct(self):
        core = Core(speculative_miss_program(), make_scheme("dom"))
        core.run()
        assert core.arch.read_mem(8) == 42

    def test_speculative_miss_is_delayed_and_reissued(self):
        core = Core(speculative_miss_program(), make_scheme("dom"))
        core.run()
        assert core.stats.dom_delayed_misses >= 1
        assert core.stats.dom_reissued_loads >= 1

    def test_speculative_miss_leaves_no_l2_traffic_while_delayed(self):
        """The probe must not propagate to L2 — that's the DoM guarantee."""
        core = Core(speculative_miss_program(), make_scheme("dom"))
        # Run only until the probe has missed but the branch is unresolved.
        for _ in range(12):
            core.step()
        assert core.stats.l2_accesses == 0

    def test_speculative_hit_completes(self):
        core = Core(speculative_miss_program(), make_scheme("dom"))
        core.hierarchy.warm([0x9000])
        core.run()
        assert core.stats.dom_delayed_misses == 0
        assert core.arch.read_mem(8) == 42

    def test_hit_faster_than_miss_under_dom(self):
        program = speculative_miss_program()
        missing = Core(program, make_scheme("dom"))
        missing.run()
        hitting = Core(program, make_scheme("dom"))
        hitting.hierarchy.warm([0x9000])
        hitting.run()
        assert hitting.stats.cycles < missing.stats.cycles

    def test_values_propagate_freely_after_hit(self):
        """DoM does not lock values (unlike NDA): a dependent of a
        speculative L1 hit executes immediately."""
        b = CodeBuilder()
        b.set_memory(0x9000, 10)
        b.li(2, 1)
        for _ in range(14):
            b.mul(2, 2, 2)
        b.beq(2, 0, "skip")
        b.load(3, 0, disp=0x9000)
        for _ in range(6):
            b.addi(3, 3, 1)
        b.label("skip")
        b.store(3, 0, disp=8)
        b.halt()
        program = b.build()
        dom = Core(program, make_scheme("dom"))
        dom.hierarchy.warm([0x9000])
        dom.run()
        nda = Core(program, make_scheme("nda"))
        nda.hierarchy.warm([0x9000])
        nda.run()
        assert dom.arch.read_mem(8) == nda.arch.read_mem(8) == 16
        assert dom.stats.cycles <= nda.stats.cycles


class TestDelayedReplacementUpdate:
    def test_squashed_speculative_hit_leaves_lru_untouched(self):
        """A wrong-path DoM hit must not refresh replacement state: the
        retroactive update only happens at commit, which never comes."""
        b = CodeBuilder()
        b.set_memory(0x9000, 1)
        b.li(1, 1)
        b.li(2, 0)
        # This branch is *taken*; the predictor starts not-taken, so the
        # fall-through (wrong path) executes transiently.
        b.beq(1, 1, "target")
        b.load(3, 0, disp=0x9000)   # transient speculative load
        b.label("target")
        b.halt()
        core = Core(b.build(), make_scheme("dom"))
        core.hierarchy.warm([0x9000])
        core.run()
        # No committed load -> no touch happened (we can't observe LRU
        # stamps directly here, but the touch-pending path requires commit;
        # assert the load never committed).
        assert core.stats.committed_loads == 0

    def test_committed_speculative_hit_touches_at_commit(self):
        core = Core(speculative_miss_program(), make_scheme("dom"))
        core.hierarchy.warm([0x9000])
        core.run()
        assert core.stats.committed_loads == 1


class TestDoMAPRules:
    def test_plain_dom_resolves_branches_out_of_order(self):
        from repro.pipeline.uop import UNTAINTED
        from repro.schemes.base import READY
        from repro.isa.instructions import Instruction, Opcode
        from repro.pipeline.decode import decode_instruction
        from repro.pipeline.uop import MicroOp

        scheme = make_scheme("dom")
        core = Core(speculative_miss_program(), scheme)
        beq = decode_instruction(Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=0))
        branch = MicroOp(50, 0, beq, 0)
        core.shadows.branch_dispatched(10)  # older unresolved branch
        assert scheme.branch_block_seq(branch, UNTAINTED) == READY

    def test_dom_ap_resolves_branches_in_order(self):
        from repro.pipeline.uop import UNTAINTED
        from repro.schemes.base import READY
        from repro.isa.instructions import Instruction, Opcode
        from repro.pipeline.decode import decode_instruction
        from repro.pipeline.uop import MicroOp

        scheme = make_scheme("dom+ap")
        core = Core(speculative_miss_program(), scheme)
        beq = decode_instruction(Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=0))
        branch = MicroOp(50, 0, beq, 0)
        core.shadows.branch_dispatched(10)
        assert scheme.branch_block_seq(branch, UNTAINTED) == 50
        core.shadows.branch_resolved(10)
        assert scheme.branch_block_seq(branch, UNTAINTED) == READY
