"""Squash machinery: rename rollback, shadow cleanup, nested wrong paths."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.builder import CodeBuilder
from repro.isa.program import Program
from repro.pipeline.core import Core
from repro.schemes import SCHEME_LABELS, make_scheme

from tests.conftest import run_to_completion


def nested_mispredict_program():
    """Two levels of data-dependent branches, both mispredicted on their
    first encounter, with register writes on every path."""
    b = CodeBuilder()
    b.li(1, 1)
    b.li(5, 100)
    b.beq(1, 1, "outer_t")       # taken; cold predictor says not-taken
    b.li(5, 200)                 # wrong path write
    b.label("outer_t")
    b.li(2, 1)
    b.beq(2, 2, "inner_t")       # taken; mispredicted again
    b.li(5, 300)
    b.label("inner_t")
    b.addi(5, 5, 1)
    b.store(5, 0, disp=8)
    b.halt()
    return b.build(name="nested_mispredict")


class TestRenameRollback:
    @pytest.mark.parametrize("scheme", SCHEME_LABELS)
    def test_wrong_path_writes_rolled_back(self, scheme):
        core = run_to_completion(nested_mispredict_program(), scheme)
        assert core.arch.read_mem(8) == 101
        assert core.stats.branch_mispredictions >= 1

    def test_rename_map_consistent_after_squash(self):
        core = Core(nested_mispredict_program(), make_scheme("unsafe"))
        core.run()
        # After completion every mapping must refer to a non-squashed uop.
        for reg, producer in core.rename.items():
            assert not producer.squashed

    def test_wrong_path_register_chain(self):
        """A chain of wrong-path overwrites of the same register must be
        fully unwound (prev_producer restoration, youngest-first)."""
        source = """
            li r1, 7
            li r2, 1
            beq r2, r2, good
            addi r1, r1, 1
            addi r1, r1, 1
            addi r1, r1, 1
        good:
            store r1, [r0 + 8]
            halt
        """
        core = run_to_completion(Program(assemble(source)), "unsafe")
        assert core.arch.read_mem(8) == 7


class TestShadowCleanupOnSquash:
    def test_squashed_branches_leave_no_shadow(self):
        core = run_to_completion(nested_mispredict_program(), "dom")
        from repro.pipeline.shadows import INFINITE_SEQ

        assert core.shadows.frontier() == INFINITE_SEQ

    def test_squashed_stores_leave_no_shadow(self):
        source = """
            li r1, 1
            beq r1, r1, over
            store r1, [r0 + 0x900]   # wrong path store: shadow must die
            store r1, [r0 + 0x908]
        over:
            li r2, 5
            store r2, [r0 + 8]
            halt
        """
        core = run_to_completion(Program(assemble(source)), "dom")
        from repro.pipeline.shadows import INFINITE_SEQ

        assert core.shadows.frontier() == INFINITE_SEQ
        assert core.arch.read_mem(0x900) == 0  # never committed

    def test_queues_empty_after_halt(self):
        core = run_to_completion(nested_mispredict_program(), "stt+ap")
        assert not core.lq or all(u.squashed for u in core.lq)
        assert not core.sq or all(u.squashed for u in core.sq)


class TestWrongPathContainment:
    @pytest.mark.parametrize("scheme", ["unsafe", "dom+ap", "stt+ap"])
    def test_wrong_path_stores_never_reach_memory(self, scheme):
        source = """
            li r1, 1
            li r2, 1
            beq r1, r2, skip
            store r1, [r0 + 0x700]
        skip:
            halt
        """
        core = run_to_completion(Program(assemble(source)), scheme)
        assert core.arch.read_mem(0x700) == 0

    def test_wrong_path_loads_do_access_cache(self):
        """Transient loads must really touch the cache (that's Spectre)."""
        source = """
            li r1, 1
            li r2, 1
            beq r1, r2, skip
            load r3, [r0 + 0x7000]
        skip:
            halt
        """
        core = run_to_completion(Program(assemble(source)), "unsafe")
        assert core.hierarchy.is_cached(0x7000)

    def test_fetch_past_program_end_recovers(self):
        """Wrong-path fetch running off the program must not wedge."""
        source = """
            li r1, 1
            beq r1, r1, done
            addi r2, r2, 1
        done:
            store r1, [r0 + 8]
            halt
        """
        core = run_to_completion(Program(assemble(source)), "unsafe")
        assert core.arch.read_mem(8) == 1

    def test_deep_wrong_path_loop_bounded_by_window(self):
        """A mispredict into a tight wrong-path loop must be bounded by
        the ROB and cleaned up on resolution."""
        source = """
            li r1, 1
            li r2, 2
            beq r1, r1, out     # taken; predicted not-taken at first
        spin:
            addi r3, r3, 1
            jmp spin
        out:
            store r2, [r0 + 8]
            halt
        """
        core = run_to_completion(Program(assemble(source)), "unsafe")
        assert core.arch.read_mem(8) == 2
        assert core.stats.squashed_instructions > 0
