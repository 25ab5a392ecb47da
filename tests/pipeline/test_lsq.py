"""Load/store queue behaviour: forwarding, violations, invalidations."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.builder import CodeBuilder
from repro.isa.program import Program
from repro.pipeline.core import Core
from repro.schemes import SCHEME_LABELS, make_scheme

from tests.conftest import run_to_completion


class TestStoreToLoadForwarding:
    @pytest.mark.parametrize("scheme_name", SCHEME_LABELS)
    def test_load_after_store_same_address(self, scheme_name):
        program = Program(
            assemble(
                """
                li r1, 42
                store r1, [r0 + 0x400]
                load r2, [r0 + 0x400]
                addi r3, r2, 0
                store r3, [r0 + 8]
                halt
                """
            )
        )
        core = run_to_completion(program, scheme_name)
        assert core.arch.read_mem(8) == 42

    def test_forwarding_stat_counted(self):
        b = CodeBuilder()
        b.li(1, 20)
        b.li(2, 0)
        b.li(4, 5)
        b.label("loop")
        b.store(4, 0, disp=0x400)
        b.load(5, 0, disp=0x400)
        b.add(4, 5, 5)
        b.addi(2, 2, 1)
        b.blt(2, 1, "loop")
        b.halt()
        core = run_to_completion(b.build(), "unsafe")
        assert core.stats.store_to_load_forwards > 0

    @pytest.mark.parametrize("scheme_name", ["unsafe", "nda", "stt", "dom"])
    def test_youngest_matching_store_wins(self, scheme_name):
        program = Program(
            assemble(
                """
                li r1, 1
                li r2, 2
                store r1, [r0 + 0x400]
                store r2, [r0 + 0x400]
                load r3, [r0 + 0x400]
                store r3, [r0 + 8]
                halt
                """
            )
        )
        core = run_to_completion(program, scheme_name)
        assert core.arch.read_mem(8) == 2

    def test_store_to_different_word_not_forwarded(self):
        program = Program(
            assemble(
                """
                li r1, 9
                store r1, [r0 + 0x400]
                load r2, [r0 + 0x408]
                store r2, [r0 + 8]
                halt
                """
            ),
            initial_memory={0x408: 55},
        )
        core = run_to_completion(program, "unsafe")
        assert core.arch.read_mem(8) == 55


class TestMemoryOrderViolations:
    def _violation_program(self) -> Program:
        """A store whose address resolves slowly, followed by a load to the
        same address that will speculatively read stale data."""
        b = CodeBuilder()
        b.set_memory(0x500, 111)       # stale value
        b.li(1, 0x500)
        b.li(2, 99)                    # value to store
        # Make the store's address depend on a long multiply chain.
        b.li(3, 1)
        for _ in range(10):
            b.mul(3, 3, 3)             # r3 stays 1, but slowly
        b.mul(4, 1, 3)                 # r4 = 0x500, late
        b.store(2, 4)                  # store 99 -> [0x500], address late
        b.load(5, 1)                   # load [0x500] — issues early, stale
        b.store(5, 0, disp=8)          # checksum must be 99
        b.halt()
        return b.build(name="violation")

    @pytest.mark.parametrize("scheme_name", SCHEME_LABELS)
    def test_violation_repaired(self, scheme_name):
        core = run_to_completion(self._violation_program(), scheme_name)
        assert core.arch.read_mem(8) == 99

    def test_violation_squashes_on_unsafe(self):
        core = run_to_completion(self._violation_program(), "unsafe")
        # The stale load must have been squashed and refetched.
        assert core.stats.squashed_instructions >= 1


class TestInvalidation:
    def test_invalidation_removes_cached_line(self):
        program = Program(assemble("load r1, [r0 + 0x600]\nhalt"))
        core = run_to_completion(program, "unsafe")
        assert core.hierarchy.is_cached(0x600)
        core.inject_invalidation(0x600)
        assert not core.hierarchy.is_cached(0x600)

    def test_invalidation_snoops_executed_loads(self):
        """An invalidation matching an executed, out-of-order load while an
        older load is still incomplete squashes it (consistency repair)."""
        b = CodeBuilder()
        b.set_memory(0x700, 1)
        b.set_memory(0x10000, 2)
        b.li(1, 0x10000)
        b.load(2, 1)          # slow (DRAM) older load
        b.load(3, 0, disp=0x700)  # fast younger load, executes first
        b.add(4, 2, 3)
        b.store(4, 0, disp=8)
        b.halt()
        core = Core(b.build(), make_scheme("unsafe"))
        # Step until the younger load has a value but the older doesn't.
        for _ in range(30):
            core.step()
        young = [u for u in core.lq if u.pc == 2]
        if young and young[0].result is not None:
            before = core.stats.squashed_instructions
            core.inject_invalidation(0x700)
            assert core.stats.lq_invalidation_matches >= 1
            assert core.stats.squashed_instructions > before
        core.run()
        assert core.arch.read_mem(8) == 3
