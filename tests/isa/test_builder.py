"""Dedicated tests for the CodeBuilder front-end."""

import pytest

from repro.common.errors import AssemblyError
from repro.isa.builder import CodeBuilder
from repro.isa.instructions import Opcode
from repro.isa.program import Program


class TestEmitters:
    def test_every_alu_emitter(self):
        b = CodeBuilder()
        emitters = [
            ("add", Opcode.ADD), ("sub", Opcode.SUB), ("mul", Opcode.MUL),
            ("and_", Opcode.AND), ("or_", Opcode.OR), ("xor", Opcode.XOR),
            ("shl", Opcode.SHL), ("shr", Opcode.SHR),
        ]
        for name, _ in emitters:
            getattr(b, name)(1, 2, 3)
        b.halt()
        program = b.build()
        for (name, opcode), inst in zip(emitters, program.instructions):
            assert inst.opcode is opcode
            assert (inst.rd, inst.rs1, inst.rs2) == (1, 2, 3)

    def test_every_immediate_emitter(self):
        b = CodeBuilder()
        emitters = [
            ("addi", Opcode.ADDI), ("muli", Opcode.MULI), ("andi", Opcode.ANDI),
            ("xori", Opcode.XORI), ("shli", Opcode.SHLI), ("shri", Opcode.SHRI),
        ]
        for name, _ in emitters:
            getattr(b, name)(1, 2, 9)
        b.halt()
        for (name, opcode), inst in zip(emitters, b.build().instructions):
            assert inst.opcode is opcode
            assert inst.imm == 9

    def test_branch_emitters_with_numeric_targets(self):
        b = CodeBuilder()
        b.beq(1, 2, 10)
        b.bne(1, 2, 11)
        b.blt(1, 2, 12)
        b.bge(1, 2, 13)
        b.jmp(14)
        b.nop(9)
        b.halt()
        program = b.build()
        assert [i.imm for i in program.instructions[:5]] == [10, 11, 12, 13, 14]

    def test_nop_count(self):
        b = CodeBuilder()
        b.nop(5)
        assert b.here == 5

    def test_memory_operands(self):
        b = CodeBuilder()
        b.load(1, base=2, disp=-8)
        b.store(3, base=4, disp=16)
        b.halt()
        load, store, _ = b.build().instructions
        assert (load.rd, load.rs1, load.imm) == (1, 2, -8)
        assert (store.rs2, store.rs1, store.imm) == (3, 4, 16)


class TestLabels:
    def test_duplicate_label_rejected_immediately(self):
        b = CodeBuilder()
        b.label("x")
        with pytest.raises(AssemblyError, match="duplicate"):
            b.label("x")

    def test_label_returns_position(self):
        b = CodeBuilder()
        b.nop(3)
        assert b.label("late") == 3

    def test_forward_reference_resolved_at_build(self):
        b = CodeBuilder()
        b.jmp("end")
        b.nop(4)
        b.label("end")
        b.halt()
        program = b.build()
        assert program.instructions[0].imm == 5

    def test_build_is_repeatable(self):
        b = CodeBuilder()
        b.li(1, 5)
        b.jmp("end")
        b.label("end")
        b.halt()
        first = b.build()
        second = b.build()
        assert first.instructions == second.instructions


class TestBuildValidation:
    """``build()`` rejects malformed programs with a named instruction."""

    def test_branch_target_past_end_rejected(self):
        b = CodeBuilder()
        b.beq(1, 2, 10)
        b.halt()
        with pytest.raises(AssemblyError, match="branch target 10 outside"):
            b.build(name="bad-branch")

    def test_branch_target_program_length_is_allowed(self):
        # Target == len is an explicit fall-off-the-end exit, which the
        # interpreter defines; it must assemble.
        b = CodeBuilder()
        b.beq(1, 2, 2)
        b.halt()
        program = b.build()
        assert program.instructions[0].imm == 2

    def test_negative_branch_target_rejected(self):
        b = CodeBuilder()
        b.jmp(-1)
        b.halt()
        with pytest.raises(AssemblyError, match="branch target -1"):
            b.build()

    def test_huge_displacement_rejected(self):
        b = CodeBuilder()
        b.load(1, base=2, disp=1 << 53)
        b.halt()
        with pytest.raises(AssemblyError, match="displacement"):
            b.build()

    def test_error_names_instruction_and_program(self):
        b = CodeBuilder()
        b.nop()
        b.store(3, base=4, disp=-(1 << 60))
        b.halt()
        with pytest.raises(AssemblyError) as excinfo:
            b.build(name="diag")
        assert "diag: instruction 1" in str(excinfo.value)
        assert excinfo.value.line == 1

    def test_register_init_out_of_range_rejected(self):
        b = CodeBuilder()
        b.set_register(32, 1)
        b.halt()
        with pytest.raises(AssemblyError, match="register r32"):
            b.build()

    def test_memory_init_outside_address_space_rejected(self):
        b = CodeBuilder()
        b.set_memory(1 << 64, 1)
        b.halt()
        with pytest.raises(AssemblyError, match="64-bit address space"):
            b.build()

    @pytest.mark.parametrize("bad", [-8, 1 << 64])
    def test_memory_init_names_the_first_address_outside(self, bad):
        b = CodeBuilder()
        for address in (0x10, bad, 0x20, (1 << 64) + 8, -16):
            b.set_memory(address, 1)
        b.halt()
        with pytest.raises(AssemblyError) as excinfo:
            b.build(name="edges")
        assert str(excinfo.value) == (
            f"edges: initial memory address {bad:#x} outside the 64-bit address space"
        )

    def test_oversized_li_immediate_rejected(self):
        b = CodeBuilder()
        b.li(1, 1 << 64)
        b.halt()
        with pytest.raises(AssemblyError, match="does not fit in 64 bits"):
            b.build()


class TestInitialState:
    def test_registers_and_memory(self):
        b = CodeBuilder()
        b.set_register(4, 99)
        b.set_memory(0x123, 7)  # unaligned: stored word-aligned
        b.halt()
        state = b.build().initial_state()
        assert state.read_reg(4) == 99
        assert state.read_mem(0x120) == 7

    def test_program_name(self):
        b = CodeBuilder()
        b.halt()
        assert b.build(name="zebra").name == "zebra"

    def test_runs_on_interpreter_and_core(self):
        from repro.pipeline.core import Core
        from repro.schemes import make_scheme

        b = CodeBuilder()
        b.set_register(1, 6)
        b.set_register(2, 7)
        b.mul(3, 1, 2)
        b.store(3, 0, disp=8)
        b.halt()
        program = b.build()
        assert program.interpret().state.read_mem(8) == 42
        core = Core(program, make_scheme("unsafe"))
        core.run()
        assert core.arch.read_mem(8) == 42


class TestSetArray:
    """``set_array`` against one ``set_memory`` per value, in order."""

    @staticmethod
    def image(fill):
        b = CodeBuilder()
        b.set_memory(0x2008, 99)   # overwritten below: keeps its position
        b.set_memory(0x9000, 1)
        fill(b)
        b.halt()
        return list(b.build().initial_memory.items())

    @pytest.mark.parametrize("base", [0x2000, 0x2003, 0x1FFF])
    def test_a_list_lands_where_set_memory_puts_it(self, base):
        values = [5, 6, 7, 8]

        def one_by_one(b):
            for index, value in enumerate(values):
                b.set_memory(base + 8 * index, value)

        assert self.image(lambda b: b.set_array(base, values)) == self.image(
            one_by_one
        )

    @pytest.mark.parametrize("base", [0x2000, 0x2005])
    @pytest.mark.parametrize("form", [dict, iter], ids=["mapping", "pairs"])
    def test_indexed_values_land_at_their_words(self, base, form):
        """An index given twice keeps its first position and last value."""
        pairs = [(3, 30), (0, 0), (1, 10), (7, 70), (3, 33)]

        def one_by_one(b):
            for index, value in pairs:
                b.set_memory(base + 8 * index, value)

        assert self.image(lambda b: b.set_array(base, form(pairs))) == self.image(
            one_by_one
        )

    def test_an_empty_list_writes_nothing(self):
        assert self.image(lambda b: b.set_array(0x2003, [])) == [
            (0x2008, 99), (0x9000, 1)
        ]
