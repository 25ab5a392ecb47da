"""Programs: static instruction sequences plus initial memory images.

A :class:`Program` is what the simulator executes.  Its functional
reference semantics live in :meth:`Program.interpret`, used by tests to
check that the out-of-order core commits exactly the architectural state a
simple in-order interpreter produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.isa.instructions import (
    NUM_REGISTERS,
    WORD_MASK,
    Instruction,
    Opcode,
    branch_taken,
    evaluate_alu,
)

WORD_SIZE = 8
"""Memory is addressed in bytes but loads/stores move 8-byte words."""

_WORD_ALIGN = ~(WORD_SIZE - 1) & WORD_MASK


@dataclass
class ArchState:
    """Architectural state: registers and word-granular memory."""

    registers: List[int] = field(default_factory=lambda: [0] * NUM_REGISTERS)
    memory: Dict[int, int] = field(default_factory=dict)

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.registers[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.registers[index] = value & WORD_MASK

    def read_mem(self, address: int) -> int:
        """Read the 8-byte word containing ``address`` (word-aligned)."""
        return self.memory.get(address & _WORD_ALIGN, 0)

    def write_mem(self, address: int, value: int) -> None:
        self.memory[address & _WORD_ALIGN] = value & WORD_MASK

    def copy(self) -> "ArchState":
        return ArchState(list(self.registers), dict(self.memory))


@dataclass
class InterpreterResult:
    """Outcome of functional interpretation."""

    state: ArchState
    instructions_executed: int
    halted: bool
    branch_trace: List[bool] = field(default_factory=list)
    mem_trace: Optional[List[Tuple[int, int, bool]]] = None
    """With ``interpret(trace_mem=True)``: every memory access in program
    order as ``(pc, word_address, is_store)``.  The static leakage
    analyzer compares these traces across secret values to detect
    *architectural* channels (access patterns that depend on the secret
    with no speculation involved)."""


def _word_image(memory: Dict[int, int]) -> Dict[int, int]:
    """``memory`` as :meth:`ArchState.write_mem` would store it, entry by
    entry: word-aligned addresses, 64-bit-masked values, the last entry
    for a word winning.  ``memory`` itself when no entry needs aligning
    or masking."""
    if all(
        addr & _WORD_ALIGN == addr and value & WORD_MASK == value
        for addr, value in memory.items()
    ):
        return memory
    return {addr & _WORD_ALIGN: value & WORD_MASK for addr, value in memory.items()}


class Program:
    """A static program: instructions, entry point, and initial memory.

    A Program is not mutated after construction.  Cores only read it, so
    one instance can serve any number of runs; the harness's last-built
    stand-in (``run_benchmark``) relies on that.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        initial_memory: Optional[Mapping[int, int]] = None,
        initial_registers: Optional[Mapping[int, int]] = None,
        name: str = "program",
        secret_regions: Sequence[Sequence[int]] = (),
    ):
        self.instructions: List[Instruction] = list(instructions)
        self.initial_memory: Dict[int, int] = dict(initial_memory or {})
        self.memory_image: Dict[int, int] = _word_image(self.initial_memory)
        """The memory every :meth:`initial_state` starts from (a copy of
        it): computed once here, since the program never changes."""
        self.initial_registers: Dict[int, int] = dict(initial_registers or {})
        self.name = name
        self.secret_regions: Tuple[Tuple[int, int], ...] = tuple(
            sorted((int(start), int(end)) for start, end in secret_regions)
        )
        """Half-open byte ranges ``[start, end)`` holding secret data.

        Declared by gadget builders (:meth:`CodeBuilder.mark_secret`) and
        consumed by both judges of the noninterference property: the
        dynamic oracle varies exactly these words between runs, and the
        static analyzer (``repro.analysis.specflow``) seeds its taint
        lattice from them.
        """
        for start, end in self.secret_regions:
            if start >= end:
                raise ExecutionError(
                    f"{name}: empty secret region [{start:#x}, {end:#x})"
                )

    def secret_words(self) -> Tuple[int, ...]:
        """Every word-aligned address covered by a secret region."""
        words = set()
        for start, end in self.secret_regions:
            addr = start & ~(WORD_SIZE - 1)
            while addr < end:
                words.add(addr)
                addr += WORD_SIZE
        return tuple(sorted(words))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def fetch(self, pc: int) -> Optional[Instruction]:
        """The instruction at ``pc``, or None past the end of the program.

        Wrong-path fetch can run past the program; the front-end treats a
        None fetch as an implicit halt bubble.
        """
        if 0 <= pc < len(self.instructions):
            return self.instructions[pc]
        return None

    def initial_state(self) -> ArchState:
        """A fresh architectural state; writing to it never changes the
        program or the next state it hands out."""
        state = ArchState(memory=dict(self.memory_image))
        for reg, value in self.initial_registers.items():
            state.write_reg(reg, value)
        return state

    def disassemble(self) -> str:
        return "\n".join(
            f"{pc:5d}: {inst.disassemble()}" for pc, inst in enumerate(self.instructions)
        )

    # ------------------------------------------------------------------
    # Serialization (used by fuzz repro files)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able description that round-trips via :meth:`from_dict`.

        Memory/register keys become strings because JSON objects cannot
        have integer keys.
        """
        return {
            "name": self.name,
            "instructions": [
                {
                    "opcode": inst.opcode.value,
                    "rd": inst.rd,
                    "rs1": inst.rs1,
                    "rs2": inst.rs2,
                    "imm": inst.imm,
                    "label": inst.label,
                }
                for inst in self.instructions
            ],
            "initial_memory": {
                str(addr): value for addr, value in sorted(self.initial_memory.items())
            },
            "initial_registers": {
                str(reg): value
                for reg, value in sorted(self.initial_registers.items())
            },
            "secret_regions": [list(region) for region in self.secret_regions],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Program":
        """Rebuild a program serialized with :meth:`to_dict`."""
        instructions = [
            Instruction(
                Opcode(entry["opcode"]),
                rd=entry.get("rd"),
                rs1=entry.get("rs1"),
                rs2=entry.get("rs2"),
                imm=entry.get("imm", 0),
                label=entry.get("label"),
            )
            for entry in payload["instructions"]
        ]
        return cls(
            instructions,
            initial_memory={
                int(addr): value
                for addr, value in payload.get("initial_memory", {}).items()
            },
            initial_registers={
                int(reg): value
                for reg, value in payload.get("initial_registers", {}).items()
            },
            name=payload.get("name", "program"),
            secret_regions=payload.get("secret_regions", ()),
        )

    # ------------------------------------------------------------------
    # Functional reference semantics
    # ------------------------------------------------------------------
    def interpret(
        self, max_instructions: int = 10_000_000, trace_mem: bool = False
    ) -> InterpreterResult:
        """Run the program on a simple in-order interpreter.

        Returns the final architectural state; used as the golden reference
        for the out-of-order core and for deriving branch traces.  With
        ``trace_mem`` the result additionally records every memory access
        as ``(pc, word_address, is_store)`` — the raw material for the
        static analyzer's architectural-channel check.
        """
        state = self.initial_state()
        pc = 0
        executed = 0
        branch_trace: List[bool] = []
        mem_trace: Optional[List[Tuple[int, int, bool]]] = [] if trace_mem else None
        program_len = len(self.instructions)
        word_align = _WORD_ALIGN
        while 0 <= pc < program_len:
            if executed >= max_instructions:
                raise ExecutionError(
                    f"{self.name}: exceeded {max_instructions} interpreted instructions"
                )
            inst = self.instructions[pc]
            executed += 1
            op = inst.opcode
            if op is Opcode.HALT:
                return InterpreterResult(state, executed, True, branch_trace, mem_trace)
            if op is Opcode.NOP:
                pc += 1
            elif inst.is_alu:
                a = state.read_reg(inst.rs1) if inst.rs1 is not None else 0
                b = inst.imm if inst.rs2 is None else state.read_reg(inst.rs2)
                state.write_reg(inst.rd, evaluate_alu(op, a, b))
                pc += 1
            elif op is Opcode.LOAD:
                address = (state.read_reg(inst.rs1) + inst.imm) & WORD_MASK
                if mem_trace is not None:
                    mem_trace.append((pc, address & word_align, False))
                state.write_reg(inst.rd, state.read_mem(address))
                pc += 1
            elif op is Opcode.STORE:
                address = (state.read_reg(inst.rs1) + inst.imm) & WORD_MASK
                if mem_trace is not None:
                    mem_trace.append((pc, address & word_align, True))
                state.write_mem(address, state.read_reg(inst.rs2))
                pc += 1
            elif inst.is_branch:
                a = state.read_reg(inst.rs1) if inst.rs1 is not None else 0
                b = state.read_reg(inst.rs2) if inst.rs2 is not None else 0
                taken = branch_taken(op, a, b)
                if inst.is_conditional_branch:
                    branch_trace.append(taken)
                pc = inst.imm if taken else pc + 1
            else:  # pragma: no cover - all opcodes handled above
                raise ExecutionError(f"unhandled opcode {op}")
        return InterpreterResult(state, executed, False, branch_trace, mem_trace)
