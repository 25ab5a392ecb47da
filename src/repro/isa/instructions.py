"""The micro-ISA executed by the simulator.

A small RISC-style integer ISA: 32 general-purpose registers (``r0`` is
hardwired to zero), a flat 64-bit byte-addressed memory, and the minimal
set of operations needed to express the paper's attack gadgets and
SPEC-like synthetic kernels:

* ALU: ``li, mov, add, sub, mul, and, or, xor, shl, shr`` plus immediate
  forms ``addi, muli, andi, xori, shli, shri``.
* Memory: ``load rd, [rs1 + imm]`` and ``store rs2, [rs1 + imm]``.
* Control: conditional branches ``beq, bne, blt, bge`` (register-register),
  unconditional ``jmp``, and ``halt``.

Instructions are static objects; the pipeline wraps each dynamic instance
in a :class:`repro.pipeline.uop.MicroOp`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.common.errors import AssemblyError, ExecutionError

NUM_REGISTERS = 32
WORD_MASK = (1 << 64) - 1


class Opcode(enum.Enum):
    """Every operation in the micro-ISA."""

    LI = "li"
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    ADDI = "addi"
    MULI = "muli"
    ANDI = "andi"
    XORI = "xori"
    SHLI = "shli"
    SHRI = "shri"
    LOAD = "load"
    STORE = "store"
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    JMP = "jmp"
    NOP = "nop"
    HALT = "halt"


ALU_OPS = frozenset(
    {
        Opcode.LI,
        Opcode.MOV,
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.ADDI,
        Opcode.MULI,
        Opcode.ANDI,
        Opcode.XORI,
        Opcode.SHLI,
        Opcode.SHRI,
    }
)
BRANCH_OPS = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.JMP})
CONDITIONAL_BRANCH_OPS = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE})
IMMEDIATE_ALU_OPS = frozenset(
    {Opcode.ADDI, Opcode.MULI, Opcode.ANDI, Opcode.XORI, Opcode.SHLI, Opcode.SHRI}
)
MUL_OPS = frozenset({Opcode.MUL, Opcode.MULI})


def _check_reg(value: Optional[int], what: str) -> None:
    if value is None:
        return
    if not 0 <= value < NUM_REGISTERS:
        raise AssemblyError(f"{what} r{value} out of range (0..{NUM_REGISTERS - 1})")


# Instruction kind codes, precomputed per static instruction so the
# pipeline's hot paths dispatch on a plain int instead of enum lookups.
KIND_ALU = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_CBRANCH = 3
KIND_JMP = 4
KIND_NOP = 5
KIND_HALT = 6


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Operand conventions by opcode class:

    * ALU register-register: ``rd``, ``rs1``, ``rs2``.
    * ALU immediate / LI / MOV: ``rd``, ``rs1`` (except LI), ``imm``.
    * LOAD: ``rd``, base ``rs1``, displacement ``imm``.
    * STORE: data ``rs2``, base ``rs1``, displacement ``imm``.
    * Conditional branches: ``rs1``, ``rs2``, target ``imm`` (absolute PC).
    * JMP: target ``imm``.
    """

    opcode: Opcode
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    label: Optional[str] = None
    """Optional human-readable tag (used in disassembly and tests)."""

    def __post_init__(self) -> None:
        _check_reg(self.rd, "destination")
        _check_reg(self.rs1, "source 1")
        _check_reg(self.rs2, "source 2")
        # Precompute hot-path classification (frozen dataclass, so set via
        # object.__setattr__).  ``kind`` is one of the KIND_* codes.
        op = self.opcode
        if op in ALU_OPS:
            kind = KIND_ALU
        elif op is Opcode.LOAD:
            kind = KIND_LOAD
        elif op is Opcode.STORE:
            kind = KIND_STORE
        elif op in CONDITIONAL_BRANCH_OPS:
            kind = KIND_CBRANCH
        elif op is Opcode.JMP:
            kind = KIND_JMP
        elif op is Opcode.NOP:
            kind = KIND_NOP
        else:
            kind = KIND_HALT
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "writes", self.rd is not None and self.rd != 0)
        object.__setattr__(self, "is_mul", op in MUL_OPS)
        # Bind the functional evaluator once per static instruction so the
        # execute stage calls a plain function instead of walking an
        # opcode chain per dynamic instance.
        object.__setattr__(self, "alu_fn", _ALU_FUNCS.get(op))
        object.__setattr__(self, "branch_fn", _BRANCH_FUNCS.get(op))

    # ------------------------------------------------------------------
    # Classification helpers (properties mirror the precomputed fields)
    # ------------------------------------------------------------------
    @property
    def is_load(self) -> bool:
        return self.kind == KIND_LOAD

    @property
    def is_store(self) -> bool:
        return self.kind == KIND_STORE

    @property
    def is_branch(self) -> bool:
        return self.kind == KIND_CBRANCH or self.kind == KIND_JMP

    @property
    def is_conditional_branch(self) -> bool:
        return self.kind == KIND_CBRANCH

    @property
    def is_alu(self) -> bool:
        return self.kind == KIND_ALU

    @property
    def writes_register(self) -> bool:
        return self.writes

    def source_registers(self) -> Tuple[int, ...]:
        """Architectural registers read by this instruction (r0 excluded)."""
        sources = []
        if self.rs1 is not None and self.rs1 != 0:
            sources.append(self.rs1)
        if self.rs2 is not None and self.rs2 != 0:
            sources.append(self.rs2)
        return tuple(sources)

    def disassemble(self) -> str:
        """Render back to assembler syntax."""
        op = self.opcode
        if op is Opcode.NOP or op is Opcode.HALT:
            return op.value
        if op is Opcode.LI:
            return f"li r{self.rd}, {self.imm}"
        if op is Opcode.MOV:
            return f"mov r{self.rd}, r{self.rs1}"
        if op is Opcode.LOAD:
            return f"load r{self.rd}, [r{self.rs1} + {self.imm}]"
        if op is Opcode.STORE:
            return f"store r{self.rs2}, [r{self.rs1} + {self.imm}]"
        if op is Opcode.JMP:
            return f"jmp {self.imm}"
        if op in CONDITIONAL_BRANCH_OPS:
            return f"{op.value} r{self.rs1}, r{self.rs2}, {self.imm}"
        if op in IMMEDIATE_ALU_OPS:
            return f"{op.value} r{self.rd}, r{self.rs1}, {self.imm}"
        return f"{op.value} r{self.rd}, r{self.rs1}, r{self.rs2}"

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.disassemble()


def _add(a: int, b: int) -> int:
    return (a + b) & WORD_MASK


def _sub(a: int, b: int) -> int:
    return (a - b) & WORD_MASK


def _mul(a: int, b: int) -> int:
    return (a * b) & WORD_MASK


def _and(a: int, b: int) -> int:
    return a & b


def _or(a: int, b: int) -> int:
    return a | b


def _xor(a: int, b: int) -> int:
    return a ^ b


def _shl(a: int, b: int) -> int:
    return (a << (b & 63)) & WORD_MASK


def _shr(a: int, b: int) -> int:
    return a >> (b & 63)


def _mov(a: int, b: int) -> int:
    return a


def _li(a: int, b: int) -> int:
    return b & WORD_MASK


#: Opcode -> evaluator dispatch table; the execute stage binds these once
#: per static instruction (``Instruction.alu_fn``) so a dynamic instance
#: pays one call, not an if/elif chain.
_ALU_FUNCS = {
    Opcode.ADD: _add,
    Opcode.ADDI: _add,
    Opcode.SUB: _sub,
    Opcode.MUL: _mul,
    Opcode.MULI: _mul,
    Opcode.AND: _and,
    Opcode.ANDI: _and,
    Opcode.OR: _or,
    Opcode.XOR: _xor,
    Opcode.XORI: _xor,
    Opcode.SHL: _shl,
    Opcode.SHLI: _shl,
    Opcode.SHR: _shr,
    Opcode.SHRI: _shr,
    Opcode.MOV: _mov,
    Opcode.LI: _li,
}


def evaluate_alu(opcode: Opcode, a: int, b: int) -> int:
    """Functionally evaluate an ALU operation on 64-bit unsigned values."""
    fn = _ALU_FUNCS.get(opcode)
    if fn is None:
        raise ExecutionError(f"{opcode} is not an ALU opcode")
    return fn(a, b)


def _signed(value: int) -> int:
    return value - (1 << 64) if value >> 63 else value


def _jmp_taken(a: int, b: int) -> bool:
    return True


def _beq(a: int, b: int) -> bool:
    return a == b


def _bne(a: int, b: int) -> bool:
    return a != b


def _blt(a: int, b: int) -> bool:
    return _signed(a) < _signed(b)


def _bge(a: int, b: int) -> bool:
    return _signed(a) >= _signed(b)


#: Opcode -> predicate dispatch table (``Instruction.branch_fn``).
#: ``blt``/``bge`` compare as two's-complement signed 64-bit values,
#: which lets kernels count down through zero.
_BRANCH_FUNCS = {
    Opcode.JMP: _jmp_taken,
    Opcode.BEQ: _beq,
    Opcode.BNE: _bne,
    Opcode.BLT: _blt,
    Opcode.BGE: _bge,
}


def branch_taken(opcode: Opcode, a: int, b: int) -> bool:
    """Evaluate a branch predicate."""
    fn = _BRANCH_FUNCS.get(opcode)
    if fn is None:
        raise ExecutionError(f"{opcode} is not a branch opcode")
    return fn(a, b)
