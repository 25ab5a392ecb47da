"""A programmatic code builder for generating workloads and gadgets.

``CodeBuilder`` offers label-based control flow with deferred resolution so
kernel generators (``repro.workloads``) and attack gadgets
(``repro.attacks``) can be written without manual instruction indices::

    b = CodeBuilder()
    b.li(1, 0)                    # i = 0
    loop = b.label("loop")
    b.load(2, base=1, disp=BASE)  # r2 = A[i]
    b.addi(1, 1, 8)
    b.blt(1, 3, "loop")           # while i < r3
    b.halt()
    program = b.build(name="sum")
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.common.errors import AssemblyError
from repro.isa.instructions import (
    BRANCH_OPS,
    IMMEDIATE_ALU_OPS,
    NUM_REGISTERS,
    Instruction,
    Opcode,
)
from repro.isa.program import Program

Target = Union[str, int]

DISPLACEMENT_LIMIT = 1 << 52
"""Sanity bound for load/store displacements and ALU immediates.

Far beyond any address the simulated memory system models (caches are a
few KB, footprints a few MB) but small enough to catch the classic
malformed-program bugs — a branch target used as a displacement, an
unmasked 64-bit hash, a negative offset that wrapped.
"""

IMMEDIATE_LIMIT = 1 << 64
"""``li`` may materialize any 64-bit value (signed or unsigned form)."""


class CodeBuilder:
    """Incrementally build a :class:`Program`."""

    def __init__(self) -> None:
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._pending: List[Tuple[int, str]] = []
        self._memory: Dict[int, int] = {}
        self._registers: Dict[int, int] = {}
        self._secret_regions: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Labels and layout
    # ------------------------------------------------------------------
    @property
    def here(self) -> int:
        """Index of the next instruction to be emitted."""
        return len(self._instructions)

    def label(self, name: str) -> int:
        """Bind ``name`` to the current position; returns that position."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = self.here
        return self.here

    def set_memory(self, address: int, value: int) -> None:
        """Set one 8-byte word of the initial memory image."""
        self._memory[address & ~7] = value

    def set_array(
        self,
        base: int,
        values: List[int] | Mapping[int, int] | Iterable[Tuple[int, int]],
    ) -> None:
        """Lay out word values starting at ``base`` (8 bytes apart), as
        :meth:`set_memory` on each in order would: a list from word 0 on,
        a mapping or ``(index, value)`` pairs at each index's word.
        ``(base + 8 * i) & ~7`` is ``(base & ~7) + 8 * i``, so one
        aligned start serves every word."""
        start = base & ~7
        if isinstance(values, list):
            self._memory.update(zip(range(start, start + 8 * len(values), 8), values))
            return
        pairs = values.items() if isinstance(values, Mapping) else values
        self._memory.update((start + 8 * index, value) for index, value in pairs)

    def set_register(self, reg: int, value: int) -> None:
        self._registers[reg] = value

    def mark_secret(self, address: int, words: int = 1) -> None:
        """Declare ``words`` 8-byte words starting at ``address`` secret.

        Recorded on the built :class:`Program` as ``secret_regions`` —
        the single source of truth for "what must not leak", shared by
        the dynamic noninterference oracle and the static specflow
        analyzer.
        """
        if words <= 0:
            raise AssemblyError(f"secret region at {address:#x} has no words")
        start = address & ~7
        self._secret_regions.append((start, start + 8 * words))

    # ------------------------------------------------------------------
    # Instruction emitters
    # ------------------------------------------------------------------
    def emit(self, instruction: Instruction) -> None:
        self._instructions.append(instruction)

    def li(self, rd: int, imm: int) -> None:
        self.emit(Instruction(Opcode.LI, rd=rd, imm=imm))

    def mov(self, rd: int, rs: int) -> None:
        self.emit(Instruction(Opcode.MOV, rd=rd, rs1=rs))

    def _rrr(self, op: Opcode, rd: int, rs1: int, rs2: int) -> None:
        self.emit(Instruction(op, rd=rd, rs1=rs1, rs2=rs2))

    def add(self, rd: int, rs1: int, rs2: int) -> None:
        self._rrr(Opcode.ADD, rd, rs1, rs2)

    def sub(self, rd: int, rs1: int, rs2: int) -> None:
        self._rrr(Opcode.SUB, rd, rs1, rs2)

    def mul(self, rd: int, rs1: int, rs2: int) -> None:
        self._rrr(Opcode.MUL, rd, rs1, rs2)

    def and_(self, rd: int, rs1: int, rs2: int) -> None:
        self._rrr(Opcode.AND, rd, rs1, rs2)

    def or_(self, rd: int, rs1: int, rs2: int) -> None:
        self._rrr(Opcode.OR, rd, rs1, rs2)

    def xor(self, rd: int, rs1: int, rs2: int) -> None:
        self._rrr(Opcode.XOR, rd, rs1, rs2)

    def shl(self, rd: int, rs1: int, rs2: int) -> None:
        self._rrr(Opcode.SHL, rd, rs1, rs2)

    def shr(self, rd: int, rs1: int, rs2: int) -> None:
        self._rrr(Opcode.SHR, rd, rs1, rs2)

    def _rri(self, op: Opcode, rd: int, rs1: int, imm: int) -> None:
        self.emit(Instruction(op, rd=rd, rs1=rs1, imm=imm))

    def addi(self, rd: int, rs1: int, imm: int) -> None:
        self._rri(Opcode.ADDI, rd, rs1, imm)

    def muli(self, rd: int, rs1: int, imm: int) -> None:
        self._rri(Opcode.MULI, rd, rs1, imm)

    def andi(self, rd: int, rs1: int, imm: int) -> None:
        self._rri(Opcode.ANDI, rd, rs1, imm)

    def xori(self, rd: int, rs1: int, imm: int) -> None:
        self._rri(Opcode.XORI, rd, rs1, imm)

    def shli(self, rd: int, rs1: int, imm: int) -> None:
        self._rri(Opcode.SHLI, rd, rs1, imm)

    def shri(self, rd: int, rs1: int, imm: int) -> None:
        self._rri(Opcode.SHRI, rd, rs1, imm)

    def load(self, rd: int, base: int, disp: int = 0) -> None:
        self.emit(Instruction(Opcode.LOAD, rd=rd, rs1=base, imm=disp))

    def store(self, rs: int, base: int, disp: int = 0) -> None:
        self.emit(Instruction(Opcode.STORE, rs2=rs, rs1=base, imm=disp))

    def nop(self, count: int = 1) -> None:
        for _ in range(count):
            self.emit(Instruction(Opcode.NOP))

    def halt(self) -> None:
        self.emit(Instruction(Opcode.HALT))

    def _branch(self, op: Opcode, rs1: int, rs2: int, target: Target) -> None:
        if isinstance(target, str):
            self._pending.append((self.here, target))
            imm = 0
        else:
            imm = target
        self.emit(Instruction(op, rs1=rs1, rs2=rs2, imm=imm))

    def beq(self, rs1: int, rs2: int, target: Target) -> None:
        self._branch(Opcode.BEQ, rs1, rs2, target)

    def bne(self, rs1: int, rs2: int, target: Target) -> None:
        self._branch(Opcode.BNE, rs1, rs2, target)

    def blt(self, rs1: int, rs2: int, target: Target) -> None:
        self._branch(Opcode.BLT, rs1, rs2, target)

    def bge(self, rs1: int, rs2: int, target: Target) -> None:
        self._branch(Opcode.BGE, rs1, rs2, target)

    def jmp(self, target: Target) -> None:
        if isinstance(target, str):
            self._pending.append((self.here, target))
            imm = 0
        else:
            imm = target
        self.emit(Instruction(Opcode.JMP, imm=imm))

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def build(self, name: str = "program") -> Program:
        """Resolve pending labels, validate, and return the program.

        Validation happens here — not at emit time — because branch
        targets only become known once every label is bound.  A malformed
        program raises :class:`AssemblyError` naming the offending
        instruction, instead of failing deep inside the pipeline with an
        opaque ``TypeError`` or a silent wrong-path fetch.
        """
        instructions = list(self._instructions)
        for index, label in self._pending:
            if label not in self._labels:
                raise AssemblyError(f"undefined label {label!r}")
            original = instructions[index]
            instructions[index] = Instruction(
                original.opcode,
                rd=original.rd,
                rs1=original.rs1,
                rs2=original.rs2,
                imm=self._labels[label],
                label=original.label,
            )
        self._validate(instructions, name)
        return Program(
            instructions,
            initial_memory=self._memory,
            initial_registers=self._registers,
            name=name,
            secret_regions=self._secret_regions,
        )

    def _validate(self, instructions: List[Instruction], name: str) -> None:
        for index, inst in enumerate(instructions):
            problem = _instruction_problem(inst, len(instructions))
            if problem is not None:
                raise AssemblyError(
                    f"{name}: instruction {index} ({inst.disassemble()}): "
                    f"{problem}",
                    line=index,
                )
        for reg in self._registers:
            if not 0 <= reg < NUM_REGISTERS:
                raise AssemblyError(
                    f"{name}: initial value for register r{reg} out of "
                    f"range (0..{NUM_REGISTERS - 1})"
                )
        memory = self._memory
        if memory and not (min(memory) >= 0 and max(memory) < 1 << 64):
            address = next(a for a in memory if not 0 <= a < 1 << 64)
            raise AssemblyError(
                f"{name}: initial memory address {address:#x} outside "
                "the 64-bit address space"
            )


def _require(value: Optional[int], what: str) -> Optional[str]:
    if value is None:
        return f"missing {what} operand"
    return None


def _instruction_problem(inst: Instruction, length: int) -> Optional[str]:
    """Why ``inst`` is malformed, or None.

    Register *ranges* are already enforced by
    :meth:`Instruction.__post_init__`; this layer checks operand
    *presence* per opcode class, displacement/immediate magnitudes, and
    that branch targets land inside the program (``length`` itself is
    allowed: it is an explicit fall-off-the-end exit, which the
    interpreter defines).
    """
    op = inst.opcode
    if op is Opcode.NOP or op is Opcode.HALT:
        return None
    if op in BRANCH_OPS:
        if op is not Opcode.JMP:
            problem = _require(inst.rs1, "rs1") or _require(inst.rs2, "rs2")
            if problem:
                return problem
        if not 0 <= inst.imm <= length:
            return (
                f"branch target {inst.imm} outside program (0..{length})"
            )
        return None
    if op is Opcode.LOAD:
        problem = _require(inst.rd, "destination") or _require(inst.rs1, "base")
        if problem:
            return problem
        if abs(inst.imm) >= DISPLACEMENT_LIMIT:
            return f"displacement {inst.imm} exceeds ±2^52 sanity bound"
        return None
    if op is Opcode.STORE:
        problem = _require(inst.rs1, "base") or _require(inst.rs2, "data")
        if problem:
            return problem
        if abs(inst.imm) >= DISPLACEMENT_LIMIT:
            return f"displacement {inst.imm} exceeds ±2^52 sanity bound"
        return None
    # ALU family.
    problem = _require(inst.rd, "destination")
    if problem:
        return problem
    if op is Opcode.LI:
        if not -IMMEDIATE_LIMIT < inst.imm < IMMEDIATE_LIMIT:
            return f"immediate {inst.imm} does not fit in 64 bits"
        return None
    problem = _require(inst.rs1, "rs1")
    if problem:
        return problem
    if op in IMMEDIATE_ALU_OPS:
        if abs(inst.imm) >= DISPLACEMENT_LIMIT:
            return f"immediate {inst.imm} exceeds ±2^52 sanity bound"
        return None
    if op is Opcode.MOV:
        return None
    return _require(inst.rs2, "rs2")
