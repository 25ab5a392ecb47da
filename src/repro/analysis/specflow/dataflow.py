"""Forward taint dataflow over a micro-ISA program.

Two instantiations of one worklist engine:

* the **architectural pass** runs over the whole program and tracks
  where certainly-architectural secret reads flow (sources: loads whose
  constant address falls in a declared secret region, plus loads the
  concrete two-image interpretation *witnessed* touching a secret —
  see :mod:`~repro.analysis.specflow.analyzer`);
* a **window pass** per conditional branch re-runs the flow restricted
  to that branch's speculation window, seeded with the architectural
  state at the branch (facts re-keyed ``pre`` — data the shadow did not
  acquire, which NDA/STT do *not* protect) and additionally treating
  unknown-address loads inside the window as speculative secret sources
  (``spec`` — under misspeculation an unconstrained address may alias
  the secret; this is exactly Spectre v1's bounds-check bypass).

The value domain per register is ``int`` (known constant) or ``None``
(unknown); the taint domain is a set of :class:`TaintFact` keys with a
best-effort def-use path attached.  Joins are key-unions (first path
wins), so the abstraction is a finite lattice and the fixpoint
terminates; an explicit budget guards the quadratic window passes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.common.errors import SpecflowBudgetError
from repro.isa.instructions import (
    KIND_ALU,
    KIND_CBRANCH,
    KIND_HALT,
    KIND_JMP,
    KIND_LOAD,
    KIND_NOP,
    KIND_STORE,
    WORD_MASK,
)
from repro.isa.program import WORD_SIZE, Program
from repro.analysis.specflow.model import KIND_ARCH, KIND_PRE, KIND_SPEC

#: A taint is {(kind, source_pc): def-use path}; paths never influence
#: convergence (joins keep the first path seen for a key).
Taint = Dict[Tuple[str, int], Tuple[int, ...]]

#: Source predicate: (pc, const_word_address_or_None) -> fact kind or None.
SourceFn = Callable[[int, Optional[int]], Optional[str]]

_WORD_ALIGN = ~(WORD_SIZE - 1) & WORD_MASK
_PATH_CAP = 12


def initial_image(program: Program) -> Dict[int, int]:
    """``initial_memory`` normalized the way the interpreter sees it:
    word-aligned addresses, 64-bit-masked values (read-only: it is the
    program's own :attr:`~Program.memory_image`)."""
    return program.memory_image

#: Worklist budget: pc-visits across one dataflow run.  Far above anything
#: a real gadget needs (they fix in a few hundred visits) while bounding
#: adversarial fuzz inputs.
DEFAULT_BUDGET = 250_000


class AbsState:
    """Abstract machine state at one program point."""

    __slots__ = ("regs", "mem_over", "mem_taint", "heap_taint", "clobbered")

    def __init__(
        self,
        regs: List[Tuple[Optional[int], Taint]],
        mem_over: Dict[int, Optional[int]],
        mem_taint: Dict[int, Taint],
        heap_taint: Taint,
        clobbered: bool,
    ):
        self.regs = regs
        self.mem_over = mem_over
        self.mem_taint = mem_taint
        self.heap_taint = heap_taint
        self.clobbered = clobbered

    @classmethod
    def entry(cls, program: Program) -> "AbsState":
        regs: List[Tuple[Optional[int], Taint]] = [(0, {})] * 32
        for reg, value in program.initial_registers.items():
            if reg != 0:
                regs[reg] = (value & WORD_MASK, {})
        return cls(regs, {}, {}, {}, False)

    def copy(self) -> "AbsState":
        return AbsState(
            list(self.regs),
            dict(self.mem_over),
            {addr: dict(taint) for addr, taint in self.mem_taint.items()},
            dict(self.heap_taint),
            self.clobbered,
        )

    # -- register access ------------------------------------------------
    def read_reg(self, index: Optional[int]) -> Tuple[Optional[int], Taint]:
        if index is None or index == 0:
            return (0, {})
        return self.regs[index]

    def write_reg(self, index: Optional[int], value: Optional[int], taint: Taint) -> None:
        if index is not None and index != 0:
            self.regs[index] = (value, taint)

    # -- memory access --------------------------------------------------
    def read_mem_value(self, addr: int, initial: Dict[int, int]) -> Optional[int]:
        if addr in self.mem_over:
            return self.mem_over[addr]
        if self.clobbered:
            return None
        return initial.get(addr, 0)

    def signature(self) -> Tuple:
        """Path-free view used for convergence detection."""
        return (
            tuple((value, frozenset(taint)) for value, taint in self.regs),
            frozenset(self.mem_over.items()),
            frozenset(
                (addr, frozenset(taint)) for addr, taint in self.mem_taint.items()
            ),
            frozenset(self.heap_taint),
            self.clobbered,
        )


def merge_taint(a: Taint, b: Taint) -> Taint:
    """Key union; an existing key keeps its (first-found) path."""
    if not b:
        return dict(a)
    if not a:
        return dict(b)
    out = dict(b)
    out.update(a)
    return out


def _extend(taint: Taint, pc: int) -> Taint:
    """Record ``pc`` on each fact's def-use path (capped, no duplicates)."""
    out: Taint = {}
    for key, path in taint.items():
        if len(path) < _PATH_CAP and (not path or path[-1] != pc) and pc not in path:
            out[key] = path + (pc,)
        else:
            out[key] = path
    return out


def join(a: Optional[AbsState], b: AbsState) -> Tuple[AbsState, bool]:
    """Least upper bound; returns (state, changed-vs-a)."""
    if a is None:
        return b.copy(), True
    regs: List[Tuple[Optional[int], Taint]] = []
    for (va, ta), (vb, tb) in zip(a.regs, b.regs):
        value = va if va == vb else None
        regs.append((value, merge_taint(ta, tb)))
    clobbered = a.clobbered or b.clobbered
    mem_over: Dict[int, Optional[int]] = {}
    if not clobbered:
        # Overlay entries fall back to the shared initial image, so the
        # join only needs explicit entries where either side has one.
        for addr in set(a.mem_over) | set(b.mem_over):
            va2 = a.mem_over.get(addr, _SENTINEL)
            vb2 = b.mem_over.get(addr, _SENTINEL)
            mem_over[addr] = va2 if va2 == vb2 else None
    else:
        for addr in set(a.mem_over) & set(b.mem_over):
            va3, vb3 = a.mem_over[addr], b.mem_over[addr]
            mem_over[addr] = va3 if va3 == vb3 else None
    mem_taint: Dict[int, Taint] = {
        addr: dict(taint) for addr, taint in a.mem_taint.items()
    }
    for addr, taint in b.mem_taint.items():
        mem_taint[addr] = merge_taint(mem_taint.get(addr, {}), taint)
    joined = AbsState(
        regs, mem_over, mem_taint, merge_taint(a.heap_taint, b.heap_taint), clobbered
    )
    return joined, joined.signature() != a.signature()


class _Sentinel:
    pass


_SENTINEL = _Sentinel()


def transfer(
    program: Program,
    pc: int,
    state: AbsState,
    source_fn: SourceFn,
    initial: Optional[Dict[int, int]] = None,
) -> Tuple[AbsState, Tuple[int, ...]]:
    """Abstractly execute the instruction at ``pc``; returns (out, succs)."""
    if initial is None:
        initial = initial_image(program)
    inst = program.instructions[pc]
    kind = inst.kind
    length = len(program.instructions)
    fallthrough = (pc + 1,) if pc + 1 < length else ()
    if kind == KIND_HALT:
        return state, ()
    if kind == KIND_NOP:
        return state, fallthrough
    if kind == KIND_JMP:
        return state, (inst.imm,) if inst.imm < length else ()
    if kind == KIND_CBRANCH:
        succ = tuple(
            s for s in (inst.imm, pc + 1) if s < length
        )
        return state, succ

    out = state.copy()
    if kind == KIND_ALU:
        a_val, a_taint = state.read_reg(inst.rs1) if inst.rs1 is not None else (0, {})
        if inst.rs2 is None:
            b_val: Optional[int] = inst.imm
            b_taint: Taint = {}
        else:
            b_val, b_taint = state.read_reg(inst.rs2)
        value = None
        if a_val is not None and b_val is not None:
            value = inst.alu_fn(a_val & WORD_MASK, b_val & WORD_MASK) & WORD_MASK
        taint = merge_taint(a_taint, b_taint)
        out.write_reg(inst.rd, value, _extend(taint, pc) if taint else taint)
        return out, fallthrough

    base_val, base_taint = state.read_reg(inst.rs1)
    addr = None
    if base_val is not None:
        addr = ((base_val + inst.imm) & WORD_MASK) & _WORD_ALIGN

    if kind == KIND_LOAD:
        taint = dict(base_taint)
        if addr is not None:
            value = state.read_mem_value(addr, initial)
            taint = merge_taint(taint, state.mem_taint.get(addr, {}))
        else:
            # Unknown address: may read any tainted memory word.
            value = None
            for mem_taint in state.mem_taint.values():
                taint = merge_taint(taint, mem_taint)
        taint = merge_taint(taint, state.heap_taint)
        taint = _extend(taint, pc) if taint else taint
        source_kind = source_fn(pc, addr)
        if source_kind is not None:
            taint = merge_taint(taint, {(source_kind, pc): (pc,)})
            value = None
        out.write_reg(inst.rd, value, taint)
        return out, fallthrough

    # STORE
    data_val, data_taint = state.read_reg(inst.rs2)
    if addr is not None:
        # Strong update: this store definitely writes this word.
        out.mem_over[addr] = data_val
        out.mem_taint[addr] = _extend(data_taint, pc) if data_taint else {}
        if not out.mem_taint[addr]:
            out.mem_taint.pop(addr, None)
    else:
        # May write anywhere: values become unknown, existing memory
        # taint survives (may not have been overwritten), the stored
        # taint can surface at any later load.
        out.mem_over = {}
        out.clobbered = True
        if data_taint:
            out.heap_taint = merge_taint(
                out.heap_taint, _extend(data_taint, pc)
            )
    return out, fallthrough


def run_dataflow(
    program: Program,
    entries: Dict[int, AbsState],
    source_fn: SourceFn,
    allowed: Optional[FrozenSet[int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[Dict[int, AbsState], int]:
    """Worklist fixpoint; returns (IN-state per pc, budget spent).

    ``entries`` seeds the IN states; ``allowed`` (when given) restricts
    propagation to a speculation window.  Raises
    :class:`SpecflowBudgetError` when the budget runs out.
    """
    initial = initial_image(program)
    in_states: Dict[int, AbsState] = {}
    work = deque()
    for pc, state in entries.items():
        joined, _ = join(in_states.get(pc), state)
        in_states[pc] = joined
        work.append(pc)
    spent = 0
    queued = set(entries)
    while work:
        pc = work.popleft()
        queued.discard(pc)
        spent += 1
        if spent > budget:
            raise SpecflowBudgetError(
                f"{program.name}: dataflow exceeded {budget} pc-visits"
            )
        out_state, succs = transfer(program, pc, in_states[pc], source_fn, initial)
        for succ in succs:
            if allowed is not None and succ not in allowed:
                continue
            joined, changed = join(in_states.get(succ), out_state)
            if changed:
                in_states[succ] = joined
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)
    return in_states, spent


def rekey(taint: Taint, kind: str) -> Taint:
    """Re-key every fact to ``kind`` (e.g. ``arch`` -> ``pre`` at a
    window entry), merging paths first-wins on collision."""
    out: Taint = {}
    for (_, src), path in taint.items():
        out.setdefault((kind, src), path)
    return out


def rekey_state(state: AbsState, kind: str) -> AbsState:
    regs = [(value, rekey(taint, kind)) for value, taint in state.regs]
    mem_taint = {addr: rekey(taint, kind) for addr, taint in state.mem_taint.items()}
    return AbsState(
        regs,
        dict(state.mem_over),
        mem_taint,
        rekey(state.heap_taint, kind),
        state.clobbered,
    )


def operand_taint(state: AbsState, pc: int, program: Program) -> Taint:
    """Taint relevant to an instruction acting as a transmitter.

    Loads/stores transmit through their *address* operand; conditional
    branches through their predicate operands.  Stored *data* is not a
    transmitter (it only becomes observable through a later load, which
    the memory-taint propagation already models).
    """
    inst = program.instructions[pc]
    if inst.kind in (KIND_LOAD, KIND_STORE):
        return state.read_reg(inst.rs1)[1]
    if inst.kind == KIND_CBRANCH:
        return merge_taint(state.read_reg(inst.rs1)[1], state.read_reg(inst.rs2)[1])
    return {}


__all__ = [
    "AbsState",
    "DEFAULT_BUDGET",
    "KIND_ARCH",
    "KIND_PRE",
    "KIND_SPEC",
    "SourceFn",
    "Taint",
    "initial_image",
    "join",
    "merge_taint",
    "operand_taint",
    "rekey",
    "rekey_state",
    "run_dataflow",
    "transfer",
]
