"""Decoded-program cache: per-instruction metadata computed once.

The dispatch stage used to re-derive everything it needs about a static
instruction — kind, register numbers, latency class, functional
evaluator — for every dynamic instance, tens of thousands of times per
run.  :class:`DecodedProgram` does that work once per ``(program
contents, config fingerprint)`` and the core reuses it across warmup and
measure windows, repeated runs of the same workload in a sweep, and both
``idle_skip`` modes.

The cache key includes the **config fingerprint** because decode bakes
in config-derived values (ALU vs MUL latency); two configs that differ
in any simulated parameter never share an entry.  Guardrail settings are
excluded from the fingerprint by design (they cannot change simulated
behaviour), so flipping guardrails on reuses the same decode — which is
exactly the sharing we want.

The cache is process-local and bounded (LRU).  Worker processes in a
:class:`~repro.harness.parallel.ParallelSession` each build their own —
entries are derived purely from the program text and the config, so
there is no cross-job state to leak.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.common.config import SystemConfig, default_config
from repro.isa.instructions import Instruction, KIND_ALU, KIND_CBRANCH
from repro.isa.program import Program

#: One decoded instruction:
#: (inst, kind, writes, rd, ren1, ren2, imm, latency, alu_fn, branch_fn,
#:  use_imm_b).  ``ren1``/``ren2`` are the source registers as the rename
#: stage sees them — None when absent *or r0* (r0 never renames).
#: ``use_imm_b`` selects the immediate as ALU operand b (rs2 absent).
DecodedEntry = Tuple[
    Instruction, int, bool, Optional[int], Optional[int], Optional[int],
    int, int, Optional[Callable[[int, int], int]],
    Optional[Callable[[int, int], bool]], bool,
]

_CACHE_CAPACITY = 128


def decode_instruction(
    inst: Instruction, config: Optional[SystemConfig] = None
) -> DecodedEntry:
    """The decoded entry of one instruction under ``config`` (the default
    configuration when None): what a :class:`DecodedProgram` holds for it
    and what :class:`~repro.pipeline.uop.MicroOp` is built from."""
    core = (config if config is not None else default_config()).core
    kind = inst.kind
    return (
        inst, kind, inst.writes, inst.rd,
        inst.rs1 if inst.rs1 else None,
        inst.rs2 if inst.rs2 else None,
        inst.imm,
        core.mul_latency if inst.is_mul else core.alu_latency,
        inst.alu_fn if kind == KIND_ALU else None,
        inst.branch_fn if kind == KIND_CBRANCH else None,
        inst.rs2 is None,
    )


class DecodedProgram:
    """Immutable per-program decode table, indexed by pc."""

    __slots__ = ("entries", "length")

    def __init__(self, program: Program, config: SystemConfig) -> None:
        self.entries: Tuple[DecodedEntry, ...] = tuple(
            decode_instruction(inst, config) for inst in program.instructions
        )
        self.length = len(self.entries)


def _program_key(program: Program) -> Tuple:
    """Content identity: the instruction stream, not the object."""
    return tuple(
        (inst.opcode, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.label)
        for inst in program.instructions
    )


_cache: "OrderedDict[Tuple, DecodedProgram]" = OrderedDict()
_hits = 0
_misses = 0


def decode_program(program: Program, config: SystemConfig) -> DecodedProgram:
    """The decode table for ``program`` under ``config`` (cached)."""
    global _hits, _misses
    key = (_program_key(program), config.fingerprint())
    decoded = _cache.get(key)
    if decoded is not None:
        _hits += 1
        _cache.move_to_end(key)
        return decoded
    _misses += 1
    decoded = DecodedProgram(program, config)
    _cache[key] = decoded
    while len(_cache) > _CACHE_CAPACITY:
        _cache.popitem(last=False)
    return decoded


def cache_info() -> Dict[str, int]:
    """Hit/miss/size counters (tests and `repro profile`)."""
    return {"hits": _hits, "misses": _misses, "size": len(_cache),
            "capacity": _CACHE_CAPACITY}


def clear_cache() -> None:
    """Drop all cached decodes and reset counters (tests)."""
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0
