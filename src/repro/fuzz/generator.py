"""Seeded random micro-ISA program generator.

``generate_program(seed, profile)`` deterministically expands a
``(profile, seed)`` pair into a :class:`~repro.isa.program.Program` —
the same pair always yields the same program, on any platform and in any
process, which is what makes fuzz failures replayable from a manifest
entry.

Every generated program terminates by construction:

* the only backward branch is the outer loop, bounded by a trip counter
  no body instruction can touch;
* forward branches target slots inside the body (padded with NOPs if
  the body ends early);
* the program always ends with an epilogue that stores the scratch
  registers to an output array (so dead values still become
  architecturally visible) followed by ``halt``.

Register map (the generator's calling convention):

======  =======================================================
r1      data-array base (``DATA_BASE``)
r2–r23  scratch pool: ALU results, load destinations
r24     streaming offset (sequential profiles)
r26/r27 address temporaries for chases and computed accesses
r28     output-array base (``OUT_BASE``)
r29/r30 loop trip counter / trip limit
======  =======================================================
"""

from __future__ import annotations

import random

from repro.fuzz.profiles import DATA_BASE, OUT_BASE, FuzzProfile
from repro.isa.builder import CodeBuilder
from repro.isa.program import Program

SCRATCH = tuple(range(2, 24))
STREAM_PTR = 24
ADDR_TMP = 26
ADDR_TMP2 = 27


def generation_rng(seed: int, profile: FuzzProfile) -> random.Random:
    """The deterministic RNG for one (seed, profile) pair.

    Seeded with a string (never ``hash()``, which is salted per process)
    so generation is reproducible across interpreters and workers.
    """
    return random.Random(f"{profile.name}:{seed}")


def generate_program(seed: int, profile: FuzzProfile) -> Program:
    """Expand ``(seed, profile)`` into a terminating random program."""
    profile.validate()
    rng = generation_rng(seed, profile)
    words = profile.footprint_words
    mask = words - 1  # footprints are powers of two

    b = CodeBuilder()
    # Data image: every footprint word holds a random value, so pointer
    # chases walk real data instead of collapsing onto word zero.
    b.set_array(DATA_BASE, [rng.getrandbits(64) for _ in range(words)])
    b.set_register(1, DATA_BASE)
    b.set_register(STREAM_PTR, 0)
    b.set_register(28, OUT_BASE)
    # Scratch registers start with random (but recorded) values.
    for reg in SCRATCH:
        b.set_register(reg, rng.getrandbits(64))

    b.li(29, 0)
    b.li(30, profile.loop_trips)
    loop_top = b.here

    kinds = profile.kind_weights()
    names = sorted(kinds)
    weights = [kinds[name] for name in names]

    emitted = 0
    skip_until = -1
    while emitted < profile.length:
        kind = rng.choices(names, weights=weights)[0]
        before = b.here
        if kind == "alu":
            _emit_alu(b, rng)
        elif kind == "mul":
            b.mul(_pick(rng), _pick(rng), _pick(rng))
        elif kind == "branch":
            if b.here >= skip_until:
                # Forward skip over the next few body slots; the target
                # is data-dependent on scratch state, so both directions
                # are exercised and mispredictions occur naturally.
                distance = rng.randrange(2, 6)
                skip_until = b.here + 1 + distance
                op = rng.choice([b.beq, b.bne, b.blt, b.bge])
                op(_pick(rng), _pick(rng), skip_until)
            else:
                _emit_alu(b, rng)
        elif kind == "load":
            _emit_load(b, rng, profile, mask)
        elif kind == "store":
            _emit_store_group(b, rng, profile, mask)
        elif kind == "chase":
            _emit_chase(b, rng, profile, mask)
        else:  # load_after_store
            _emit_load_after_store(b, rng, mask)
        emitted += b.here - before
    # A pending forward branch may target slots past the last emitted
    # instruction; pad so it lands inside the body.
    while b.here < skip_until:
        b.nop()

    b.addi(29, 29, 1)
    b.bne(29, 30, loop_top)

    # Epilogue: publish scratch state so every computed value is part of
    # the architectural snapshot the oracle compares.
    for index, reg in enumerate(SCRATCH):
        b.store(reg, 28, disp=8 * index)
    b.store(STREAM_PTR, 28, disp=8 * len(SCRATCH))
    b.halt()
    return b.build(name=f"fuzz-{profile.name}-{seed}")


def _pick(rng: random.Random) -> int:
    return rng.choice(SCRATCH)


def _emit_alu(b: CodeBuilder, rng: random.Random) -> None:
    choice = rng.randrange(6)
    if choice == 0:
        b.li(_pick(rng), rng.getrandbits(64))
    elif choice == 1:
        b.addi(_pick(rng), _pick(rng), rng.randrange(-(1 << 16), 1 << 16))
    elif choice == 2:
        b.add(_pick(rng), _pick(rng), _pick(rng))
    elif choice == 3:
        b.sub(_pick(rng), _pick(rng), _pick(rng))
    elif choice == 4:
        b.xor(_pick(rng), _pick(rng), _pick(rng))
    else:
        b.shri(_pick(rng), _pick(rng), rng.randrange(1, 32))


def _data_address(
    b: CodeBuilder, rng: random.Random, source: int, mask: int
) -> int:
    """Materialize an in-footprint data address from ``source``'s value.

    Returns the register holding the address (``base + 8 × (value & mask)``).
    """
    b.andi(ADDR_TMP, source, mask)
    b.shli(ADDR_TMP, ADDR_TMP, 3)
    b.add(ADDR_TMP, 1, ADDR_TMP)
    return ADDR_TMP


def _emit_load(
    b: CodeBuilder, rng: random.Random, profile: FuzzProfile, mask: int
) -> None:
    if profile.sequential_stride:
        # Streaming access: walk the footprint by a fixed stride.
        b.andi(ADDR_TMP2, STREAM_PTR, mask)
        b.shli(ADDR_TMP2, ADDR_TMP2, 3)
        b.add(ADDR_TMP2, 1, ADDR_TMP2)
        b.load(_pick(rng), ADDR_TMP2)
        b.addi(STREAM_PTR, STREAM_PTR, profile.sequential_stride)
    else:
        address = _data_address(b, rng, _pick(rng), mask)
        b.load(_pick(rng), address)


def _emit_store_group(
    b: CodeBuilder, rng: random.Random, profile: FuzzProfile, mask: int
) -> None:
    address = _data_address(b, rng, _pick(rng), mask)
    b.store(_pick(rng), address)
    # Optional burst: consecutive words from the same base, which queues
    # several stores behind one another (store-buffer saturation).
    for extra in range(profile.store_burst):
        b.store(_pick(rng), address, disp=8 * (extra + 1))


def _emit_chase(
    b: CodeBuilder, rng: random.Random, profile: FuzzProfile, mask: int
) -> None:
    target = _pick(rng)
    source = _pick(rng)
    for _ in range(profile.pointer_chase_depth):
        address = _data_address(b, rng, source, mask)
        b.load(target, address)
        source = target


def _emit_load_after_store(
    b: CodeBuilder, rng: random.Random, mask: int
) -> None:
    address = _data_address(b, rng, _pick(rng), mask)
    b.store(_pick(rng), address)
    b.load(_pick(rng), address)

