"""Workload kernels: parameterized program generators.

Each kernel emits a micro-ISA loop exercising a distinct memory/control
behaviour; :mod:`repro.workloads.profiles` composes them into stand-ins
for the SPEC benchmarks the paper evaluates.  The knobs map directly to
the microarchitectural behaviours that drive the paper's results:

* ``stride`` / ``index_regularity`` / ``layout`` — how predictable load
  addresses are (address predictor coverage & accuracy, Figure 7);
* ``footprint_words`` — which cache level the working set lives in
  (how much MLP is at stake, and how much DoM loses on L1 misses);
* ``branch_entropy`` — branch misprediction rate (how long control
  shadows last, i.e. how long loads stay speculative);
* ``compute_per_load`` — ALU work per load (how much ILP hides memory
  latency, separating STT from NDA-P);
* ``chain`` — dependent-load chains (the loads secure schemes delay and
  Doppelganger Loads stand in for).

Register conventions inside kernels: r1 = trip-count, r2 = i, r3 = live
accumulator, r10..r15 = array bases, r16..r25 = scratch.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.common.errors import ConfigError
from repro.isa.builder import CodeBuilder
from repro.isa.program import Program

# Array base addresses, far apart so working sets never alias.
INDEX_BASE = 0x0010_0000
DATA_BASE = 0x0080_0000
STREAM_BASE = 0x0100_0000
STORE_BASE = 0x0180_0000
LIST_BASE = 0x0200_0000
EXTRA_BASE = 0x0280_0000


def _require_pow2(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ConfigError(f"{what} must be a positive power of two, got {value}")


# The fills below inline ``rng.randrange(n)`` as the rejection loop
# CPython runs for it (``Random._randbelow_with_getrandbits``): draw
# ``getrandbits(n.bit_length())`` again while the draw is ``n`` or more.
# A build then makes the same draws, in the same order, as the per-word
# ``randrange``/``random`` loops it replaced, without their two Python
# frames a word; ``tests/workloads/test_kernels.py`` keeps those loops as
# the reference.


def _random_words(rng: random.Random, count: int, odd_fraction: float) -> List[int]:
    """``count`` words ``randrange(1 << 16) << 1`` whose low bit is 1 when
    a ``random()`` drawn after each is below ``odd_fraction`` (controls
    data-dependent branch entropy)."""
    getrandbits = rng.getrandbits
    uniform = rng.random
    words: List[int] = []
    append = words.append
    for _ in range(count):
        value = getrandbits(17)
        while value >= 1 << 16:
            value = getrandbits(17)
        value <<= 1
        if uniform() < odd_fraction:
            value |= 1
        append(value)
    return words


def _index_offsets(
    rng: random.Random, count: int, words: int, regularity: float
) -> List[int]:
    """Byte offsets into a ``words``-word array for ``count`` index
    entries: an entry whose ``random()`` is below ``regularity`` continues
    a strided walk of the array, any other points at ``randrange(words)``."""
    getrandbits = rng.getrandbits
    uniform = rng.random
    bits = words.bit_length()
    offsets: List[int] = []
    regular_step = 0
    for _ in range(count):
        if uniform() < regularity:
            offsets.append((regular_step * 8) % (words * 8))
            regular_step += 1
        else:
            word = getrandbits(bits)
            while word >= words:
                word = getrandbits(bits)
            offsets.append(word * 8)
    return offsets


def _probe_keys(
    rng: random.Random, count: int, table_words: int, period: int
) -> List[int]:
    """Byte offsets of ``count`` probes into a ``table_words``-word table:
    each ``randrange(table_words)``, or with a ``period`` a fresh one only
    every ``period``-th key and the next table word in between."""
    getrandbits = rng.getrandbits
    bits = table_words.bit_length()
    keys: List[int] = []
    probe = 0
    for i in range(count):
        if period and i % period != period - 1:
            probe = (probe + 1) % table_words
        else:
            probe = getrandbits(bits)
            while probe >= table_words:
                probe = getrandbits(bits)
        keys.append(probe * 8)
    return keys


def _node_words(sequence: List[int], payloads: List[int]) -> Iterator[Tuple[int, int]]:
    """``(word index, value)`` for each node of the cycle ``sequence``, in
    traversal order: node ``n``'s next pointer is word 2n, its payload
    word 2n + 1.  Yielded one at a time, so a build holds no second copy
    of the list's words beside the builder's own."""
    for current, successor, payload in zip(
        sequence, sequence[1:] + sequence[:1], payloads
    ):
        yield 2 * current, LIST_BASE + 16 * successor
        yield 2 * current + 1, payload


def _emit_dependent_check(builder: CodeBuilder, value_reg: int, check_period: int) -> None:
    """Emit a branch whose predicate is a loaded value.

    The branch is usually well-predicted (workloads keep the odd fraction
    low) but its *resolution* must wait for the load — the pattern that
    keeps shadows open across misses and is ubiquitous in real code
    (libquantum tests a bit of every loaded word).  ``check_period`` gates
    the check with an induction-based branch so only every K-th iteration
    pays the resolution chain (K a power of two).
    """
    tag = builder.here  # labels need only be unique within one builder
    skip = f"nocheck_{tag}"
    done = f"even_{tag}"
    if check_period > 1:
        if check_period & (check_period - 1):
            raise ConfigError("check_period must be a power of two")
        builder.andi(27, 2, check_period - 1)
        builder.bne(27, 0, skip)
    builder.andi(26, value_reg, 1)
    builder.beq(26, 0, done)
    builder.addi(3, 3, 13)
    builder.label(done)
    if check_period > 1:
        builder.label(skip)


def stream_kernel(
    iterations: int = 1 << 20,
    footprint_words: int = 1 << 16,
    stride_words: int = 1,
    lanes: int = 2,
    compute_per_load: int = 1,
    odd_fraction: float = 0.0,
    dependent_check: bool = False,
    check_period: int = 1,
    seed: int = 0,
    name: str = "stream",
) -> Program:
    """Sequential/strided streaming reads (libquantum/lbm-like).

    ``lanes`` independent strided streams are read each iteration; all
    addresses are perfectly stride-predictable, so the address predictor
    achieves near-total coverage and accuracy.

    ``dependent_check`` adds the pattern that makes streaming hostile to
    secure speculation (and is ubiquitous in real code — libquantum's hot
    loop tests a bit of every loaded word): a branch whose *predicate*
    is the loaded value.  The branch is almost always correctly predicted
    (``odd_fraction`` small), but it cannot *resolve* until the load
    returns, so every load miss keeps younger instructions speculative —
    DoM then delays their misses, serializing what the unsafe baseline
    overlaps.
    """
    _require_pow2(footprint_words, "footprint_words")
    rng = random.Random(seed)
    builder = CodeBuilder()
    builder.set_array(STREAM_BASE, _random_words(rng, footprint_words, odd_fraction))
    mask = footprint_words * 8 - 1

    builder.li(1, iterations)
    builder.li(2, 0)
    builder.li(3, 0)
    builder.li(10, STREAM_BASE)
    builder.label("loop")
    builder.muli(16, 2, stride_words * 8 * lanes)
    builder.andi(16, 16, mask & ~7)
    for lane in range(lanes):
        builder.add(17, 10, 16)
        builder.load(18 + lane, 17, disp=lane * stride_words * 8)
        for _ in range(compute_per_load):
            builder.add(3, 3, 18 + lane)
    if dependent_check:
        _emit_dependent_check(builder, value_reg=18, check_period=check_period)
    builder.addi(2, 2, 1)
    builder.blt(2, 1, "loop")
    builder.store(3, 0, disp=8)
    builder.halt()
    return builder.build(name=name)


def gather_kernel(
    iterations: int = 1 << 20,
    index_words: int = 1 << 14,
    data_words: int = 1 << 16,
    index_regularity: float = 1.0,
    compute_per_load: int = 1,
    odd_fraction: float = 0.0,
    branch_block: bool = False,
    check_period: int = 1,
    seed: int = 0,
    name: str = "gather",
) -> Program:
    """Indexed gather ``A[B[i]]`` — the canonical dependent load.

    ``index_regularity`` is the fraction of B entries that continue a
    regular (strided) walk of A; the rest point at random words.  A
    regular gather makes the *dependent* load stride-predictable — the
    case Doppelganger Loads convert from serialized to parallel — while
    a random gather defeats the predictor (mcf-like, low coverage).
    """
    _require_pow2(index_words, "index_words")
    _require_pow2(data_words, "data_words")
    rng = random.Random(seed)
    builder = CodeBuilder()
    builder.set_array(
        INDEX_BASE, _index_offsets(rng, index_words, data_words, index_regularity)
    )
    builder.set_array(DATA_BASE, _random_words(rng, data_words, odd_fraction))
    index_mask = index_words * 8 - 1

    builder.li(1, iterations)
    builder.li(2, 0)
    builder.li(3, 0)
    builder.li(10, INDEX_BASE)
    builder.li(11, DATA_BASE)
    builder.label("loop")
    builder.shli(16, 2, 3)
    builder.andi(16, 16, index_mask & ~7)
    builder.add(17, 10, 16)
    builder.load(18, 17)              # B[i]
    builder.add(19, 11, 18)
    builder.load(20, 19)              # A[B[i]] — dependent load
    for _ in range(compute_per_load):
        builder.add(3, 3, 20)
    if branch_block:
        _emit_dependent_check(builder, value_reg=20, check_period=check_period)
    builder.addi(2, 2, 1)
    builder.blt(2, 1, "loop")
    builder.store(3, 0, disp=8)
    builder.halt()
    return builder.build(name=name)


def pointer_chase_kernel(
    iterations: int = 1 << 20,
    nodes: int = 1 << 14,
    sequential_fraction: float = 0.0,
    payload_loads: int = 1,
    compute_per_load: int = 2,
    odd_fraction: float = 0.0,
    dependent_check: bool = False,
    check_period: int = 1,
    seed: int = 0,
    name: str = "pointer_chase",
) -> Program:
    """Linked-list traversal (mcf/omnetpp-like): strictly serial
    dependent loads.

    ``sequential_fraction`` of the nodes link to their neighbour in
    allocation order (addresses become stride-like and predictable, as
    happens with bump allocators); the rest follow a random permutation
    cycle (unpredictable, coverage-killing).
    """
    _require_pow2(nodes, "nodes")
    rng = random.Random(seed)
    builder = CodeBuilder()
    # Build one cycle visiting every node.  The traversal order starts as
    # allocation order (fully stride-predictable); a (1 - p) fraction of
    # the positions is then shuffled among themselves, which breaks the
    # stride at exactly those hops while keeping a single covering cycle.
    sequence = list(range(nodes))
    shuffled_count = round((1.0 - sequential_fraction) * nodes)
    if shuffled_count > 1:
        positions = rng.sample(range(nodes), shuffled_count)
        values = [sequence[p] for p in positions]
        rng.shuffle(values)
        for position, value in zip(positions, values):
            sequence[position] = value
    builder.set_array(
        LIST_BASE, _node_words(sequence, _random_words(rng, nodes, odd_fraction))
    )

    builder.li(1, iterations)
    builder.li(2, 0)
    builder.li(3, 0)
    builder.li(12, LIST_BASE)
    builder.label("loop")
    builder.load(16, 12, disp=8)      # payload
    for _ in range(compute_per_load):
        builder.add(3, 3, 16)
    for extra in range(payload_loads - 1):
        builder.load(17, 12, disp=8)
        builder.add(3, 3, 17)
    if dependent_check:
        # Node-value comparison (mcf's cost checks): a mostly-predictable
        # branch whose resolution waits for the payload load.
        _emit_dependent_check(builder, value_reg=16, check_period=check_period)
    builder.load(12, 12)              # next pointer — serial dependent load
    builder.addi(2, 2, 1)
    builder.blt(2, 1, "loop")
    builder.store(3, 0, disp=8)
    builder.halt()
    return builder.build(name=name)


def branchy_kernel(
    iterations: int = 1 << 20,
    footprint_words: int = 1 << 12,
    odd_fraction: float = 0.5,
    compute_depth: int = 6,
    seed: int = 0,
    name: str = "branchy",
) -> Program:
    """Control-heavy integer work (sjeng/gobmk/exchange2-like).

    A data-dependent branch per loop iteration with ``odd_fraction``
    taken probability drives the misprediction rate; most work is ALU.
    """
    _require_pow2(footprint_words, "footprint_words")
    rng = random.Random(seed)
    builder = CodeBuilder()
    builder.set_array(DATA_BASE, _random_words(rng, footprint_words, odd_fraction))
    mask = footprint_words * 8 - 1

    builder.li(1, iterations)
    builder.li(2, 0)
    builder.li(3, 0)
    builder.li(11, DATA_BASE)
    builder.li(4, 2654435761)
    builder.label("loop")
    builder.shli(16, 2, 3)
    builder.andi(16, 16, mask & ~7)
    builder.add(17, 11, 16)
    builder.load(18, 17)
    builder.andi(19, 18, 1)
    builder.beq(19, 0, "even")
    for _ in range(compute_depth):
        builder.mul(3, 3, 4)
        builder.xor(3, 3, 18)
    builder.jmp("join")
    builder.label("even")
    for _ in range(compute_depth):
        builder.add(3, 3, 18)
        builder.shri(20, 3, 7)
        builder.xor(3, 3, 20)
    builder.label("join")
    builder.addi(2, 2, 1)
    builder.blt(2, 1, "loop")
    builder.store(3, 0, disp=8)
    builder.halt()
    return builder.build(name=name)


def stencil_kernel(
    iterations: int = 1 << 20,
    footprint_words: int = 1 << 17,
    points: int = 3,
    compute_per_point: int = 2,
    stride_words: int = 1,
    odd_fraction: float = 0.0,
    dependent_check: bool = False,
    check_period: int = 1,
    seed: int = 0,
    name: str = "stencil",
) -> Program:
    """Multi-stream stencil with stores (GemsFDTD/wrf/milc-like).

    ``points`` strided input streams plus an output store per iteration;
    all addresses are stride-predictable but the footprint typically
    exceeds the L1/L2, making DoM's delayed misses expensive.
    ``dependent_check`` adds a (predictable) branch on a loaded value —
    see :func:`stream_kernel`.
    """
    _require_pow2(footprint_words, "footprint_words")
    rng = random.Random(seed)
    builder = CodeBuilder()
    builder.set_array(STREAM_BASE, _random_words(rng, footprint_words, odd_fraction))
    mask = footprint_words * 8 - 1

    builder.li(1, iterations)
    builder.li(2, 0)
    builder.li(3, 0)
    builder.li(10, STREAM_BASE)
    builder.li(13, STORE_BASE)
    builder.label("loop")
    builder.muli(16, 2, stride_words * 8)
    builder.andi(16, 16, mask & ~7)
    builder.add(17, 10, 16)
    for point in range(points):
        builder.load(18 + point, 17, disp=point * 64)
        for _ in range(compute_per_point):
            builder.add(3, 3, 18 + point)
    if dependent_check:
        _emit_dependent_check(builder, value_reg=18, check_period=check_period)
    builder.add(21, 13, 16)
    builder.store(3, 21)
    builder.addi(2, 2, 1)
    builder.blt(2, 1, "loop")
    builder.store(3, 0, disp=8)
    builder.halt()
    return builder.build(name=name)


def hash_probe_kernel(
    iterations: int = 1 << 20,
    table_words: int = 1 << 16,
    key_words: int = 1 << 12,
    broken_stride_period: int = 0,
    odd_fraction: float = 0.3,
    value_branch: bool = False,
    seed: int = 0,
    name: str = "hash_probe",
) -> Program:
    """Hash-table probing (xalancbmk/perlbench-like).

    Keys are read sequentially; each key hashes (multiplicatively) into a
    table probe — an address that *looks* locally regular to a stride
    predictor but breaks constantly, producing high prediction confidence
    with low accuracy when ``broken_stride_period`` > 0 (keys arranged so
    probes stride for a few accesses, then jump).
    """
    _require_pow2(table_words, "table_words")
    _require_pow2(key_words, "key_words")
    rng = random.Random(seed)
    builder = CodeBuilder()
    table_mask = table_words * 8 - 1
    # Key array: either random keys, or keys crafted so that consecutive
    # probe addresses stride for `period` accesses then break.
    builder.set_array(
        INDEX_BASE, _probe_keys(rng, key_words, table_words, broken_stride_period)
    )
    builder.set_array(DATA_BASE, _random_words(rng, table_words, odd_fraction))
    key_mask = key_words * 8 - 1

    builder.li(1, iterations)
    builder.li(2, 0)
    builder.li(3, 0)
    builder.li(10, INDEX_BASE)
    builder.li(11, DATA_BASE)
    builder.label("loop")
    builder.shli(16, 2, 3)
    builder.andi(16, 16, key_mask & ~7)
    builder.add(17, 10, 16)
    builder.load(18, 17)              # key / precomputed probe offset
    builder.andi(19, 18, table_mask & ~7)
    builder.add(20, 11, 19)
    builder.load(21, 20)              # table probe — dependent load
    if value_branch:
        builder.andi(22, 21, 1)
        builder.beq(22, 0, "miss")
        builder.add(3, 3, 21)
        builder.label("miss")
    else:
        builder.add(3, 3, 21)
    builder.addi(2, 2, 1)
    builder.blt(2, 1, "loop")
    builder.store(3, 0, disp=8)
    builder.halt()
    return builder.build(name=name)


def scatter_kernel(
    iterations: int = 1 << 20,
    index_words: int = 1 << 12,
    table_words: int = 1 << 14,
    index_regularity: float = 0.7,
    compute_per_store: int = 2,
    readback: bool = True,
    seed: int = 0,
    name: str = "scatter",
) -> Program:
    """Indexed scatter ``A[B[i]] = f(i)`` — the store-address shadow.

    A store whose address depends on a loaded index resolves late, casting
    an M-shadow (unresolved store address) over every younger instruction:
    younger loads may alias it, so the shadow tracker must keep them
    speculative.  This is the second shadow source the paper's schemes
    track (§5: "unresolved store addresses") and the one the other
    kernels barely exercise.  It also produces memory-order violations
    when a younger load reads a just-scattered word.
    """
    _require_pow2(index_words, "index_words")
    _require_pow2(table_words, "table_words")
    rng = random.Random(seed)
    builder = CodeBuilder()
    builder.set_array(
        INDEX_BASE, _index_offsets(rng, index_words, table_words, index_regularity)
    )
    builder.set_array(DATA_BASE, _random_words(rng, table_words, 0.0))
    index_mask = index_words * 8 - 1

    builder.li(1, iterations)
    builder.li(2, 0)
    builder.li(3, 0)
    builder.li(10, INDEX_BASE)
    builder.li(11, DATA_BASE)
    builder.label("loop")
    builder.shli(16, 2, 3)
    builder.andi(16, 16, index_mask & ~7)
    builder.add(17, 10, 16)
    builder.load(18, 17)              # B[i] — the store's address source
    builder.add(19, 11, 18)
    for _ in range(compute_per_store):
        builder.add(3, 3, 2)
    builder.store(3, 19)              # A[B[i]] = acc — late-resolving address
    if readback:
        builder.load(20, 19)          # read-back: forwarding / violation prey
        builder.add(3, 3, 20)
    builder.addi(2, 2, 1)
    builder.blt(2, 1, "loop")
    builder.store(3, 0, disp=8)
    builder.halt()
    return builder.build(name=name)


KERNELS = {
    "stream": stream_kernel,
    "gather": gather_kernel,
    "pointer_chase": pointer_chase_kernel,
    "branchy": branchy_kernel,
    "stencil": stencil_kernel,
    "hash_probe": hash_probe_kernel,
    "scatter": scatter_kernel,
}


def build_kernel(kind: str, **params: object) -> Program:
    """Build a kernel by name with keyword parameters."""
    if kind not in KERNELS:
        raise ConfigError(f"unknown kernel {kind!r}; expected one of {sorted(KERNELS)}")
    return KERNELS[kind](**params)  # type: ignore[arg-type]
