"""Differential correctness: the out-of-order core must commit exactly the
architectural state the in-order interpreter produces — under every scheme,
with wrong-path execution, squashes, forwarding, and doppelgangers active.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa.builder import CodeBuilder
from repro.isa.program import Program
from repro.pipeline.core import Core
from repro.schemes import SCHEME_LABELS, make_scheme

DATA_BASE = 0x10000
DATA_MASK = 0x7F8  # 256 words


def random_program(seed: int, body_length: int = 40, iterations: int = 12) -> Program:
    """A random but always-terminating program.

    One counted outer loop whose body is random ALU/memory/branch soup:
    data-dependent forward branches create mispredictions and wrong paths;
    loads/stores hit a small shared region so forwarding and violations
    occur; every register value flows into the final checksum.
    """
    rng = random.Random(seed)
    b = CodeBuilder()
    for i in range(64):
        b.set_memory(DATA_BASE + 8 * i, rng.randrange(1 << 30))
    b.li(9, iterations)
    b.li(10, 0)       # loop counter
    b.li(11, DATA_BASE)
    for reg in range(1, 9):
        b.li(reg, rng.randrange(1, 1 << 16))
    b.label("outer")
    skip_label = 0
    open_label = None
    for pos in range(body_length):
        # Close any pending forward branch target that has come due.
        if open_label is not None and pos >= open_label[1]:
            b.label(open_label[0])
            open_label = None
        choice = rng.random()
        rd = rng.randrange(1, 9)
        ra = rng.randrange(1, 9)
        rb = rng.randrange(1, 9)
        if choice < 0.40:  # ALU
            op = rng.choice(["add", "sub", "xor", "and_", "or_", "mul"])
            getattr(b, op)(rd, ra, rb)
        elif choice < 0.55:  # ALU immediate
            op = rng.choice(["addi", "xori", "shri", "shli", "andi"])
            imm = rng.randrange(0, 8) if op in ("shri", "shli") else rng.randrange(1, 999)
            getattr(b, op)(rd, ra, imm)
        elif choice < 0.75:  # load (address derived from register data)
            b.andi(12, ra, DATA_MASK)
            b.add(13, 11, 12)
            b.load(rd, 13)
        elif choice < 0.88:  # store
            b.andi(12, ra, DATA_MASK)
            b.add(13, 11, 12)
            b.store(rb, 13)
        elif open_label is None:  # data-dependent forward branch
            skip_label += 1
            name = f"skip{seed}_{skip_label}"
            distance = rng.randrange(2, 6)
            b.andi(12, ra, 1)
            b.beq(12, 0, name)
            open_label = (name, pos + distance)
        else:
            b.nop()
    if open_label is not None:
        b.label(open_label[0])
    b.addi(10, 10, 1)
    b.blt(10, 9, "outer")
    # Fold all registers into a checksum and store it.
    b.li(15, 0)
    for reg in range(1, 9):
        b.add(15, 15, reg)
    b.store(15, 0, disp=8)
    b.halt()
    return b.build(name=f"random_{seed}")


def assert_equivalent(program: Program, scheme_name: str) -> Core:
    reference = program.interpret().state
    core = Core(program, make_scheme(scheme_name))
    core.run()
    assert core.halted, f"{scheme_name}: did not halt"
    for reg in range(32):
        assert core.arch.read_reg(reg) == reference.read_reg(reg), (
            f"{scheme_name}: r{reg} diverged"
        )
    touched = set(reference.memory) | set(core.arch.memory)
    for address in sorted(touched):
        assert core.arch.read_mem(address) == reference.read_mem(address), (
            f"{scheme_name}: mem[{address:#x}] diverged"
        )
    return core


@pytest.mark.parametrize("scheme_name", SCHEME_LABELS)
def test_fixed_random_programs_match_interpreter(scheme_name):
    for seed in (1, 2, 3):
        assert_equivalent(random_program(seed), scheme_name)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_unsafe_matches_interpreter(seed):
    assert_equivalent(random_program(seed, body_length=30, iterations=8), "unsafe")


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scheme_name=st.sampled_from(SCHEME_LABELS),
)
def test_property_all_schemes_match_interpreter(seed, scheme_name):
    assert_equivalent(random_program(seed, body_length=25, iterations=6), scheme_name)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_schemes_commit_same_instruction_count(seed):
    """All schemes execute the same architectural instruction stream."""
    program = random_program(seed, body_length=25, iterations=6)
    counts = set()
    for scheme_name in ("unsafe", "nda", "stt", "dom", "dom+ap"):
        core = Core(program, make_scheme(scheme_name))
        stats = core.run()
        counts.add(stats.committed_instructions)
    assert len(counts) == 1
