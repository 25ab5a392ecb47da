"""``Program.initial_state`` against the per-word loop it replaced.

A Program computes its word-aligned, masked memory image once and
``initial_state`` copies it.  The reference below is the earlier
implementation: a fresh ``ArchState`` written one ``write_mem`` per
``initial_memory`` entry, in insertion order.
"""

from __future__ import annotations

import pytest

from repro.fuzz import PROFILES, generate_program
from repro.isa.builder import CodeBuilder
from repro.isa.program import ArchState, Program
from repro.workloads.profiles import benchmark_names, build_workload

WORD = (1 << 64) - 1


def reference_state(program: Program) -> ArchState:
    state = ArchState()
    for addr, value in program.initial_memory.items():
        state.write_mem(addr, value)
    for reg, value in program.initial_registers.items():
        state.write_reg(reg, value)
    return state


def assert_same_state(got: ArchState, want: ArchState) -> None:
    assert got.registers == want.registers
    # Same words, same values, and the same iteration order.
    assert list(got.memory.items()) == list(want.memory.items())


#: An unaligned address, two addresses in one word, a negative value and
#: a value of 2**64 or more.
EDGES = {
    0x1003: 7,              # unaligned: lands in word 0x1000
    0x2000: 1,
    0x2005: 2,              # same word as 0x2000: the last one wins
    0x3000: -1,             # negative value: masked to 64 bits
    0x4000: (1 << 64) + 9,  # value >= 2**64: masked to 9
    0x5000: 3,
}


def hand_built(memory=None) -> Program:
    b = CodeBuilder()
    b.li(1, 5)
    b.halt()
    return Program(
        b.build(name="edges").instructions,
        initial_memory=EDGES if memory is None else memory,
        initial_registers={0: 4, 2: -2},
        name="edges",
    )


@pytest.mark.parametrize("stand_in", benchmark_names())
def test_every_stand_in_matches_the_per_word_loop(stand_in):
    program = build_workload(stand_in)
    assert_same_state(program.initial_state(), reference_state(program))
    # Stand-in images need no aligning or masking, so no second copy.
    assert program.memory_image is program.initial_memory


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_every_fuzz_profile_matches_the_per_word_loop(profile):
    program = generate_program(3, PROFILES[profile])
    assert_same_state(program.initial_state(), reference_state(program))
    assert program.memory_image is program.initial_memory


def test_aligning_and_masking_match_the_per_word_loop():
    program = hand_built()
    state = program.initial_state()
    assert_same_state(state, reference_state(program))
    assert state.memory == {0x1000: 7, 0x2000: 2, 0x3000: WORD, 0x4000: 9, 0x5000: 3}
    assert state.registers[0] == 0 and state.registers[2] == WORD - 1


@pytest.mark.parametrize(
    "memory, image",
    [
        ({0x3000: -1, 0x4000: (1 << 64) + 9}, {0x3000: WORD, 0x4000: 9}),
        ({0x1003: 7, 0x1001: 8, 0x2000: 1}, {0x1000: 8, 0x2000: 1}),
        ({-8: 5}, {WORD - 7: 5}),
    ],
    ids=["values-only", "addresses-only", "negative-address"],
)
def test_one_kind_of_fix_up_alone_matches_the_per_word_loop(memory, image):
    program = hand_built(memory)
    state = program.initial_state()
    assert_same_state(state, reference_state(program))
    assert state.memory == image


def test_to_dict_keeps_the_entries_as_given():
    payload = hand_built().to_dict()
    assert payload["initial_memory"] == {str(a): v for a, v in sorted(EDGES.items())}
    assert payload["initial_registers"] == {"0": 4, "2": -2}
    assert_same_state(
        Program.from_dict(payload).initial_state(), reference_state(hand_built())
    )


@pytest.mark.parametrize(
    "make", [hand_built, lambda: build_workload("hmmer")], ids=["edges", "hmmer"]
)
def test_writing_a_state_changes_neither_the_program_nor_the_next_state(make):
    program = make()
    memory_before = dict(program.initial_memory)
    dict_before = program.to_dict()
    first = program.initial_state()
    for addr in list(first.memory)[:8]:
        first.write_mem(addr, 0xDEAD)
    first.write_mem(0x7FF8, 1)
    first.write_reg(3, 99)
    assert program.initial_memory == memory_before
    assert program.to_dict() == dict_before
    assert_same_state(program.initial_state(), reference_state(program))
