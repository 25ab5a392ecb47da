"""Pin the program every SPEC stand-in builds, byte for byte.

Two builds of one stand-in in one process agreeing
(``test_builds_are_deterministic``) says nothing about whether a change
to the kernels, the builder or ``Program`` kept the program each
stand-in has always been.  This module holds, per stand-in, a SHA-256
over its instructions, its ``initial_memory`` in insertion order, its
registers and secret regions, and whether its memory image is the
initial memory itself, so any change to one of them fails here.

A deliberate change re-records the fixture by running this module as a
script, and says in its commit why the programs moved::

    PYTHONPATH=src python tests/workloads/test_stand_in_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.isa.program import Program
from repro.workloads.profiles import benchmark_names, build_workload

FIXTURE = Path(__file__).with_name("stand_in_digests.json")


def program_digest(program: Program) -> str:
    """SHA-256 over everything a stand-in build decides, in order."""
    digest = hashlib.sha256()
    for part in (
        [
            (inst.opcode.value, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.label)
            for inst in program.instructions
        ],
        list(program.initial_memory.items()),
        list(program.initial_registers.items()),
        program.secret_regions,
        program.memory_image is program.initial_memory,
    ):
        digest.update(repr(part).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_every_stand_in_is_pinned(pinned):
    assert list(pinned) == list(benchmark_names())


@pytest.mark.parametrize("name", benchmark_names())
def test_build_matches_pin(name, pinned, stand_in):
    assert program_digest(stand_in(name)) == pinned[name]


def record():
    """Rebuild every stand-in; rewrite the fixture."""
    digests = {name: program_digest(build_workload(name)) for name in benchmark_names()}
    FIXTURE.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} stand-in digests to {FIXTURE}")


if __name__ == "__main__":
    record()
