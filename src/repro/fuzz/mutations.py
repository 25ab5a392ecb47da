"""Deliberately broken scheme variants for oracle self-tests.

A secure-speculation scheme answers *timing* questions (may this load
issue? is this operand tainted?) — its hooks cannot corrupt dataflow by
construction.  So a realistic "scheme bug" fixture must reach past the
hook interface: each mutation wraps the scheme's :meth:`attach` and
intercepts the core's architectural state writes, introducing a
dataflow-visible bug the differential oracle is required to catch.

Mutations are addressed by name (plain strings travel in job specs and
repro files) and are deterministic: the Nth architectural write always
misbehaves, so a mutated run minimizes identically on every replay.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.errors import ConfigError
from repro.schemes import make_scheme
from repro.schemes.base import SecureScheme

#: Period of the write counter: every Nth architectural write misbehaves.
#: Small enough that a handful of instructions reproduce the bug (the
#: shrinker target), large enough that most writes are honest.
MUTATION_PERIOD = 3


class _BitflipRegisters(list):
    """A register file whose every Nth store flips bit 1 of the value.

    Commit stores straight into ``ArchState.registers``, and once the
    core is built nothing else writes it, so the stores counted here are
    exactly the committed register writes.
    """

    def __init__(self, registers) -> None:
        super().__init__(registers)
        self.writes = 0

    def __setitem__(self, index, value) -> None:
        self.writes += 1
        if self.writes % MUTATION_PERIOD == 0:
            value ^= 0b10
        super().__setitem__(index, value)


def _install_commit_bitflip(scheme: SecureScheme) -> None:
    """Every Nth committed register write flips bit 1 of the value."""
    original_attach = scheme.attach

    def attach(core) -> None:
        original_attach(core)
        core.arch.registers = _BitflipRegisters(core.arch.registers)

    scheme.attach = attach  # type: ignore[method-assign]


def _install_dropped_store(scheme: SecureScheme) -> None:
    """Every Nth committed memory write is silently discarded."""
    original_attach = scheme.attach

    def attach(core) -> None:
        original_attach(core)
        arch = core.arch
        original_write = arch.write_mem
        counter = {"writes": 0}

        def write_mem(address: int, value: int) -> None:
            counter["writes"] += 1
            if counter["writes"] % MUTATION_PERIOD == 0:
                return
            original_write(address, value)

        arch.write_mem = write_mem

    scheme.attach = attach  # type: ignore[method-assign]


MUTATIONS: Dict[str, Callable[[SecureScheme], None]] = {
    "commit-bitflip": _install_commit_bitflip,
    "dropped-store": _install_dropped_store,
}


def make_scheme_variant(
    name: str, mutation: Optional[str] = None
) -> SecureScheme:
    """A scheme instance, optionally with a named bug installed."""
    scheme = make_scheme(name)
    if mutation is not None:
        try:
            install = MUTATIONS[mutation]
        except KeyError:
            raise ConfigError(
                f"unknown mutation {mutation!r} (choose from "
                f"{sorted(MUTATIONS)})"
            ) from None
        install(scheme)
    return scheme
