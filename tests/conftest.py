"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.common.config import (
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    PredictorConfig,
    SystemConfig,
    small_config,
)
from repro.isa.builder import CodeBuilder
from repro.isa.program import Program
from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.workloads.profiles import build_workload

@pytest.fixture
def small_cfg() -> SystemConfig:
    """A scaled-down configuration exercising capacity limits quickly."""
    return small_config()


@pytest.fixture
def default_like_cfg() -> SystemConfig:
    """The Table 1 configuration (shared instance is fine: frozen)."""
    return SystemConfig()


@pytest.fixture(scope="session")
def stand_in():
    """``build_workload`` that builds each SPEC stand-in once per session:
    a Program is never mutated, so every core of one workload can share
    it."""
    return functools.cache(build_workload)


def run_to_completion(program: Program, scheme_name: str, config=None):
    """Run a program to its halt under a scheme; returns the core."""
    core = Core(program, make_scheme(scheme_name), config=config)
    core.run()
    return core


def assert_matches_interpreter(program: Program, scheme_name: str, config=None,
                               check_registers=(), check_memory=()):
    """Run out-of-order and in-order; assert architectural state matches."""
    reference = program.interpret()
    core = run_to_completion(program, scheme_name, config)
    assert core.halted, f"{scheme_name}: program did not halt"
    for reg in check_registers:
        assert core.arch.read_reg(reg) == reference.state.read_reg(reg), (
            f"{scheme_name}: r{reg} mismatch"
        )
    for address in check_memory:
        assert core.arch.read_mem(address) == reference.state.read_mem(address), (
            f"{scheme_name}: mem[{address:#x}] mismatch"
        )
    return core


def counting_loop(n: int = 50) -> Program:
    """A tiny loop program: sums 0..n-1 into r3, stores at address 8."""
    b = CodeBuilder()
    b.li(1, n)
    b.li(2, 0)
    b.li(3, 0)
    b.label("loop")
    b.add(3, 3, 2)
    b.addi(2, 2, 1)
    b.blt(2, 1, "loop")
    b.store(3, 0, disp=8)
    b.halt()
    return b.build(name="counting_loop")
