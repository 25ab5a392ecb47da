"""Per-job set-up that a worker reuses or reclaims.

``run_benchmark`` keeps the last stand-in it built (one entry, keyed by
name), so consecutive schemes of a benchmark share one ``Program``;
``run_program`` collects its finished ``Core``, whose object graph is
cyclic, before it returns; and that collection walks what the core
allocated, not its caches' per-slot storage.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from repro.common.config import default_config
from repro.harness import runner
from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.workloads.profiles import benchmark_names, build_workload

WINDOW = {"warmup": 200, "measure": 400}


@pytest.fixture
def builds(monkeypatch):
    """Record ``runner.build_workload`` calls, starting from an empty
    memo: one ``(name, weak reference to the program)`` per build."""
    calls = []

    def counting(name):
        program = build_workload(name)
        calls.append((name, weakref.ref(program)))
        return program

    monkeypatch.setattr(runner, "_last_built", None)
    monkeypatch.setattr(runner, "build_workload", counting)
    return calls


def test_two_schemes_of_one_stand_in_build_it_once(builds):
    first = runner.run_benchmark("hmmer", "unsafe", **WINDOW)
    second = runner.run_benchmark("hmmer", "dom+ap", **WINDOW)
    assert [name for name, _ in builds] == ["hmmer"]
    assert (first.benchmark, second.benchmark) == ("hmmer", "hmmer")


def test_a_second_stand_in_drops_the_first_before_building(builds, monkeypatch):
    runner.run_benchmark("hmmer", "unsafe", **WINDOW)
    (_, hmmer), = builds
    alive_at_next_build = []
    counting = runner.build_workload

    def probing(name):
        alive_at_next_build.append(hmmer() is not None)
        return counting(name)

    monkeypatch.setattr(runner, "build_workload", probing)
    runner.run_benchmark("namd", "unsafe", **WINDOW)
    assert alive_at_next_build == [False]
    assert runner._last_built[0] == "namd"
    assert [name for name, _ in builds] == ["hmmer", "namd"]
    runner.run_benchmark("hmmer", "nda", **WINDOW)
    assert [name for name, _ in builds] == ["hmmer", "namd", "hmmer"]


def test_a_memo_hit_equals_a_fresh_build_for_every_stand_in(builds, monkeypatch):
    seen = []
    monkeypatch.setattr(
        runner, "run_program", lambda program, *args: seen.append(program)
    )
    for name in benchmark_names():
        runner.run_benchmark(name, "unsafe")
        runner.run_benchmark(name, "dom+ap")
        built, hit = seen[-2:]
        assert hit is built
        fresh = build_workload(name)
        assert hit.name == fresh.name == name
        assert hit.instructions == fresh.instructions
        assert hit.initial_memory == fresh.initial_memory
        assert hit.memory_image == fresh.memory_image
        assert hit.initial_registers == fresh.initial_registers
        assert hit.secret_regions == fresh.secret_regions
    assert len(builds) == len(benchmark_names())


def cores():
    return [obj for obj in gc.get_objects() if isinstance(obj, Core)]


@pytest.mark.parametrize("scheme", ["unsafe", "dom+ap"])
def test_no_core_outlives_run_program(scheme):
    gc.collect()
    held_elsewhere = {id(core) for core in cores()}
    runner.run_program(build_workload("namd"), scheme, warmup=500, measure=1500)
    assert [core for core in cores() if id(core) not in held_elsewhere] == []


def collector_view(root) -> int:
    """Summed length of the lists, tuples, dicts and sets that the cyclic
    collector can reach from ``root``: what a collection walks for it.
    Modules, types and functions are shared with the rest of the process
    and are not followed."""
    seen = {id(root)}
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple, dict, set, frozenset)):
            total += len(obj)
        for ref in gc.get_referents(obj):
            if id(ref) in seen or not gc.is_tracked(ref):
                continue
            if isinstance(ref, (types.ModuleType, type, types.FunctionType)):
                continue
            seen.add(id(ref))
            stack.append(ref)
    return total


def test_the_collector_does_not_walk_cache_slots():
    """The Table 1 caches hold about 1.19 M slots (L3 alone is 4 x
    262,144).  Stored in lists, each collection walked every one of them;
    typed storage leaves the collector a few thousand container slots."""
    core = Core(build_workload("hmmer"), make_scheme("dom+ap"), config=default_config())
    assert collector_view(core) <= 20_000
