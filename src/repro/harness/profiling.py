"""Profiling layer for the simulator: ``repro profile``.

Two complementary views of where simulation time goes, both measured over
one (benchmark × scheme) grid: ``full`` (every stand-in under the unsafe
baseline and the Figure 6 schemes) or ``quick`` (the CI-sized cut):

* **Stage accounting** (default) — wall-clock per pipeline phase
  (`_writeback`, `_commit`, `_issue`, `_dispatch`, ...), measured by a
  :class:`StageAccounting` observer attached to each profiled core
  (``core.observer = accounting``).  The scheduling loop passes each of
  its phases through the observer once, at loop entry, so the timers
  wrap exactly the calls the loop makes and nothing else.  This answers
  "which phase should the next optimization pass target?" with real
  wall seconds rather than cProfile's inflated call overhead.
* **cProfile mode** (``--cprofile``) — the standard deterministic
  profiler over the same runs, for drilling from a hot phase down to the
  exact callee.  Per-call overhead is inflated (every function entry is
  instrumented), so use the stage view for shares and this view for
  structure.

Stage wall-times carry the wrapper's own ``perf_counter`` overhead
(~0.1-0.2 µs per phase call); the report includes the raw per-stage call
counts so that bias is visible rather than hidden.
"""

from __future__ import annotations

import cProfile
import io
import json
import platform
import pstats
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.common.config import default_config
from repro.common.io import atomic_write_text
from repro.harness.runner import BASELINE_SCHEME, FIGURE_SCHEMES
from repro.pipeline.core import Core
from repro.pipeline.hooks import CoreObserver
from repro.schemes import make_scheme
from repro.workloads.profiles import benchmark_names, build_workload

#: The pipeline phases the scheduling loop visits, in loop order: the
#: names of the methods ``Core._loop`` passes through its observer's
#: ``wrap_phase`` at entry, in both idle_skip modes.
STAGE_METHODS = (
    "_writeback",
    "_process_frontier",
    "_commit",
    "_issue",
    "_schedule_memory",
    "_issue_prefetches",
    "_dispatch",
    "_next_cycle",
)

PROFILE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BenchProfile:
    """One profiled grid: which pairs to run, for how many instructions."""

    benchmarks: Tuple[str, ...]
    schemes: Tuple[str, ...]
    instructions: int


def bench_profiles() -> Dict[str, BenchProfile]:
    """The two grids: the full figure6 grid and a CI-sized cut."""
    return {
        "full": BenchProfile(
            benchmarks=benchmark_names("all"),
            schemes=(BASELINE_SCHEME,) + FIGURE_SCHEMES,
            instructions=2_500,
        ),
        "quick": BenchProfile(
            benchmarks=("mcf", "hmmer", "lbm", "gcc", "libquantum", "omnetpp"),
            schemes=(BASELINE_SCHEME, "stt", "dom+ap"),
            instructions=1_500,
        ),
    }


def environment_fingerprint() -> Dict[str, object]:
    """The interpreter and machine a report was measured on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


class StageAccounting(CoreObserver):
    """Core observer that accumulates per-stage wall seconds and calls.

    Attach one to each profiled core (``core.observer = accounting``);
    one instance may observe many cores and sums over all of them.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {name: 0.0 for name in STAGE_METHODS}
        self.calls: Dict[str, int] = {name: 0 for name in STAGE_METHODS}

    def wrap_phase(self, phase: Callable) -> Callable:
        """Time ``phase``, keyed by its ``__name__``."""
        name = phase.__name__
        seconds = self.seconds
        calls = self.calls
        perf_counter = time.perf_counter

        def timed(*args):
            start = perf_counter()
            try:
                return phase(*args)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1

        return timed

    def total_seconds(self) -> float:
        return sum(self.seconds.values())


def _grid(profile: BenchProfile) -> List[tuple]:
    return [
        (benchmark, scheme)
        for benchmark in profile.benchmarks
        for scheme in profile.schemes
    ]


def profile_stages(profile_name: str = "full") -> Dict[str, object]:
    """Run the grid once (event mode) under stage accounting.

    Returns a plain-data report: per-stage aggregate seconds/calls/share,
    per-pair wall and instruction counts, and the environment block, all
    JSON-ready.
    """
    profile = bench_profiles()[profile_name]
    pairs: List[Dict[str, object]] = []
    accounting = StageAccounting()
    total_wall = 0.0
    total_instructions = 0
    total_steps = 0
    for benchmark, scheme in _grid(profile):
        program = build_workload(benchmark)
        core = Core(
            program, make_scheme(scheme), config=default_config(),
            idle_skip=True,
        )
        core.observer = accounting
        start = time.perf_counter()
        core.run(max_instructions=profile.instructions)
        wall = time.perf_counter() - start
        committed = core.stats.committed_instructions
        total_wall += wall
        total_instructions += committed
        total_steps += core._step_count
        pairs.append({
            "benchmark": benchmark,
            "scheme": scheme,
            "wall": round(wall, 4),
            "instructions": committed,
            "steps": core._step_count,
            "sim_ips": round(committed / wall, 1) if wall > 0 else 0.0,
        })
    staged = accounting.total_seconds()
    stages = [
        {
            "stage": name,
            "seconds": round(accounting.seconds[name], 4),
            "calls": accounting.calls[name],
            "share": round(accounting.seconds[name] / staged, 4) if staged else 0.0,
        }
        for name in STAGE_METHODS
    ]
    stages.sort(key=lambda row: row["seconds"], reverse=True)
    return {
        "version": PROFILE_FORMAT_VERSION,
        "mode": "stages",
        "profile": profile_name,
        "environment": environment_fingerprint(),
        "totals": {
            "pairs": len(pairs),
            "wall": round(total_wall, 4),
            "instructions": total_instructions,
            "steps": total_steps,
            "sim_ips": round(total_instructions / total_wall, 1)
            if total_wall > 0 else 0.0,
            "staged_seconds": round(staged, 4),
            # Wall outside any phase: the loop driver itself plus run()'s
            # entry/epilogue.  Large values here mean the *scheduler*,
            # not a phase, is the next target.
            "unattributed_seconds": round(max(total_wall - staged, 0.0), 4),
        },
        "stages": stages,
        "pairs": pairs,
    }


def profile_cprofile(profile_name: str = "full", top: int = 25) -> Dict[str, object]:
    """Run the grid once (event mode) under cProfile.

    Workload/core construction happens outside the profiled region, so
    the output covers only ``Core.run``, the region the stage view times.
    """
    profile = bench_profiles()[profile_name]
    jobs = []
    for benchmark, scheme in _grid(profile):
        jobs.append((
            benchmark,
            scheme,
            Core(
                build_workload(benchmark), make_scheme(scheme),
                config=default_config(), idle_skip=True,
            ),
        ))
    profiler = cProfile.Profile()
    profiler.enable()
    for _, _, core in jobs:
        core.run(max_instructions=profile.instructions)
    profiler.disable()

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("tottime")
    stats.print_stats(top)
    rows = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, line, name = func
        rows.append({
            "function": f"{filename}:{line}({name})",
            "calls": nc,
            "tottime": round(tt, 4),
            "cumtime": round(ct, 4),
        })
    rows.sort(key=lambda row: row["tottime"], reverse=True)
    return {
        "version": PROFILE_FORMAT_VERSION,
        "mode": "cprofile",
        "profile": profile_name,
        "environment": environment_fingerprint(),
        "totals": {
            "pairs": len(jobs),
            "instructions": sum(
                core.stats.committed_instructions for _, _, core in jobs
            ),
        },
        "top": rows[:top],
        "text": buffer.getvalue(),
    }


def render_stage_report(report: Dict[str, object]) -> str:
    """Human-readable rendering of a :func:`profile_stages` report."""
    totals = report["totals"]
    lines = [
        f"stage profile over the {report['profile']} grid "
        f"({totals['pairs']} pairs, {totals['instructions']} instructions, "
        f"{totals['sim_ips']:.0f} sim-IPS)",
        "",
        f"{'stage':<20}{'seconds':>10}{'share':>8}{'calls':>12}{'us/call':>10}",
    ]
    for row in report["stages"]:
        per_call = row["seconds"] / row["calls"] * 1e6 if row["calls"] else 0.0
        lines.append(
            f"{row['stage']:<20}{row['seconds']:>10.3f}"
            f"{row['share']:>8.1%}{row['calls']:>12}{per_call:>10.2f}"
        )
    lines.append(
        f"{'(loop driver)':<20}{totals['unattributed_seconds']:>10.3f}"
        f"{(totals['unattributed_seconds'] / totals['wall'] if totals['wall'] else 0.0):>8.1%}"
    )
    lines.append("")
    lines.append(
        f"total wall {totals['wall']:.3f}s; phase-attributed "
        f"{totals['staged_seconds']:.3f}s "
        f"(includes per-call timer overhead; see module docstring)"
    )
    return "\n".join(lines)


def write_report(path: str, report: Dict[str, object]) -> None:
    atomic_write_text(
        path, json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
