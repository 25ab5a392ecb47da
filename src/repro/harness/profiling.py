"""Profiling layer for the simulator: ``repro profile``.

Two complementary views of where simulation time goes, both measured over
the same (benchmark × scheme) grid the perf baseline uses:

* **Stage accounting** (default) — wall-clock per pipeline phase
  (`_writeback`, `_commit`, `_issue`, `_dispatch`, ...), measured by
  wrapping the phase methods on the :class:`Core` *class* before any core
  is constructed.  The scheduling loop binds phase methods late (at loop
  entry) precisely so these wrappers are picked up; installing them on
  the class rather than per instance keeps the timed region identical to
  what ``repro bench`` measures.  This answers "which phase should the
  next optimization pass target?" with real wall seconds rather than
  cProfile's inflated call overhead.
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
import pstats
import time
from typing import Callable, Dict, List, Optional

from repro.common.io import atomic_write_text
from repro.harness.perfbench import (
    BenchProfile,
    bench_profiles,
    build_workload,
    default_config,
    environment_fingerprint,
    make_scheme,
)
from repro.pipeline.core import Core

#: The pipeline phases the scheduling loop visits, in loop order.  These
#: are the exact names ``Core._loop`` binds at entry; wrapping them on the
#: class is sufficient to capture every phase invocation in both
#: idle_skip modes.
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


class StageAccounting:
    """Context manager that patches :class:`Core`'s phase methods with
    timing wrappers and accumulates per-stage wall seconds and calls.

    Must be entered *before* the profiled cores are constructed: the
    wrappers live on the class, and the scheduling loop resolves phase
    methods through the instance (falling back to the class) at
    ``run()`` time.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {name: 0.0 for name in STAGE_METHODS}
        self.calls: Dict[str, int] = {name: 0 for name in STAGE_METHODS}
        self._originals: Dict[str, Callable] = {}

    def _wrap(self, name: str, original: Callable) -> Callable:
        seconds = self.seconds
        calls = self.calls
        perf_counter = time.perf_counter

        def timed(core, *args, **kwargs):
            start = perf_counter()
            try:
                return original(core, *args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1

        timed.__name__ = f"profiled_{name}"
        timed.__wrapped__ = original
        return timed

    def __enter__(self) -> "StageAccounting":
        for name in STAGE_METHODS:
            original = getattr(Core, name)
            self._originals[name] = original
            setattr(Core, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, original in self._originals.items():
            setattr(Core, name, original)
        self._originals.clear()

    def total_seconds(self) -> float:
        return sum(self.seconds.values())


def _grid(profile: BenchProfile) -> List[tuple]:
    return [
        (benchmark, scheme)
        for benchmark in profile.benchmarks
        for scheme in profile.schemes
    ]


def profile_stages(profile_name: str = "full") -> Dict[str, object]:
    """Run the bench grid once (event mode) under stage accounting.

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
    with accounting:
        for benchmark, scheme in _grid(profile):
            program = build_workload(benchmark)
            core = Core(
                program, make_scheme(scheme), config=default_config(),
                idle_skip=True,
            )
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
    """Run the bench grid once (event mode) under cProfile.

    Workload/core construction happens outside the profiled region so the
    output reflects the same timed region as ``repro bench``.
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
