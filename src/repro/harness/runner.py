"""Run (benchmark, scheme) pairs and collect measurement-window stats.

The paper measures 100M-instruction simpoints after warmup; we scale that
to Python speeds with an explicit warmup window (caches, branch predictor,
and stride table train) followed by a measurement window whose counter
*deltas* are reported.  :class:`~repro.harness.parallel.ParallelSession`
memoizes runs under :func:`run_key` so the figures that share
configurations (6, 7, 8 all use the same sweep) don't re-simulate.
"""

from __future__ import annotations

import gc
from dataclasses import fields
from typing import Dict, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import EmptyMeasurementError
from repro.common.stats import RunResult, SimStats
from repro.isa.program import Program
from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.workloads.profiles import build_workload, get_profile

DEFAULT_WARMUP = 6_000
DEFAULT_MEASURE = 30_000

#: The seven configurations of Figure 6 / Figure 8, in plot order.
FIGURE_SCHEMES: Tuple[str, ...] = (
    "nda",
    "nda+ap",
    "stt",
    "stt+ap",
    "dom",
    "dom+ap",
)
BASELINE_SCHEME = "unsafe"


def _stats_delta(before: Dict[str, int], after: SimStats) -> SimStats:
    delta = SimStats()
    for f in fields(SimStats):
        setattr(delta, f.name, getattr(after, f.name) - before[f.name])
    return delta


def run_program(
    program,
    scheme: str,
    config: Optional[SystemConfig] = None,
    warmup: int = DEFAULT_WARMUP,
    measure: int = DEFAULT_MEASURE,
) -> RunResult:
    """Run ``program`` under ``scheme`` and return measurement-window stats."""
    core = Core(program, make_scheme(scheme), config=config)
    if warmup > 0:
        core.run(max_instructions=warmup)
    # run() maintains stats.cycles at every return, reporting the cycle
    # after the last executed step on a budget break — NOT core.cycle,
    # whose trailing idle-skip jump may overshoot into a stretch nothing
    # observes.  Window boundaries must use the corrected value so cycle
    # deltas are independent of idle skipping.
    before = core.stats.as_dict()
    core.run(max_instructions=warmup + measure)
    stats = _stats_delta(before, core.stats)
    halted = core.halted
    # The core itself is cyclic (the bound-method handler table,
    # scheme/engine/guardrail back-references), so only the cyclic
    # collector frees it; its uops are already freed by reference count
    # as they retire or are squashed.  Collect here, so a worker never
    # holds finished cores waiting for the next collection.
    del core
    gc.collect()
    if halted and measure > 0 and stats.committed_instructions == 0:
        raise EmptyMeasurementError(
            f"program shorter than warmup window (halted after "
            f"{before['committed_instructions']} instructions, "
            f"warmup={warmup})",
            benchmark=program.name,
            scheme=scheme,
        )
    return RunResult(
        benchmark=program.name,
        scheme=scheme,
        stats=stats,
        metadata={"warmup": warmup, "measure": measure},
    )


#: The last stand-in :func:`run_benchmark` built in this process, as
#: ``(name, program)``; one entry, dropped before the next build.
_last_built: Optional[Tuple[str, Program]] = None


def run_benchmark(
    benchmark: str,
    scheme: str,
    config: Optional[SystemConfig] = None,
    warmup: int = DEFAULT_WARMUP,
    measure: int = DEFAULT_MEASURE,
) -> RunResult:
    """Build the named SPEC stand-in and measure it under ``scheme``.

    The stand-in is reused when the previous call in this process built
    the same one, so consecutive schemes of a benchmark share one
    :class:`Program`.  That is sound because a build depends only on the
    name and a Program is not mutated after construction (the core only
    reads it).
    """
    global _last_built
    get_profile(benchmark)  # fail fast on unknown names
    if _last_built is None or _last_built[0] != benchmark:
        _last_built = None
        _last_built = (benchmark, build_workload(benchmark))
    return run_program(_last_built[1], scheme, config, warmup, measure)


#: The memo key of one run: (benchmark, scheme, warmup, measure,
#: config fingerprint).  The window sizes and the config digest are part
#: of the key so mutating ``session.warmup`` / ``session.config`` after a
#: run can never replay results from the old configuration.  A session's
#: in-memory memo and its on-disk cache (:mod:`repro.harness.parallel`)
#: both use this one key, so they agree on what "the same experiment"
#: means by construction.
RunKey = Tuple[str, str, int, int, str]


def run_key(
    benchmark: str,
    scheme: str,
    warmup: int,
    measure: int,
    config: SystemConfig,
) -> RunKey:
    """The canonical memo key shared by every runner and cache layer."""
    return (benchmark, scheme, warmup, measure, config.fingerprint())

