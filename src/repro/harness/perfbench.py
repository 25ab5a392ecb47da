"""Performance baseline for the event-driven scheduler (``repro bench``).

Times the figure6 sweep — every workload profile under the unsafe
baseline and the scheme grid — with the event-driven loop
(``idle_skip=True``, the default).  Each pair is also run once, untimed,
with the per-cycle reference loop (``idle_skip=False``, every pipeline
phase visited every cycle) and **differentially verified**: the two runs
must produce bit-identical :class:`~repro.common.stats.SimStats`, cycles
included, or the bench aborts with :class:`StatsMismatchError`.  A
baseline that traded correctness for speed is worthless.

The output is a JSON document (checked in as ``BENCH_figure6.json``)
with one record per pair — simulated instructions, cycles, scheduler
steps, wall-clock, simulated instructions per wall second, and simulated
cycles per step (the idle-skip leverage) — plus aggregate totals.  Wall
times are machine-dependent; the checked-in numbers document the shape
of the win (step reduction, where skipping pays) rather than absolute
throughput, and ``compare_baselines`` applies a generous tolerance.

Each pair's wall time is the **best of N samples** (default
``DEFAULT_SAMPLES``), every sample a fresh event-driven core over the
same program.  A single cold sample conflates simulator throughput with
allocator warm-up, CPU frequency ramp, and scheduling noise — observed
spread between the first and best sample of an identical run exceeds 2x
on an idle container, which is larger than any optimization this
baseline is meant to defend.  The minimum is the right estimator for a
deterministic workload: noise is strictly additive, so the smallest
sample is the closest observation of the true cost.  N is recorded in
the baseline's environment block (``timing_samples``) so a baseline
measured under a different policy is visibly incomparable.  Every
sample must produce bit-identical stats (cross-sample determinism), so
more samples also means more differential coverage, not just less
noise.

This module lives in the harness, outside the simulator's determinism
scope, so wall-clock access is legitimate here and nowhere deeper.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig, default_config
from repro.common.errors import ReproError
from repro.common.io import atomic_write_text
from repro.harness.runner import BASELINE_SCHEME, FIGURE_SCHEMES
from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.workloads.profiles import benchmark_names, build_workload

DEFAULT_BASELINE = "BENCH_figure6.json"

#: Warn when sim-IPS drops by more than this fraction vs the baseline.
DEFAULT_REGRESSION_THRESHOLD = 0.20

#: Timing samples per pair; the recorded wall is the minimum.
DEFAULT_SAMPLES = 3


class StatsMismatchError(ReproError):
    """The event-driven and reference loops disagreed on SimStats."""


@dataclass(frozen=True)
class BenchProfile:
    """One bench configuration: which pairs to time, for how long."""

    name: str
    benchmarks: Tuple[str, ...]
    schemes: Tuple[str, ...]
    instructions: int


def bench_profiles() -> Dict[str, BenchProfile]:
    """The two shipped profiles: the full figure6 grid and a CI-sized cut."""
    return {
        "full": BenchProfile(
            name="full",
            benchmarks=benchmark_names("all"),
            schemes=(BASELINE_SCHEME,) + FIGURE_SCHEMES,
            instructions=2_500,
        ),
        "quick": BenchProfile(
            name="quick",
            benchmarks=("mcf", "hmmer", "lbm", "gcc", "libquantum", "omnetpp"),
            schemes=(BASELINE_SCHEME, "stt", "dom+ap"),
            instructions=1_500,
        ),
    }


@dataclass
class BenchRecord:
    """Timing of one (benchmark, scheme) pair on the event-driven loop."""

    benchmark: str
    scheme: str
    instructions: int   # committed in the measured run
    cycles: int         # identical in both modes (verified)
    steps: int          # event-driven scheduler iterations
    wall_event: float   # seconds, event-driven loop
    sim_ips: float      # instructions / wall_event
    cycles_per_step: float  # skip leverage: simulated cycles per step


def _timed_run(program, scheme: str, config: SystemConfig,
               instructions: int) -> Tuple[Core, float]:
    core = Core(program, make_scheme(scheme), config=config)
    start = time.perf_counter()
    core.run(max_instructions=instructions)
    return core, time.perf_counter() - start


def _sampled_run(program, benchmark: str, scheme: str, config: SystemConfig,
                 instructions: int, samples: int) -> Tuple[Core, float]:
    """Best-of-``samples`` timing of one pair on the event-driven loop;
    returns the last core and the minimum wall time.

    The simulator is deterministic, so every sample must agree on
    SimStats bit-for-bit — a cross-sample divergence means hidden
    process-level state leaked into the model and invalidates the bench
    as loudly as an event/reference mismatch would.
    """
    best = float("inf")
    core: Optional[Core] = None
    first_stats = None
    for _ in range(samples):
        core, wall = _timed_run(program, scheme, config, instructions)
        if wall < best:
            best = wall
        stats = core.stats.as_dict()
        if first_stats is None:
            first_stats = stats
        elif stats != first_stats:
            diffs = {
                k: (first_stats[k], stats[k])
                for k in stats if stats[k] != first_stats[k]
            }
            raise StatsMismatchError(
                f"({benchmark}, {scheme}): identical runs diverged across "
                f"timing samples — the simulator is leaking state between "
                f"runs: {diffs}"
            )
    return core, best


def bench_pair(
    benchmark: str,
    scheme: str,
    instructions: int,
    config: Optional[SystemConfig] = None,
    samples: int = DEFAULT_SAMPLES,
) -> BenchRecord:
    """Time one pair on the event-driven loop and verify it against one
    untimed run of the per-cycle reference loop."""
    if config is None:
        config = default_config()
    if samples < 1:
        raise ReproError(f"bench needs at least one timing sample, got {samples}")
    program = build_workload(benchmark)
    event, wall_event = _sampled_run(
        program, benchmark, scheme, config, instructions, samples
    )
    reference = Core(program, make_scheme(scheme), config=config,
                     idle_skip=False)
    reference.run(max_instructions=instructions)
    a, b = event.stats.as_dict(), reference.stats.as_dict()
    if a != b:
        diffs = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        raise StatsMismatchError(
            f"({benchmark}, {scheme}): event-driven and reference loops "
            f"diverged — the perf baseline is invalid: {diffs}"
        )
    committed = event.stats.committed_instructions
    steps = event._step_count
    return BenchRecord(
        benchmark=benchmark,
        scheme=scheme,
        instructions=committed,
        cycles=event.stats.cycles,
        steps=steps,
        wall_event=round(wall_event, 4),
        sim_ips=round(committed / wall_event, 1) if wall_event > 0 else 0.0,
        cycles_per_step=round(event.stats.cycles / steps, 2) if steps else 0.0,
    )


def _totals(records: Sequence[BenchRecord]) -> Dict[str, float]:
    wall_event = sum(r.wall_event for r in records)
    instructions = sum(r.instructions for r in records)
    cycles = sum(r.cycles for r in records)
    steps = sum(r.steps for r in records)
    return {
        "pairs": len(records),
        "instructions": instructions,
        "cycles": cycles,
        "steps": steps,
        "wall_event": round(wall_event, 3),
        "sim_ips": round(instructions / wall_event, 1) if wall_event else 0.0,
        "cycles_per_step": round(cycles / steps, 2) if steps else 0.0,
    }


def run_bench(
    profile: str = "full",
    config: Optional[SystemConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    samples: int = DEFAULT_SAMPLES,
) -> Dict:
    """Run one profile; returns the payload fragment for that profile."""
    profiles = bench_profiles()
    if profile not in profiles:
        raise ReproError(
            f"unknown bench profile {profile!r}; expected one of "
            f"{sorted(profiles)}"
        )
    spec = profiles[profile]
    records: List[BenchRecord] = []
    for benchmark in spec.benchmarks:
        for scheme in spec.schemes:
            records.append(
                bench_pair(benchmark, scheme, spec.instructions, config,
                           samples=samples)
            )
            if progress is not None:
                r = records[-1]
                progress(
                    f"{benchmark:<14}{scheme:<9}{r.sim_ips:>10.0f}"
                    f"{r.cycles_per_step:>10.1f}"
                )
    return {
        "profile": profile,
        "instructions_per_pair": spec.instructions,
        "timing_samples": samples,
        "records": [asdict(r) for r in records],
        "totals": _totals(records),
    }


def environment_fingerprint(samples: int = DEFAULT_SAMPLES) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "timing_samples": samples,
    }


def write_baseline(path: str, fragment: Dict) -> Dict:
    """Merge one profile's results into the baseline file at ``path``.

    Other profiles already recorded there are preserved, so ``--quick``
    refreshes never clobber the full grid (and vice versa)."""
    target = Path(path)
    payload: Dict = {"profiles": {}}
    if target.exists():
        try:
            payload = json.loads(target.read_text())
        except (OSError, ValueError):
            payload = {"profiles": {}}
    payload.setdefault("profiles", {})
    payload["profiles"][fragment["profile"]] = fragment
    payload["environment"] = environment_fingerprint(
        samples=fragment.get("timing_samples", DEFAULT_SAMPLES)
    )
    atomic_write_text(target, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def load_baseline(path: str) -> Dict:
    target = Path(path)
    if not target.exists():
        raise ReproError(f"baseline file not found: {path}")
    return json.loads(target.read_text())


def compare_baselines(
    fragment: Dict,
    baseline: Dict,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> List[str]:
    """Warnings (not errors) for sim-IPS regressions beyond ``threshold``.

    Wall clock is machine- and load-dependent, so regressions warn and
    never fail the run; the stats-equivalence check inside
    :func:`bench_pair` is the only hard gate."""
    name = fragment["profile"]
    recorded = baseline.get("profiles", {}).get(name)
    if recorded is None:
        return [
            f"baseline has no {name!r} profile — run `repro bench"
            f"{' --quick' if name == 'quick' else ''}` to record one"
        ]
    warnings: List[str] = []
    old_by_pair = {
        (r["benchmark"], r["scheme"]): r for r in recorded["records"]
    }
    # Individual pairs run for tens of milliseconds, so their wall times
    # jitter far more than the aggregate; hold them to twice the bar.
    pair_threshold = 2 * threshold
    for record in fragment["records"]:
        key = (record["benchmark"], record["scheme"])
        old = old_by_pair.get(key)
        if old is None or old["sim_ips"] <= 0:
            continue
        drop = 1.0 - record["sim_ips"] / old["sim_ips"]
        if drop > pair_threshold:
            warnings.append(
                f"({key[0]}, {key[1]}): sim-IPS fell {drop:.0%} "
                f"({old['sim_ips']:.0f} -> {record['sim_ips']:.0f})"
            )
    old_total = recorded["totals"]
    new_total = fragment["totals"]
    if old_total["sim_ips"] > 0:
        drop = 1.0 - new_total["sim_ips"] / old_total["sim_ips"]
        if drop > threshold:
            warnings.append(
                f"aggregate sim-IPS fell {drop:.0%} "
                f"({old_total['sim_ips']:.0f} -> {new_total['sim_ips']:.0f})"
            )
    return warnings
