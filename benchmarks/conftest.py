"""Shared infrastructure for the figure-regeneration benchmarks.

All figure benches share one :class:`ParallelSession`: its sweep runs the
(benchmark × scheme) grid once — fanned out over ``REPRO_BENCH_JOBS``
worker processes — and every figure is derived from the memoized results,
the same structure as the paper's evaluation scripts.  With
``REPRO_BENCH_CACHE`` set, the sweep also persists to disk, so
re-running the benches after an unrelated code change simulates nothing.

Environment knobs:

* ``REPRO_BENCH_WARMUP`` / ``REPRO_BENCH_MEASURE`` — instructions per
  window (defaults 2000 / 8000, the windows that wrote the checked-in
  ``benchmarks/output/`` files; other windows move the numbers, e.g.
  6000 / 30000 for tighter statistics).
* ``REPRO_BENCH_SUITE`` — ``all`` (default), ``spec2006``, ``spec2017``.
* ``REPRO_BENCH_JOBS`` — worker processes for the shared sweep
  (default: one per CPU; results are identical for any value).
* ``REPRO_BENCH_CACHE`` — persistent result-cache directory (optional).

Each bench writes its rendered table under ``benchmarks/output/``.  The
checked-in files are the tables at the default windows, and CI fails
when a fresh run at those windows changes any of them, so a change that
moves a figure number shows up as a diff of that number.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.parallel import ParallelSession
from repro.harness.runner import BASELINE_SCHEME, FIGURE_SCHEMES
from repro.workloads.profiles import benchmark_names

OUTPUT_DIR = Path(__file__).parent / "output"

WARMUP = int(os.environ.get("REPRO_BENCH_WARMUP", "2000"))
MEASURE = int(os.environ.get("REPRO_BENCH_MEASURE", "8000"))
SUITE = os.environ.get("REPRO_BENCH_SUITE", "all")
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or None
CACHE = os.environ.get("REPRO_BENCH_CACHE") or None


@pytest.fixture(scope="session")
def session(benchmarks) -> ParallelSession:
    sess = ParallelSession(
        warmup=WARMUP, measure=MEASURE, jobs=JOBS, cache_dir=CACHE
    )
    # One up-front parallel sweep; the figure benches then read memo hits.
    sess.sweep(
        benchmarks,
        (BASELINE_SCHEME, "unsafe+ap") + FIGURE_SCHEMES,
        skip_errors=True,
    )
    return sess


@pytest.fixture(scope="session")
def benchmarks() -> tuple:
    return benchmark_names(SUITE)


def write_output(name: str, text: str) -> None:
    """Persist a rendered table and echo it to stdout (-s shows it)."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n# {name} (warmup={WARMUP}, measure={MEASURE})")
    print(text)
