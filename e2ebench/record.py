#!/usr/bin/env python3
"""Record the simulated outputs the benchmark checks against.

Runs both grid regimes once through ``ParallelSession`` and writes, for
every (benchmark, scheme) pair, the value of every ``SimStats`` counter in
the measurement window to ``expected.json``.  The counter list is frozen
in that file: counters added to ``SimStats`` later are not compared.
Re-record only for a deliberate change to simulated behaviour::

    python3 e2ebench/record.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields

import run
from repro.common.config import default_config
from repro.common.stats import SimStats
from repro.harness.parallel import ParallelSession


def main() -> int:
    counters = [f.name for f in fields(SimStats)]
    grids = {}
    for regime, benchmarks in (("long", run.LONG_BENCHMARKS), ("short", run.SHORT_BENCHMARKS)):
        warmup, measure = run.WINDOWS[regime]
        session = ParallelSession(
            default_config(), warmup=warmup, measure=measure, jobs=run.WORKERS
        )
        results = session.sweep(benchmarks, run.GRID_SCHEMES)
        grids[regime] = {
            "warmup": warmup,
            "measure": measure,
            "pairs": {
                f"{r.benchmark}/{r.scheme}": [getattr(r.stats, name) for name in counters]
                for r in results
            },
        }
        print(f"{regime}: {len(results)} pairs recorded", file=sys.stderr)
    payload = {"counters": counters, "grids": grids}
    with open(run.EXPECTED_PATH, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
