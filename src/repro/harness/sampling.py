"""Multi-window (simpoint-style) sampling with dispersion estimates.

The paper measures up to five 100M-instruction simpoints per benchmark;
single-window measurements on a synthetic kernel can land in an atypical
phase (cold caches, an unlucky stretch of mispredicts).  This module
measures several consecutive windows of one run and reports per-window
IPCs plus mean / standard deviation, so results can be quoted with error
bars and the harness tests can assert measurement stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError, EmptyMeasurementError
from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.workloads.profiles import build_workload


@dataclass
class SampledResult:
    """Per-window IPCs for one (benchmark, scheme) measurement."""

    benchmark: str
    scheme: str
    window_instructions: int
    ipcs: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.ipcs) / len(self.ipcs)

    @property
    def stdev(self) -> float:
        if len(self.ipcs) < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((x - mean) ** 2 for x in self.ipcs) / (len(self.ipcs) - 1)
        )

    @property
    def relative_stdev(self) -> float:
        """Coefficient of variation; the stability figure of merit."""
        mean = self.mean
        return self.stdev / mean if mean else 0.0


def sample_benchmark(
    benchmark: str,
    scheme: str,
    windows: int = 4,
    window_instructions: int = 6000,
    warmup: int = 3000,
    config: Optional[SystemConfig] = None,
) -> SampledResult:
    """Measure ``windows`` consecutive instruction windows of one run.

    Windows share one core (caches and predictors stay warm across
    windows, as with consecutive simpoints of one program), so their IPCs
    estimate steady-state dispersion rather than cold-start effects.
    """
    if windows < 1:
        raise ConfigError("need at least one window")
    core = Core(build_workload(benchmark), make_scheme(scheme), config=config)
    if warmup > 0:
        core.run(max_instructions=warmup)
    result = SampledResult(
        benchmark=benchmark, scheme=scheme,
        window_instructions=window_instructions,
    )
    committed = core.stats.committed_instructions
    for index in range(windows):
        # stats.cycles, not core.cycle: it leaves out the trailing
        # idle-skip jump nothing observes (see run_program), so a window
        # measures the same cycles in both idle_skip modes.
        start_cycle = core.stats.cycles
        target = committed + window_instructions
        core.run(max_instructions=target)
        delta_instructions = core.stats.committed_instructions - committed
        delta_cycles = core.stats.cycles - start_cycle
        committed = core.stats.committed_instructions
        if delta_cycles == 0 or delta_instructions == 0:
            break  # program ended inside the window
        result.ipcs.append(delta_instructions / delta_cycles)
    if not result.ipcs:
        raise EmptyMeasurementError(
            "program too short for even one sampling window",
            benchmark=benchmark, scheme=scheme,
        )
    return result
