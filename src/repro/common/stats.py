"""Statistics collection for simulation runs.

:class:`SimStats` is a flat bag of named counters with a few derived
metrics (IPC, predictor coverage/accuracy).  Counters are plain attributes
rather than a dict so hot simulator paths pay only an attribute increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, Mapping

from repro.common.errors import StatisticsError


@dataclass
class SimStats:
    """Counters collected over one simulation run."""

    cycles: int = 0
    committed_instructions: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    committed_branches: int = 0

    fetched_instructions: int = 0
    squashed_instructions: int = 0
    branch_mispredictions: int = 0

    # Memory hierarchy traffic (demand + doppelganger + prefetch).
    l1_accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_hits: int = 0
    l3_accesses: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0
    mshr_stalls: int = 0
    writebacks: int = 0

    # Scheme behaviour.
    delayed_propagations: int = 0     # NDA-P: completions held back
    delayed_transmitters: int = 0     # STT: tainted transmitters held back
    dom_delayed_misses: int = 0       # DoM: speculative L1 misses delayed
    dom_reissued_loads: int = 0

    # Doppelganger engine.
    dl_predictions: int = 0           # predictor produced an address
    dl_issued: int = 0                # doppelganger accesses sent to memory
    dl_correct: int = 0               # verified: predicted == resolved
    dl_wrong: int = 0                 # verified: predicted != resolved
    dl_squashed: int = 0              # doppelganger issued, load squashed
    dl_covered_commits: int = 0       # committed loads with an issued doppelganger
    dl_correct_commits: int = 0       # committed loads whose doppelganger matched
    dl_forwarded: int = 0             # preload overridden by store forwarding
    dl_released_early: int = 0        # value released before plain-scheme time

    # Value prediction (DoM+VP extension).
    vp_predictions: int = 0
    vp_correct: int = 0
    vp_wrong: int = 0
    vp_squashes: int = 0

    # Prefetcher.
    prefetches_issued: int = 0
    prefetch_fills: int = 0

    # Store handling.
    store_to_load_forwards: int = 0
    lq_invalidation_matches: int = 0

    def merge(self, other: "SimStats") -> None:
        """Accumulate another run's counters into this one (for sweeps)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.committed_instructions / self.cycles

    @property
    def l1_miss_rate(self) -> float:
        if self.l1_accesses == 0:
            return 0.0
        return self.l1_misses / self.l1_accesses

    @property
    def coverage(self) -> float:
        """Fraction of committed loads that had a doppelganger issued."""
        if self.committed_loads == 0:
            return 0.0
        return self.dl_covered_commits / self.committed_loads

    @property
    def accuracy(self) -> float:
        """Fraction of covered committed loads whose prediction was correct."""
        if self.dl_covered_commits == 0:
            return 0.0
        return self.dl_correct_commits / self.dl_covered_commits

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "SimStats":
        """Rebuild a :class:`SimStats` from :meth:`as_dict` output.

        Unknown keys are ignored (forward compatibility: a cache written
        by a newer build with extra counters still loads); missing keys
        keep their zero defaults.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def summary(self) -> str:
        """A short human-readable digest used by examples and the CLI."""
        lines = [
            f"cycles={self.cycles}  instructions={self.committed_instructions}"
            f"  IPC={self.ipc:.3f}",
            f"loads={self.committed_loads}  stores={self.committed_stores}"
            f"  branches={self.committed_branches}"
            f"  mispredicts={self.branch_mispredictions}",
            f"L1 acc/hit={self.l1_accesses}/{self.l1_hits}"
            f"  L2 acc={self.l2_accesses}  L3 acc={self.l3_accesses}"
            f"  DRAM={self.dram_accesses}",
        ]
        if self.dl_issued:
            lines.append(
                f"doppelganger issued={self.dl_issued}"
                f"  coverage={self.coverage:.1%}  accuracy={self.accuracy:.1%}"
            )
        return "\n".join(lines)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    Used for the GMEAN columns in Figures 1, 6, 7, and 8.
    """
    vals = list(values)
    if not vals:
        raise StatisticsError("geomean of an empty sequence")
    if any(v <= 0 for v in vals):
        raise StatisticsError("geomean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def normalized(value: float, baseline: float) -> float:
    """``value / baseline``, the normalization used by every figure."""
    if baseline == 0:
        raise StatisticsError("cannot normalize against a zero baseline")
    return value / baseline


@dataclass
class RunResult:
    """A simulation outcome paired with the labels that produced it."""

    benchmark: str
    scheme: str
    stats: SimStats
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def to_dict(self) -> Dict[str, Any]:
        """A plain-data form that survives JSON and pickling boundaries
        (worker processes, the on-disk result cache)."""
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "stats": self.stats.as_dict(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        return cls(
            benchmark=data["benchmark"],
            scheme=data["scheme"],
            stats=SimStats.from_dict(data["stats"]),
            metadata=dict(data.get("metadata", {})),
        )
