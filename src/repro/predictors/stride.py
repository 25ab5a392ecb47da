"""The shared PC-based stride structure (paper §5.1).

One 1024-entry, 8-way, *full-PC-tagged* table serves two modes:

* **Prefetching mode** — given the resolved address of the current load
  instance, predict *future* instances (``addr + k * stride``) and prefetch
  them.  Present in every evaluated scheme, secure or not.
* **Address-prediction mode** — predict the address of the *current*
  instance of a load from its history (``last_addr + stride``), producing
  the Doppelganger address at dispatch, long before the load's operands
  are ready.

Security invariant: the table is trained **only at commit** with
architecturally-performed (non-speculative) load addresses.  The table
itself cannot enforce who calls :meth:`train_commit`; the core does, and
``tests/doppelganger`` assert that squashed loads never train it.  Full PC
tags prevent the aliasing channel mentioned in §5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.config import PredictorConfig


@dataclass
class StrideEntry:
    """One table entry: full PC tag plus stride state."""

    pc: int
    last_address: int
    stride: int = 0
    confidence: int = 0
    last_used: int = 0


class StrideTable:
    """Set-associative stride table with LRU replacement within a set."""

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._sets: List[List[Optional[StrideEntry]]] = [
            [None] * self.ways for _ in range(self.num_sets)
        ]
        # Exact pc -> entry index over the live entries.  Full-PC tags
        # make lookups unambiguous, so the set-associative structure only
        # matters for *capacity and replacement*; the dict gives O(1)
        # lookup on the hot predict/train paths while _allocate keeps the
        # two views in sync.
        self._index: Dict[int, StrideEntry] = {}
        # The live entry for a pc, or None (the doppelganger engine's
        # dispatch lookup, tests and debugging): the index's own ``get``,
        # a C call.  ``_index`` is never rebound.
        self.entry_for = self._index.get
        self._clock = 0
        self.trainings = 0
        self.predictions_made = 0

    def _set_for(self, pc: int) -> List[Optional[StrideEntry]]:
        return self._sets[pc % self.num_sets]

    # ------------------------------------------------------------------
    # Training (commit only!)
    # ------------------------------------------------------------------
    # repro: hot
    def train_commit(self, pc: int, address: int) -> None:
        """Observe a committed load's (pc, address) pair.

        Classic stride training: a repeated stride raises confidence, a
        broken stride decays it, and a stride that has fully decayed is
        replaced by the newly observed one.
        """
        self._clock += 1
        self.trainings += 1
        entry = self._index.get(pc)
        if entry is None:
            self._allocate(pc, address)
            return
        entry.last_used = self._clock
        observed = address - entry.last_address
        if observed == entry.stride:
            if entry.confidence < self.config.max_confidence:
                entry.confidence += 1
        else:
            if entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.stride = observed
        entry.last_address = address

    def _allocate(self, pc: int, address: int) -> None:
        ways = self._set_for(pc)
        victim = None
        for index, entry in enumerate(ways):
            if entry is None:
                victim = index
                break
        if victim is None:
            victim = min(range(self.ways), key=lambda i: ways[i].last_used)
        evicted = ways[victim]
        if evicted is not None:
            del self._index[evicted.pc]
        entry = StrideEntry(pc=pc, last_address=address, last_used=self._clock)
        ways[victim] = entry
        self._index[pc] = entry

    # ------------------------------------------------------------------
    # Address-prediction mode (Doppelganger Loads)
    # ------------------------------------------------------------------
    def predict_current(self, pc: int) -> Optional[int]:
        """Predict the address of the *current* instance of the load at
        ``pc``, or None when confidence is below threshold / PC unknown."""
        entry = self._index.get(pc)
        if entry is None or entry.confidence < self.config.confidence_threshold:
            return None
        self.predictions_made += 1
        return (entry.last_address + entry.stride) & ((1 << 64) - 1)

    # ------------------------------------------------------------------
    # Prefetching mode (conventional stride prefetcher)
    # ------------------------------------------------------------------
    def prefetch_candidates(self, pc: int, resolved_address: int) -> List[int]:
        """Future-instance addresses to prefetch after a demand access."""
        entry = self._index.get(pc)
        if (
            entry is None
            or entry.stride == 0
            or entry.confidence < self.config.confidence_threshold
        ):
            return []
        start = self.config.prefetch_distance
        return [
            (resolved_address + k * entry.stride) & ((1 << 64) - 1)
            for k in range(start, start + self.config.prefetch_degree)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return sum(
            1 for ways in self._sets for entry in ways if entry is not None
        )


@dataclass
class TwoDeltaEntry(StrideEntry):
    """Adds the *unconfirmed* last delta of the two-delta scheme."""

    pending_stride: int = 0


class TwoDeltaStrideTable(StrideTable):
    """A two-delta stride predictor (the paper's 'better predictor'
    future work, §5.1/§9).

    Classic two-delta training: the *predicting* stride only changes when
    the same new delta is observed twice in a row, so a single irregular
    access (a pointer-chase break, a hash-probe jump) does not derail an
    otherwise stable stream.  Still trained exclusively at commit; the
    security argument is unchanged.
    """

    def train_commit(self, pc: int, address: int) -> None:
        self._clock += 1
        self.trainings += 1
        entry = self._index.get(pc)
        if entry is None:
            self._allocate(pc, address)
            return
        entry.last_used = self._clock
        observed = address - entry.last_address
        if observed == entry.stride:
            if entry.confidence < self.config.max_confidence:
                entry.confidence += 1
        elif observed == entry.pending_stride:
            # The same new delta twice in a row: adopt it.
            entry.stride = observed
            entry.confidence = max(entry.confidence - 1, 1)
        else:
            if entry.confidence > 0:
                entry.confidence -= 1
        # pending_stride always tracks the most recent delta (the "first
        # delta" of the classic two-delta scheme).
        entry.pending_stride = observed
        entry.last_address = address

    def _allocate(self, pc: int, address: int) -> None:
        ways = self._set_for(pc)
        victim = None
        for index, entry in enumerate(ways):
            if entry is None:
                victim = index
                break
        if victim is None:
            victim = min(range(self.ways), key=lambda i: ways[i].last_used)
        evicted = ways[victim]
        if evicted is not None:
            del self._index[evicted.pc]
        entry = TwoDeltaEntry(
            pc=pc, last_address=address, last_used=self._clock
        )
        ways[victim] = entry
        self._index[pc] = entry


def make_stride_table(config: PredictorConfig) -> StrideTable:
    """Build the address-prediction table selected by the configuration."""
    if config.kind == "two_delta":
        return TwoDeltaStrideTable(config)
    return StrideTable(config)
