"""A stride-based load *value* predictor (for the DoM+VP comparison).

The original Delay-on-Miss paper [40] coupled its delayed misses with
value prediction; our paper's §2.3/§8 argue this was the wrong tool —
values are less regular than addresses, and mispredicted values must be
squashed after validation, unlike doppelganger mispredictions which cost
nothing.  This module provides the predictor needed to run that
comparison (see ``repro.schemes.dom_vp`` and the extension bench).

Same structure as the stride address table: PC-indexed, full-PC-tagged,
commit-trained (value predictors must also never observe speculative
data — the same security argument applies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.config import PredictorConfig

_MASK64 = (1 << 64) - 1


@dataclass
class ValueEntry:
    """One table entry: full PC tag plus last value and value stride."""

    pc: int
    last_value: int
    stride: int = 0
    confidence: int = 0
    last_used: int = 0


class ValuePredictor:
    """Set-associative last-value/stride value predictor."""

    def __init__(self, config: PredictorConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._sets: List[List[Optional[ValueEntry]]] = [
            [None] * self.ways for _ in range(self.num_sets)
        ]
        self._clock = 0
        self.trainings = 0
        self.predictions_made = 0

    def _set_for(self, pc: int) -> List[Optional[ValueEntry]]:
        return self._sets[pc % self.num_sets]

    def _find(self, pc: int) -> Optional[ValueEntry]:
        for entry in self._set_for(pc):
            if entry is not None and entry.pc == pc:
                return entry
        return None

    def train_commit(self, pc: int, value: int) -> None:
        """Observe a committed load's (pc, value) pair — commit only."""
        self._clock += 1
        self.trainings += 1
        entry = self._find(pc)
        if entry is None:
            self._allocate(pc, value)
            return
        entry.last_used = self._clock
        observed = (value - entry.last_value) & _MASK64
        if observed == entry.stride:
            if entry.confidence < self.config.max_confidence:
                entry.confidence += 1
        else:
            if entry.confidence > 0:
                entry.confidence -= 1
            else:
                entry.stride = observed
        entry.last_value = value

    def _allocate(self, pc: int, value: int) -> None:
        ways = self._set_for(pc)
        victim = None
        for index, entry in enumerate(ways):
            if entry is None:
                victim = index
                break
        if victim is None:
            victim = min(range(self.ways), key=lambda i: ways[i].last_used)
        ways[victim] = ValueEntry(pc=pc, last_value=value, last_used=self._clock)

    def predict_current(self, pc: int) -> Optional[int]:
        """Predicted value of the current instance, or None."""
        entry = self._find(pc)
        if entry is None or entry.confidence < self.config.confidence_threshold:
            return None
        self.predictions_made += 1
        return (entry.last_value + entry.stride) & _MASK64
