"""Branch direction prediction: gshare with a global history register.

The core snapshots the history register into each branch micro-op at fetch
and restores it on a squash, so wrong-path history never corrupts the
predictor permanently.  Counter training happens only at commit — this
matches the secure schemes' requirement that speculative (potentially
tainted) outcomes never reach a predictor (STT, paper §2.2), and we apply
it uniformly to every scheme for comparability.
"""

from __future__ import annotations

from typing import List

from repro.common.config import BranchPredictorConfig


class GShareBranchPredictor:
    """gshare: PC xor global-history indexes a table of 2-bit counters."""

    def __init__(self, config: BranchPredictorConfig):
        self.config = config
        self._mask = config.table_entries - 1
        self._history_mask = (1 << config.history_bits) - 1
        self._counters: List[int] = [1] * config.table_entries  # weakly not-taken
        self.history = 0
        self.predictions = 0
        self.mispredictions = 0

    # The table index is ``(pc ^ history) & mask``, written out in both
    # predict and train: each runs once per conditional branch.
    # repro: hot
    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc`` and speculatively
        update the history register (the caller snapshots/restores it)."""
        history = self.history
        taken = self._counters[(pc ^ history) & self._mask] >= 2
        self.predictions += 1
        self.history = ((history << 1) | taken) & self._history_mask
        return taken

    def snapshot_history(self) -> int:
        return self.history

    def restore_history(self, snapshot: int, actual_taken: bool) -> None:
        """Roll history back to the snapshot and append the real outcome."""
        self.history = ((snapshot << 1) | int(actual_taken)) & self._history_mask

    # repro: hot
    def train(self, pc: int, taken: bool, history_at_predict: int) -> None:
        """Commit-time training with the history that indexed the prediction."""
        counters = self._counters
        index = (pc ^ history_at_predict) & self._mask
        counter = counters[index]
        if taken:
            if counter < 3:
                counters[index] = counter + 1
        else:
            if counter > 0:
                counters[index] = counter - 1

    def record_mispredict(self) -> None:
        self.mispredictions += 1

    @property
    def accuracy(self) -> float:
        if self.predictions == 0:
            return 0.0
        return 1.0 - self.mispredictions / self.predictions
