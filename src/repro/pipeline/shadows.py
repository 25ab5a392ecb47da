"""Shadow tracking (Ghost Loads / Delay-on-Miss style).

An instruction is *speculative* while it is covered by a shadow:

* **E-shadow (control)** — some older branch is unresolved, or
* **M-shadow (memory)** — some older store has an unresolved address.

The paper's schemes (§5) track exactly these two sources.  We represent
each source as a set of unresolved sequence numbers and expose the *shadow
frontier*: the smallest unresolved sequence number.  An instruction with
``seq`` is non-speculative iff no unresolved shadow caster is older than
it, i.e. ``frontier() > seq``.

Correctness of the monotone-frontier trick: sequence numbers are assigned
in fetch order and casters are inserted in that order, so the oldest
unresolved caster is always the first live entry of an insertion-ordered
deque; resolution and squash remove entries but never add older ones,
hence the frontier never moves backwards for a fixed instruction window.
This gives O(1) amortized speculation queries, which both STT's
visibility point and NDA's propagation release reduce to.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Set

from repro.common.errors import StructuralHazardError

INFINITE_SEQ = 1 << 62
"""Frontier value when no shadow caster is outstanding."""


class _CasterQueue:
    """Insertion-ordered unresolved sequence numbers with lazy deletion.

    ``oldest_seq`` caches the head so the frontier query (the hottest
    shadow operation) is an attribute read; add/remove keep it current.
    """

    __slots__ = ("_queue", "_removed", "_live", "oldest_seq")

    def __init__(self) -> None:
        self._queue: Deque[int] = deque()
        self._removed: Set[int] = set()
        self._live = 0
        self.oldest_seq = INFINITE_SEQ

    def add(self, seq: int) -> None:
        queue = self._queue
        if queue:
            if seq <= queue[-1]:
                raise StructuralHazardError(
                    "shadow casters must be added in sequence order"
                )
        else:
            self.oldest_seq = seq
        queue.append(seq)
        self._live += 1

    def remove(self, seq: int) -> None:
        """Mark ``seq`` resolved (or squashed).  Idempotent."""
        removed = self._removed
        if seq in removed:
            return
        removed.add(seq)
        self._live -= 1
        # Drop resolved entries from the head so it is the oldest live one.
        queue = self._queue
        while queue and queue[0] in removed:
            removed.discard(queue.popleft())
        self.oldest_seq = queue[0] if queue else INFINITE_SEQ

    def live(self) -> list:
        """Every unresolved sequence number, oldest first (guardrails)."""
        return [seq for seq in self._queue if seq not in self._removed]

    def __len__(self) -> int:
        return self._live

    def clear(self) -> None:
        self._queue.clear()
        self._removed.clear()
        self._live = 0
        self.oldest_seq = INFINITE_SEQ


class ShadowTracker:
    """Tracks control and store-address shadows and answers speculation
    queries for the core, the schemes, and the doppelganger engine."""

    def __init__(self) -> None:
        self._branches = _CasterQueue()
        self._stores = _CasterQueue()
        # Caster lifecycle, called by the core.  Each entry point is the
        # caster queue's own bound method, so dispatching or resolving a
        # caster costs one call (the queues are cleared, never rebound):
        # ``branch_dispatched(seq)`` / ``store_dispatched(seq)`` enter a
        # caster in sequence order; ``branch_resolved(seq)`` /
        # ``store_address_resolved(seq)`` retire it, idempotently.
        self.branch_dispatched = self._branches.add
        self.branch_resolved = self._branches.remove
        self.store_dispatched = self._stores.add
        self.store_address_resolved = self._stores.remove

    # ------------------------------------------------------------------
    # Caster lifecycle (called by the core)
    # ------------------------------------------------------------------
    def caster_squashed(self, seq: int, is_branch: bool) -> None:
        if is_branch:
            self._branches.remove(seq)
        else:
            self._stores.remove(seq)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def frontier(self) -> int:
        """Oldest unresolved shadow caster's seq (INFINITE_SEQ when none)."""
        branch_oldest = self._branches.oldest_seq
        store_oldest = self._stores.oldest_seq
        return branch_oldest if branch_oldest < store_oldest else store_oldest

    def is_speculative(self, seq: int) -> bool:
        """Is the instruction with ``seq`` still covered by a shadow?"""
        return self.frontier() < seq

    def is_nonspeculative(self, seq: int) -> bool:
        return self.frontier() >= seq

    def unresolved_branches(self) -> int:
        return len(self._branches)

    def unresolved_stores(self) -> int:
        return len(self._stores)

    def live_branch_casters(self) -> list:
        """Unresolved branch caster seqs, oldest first (guardrails)."""
        return self._branches.live()

    def live_store_casters(self) -> list:
        """Unresolved store-address caster seqs, oldest first (guardrails)."""
        return self._stores.live()

    def reset(self) -> None:
        self._branches.clear()
        self._stores.clear()
