"""Miss Status Holding Registers.

MSHRs bound the number of distinct outstanding cache-line misses and are
what physically limits memory-level parallelism — the resource the secure
schemes under-use and Doppelganger Loads recover.  Requests to a line that
is already outstanding coalesce into the existing entry.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, StructuralHazardError


class MSHRFile:
    """Tracks outstanding misses as ``line -> completion cycle``."""

    def __init__(self, entries: int):
        if entries < 1:
            raise ConfigError("MSHR file needs at least one entry")
        self.entries = entries
        self._outstanding: Dict[int, int] = {}
        # Min-heap of (completion, line) mirroring _outstanding, so expiry
        # pops only the entries that are actually due instead of scanning
        # the whole dict on every access (the common case is "nothing to
        # expire").  Heap entries go stale when an allocation shortens a
        # line's completion or an entry is removed; _expire tolerates this
        # by discarding any popped pair that no longer matches the dict.
        self._ready_heap: List[Tuple[int, int]] = []

    def _expire(self, cycle: int) -> None:
        # Every access asks, and usually nothing is due: the per-access
        # methods test the heap head themselves and call this only when
        # an entry completes.
        heap = self._ready_heap
        outstanding = self._outstanding
        while heap and heap[0][0] <= cycle:
            ready, line = heappop(heap)
            if outstanding.get(line) == ready:
                del outstanding[line]

    # repro: hot
    def outstanding_completion(self, line: int, cycle: int) -> Optional[int]:
        """If ``line`` has a miss in flight, its completion cycle."""
        heap = self._ready_heap
        if heap and heap[0][0] <= cycle:
            self._expire(cycle)
        return self._outstanding.get(line)

    # repro: hot
    def can_allocate(self, cycle: int) -> bool:
        """Is a free entry available this cycle?"""
        heap = self._ready_heap
        if heap and heap[0][0] <= cycle:
            self._expire(cycle)
        return len(self._outstanding) < self.entries

    def next_free(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which an entry will be free.

        ``None`` when an entry is free *now*.  The idle-skip scheduler uses
        this as the wake time for MSHR-starved loads: the file only drains
        through completions, so the earliest completion is exactly the
        first cycle a blocked allocation can succeed.
        """
        self._expire(cycle)
        if len(self._outstanding) < self.entries:
            return None
        return min(self._outstanding.values())

    # repro: hot
    def allocate(self, line: int, completion: int, cycle: int) -> None:
        """Reserve an entry until ``completion``.

        Callers must check :meth:`can_allocate` (or be coalescing) first.
        """
        heap = self._ready_heap
        if heap and heap[0][0] <= cycle:
            self._expire(cycle)
        outstanding = self._outstanding
        existing = outstanding.get(line)
        if existing is None:
            if len(outstanding) >= self.entries:
                raise StructuralHazardError("MSHR allocation without a free entry")
        elif completion >= existing:
            return
        outstanding[line] = completion
        heappush(heap, (completion, line))

    def in_flight(self, cycle: int) -> int:
        """Number of outstanding misses at ``cycle``."""
        self._expire(cycle)
        return len(self._outstanding)

    def outstanding_lines(self) -> Dict[int, int]:
        """Raw ``line -> completion cycle`` view, *without* expiry.

        Guardrails and crash dumps want the unfiltered state: lazy expiry
        means entries whose completion has passed may legitimately linger
        until the next access, but nothing should ever sit past capacity
        or absurdly far in the future.
        """
        return dict(self._outstanding)

    def validate(self, cycle: int, max_latency: Optional[int] = None) -> list:
        """Invariant sweep: returns violation strings (empty when sound).

        Checks (after applying lazy expiry, so stale-but-unexpired entries
        are not false positives):

        * occupancy never exceeds the register count;
        * no *orphaned* miss — an entry whose completion lies further in
          the future than the worst-case memory latency can never have
          come from a real allocation and would pin an MSHR forever.
        """
        self._expire(cycle)
        problems = []
        if len(self._outstanding) > self.entries:
            problems.append(
                f"MSHR occupancy {len(self._outstanding)} exceeds capacity "
                f"{self.entries}"
            )
        if max_latency is not None:
            horizon = cycle + max_latency
            for line, ready in self._outstanding.items():
                if ready > horizon:
                    problems.append(
                        f"orphaned MSHR for line {line:#x}: completion "
                        f"{ready} is beyond the worst-case horizon {horizon} "
                        f"(cycle {cycle} + max latency {max_latency})"
                    )
        return problems

    def reset(self) -> None:
        self._outstanding.clear()
        self._ready_heap.clear()
