"""The three-level memory hierarchy of Table 1.

Functional-timing model: an access immediately computes its completion time
from the level it hits in and updates tag state, while the L1 MSHR file
keeps the line "in flight" so overlapping requests coalesce and MLP is
bounded by the number of MSHRs.  Latencies are roundtrip-from-core per the
paper: L1 5, L2 15, L3 40, DRAM ``l3 + dram_latency`` cycles.

Crucially for the reproduction, *nothing here knows about speculation*:
Doppelganger accesses behave exactly like any other access (paper §5.1,
"no modifications are needed to the memory hierarchy").  The only
DoM-specific affordance is the non-mutating :meth:`probe` plus the
retroactive :meth:`touch`, both of which the paper's DoM baseline requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.config import MemoryConfig
from repro.common.stats import SimStats
from repro.memory.cache import CacheLevel
from repro.memory.mshr import MSHRFile

DRAM_LEVEL = 4
"""Pseudo-level number reported for accesses served by main memory."""


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a hierarchy access."""

    latency: int
    """Cycles from issue until the data is back at the core."""
    level: int
    """1/2/3 for cache hits, 4 for DRAM, 0 for retry/coalesced."""
    l1_hit: bool
    retry: bool = False
    """True when no MSHR was available; the requester must re-issue."""
    coalesced: bool = False
    """True when the request merged into an outstanding miss."""


class MemoryHierarchy:
    """L1D + private L2 + shared L3 + DRAM, with L1 MSHRs."""

    def __init__(
        self,
        config: MemoryConfig,
        stats: Optional[SimStats] = None,
    ):
        self.config = config
        self.stats = stats if stats is not None else SimStats()
        self.l1 = CacheLevel(config.l1)
        self.l2 = CacheLevel(config.l2)
        self.l3 = CacheLevel(config.l3)
        self.mshrs = MSHRFile(config.l1.mshrs)
        self._levels: List[CacheLevel] = [self.l1, self.l2, self.l3]
        # Every level is addressed by the L1 line, so one shift turns an
        # address into its line for the whole hierarchy.
        self._line_shift = self.l1.line_shift
        self._watched: dict = {}
        # AccessResult is frozen, so every fixed-latency outcome can be a
        # preallocated singleton — the hot access path then allocates only
        # for coalesced hits, whose latency varies per request.
        dram_latency = config.l3.latency + config.dram_latency
        self._hit_l1 = AccessResult(config.l1.latency, 1, True)
        self._miss_l2 = AccessResult(config.l2.latency, 2, False)
        self._miss_l3 = AccessResult(config.l3.latency, 3, False)
        self._miss_dram = AccessResult(dram_latency, DRAM_LEVEL, False)
        self._retry = AccessResult(0, 0, False, retry=True)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        return address >> self._line_shift

    # ------------------------------------------------------------------
    # Demand / doppelganger / prefetch accesses
    # ------------------------------------------------------------------
    # repro: hot
    def access(self, address: int, cycle: int, is_write: bool = False) -> AccessResult:
        """A full access: may miss all the way to DRAM and fills on the way.

        Returns ``retry=True`` without side effects (beyond the stall
        counter) when the L1 MSHRs are exhausted.
        """
        stats = self.stats
        mshrs = self.mshrs
        line = address >> self._line_shift
        if self._watched and line in self._watched:
            self._watched[line] += 1
        inflight = mshrs.outstanding_completion(line, cycle)
        stats.l1_accesses += 1
        if inflight is not None:
            # Coalesce with the outstanding miss for this line.
            stats.l1_misses += 1
            return AccessResult(
                latency=max(inflight - cycle, 1),
                level=0,
                l1_hit=False,
                coalesced=True,
            )
        if self.l1.access(line, cycle, is_write):
            stats.l1_hits += 1
            return self._hit_l1
        stats.l1_misses += 1
        if not mshrs.can_allocate(cycle):
            stats.mshr_stalls += 1
            return self._retry

        stats.l2_accesses += 1
        if self.l2.access(line, cycle):
            stats.l2_hits += 1
            result = self._miss_l2
        else:
            stats.l3_accesses += 1
            if self.l3.access(line, cycle):
                stats.l3_hits += 1
                result = self._miss_l3
            else:
                stats.dram_accesses += 1
                result = self._miss_dram
                self._fill(self.l3, line, cycle)
            self._fill(self.l2, line, cycle)
        mshrs.allocate(line, cycle + result.latency, cycle)
        self._fill(self.l1, line, cycle, is_write=is_write)
        return result

    def _fill(self, level: CacheLevel, line: int, cycle: int, is_write: bool = False) -> None:
        evicted = level.fill(line, cycle, is_write=is_write)
        if evicted is None:
            return
        victim_line, was_dirty = evicted
        if not was_dirty:
            return
        self.stats.writebacks += 1
        # Propagate dirtiness down without timing cost.
        if level is self.l1:
            self.l2.access(victim_line, cycle, is_write=True) or self.l2.fill(
                victim_line, cycle, is_write=True
            )
        elif level is self.l2:
            self.l3.access(victim_line, cycle, is_write=True) or self.l3.fill(
                victim_line, cycle, is_write=True
            )

    # ------------------------------------------------------------------
    # Delay-on-Miss support
    # ------------------------------------------------------------------
    # repro: hot
    def probe(self, address: int, cycle: int) -> bool:
        """DoM speculative access: hit test with no state change.

        Counts as an L1 access (the request did reach the L1) but neither
        updates replacement state nor propagates to L2 — a speculative miss
        under DoM is simply delayed.
        """
        line = address >> self._line_shift
        stats = self.stats
        stats.l1_accesses += 1
        if self.mshrs.outstanding_completion(line, cycle) is not None:
            stats.l1_misses += 1
            return False
        if self.l1.lookup(line):
            stats.l1_hits += 1
            return True
        stats.l1_misses += 1
        return False

    def touch(self, address: int, cycle: int) -> bool:
        """Retroactive L1 replacement update for a committed DoM hit."""
        return self.l1.touch(address >> self._line_shift, cycle)

    # ------------------------------------------------------------------
    # Coherence / observation
    # ------------------------------------------------------------------
    def invalidate(self, address: int) -> bool:
        """Invalidate a line in every level (external coherence event)."""
        line = self.line_address(address)
        hit = False
        for level in self._levels:
            hit = level.invalidate(line) or hit
        return hit

    def watch(self, addresses: List[int]) -> None:
        """Start counting demand/doppelganger/prefetch accesses to the
        lines containing ``addresses``.

        Models the attacker's finest-grained cache view: every access to
        a line perturbs its replacement state, which an attacker can
        detect by eviction probing even when the line's *residency* does
        not change.  DoM L1 probes are deliberately not counted — DoM's
        whole design makes them state-transparent.
        """
        for address in addresses:
            self._watched.setdefault(self.line_address(address), 0)

    def watched_counts(self) -> dict:
        """Access counts per watched line address."""
        return dict(self._watched)

    def residency(self, address: int) -> Optional[int]:
        """The innermost level holding ``address``'s line, or None.

        Non-mutating; used by the core's prefetch filter, the attack
        observer and tests.
        """
        line = address >> self._line_shift
        for number, level in enumerate(self._levels, start=1):
            if level.lookup(line):
                return number
        return None

    def is_cached(self, address: int) -> bool:
        return self.residency(address) is not None

    def flush_all(self) -> None:
        for level in self._levels:
            level.flush()
        self.mshrs.reset()

    # ------------------------------------------------------------------
    # Guardrails / diagnostics
    # ------------------------------------------------------------------
    @property
    def max_latency(self) -> int:
        """Worst-case cycles for any single access (L3 miss to DRAM)."""
        return self.config.l3.latency + self.config.dram_latency

    def validate(self, cycle: int) -> List[str]:
        """MSHR invariant sweep (see :meth:`MSHRFile.validate`)."""
        return self.mshrs.validate(cycle, max_latency=self.max_latency)

    def snapshot(self, cycle: int) -> dict:
        """Structured state for crash dumps: MSHR occupancy and in-flight
        lines (completion-sorted, truncated to the first 16)."""
        outstanding = self.mshrs.outstanding_lines()
        lines = sorted(outstanding.items(), key=lambda item: item[1])
        return {
            "mshr_capacity": self.mshrs.entries,
            "mshr_in_flight": len(outstanding),
            "mshr_lines": [
                {"line": hex(line), "completes_at": ready}
                for line, ready in lines[:16]
            ],
            "mshr_stalls": self.stats.mshr_stalls,
        }

    def warm(self, addresses: List[int], cycle: int = 0) -> None:
        """Pre-fill lines into every level (test/attack setup)."""
        for address in addresses:
            line = self.line_address(address)
            for level in self._levels:
                level.fill(line, cycle)
