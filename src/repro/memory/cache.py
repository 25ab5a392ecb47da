"""A set-associative cache level with pluggable replacement.

The cache stores only tags and replacement metadata — data values live in
the functional memory image (``repro.isa.program.ArchState``); the timing
model only needs hit/miss decisions.

Two kinds of read exist because of Delay-on-Miss:

* :meth:`lookup` — a *non-mutating probe*: reports hit/miss without touching
  replacement state.  DoM issues speculative loads this way so that a
  squashed speculative hit leaves no observable trace (the replacement
  update is applied retroactively at commit via :meth:`touch`).
* :meth:`access` — a demand access: touches on hit, returns miss otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.config import CacheConfig
from repro.memory.replacement import LRUPolicy, ReplacementPolicy


class CacheLevel:
    """One level of the hierarchy (tags + replacement metadata only).

    Storage is flat: way ``w`` of set ``s`` is slot ``s * ways + w`` in
    four per-slot lists (resident line, last-touch stamp, fill stamp,
    dirty bit), and one ``line -> slot`` dict finds a resident line
    without computing its set.  Building a level is then five
    allocations whatever its geometry; only a fill needs the set, to pick
    an invalid way or a victim among the set's slots.  A slot's stamps
    and dirty bit mean something only while it holds a line: the fill
    that brings a line in rewrites all three.
    """

    def __init__(self, config: CacheConfig, policy: Optional[ReplacementPolicy] = None):
        self.config = config
        self.policy: ReplacementPolicy = policy if policy is not None else LRUPolicy()
        self.num_sets = config.num_sets
        self.ways = config.ways
        slots = self.num_sets * self.ways
        self._slot: Dict[int, int] = {}
        self._lines: List[Optional[int]] = [None] * slots
        self._touch: List[int] = [0] * slots
        self._fill: List[int] = [0] * slots
        self._dirty: List[bool] = [False] * slots
        self._line_shift = config.line_size.bit_length() - 1

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """The line-aligned address containing ``address``."""
        return address >> self._line_shift

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    # ------------------------------------------------------------------
    # Probes and accesses
    # ------------------------------------------------------------------
    def lookup(self, line: int) -> bool:
        """Non-mutating hit test (DoM probe)."""
        return line in self._slot

    def access(self, line: int, cycle: int, is_write: bool = False) -> bool:
        """Demand access: on hit, update replacement (and dirty); else miss."""
        slot = self._slot.get(line)
        if slot is None:
            return False
        self._touch[slot] = cycle
        if is_write:
            self._dirty[slot] = True
        return True

    def touch(self, line: int, cycle: int) -> bool:
        """Retroactive replacement update (DoM commit of a speculative hit).

        Returns False when the line is no longer resident (it may have been
        evicted between the speculative probe and commit), in which case
        there is nothing to update.
        """
        slot = self._slot.get(line)
        if slot is None:
            return False
        self._touch[slot] = cycle
        return True

    def fill(self, line: int, cycle: int, is_write: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert ``line``; returns ``(evicted_line, was_dirty)`` if any.

        Filling a line that is already resident just refreshes its stamps.
        """
        slot = self._slot.get(line)
        if slot is not None:
            self._touch[slot] = cycle
            self._fill[slot] = cycle
            if is_write:
                self._dirty[slot] = True
            return None
        ways = self.ways
        base = (line % self.num_sets) * ways
        end = base + ways
        lines = self._lines
        evicted: Optional[Tuple[int, bool]] = None
        # Prefer the lowest invalid way before invoking the policy.
        if None in lines[base:end]:
            slot = lines.index(None, base, end)
        else:
            slot = base + self.policy.victim(self._touch[base:end], self._fill[base:end])
            victim_line = lines[slot]
            evicted = (victim_line, self._dirty[slot])
            del self._slot[victim_line]
        lines[slot] = line
        self._slot[line] = slot
        self._touch[slot] = cycle
        self._fill[slot] = cycle
        self._dirty[slot] = is_write
        return evicted

    def invalidate(self, line: int) -> bool:
        """Remove a line (coherence invalidation); True if it was present."""
        slot = self._slot.pop(line, None)
        if slot is None:
            return False
        self._lines[slot] = None
        return True

    # ------------------------------------------------------------------
    # Introspection (tests, attack observer)
    # ------------------------------------------------------------------
    def resident_lines(self) -> List[int]:
        """All line addresses currently cached (order unspecified)."""
        return list(self._slot)

    def occupancy(self) -> int:
        return len(self._slot)

    def flush(self) -> None:
        """Empty the cache (attack setup: flush the probe array)."""
        self._slot.clear()
        self._lines = [None] * len(self._lines)
