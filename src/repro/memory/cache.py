"""A set-associative cache level with pluggable replacement.

The cache stores only tags and replacement metadata — data values live in
the functional memory image (``repro.isa.program.ArchState``); the timing
model only needs hit/miss decisions.

Two kinds of read exist because of Delay-on-Miss:

* ``lookup`` — a *non-mutating probe*: reports hit/miss without touching
  replacement state.  DoM issues speculative loads this way so that a
  squashed speculative hit leaves no observable trace (the replacement
  update is applied retroactively at commit via :meth:`touch`).
* :meth:`access` — a demand access: touches on hit, returns miss otherwise.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.common.config import CacheConfig
from repro.memory.replacement import LRUPolicy, ReplacementPolicy


class CacheLevel:
    """One level of the hierarchy (tags + replacement metadata only).

    Storage is flat: way ``w`` of set ``s`` is slot ``s * ways + w`` in
    four per-slot arrays (resident line, last-touch stamp, fill stamp,
    dirty bit), and one ``line -> slot`` dict finds a resident line
    without computing its set.  Building a level is then five
    allocations whatever its geometry; only a fill needs the set, to pick
    an invalid way or a victim among the set's slots.  A slot's stamps
    and dirty bit mean something only while it holds a line: the fill
    that brings a line in rewrites all three.

    The per-slot storage is typed — signed 64-bit ``array("q")`` for the
    line and the two stamps, a ``bytearray`` for the dirty bit — so the
    cyclic garbage collector, which walks every list slot, never walks a
    level's slots (the Table 1 L3 alone has 262,144).  ``-1`` marks an
    invalid slot: every address is masked to 64 bits before
    :meth:`line_address` drops the line's offset bits (at least one, as
    ``CacheConfig`` requires; six for the 64-byte lines of Table 1), so
    a resident line is never negative and always fits, in ``[0, 2**58)``
    at Table 1.
    """

    def __init__(self, config: CacheConfig, policy: Optional[ReplacementPolicy] = None):
        self.config = config
        self.policy: ReplacementPolicy = policy if policy is not None else LRUPolicy()
        self.num_sets = config.num_sets
        self.ways = config.ways
        slots = self.num_sets * self.ways
        self._slot: Dict[int, int] = {}
        self._lines = array("q", (-1,)) * slots
        self._touch = array("q", (0,)) * slots
        self._fill = array("q", (0,)) * slots
        self._dirty = bytearray(slots)
        #: ``address >> line_shift`` is the line holding ``address``.
        self.line_shift = config.line_size.bit_length() - 1
        # Non-mutating hit test, ``lookup(line) -> bool`` (DoM probe,
        # residency): the line index's own ``__contains__``, a C call.
        # ``_slot`` is cleared in place, never rebound.
        self.lookup = self._slot.__contains__

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """The line-aligned address containing ``address``."""
        return address >> self.line_shift

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    # ------------------------------------------------------------------
    # Probes and accesses
    # ------------------------------------------------------------------
    def access(self, line: int, cycle: int, is_write: bool = False) -> bool:
        """Demand access: on hit, update replacement (and dirty); else miss."""
        slot = self._slot.get(line)
        if slot is None:
            return False
        self._touch[slot] = cycle
        if is_write:
            self._dirty[slot] = 1
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
                self._dirty[slot] = 1
            return None
        ways = self.ways
        base = (line % self.num_sets) * ways
        end = base + ways
        lines = self._lines
        evicted: Optional[Tuple[int, bool]] = None
        # Prefer the lowest invalid way before invoking the policy.
        if -1 in lines[base:end]:
            slot = lines.index(-1, base, end)
        else:
            slot = base + self.policy.victim(self._touch[base:end], self._fill[base:end])
            victim_line = lines[slot]
            evicted = (victim_line, self._dirty[slot] == 1)
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
        self._lines[slot] = -1
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
        self._lines = array("q", (-1,)) * len(self._lines)
