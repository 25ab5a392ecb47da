"""The flat ``CacheLevel`` layout against the per-set layout it replaced.

``PerSetCacheLevel`` below is the earlier implementation, kept here only
as a reference: a dict and four lists per set.  Both are driven with the
same random operation stream on small geometries, under every
replacement policy, and must agree on every return value (hit/miss, the
evicted ``(line, was_dirty)``, the touch result) and on the resident
lines after every step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import CacheLevel
from repro.memory.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
)


class PerSetCacheLevel:
    """The per-set layout: line -> way dict plus per-way lists, per set."""

    def __init__(self, config: CacheConfig, policy: ReplacementPolicy):
        self.policy = policy
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._map: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._lines: List[List[Optional[int]]] = [
            [None] * self.ways for _ in range(self.num_sets)
        ]
        self._touch: List[List[int]] = [[0] * self.ways for _ in range(self.num_sets)]
        self._fill: List[List[int]] = [[0] * self.ways for _ in range(self.num_sets)]
        self._dirty: List[List[bool]] = [
            [False] * self.ways for _ in range(self.num_sets)
        ]

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def lookup(self, line: int) -> bool:
        return line in self._map[self.set_index(line)]

    def access(self, line: int, cycle: int, is_write: bool = False) -> bool:
        index = self.set_index(line)
        way = self._map[index].get(line)
        if way is None:
            return False
        self._touch[index][way] = cycle
        if is_write:
            self._dirty[index][way] = True
        return True

    def touch(self, line: int, cycle: int) -> bool:
        index = self.set_index(line)
        way = self._map[index].get(line)
        if way is None:
            return False
        self._touch[index][way] = cycle
        return True

    def fill(self, line: int, cycle: int, is_write: bool = False) -> Optional[Tuple[int, bool]]:
        index = self.set_index(line)
        existing = self._map[index].get(line)
        if existing is not None:
            self._touch[index][existing] = cycle
            self._fill[index][existing] = cycle
            if is_write:
                self._dirty[index][existing] = True
            return None
        lines = self._lines[index]
        victim_way = None
        for way in range(self.ways):
            if lines[way] is None:
                victim_way = way
                break
        evicted: Optional[Tuple[int, bool]] = None
        if victim_way is None:
            victim_way = self.policy.victim(self._touch[index], self._fill[index])
            victim_line = lines[victim_way]
            assert victim_line is not None
            evicted = (victim_line, self._dirty[index][victim_way])
            del self._map[index][victim_line]
        lines[victim_way] = line
        self._map[index][line] = victim_way
        self._touch[index][victim_way] = cycle
        self._fill[index][victim_way] = cycle
        self._dirty[index][victim_way] = is_write
        return evicted

    def invalidate(self, line: int) -> bool:
        index = self.set_index(line)
        way = self._map[index].pop(line, None)
        if way is None:
            return False
        self._lines[index][way] = None
        self._dirty[index][way] = False
        return True

    def resident_lines(self) -> List[int]:
        lines: List[int] = []
        for per_set in self._map:
            lines.extend(per_set.keys())
        return lines

    def occupancy(self) -> int:
        return sum(len(per_set) for per_set in self._map)

    def flush(self) -> None:
        for index in range(self.num_sets):
            self._map[index].clear()
            for way in range(self.ways):
                self._lines[index][way] = None
                self._dirty[index][way] = False


#: (sets, ways): direct-mapped, a single fully associative set, and two
#: set-associative shapes, all small enough that evictions are constant.
GEOMETRIES = [(4, 1), (1, 4), (4, 2), (2, 3)]

POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": lambda: RandomPolicy(seed=11),
}

#: Fills dominate so that sets fill up and evict; a flush is rare enough
#: not to empty the cache every few steps.  Twelve lines over at most
#: eight slots make re-filling a resident line common too.
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["fill"] * 4 + ["fill_dirty"] * 2 + ["read"] * 2
            + ["write", "touch", "lookup", "invalidate", "flush"]
        ),
        st.integers(min_value=0, max_value=11),
    ),
    min_size=1,
    max_size=150,
)


def apply(cache, op: str, line: int, cycle: int):
    if op == "fill":
        return cache.fill(line, cycle)
    if op == "fill_dirty":
        return cache.fill(line, cycle, is_write=True)
    if op == "read":
        return cache.access(line, cycle)
    if op == "write":
        return cache.access(line, cycle, is_write=True)
    if op == "touch":
        return cache.touch(line, cycle)
    if op == "lookup":
        return cache.lookup(line)
    if op == "invalidate":
        return cache.invalidate(line)
    return cache.flush()


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("sets,ways", GEOMETRIES)
@settings(max_examples=60, deadline=None)
@given(operations=OPERATIONS)
def test_flat_layout_matches_per_set_layout(sets, ways, policy, operations):
    config = CacheConfig("T", 64 * sets * ways, ways=ways, latency=1)
    flat = CacheLevel(config, POLICIES[policy]())
    reference = PerSetCacheLevel(config, POLICIES[policy]())
    for cycle, (op, line) in enumerate(operations, start=1):
        got = apply(flat, op, line, cycle)
        want = apply(reference, op, line, cycle)
        assert got == want, f"step {cycle}: {op}({line})"
        assert sorted(flat.resident_lines()) == sorted(reference.resident_lines())
        assert flat.occupancy() == reference.occupancy()


def test_dirty_eviction_is_reported_under_every_policy():
    """A fixed stream the random one might miss: with both ways written
    after their fill, whichever way the policy picks comes back dirty."""
    config = CacheConfig("T", 64 * 2, ways=2, latency=1)
    for make in POLICIES.values():
        flat = CacheLevel(config, make())
        reference = PerSetCacheLevel(config, make())
        for cache in (flat, reference):
            cache.fill(0, 1)
            cache.fill(1, 2, is_write=True)
            cache.access(0, 3, is_write=True)
        evicted = flat.fill(2, 4)
        assert evicted == reference.fill(2, 4)
        assert evicted is not None and evicted[1] is True
