"""Coherence interference: scripted invalidations from a phantom peer core.

The simulator models one core; the paper's §4.5 argument is about what
*another* core's stores do to this one (invalidations snooping the load
queue, doppelganger predicted-address matches, consistency squashes).
:class:`InterferenceInjector` stands in for that peer: it drives
``Core.inject_invalidation`` (and, optionally, the corresponding memory
updates) on a schedule while the victim core runs, so consistency
handling is exercised under load rather than only in hand-placed tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.pipeline.core import Core


@dataclass
class InterferenceEvent:
    """One peer-core write: when, where, and (optionally) what value."""

    cycle: int
    address: int
    value: Optional[int] = None
    """When set, the phantom peer's store value becomes visible to any
    subsequent (re-)fetch of the line — models the directory supplying
    fresh data after the invalidation."""


class InterferenceInjector:
    """Runs a core while injecting a schedule of invalidations."""

    def __init__(self, core: Core, events: Sequence[InterferenceEvent]):
        self.core = core
        self.events: List[InterferenceEvent] = sorted(
            events, key=lambda event: event.cycle
        )
        self.injected = 0

    def run(self, max_instructions: Optional[int] = None):
        """Like ``core.run`` but firing due events between cycles."""
        core = self.core
        pending = list(self.events)
        while not core.halted:
            if max_instructions is not None and (
                core.stats.committed_instructions >= max_instructions
            ):
                break
            while pending and pending[0].cycle <= core.cycle:
                event = pending.pop(0)
                if event.value is not None:
                    core.arch.write_mem(event.address, event.value)
                core.inject_invalidation(event.address)
                self.injected += 1
            core.step()
        return core.stats


def periodic_interference(
    addresses: Sequence[int],
    start: int = 100,
    period: int = 200,
    count: int = 50,
    seed: int = 0,
    values: bool = False,
) -> List[InterferenceEvent]:
    """A convenience schedule: every ``period`` cycles, invalidate a
    (seeded-)random address from ``addresses``."""
    if not addresses:
        raise ConfigError("need at least one address to interfere with")
    rng = random.Random(seed)
    events = []
    for index in range(count):
        address = addresses[rng.randrange(len(addresses))]
        value = rng.randrange(1 << 20) if values else None
        events.append(
            InterferenceEvent(cycle=start + index * period, address=address,
                              value=value)
        )
    return events
