"""A micro-op is freed by reference count when it leaves the window.

The core allocates one ``MicroOp`` per fetched instruction, wrong-path
ones included.  Commit drops a retired uop's links to its producers and
squash drops a squashed uop's waiter list, so no uop is left in a
reference cycle: with the cyclic collector off for the whole run, a
collection afterwards finds no unreachable uop, and the uops still alive
are about one reorder-buffer window's worth.
"""

from __future__ import annotations

import gc

import pytest

from repro.common.config import default_config
from repro.pipeline.core import Core
from repro.pipeline.uop import MicroOp
from repro.schemes import SCHEME_LABELS, make_scheme

BUDGET = 3_000


def count_uops(objects) -> int:
    return sum(isinstance(obj, MicroOp) for obj in objects)


# hmmer squashes a fifth of what it fetches; xalancbmk_s retires long
# dependence chains, whose source links would tie each retired uop to
# older ones.
@pytest.mark.parametrize("scheme", SCHEME_LABELS)
@pytest.mark.parametrize("workload", ["hmmer", "xalancbmk_s"])
def test_a_run_leaves_no_uop_to_the_cyclic_collector(workload, scheme, stand_in):
    config = default_config()
    gc.collect()
    live_before = count_uops(gc.get_objects())
    gc.disable()
    try:
        core = Core(stand_in(workload), make_scheme(scheme), config=config)
        core.run(max_instructions=BUDGET)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            unreachable = count_uops(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        live = count_uops(gc.get_objects()) - live_before
    finally:
        gc.enable()
    assert core.stats.squashed_instructions > 0
    assert unreachable == 0
    rob_entries = config.core.rob_entries
    assert live <= rob_entries + rob_entries // 8
