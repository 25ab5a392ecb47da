"""Python-level calls per committed instruction in ``Core.run``.

The simulator's per-uop paths are budgeted in interpreter calls: a
helper, property or wrapper that lands on one shows up here as a higher
count, exactly and at once, where wall time on a shared host would need
many paired runs to see it.  ``sys.setprofile`` reports every Python
frame entered as a ``call`` event (C callables report ``c_call`` and are
not counted).  The count is a function of the code and the programs
alone, so it repeats exactly from run to run.
"""

from __future__ import annotations

import gc
import sys

from repro.pipeline.core import Core
from repro.schemes import make_scheme

BENCHMARKS = ("hmmer", "mcf", "gobmk")
SCHEMES = ("unsafe", "nda+ap", "stt", "dom+ap")

#: Each pair runs this many instructions uncounted (caches, predictors
#: and the stride table warm up), then is counted up to ``COUNTED_END``:
#: about 3,000 committed instructions per pair.
WARMUP = 1_000
COUNTED_END = 4_000

#: Calls per committed instruction over the twelve pairs, at most.  The
#: count was 17.35 when the budget was set (CPython 3.10 and 3.11; 3.12
#: and 3.13 inline comprehensions and read 17.28) and 26.93 before
#: dispatch built each uop once and the hot paths dropped their one-line
#: helpers.
CALL_BUDGET = 17.5


def counted_calls(core: Core, max_instructions: int) -> int:
    """Python calls made while ``core`` runs up to ``max_instructions``.

    The cyclic collector is off for the count: a collection could run
    the finalizers of other tests' garbage (closing a generator is a
    Python call) inside the window.  The core's own uops are freed by
    reference count, so the run itself is the same either way.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        core.run(max_instructions=max_instructions)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def measure(stand_in, benchmark: str, scheme: str):
    """(calls, committed instructions) over one pair's counted window."""
    core = Core(stand_in(benchmark), make_scheme(scheme))
    core.run(max_instructions=WARMUP)
    before = core.stats.committed_instructions
    calls = counted_calls(core, COUNTED_END)
    return calls, core.stats.committed_instructions - before


def test_calls_per_committed_instruction_within_budget(stand_in):
    rows = []
    total_calls = total_committed = 0
    for benchmark in BENCHMARKS:
        for scheme in SCHEMES:
            calls, committed = measure(stand_in, benchmark, scheme)
            assert committed > 0, f"{benchmark}/{scheme} committed nothing"
            rows.append(f"{benchmark}/{scheme}: {calls / committed:.2f}")
            total_calls += calls
            total_committed += committed
    per_instruction = total_calls / total_committed
    assert per_instruction <= CALL_BUDGET, (
        f"{per_instruction:.2f} Python calls per committed instruction, "
        f"budget {CALL_BUDGET} ({', '.join(rows)})"
    )


def test_the_count_repeats_exactly(stand_in):
    assert measure(stand_in, "gobmk", "nda+ap") == measure(
        stand_in, "gobmk", "nda+ap"
    )
