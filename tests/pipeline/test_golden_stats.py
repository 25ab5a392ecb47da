"""Golden SimStats: pin the absolute numbers the simulated machine produces.

The idle-skip differential (``test_idle_skip.py``) proves that the two
``idle_skip`` modes agree with each other, so a change to shared phase
code moves both and still passes.  This module pins every
:class:`SimStats` counter of a measurement window against a checked-in
fixture, for one stand-in per kernel family under every scheme.  Any
change to simulated timing therefore shows up here as a diff.

No stand-in hits L2 or L3 at these windows, so a hand-built pointer
chase (:func:`level_chase`) pins the latencies of the middle levels.

A deliberate change re-records the fixture by running this module as a
script, and says in its commit why the numbers moved::

    PYTHONPATH=src python tests/pipeline/test_golden_stats.py
"""

import json
from pathlib import Path

import pytest

from repro.harness.runner import run_benchmark
from repro.isa.builder import CodeBuilder
from repro.pipeline.core import Core
from repro.schemes import make_scheme

FIXTURE = Path(__file__).with_name("golden_stats.json")

WARMUP = 500
MEASURE = 1_500

#: One stand-in per kernel family.
BENCHMARKS = ("hmmer", "gcc", "mcf", "gobmk", "namd", "xalancbmk_s", "cam4_s")
SCHEMES = (
    "unsafe",
    "nda",
    "nda+ap",
    "stt",
    "stt+ap",
    "dom",
    "dom+ap",
    "dom+vp",
)
PAIRS = [
    f"{b}/{s}" for b in BENCHMARKS + ("level_chase",) for s in SCHEMES
]


def level_chase(passes=3):
    """One serial pointer chase over two rings, each walked ``passes`` times.

    The first ring is 13 lines 4 KB apart: one set of the 12-way L1, so
    every pass after the first misses L1 and hits L2.  The second is 17
    lines 256 KB apart: one set of the 8-way L2 as well, so later passes
    hit L3.  Every load depends on the one before, and the step between
    the rings is an add on the chased value, so each level's latency
    lands on the critical path.
    """
    b = CodeBuilder()
    l2_ring = [0x1000000 + 4096 * i for i in range(13)]
    l3_ring = [0x2000000 + (256 << 10) * i for i in range(17)]
    b.li(1, l2_ring[0])
    for ring in (l2_ring, l3_ring):
        for here, there in zip(ring, ring[1:] + ring[:1]):
            b.set_memory(here, there)
        if ring is l3_ring:
            b.addi(1, 1, l3_ring[0] - l2_ring[0])
        for _ in range(passes * len(ring)):
            b.load(1, 1)
    b.store(1, 0, disp=8)
    b.halt()
    return b.build(name="level_chase")


def measure(pair):
    benchmark, scheme = pair.split("/")
    if benchmark == "level_chase":
        core = Core(level_chase(), make_scheme(scheme))
        core.run()
        return core.stats.as_dict()
    result = run_benchmark(benchmark, scheme, warmup=WARMUP, measure=MEASURE)
    return result.stats.as_dict()


def load_fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid():
    golden = load_fixture()
    assert (golden["warmup"], golden["measure"]) == (WARMUP, MEASURE)
    assert sorted(golden["stats"]) == sorted(PAIRS)


def test_level_chase_reaches_l2_and_l3():
    stats = load_fixture()["stats"]["level_chase/unsafe"]
    assert stats["l2_hits"] > 0 and stats["l3_hits"] > 0


@pytest.mark.parametrize("pair", PAIRS)
def test_stats_match_golden(pair):
    expected = load_fixture()["stats"][pair]
    actual = measure(pair)
    diffs = {
        name: (expected.get(name), actual.get(name))
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    }
    assert not diffs, f"{pair}: (golden, now) differ: {diffs}"


def record():
    """Re-measure the grid and rewrite the fixture."""
    stats = {pair: measure(pair) for pair in PAIRS}
    payload = {"warmup": WARMUP, "measure": MEASURE, "stats": stats}
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(stats)} pairs to {FIXTURE}")


if __name__ == "__main__":
    record()
