"""Pin what the core's two observers report: ``repro trace`` and the stage
view of ``repro profile``.

Both read the core from outside: the tracer records every micro-op's
dispatch, issue, completion, commit and squash, and the stage profiler
counts the phase calls of the scheduling loop.  This module pins their
output through entry points whose signatures stay fixed
(:func:`repro.cli.main` and :func:`profile_stages`), so a change to how
an observer is attached must leave it byte-for-byte the same.

* Trace: the SHA-256 and line count of ``repro trace``'s stdout for five
  (benchmark, scheme) pairs that between them squash, issue
  doppelgangers and run DoM+VP, and each output's summary lines in full.
* Profile: each stage's call count and the grid's pair, instruction and
  step totals over the quick grid.  Wall times vary from run to run;
  these counts do not.

A deliberate change re-records the fixture by running this module as a
script, and says in its commit why the output moved::

    PYTHONPATH=src python tests/pipeline/test_observer_pins.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.profiling import profile_stages

FIXTURE = Path(__file__).with_name("observer_pins.json")

INSTRUCTIONS = 300
WINDOW = 40

#: hmmer/dom+ap and libquantum/nda+ap issue doppelgangers; mcf/stt
#: squashes most of what it fetches; xalancbmk_s/dom+vp predicts values.
#: Only gcc's window ends in squashed work, so only it shows squash
#: cycles (``X``) in the timeline.
TRACE_PAIRS = (
    "hmmer/dom+ap",
    "mcf/stt",
    "libquantum/nda+ap",
    "xalancbmk_s/dom+vp",
    "gcc/dom+vp",
)

#: The deterministic fields of the stage report's totals.
TOTAL_KEYS = ("pairs", "instructions", "steps")


def trace_output(pair):
    """``repro trace``'s stdout for one ``benchmark/scheme`` pair."""
    benchmark, scheme = pair.split("/")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([
            "trace", benchmark, "--scheme", scheme,
            "--instructions", str(INSTRUCTIONS), "--window", str(WINDOW),
        ])
    assert status == 0
    return out.getvalue()


def trace_pin(text):
    lines = text.splitlines()
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "lines": len(lines),
        # The summary ends at the blank line before the timeline.
        "summary": lines[: lines.index("")],
    }


def stage_pin():
    report = profile_stages("quick")
    return {
        "calls": {row["stage"]: row["calls"] for row in report["stages"]},
        "totals": {key: report["totals"][key] for key in TOTAL_KEYS},
    }


def load_fixture():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_pairs():
    golden = load_fixture()
    assert (golden["instructions"], golden["window"]) == (INSTRUCTIONS, WINDOW)
    assert sorted(golden["trace"]) == sorted(TRACE_PAIRS)


def test_trace_pairs_squash_and_issue_doppelgangers():
    summaries = [pin["summary"] for pin in load_fixture()["trace"].values()]
    assert all(" 0 squashed" not in lines[0] for lines in summaries)
    assert any(
        line.startswith("doppelganger loads in window:")
        for lines in summaries
        for line in lines
    )


@pytest.mark.parametrize("pair", TRACE_PAIRS)
def test_trace_output_matches_pin(pair):
    expected = load_fixture()["trace"][pair]
    actual = trace_pin(trace_output(pair))
    assert actual["summary"] == expected["summary"]
    assert (actual["sha256"], actual["lines"]) == (
        expected["sha256"], expected["lines"],
    )


def test_stage_counts_match_pin():
    expected = load_fixture()["profile"]
    actual = stage_pin()
    assert actual["totals"] == expected["totals"]
    assert actual["calls"] == expected["calls"]
    assert all(calls > 0 for calls in actual["calls"].values())


def record():
    """Re-run both observers and rewrite the fixture."""
    payload = {
        "instructions": INSTRUCTIONS,
        "window": WINDOW,
        "trace": {pair: trace_pin(trace_output(pair)) for pair in TRACE_PAIRS},
        "profile": stage_pin(),
    }
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(TRACE_PAIRS)} trace pins and the stage counts to {FIXTURE}")


if __name__ == "__main__":
    record()
