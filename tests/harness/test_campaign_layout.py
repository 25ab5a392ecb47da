"""Campaign directories: pin every file a sweep and a fuzz campaign leave.

Store entries, the progress ledger, repro files and the failure manifest
are on-disk formats.  A store filled by one version must still hit in
the next, and a resumed campaign, ``repro fuzz --replay`` and CI all
parse the ledger and the manifest.  This module runs one small campaign
of each job type into a fresh directory and compares what it leaves with
a checked-in fixture:

* the path of every file, relative to the campaign root;
* the full text of ``ledger.jsonl`` and ``failure_manifest.json``, with
  the root replaced by ``<root>``;
* the SHA-256 of every other file.

The sweep stubs out the simulator: hmmer returns fixed counters and mcf
raises :class:`EmptyMeasurementError`, so one pair is stored and one is
skipped.  The fuzz campaign runs two seeds under an injected bug, so
both leave a finding.

A deliberate change to a campaign's files re-records the fixture by
running this module as a script::

    PYTHONPATH=src python tests/harness/test_campaign_layout.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.common.errors import EmptyMeasurementError
from repro.common.stats import RunResult, SimStats
from repro.fuzz.profiles import resolve_profiles
from repro.fuzz.session import FuzzSession
from repro.harness import parallel
from repro.harness.parallel import ParallelSession

FIXTURE = Path(__file__).with_name("campaign_layout.json")

#: Files compared as text; every other file is compared by digest.
TEXT_FILES = ("ledger.jsonl", "failure_manifest.json")


def stub_run_benchmark(benchmark, scheme, config=None, warmup=0, measure=0):
    if benchmark == "mcf":
        raise EmptyMeasurementError(
            "program shorter than warmup window",
            benchmark=benchmark,
            scheme=scheme,
        )
    stats = SimStats()
    stats.committed_instructions = 1000
    stats.cycles = 2000
    return RunResult(
        benchmark=benchmark,
        scheme=scheme,
        stats=stats,
        metadata={"warmup": warmup, "measure": measure},
    )


def sweep_campaign(root, monkeypatch):
    monkeypatch.setattr(parallel, "run_benchmark", stub_run_benchmark)
    session = ParallelSession(warmup=10, measure=10, jobs=1, cache_dir=root)
    session.sweep(("hmmer", "mcf"), ("unsafe",), skip_errors=True)


def fuzz_campaign(root, monkeypatch):
    session = FuzzSession(
        schemes=("unsafe", "dom+ap"),
        matrix="schemes",
        jobs=1,
        repro_dir=root,
        mutation="commit-bitflip",
        minimize_findings=False,
    )
    session.run([0, 1], resolve_profiles(("default",)))


CAMPAIGNS = {"sweep": sweep_campaign, "fuzz": fuzz_campaign}


def layout(root):
    """Every file under ``root``: its relative path, and its text or digest."""
    files = sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if path.is_file()
    )
    texts, digests = {}, {}
    for name in files:
        data = (root / name).read_bytes()
        if name in TEXT_FILES:
            texts[name] = data.decode("utf-8").replace(str(root), "<root>")
        else:
            digests[name] = hashlib.sha256(data).hexdigest()
    return {"files": files, "texts": texts, "sha256": digests}


def run_campaign(name, root, monkeypatch):
    CAMPAIGNS[name](root, monkeypatch)
    return layout(root)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_directory_matches_fixture(name, tmp_path, monkeypatch):
    expected = json.loads(FIXTURE.read_text())[name]
    actual = run_campaign(name, tmp_path / name, monkeypatch)
    assert actual["files"] == expected["files"]
    for file_name, text in expected["texts"].items():
        assert actual["texts"][file_name] == text, file_name
    assert actual["sha256"] == expected["sha256"]


def record():
    """Run both campaigns in a temporary directory and rewrite the fixture."""
    layouts = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CAMPAIGNS):
            with pytest.MonkeyPatch.context() as monkeypatch:
                layouts[name] = run_campaign(name, Path(scratch) / name, monkeypatch)
    FIXTURE.write_text(json.dumps(layouts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(layouts)} campaign layouts to {FIXTURE}")


if __name__ == "__main__":
    record()
