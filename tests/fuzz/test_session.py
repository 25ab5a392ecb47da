"""Campaign plumbing: jobs, repro files, manifest, and replay."""

import json
from dataclasses import asdict

import pytest

from repro.common.errors import ConfigError
from repro.fuzz import session as fuzz_session
from repro.fuzz.corpus import ReproFile
from repro.fuzz.differential import KIND_ARCH, KIND_CLEAN
from repro.fuzz.profiles import get_profile, resolve_profiles
from repro.fuzz.session import (
    FuzzJob,
    FuzzSession,
    execute_fuzz_job,
    fuzz_job_fields,
    replay_manifest,
)

SMOKE_SCHEMES = ("unsafe", "dom+ap")


def _job(seed=0, mutation=None, minimize=True):
    from repro.common.config import small_config

    return FuzzJob.build(
        seed,
        get_profile("default"),
        SMOKE_SCHEMES,
        "schemes",
        small_config(),
        mutation=mutation,
        minimize_findings=minimize,
    )


class TestFuzzJob:
    def test_spec_round_trip(self):
        job = _job(seed=9, mutation="dropped-store")
        spec = job.spec()
        assert spec["kind"] == "fuzz"
        assert FuzzJob.from_spec(spec) == job

    def test_spec_is_json_serializable(self):
        restored = FuzzJob.from_spec(json.loads(json.dumps(_job().spec())))
        assert restored == _job()

    def test_label_and_fields(self):
        job = _job(seed=4)
        assert job.label == "fuzz/default/seed4"
        fields = fuzz_job_fields(job)
        assert fields["benchmark"] == job.label
        assert fields["spec"]["seed"] == 4


class TestWorker:
    def test_clean_job(self):
        outcome = execute_fuzz_job(_job())
        assert outcome["ok"]
        assert outcome["result"]["kind"] == KIND_CLEAN
        assert "repro" not in outcome["result"]

    def test_finding_carries_minimized_repro(self):
        outcome = execute_fuzz_job(_job(mutation="commit-bitflip"))
        assert outcome["ok"]
        result = outcome["result"]
        assert result["kind"] == KIND_ARCH
        repro = result["repro"]
        assert repro["mutation"] == "commit-bitflip"
        assert 0 < repro["minimized_instructions"] <= 10
        assert repro["minimized_instructions"] < repro["original_instructions"]


class TestSession:
    def test_clean_campaign(self, tmp_path):
        session = FuzzSession(
            schemes=SMOKE_SCHEMES,
            matrix="schemes",
            jobs=1,
            repro_dir=tmp_path,
        )
        summary = session.run([0, 1], resolve_profiles(("default",)))
        assert summary.ok
        assert summary.programs == 2
        assert summary.clean == 2
        manifest = json.loads((tmp_path / "failure_manifest.json").read_text())
        assert manifest["failures"] == []

    def test_findings_write_repro_and_manifest(self, tmp_path):
        session = FuzzSession(
            schemes=SMOKE_SCHEMES,
            matrix="schemes",
            jobs=1,
            repro_dir=tmp_path,
            mutation="commit-bitflip",
        )
        summary = session.run([0], resolve_profiles(("default",)))
        assert not summary.ok
        (finding,) = summary.findings
        assert finding.kind == KIND_ARCH
        assert finding.repro_path is not None and finding.repro_path.exists()

        repro = ReproFile.load(finding.repro_path)
        assert repro.mutation == "commit-bitflip"
        assert not repro.config_drifted()

        manifest = json.loads((tmp_path / "failure_manifest.json").read_text())
        (entry,) = manifest["failures"]
        assert entry["spec"]["kind"] == "fuzz"
        assert entry["spec"]["seed"] == 0
        assert entry["replay"].startswith("python -m repro fuzz --replay ")

    def test_manifest_replays(self, tmp_path):
        session = FuzzSession(
            schemes=SMOKE_SCHEMES,
            matrix="schemes",
            jobs=1,
            repro_dir=tmp_path,
            mutation="commit-bitflip",
            minimize_findings=False,
        )
        session.run([0], resolve_profiles(("default",)))
        replayed = replay_manifest(tmp_path / "failure_manifest.json")
        ((label, report),) = replayed
        assert label == "fuzz/default/seed0"
        assert report.kind == KIND_ARCH


class TestResume:
    def test_interrupted_campaign_resumes_from_store(self, tmp_path):
        """A campaign killed mid-flight resumes without re-running the
        matrix for already-resolved programs (store hit counters)."""
        import pytest

        from repro.harness.chaos import ChaosEngine, ChaosInterrupt, FaultPlan

        chaos = ChaosEngine(FaultPlan(seed=0, interrupt_after=2))
        first = FuzzSession(
            schemes=SMOKE_SCHEMES,
            matrix="schemes",
            jobs=1,
            repro_dir=tmp_path,
            chaos=chaos,
        )
        with pytest.raises(ChaosInterrupt):
            first.run([0, 1, 2, 3], resolve_profiles(("default",)))

        resumed = FuzzSession(
            schemes=SMOKE_SCHEMES,
            matrix="schemes",
            jobs=1,
            repro_dir=tmp_path,
            resume=True,
        )
        summary = resumed.run([0, 1, 2, 3], resolve_profiles(("default",)))
        assert summary.ok
        assert summary.programs == 4
        assert summary.store_hits == 2  # resolved before the kill
        assert resumed.store.counters()["hits"] == 2
        assert "resumed from store" in summary.render()

    def test_findings_are_replayed_on_resume(self, tmp_path):
        """Persisted verdicts include findings: a resumed campaign reports
        them again without re-running the matrix."""
        first = FuzzSession(
            schemes=SMOKE_SCHEMES,
            matrix="schemes",
            jobs=1,
            repro_dir=tmp_path,
            mutation="commit-bitflip",
            minimize_findings=False,
        )
        summary = first.run([0], resolve_profiles(("default",)))
        assert len(summary.findings) == 1

        resumed = FuzzSession(
            schemes=SMOKE_SCHEMES,
            matrix="schemes",
            jobs=1,
            repro_dir=tmp_path,
            mutation="commit-bitflip",
            minimize_findings=False,
            resume=True,
        )
        replay = resumed.run([0], resolve_profiles(("default",)))
        assert replay.store_hits == 1
        assert len(replay.findings) == 1
        assert replay.findings[0].kind == summary.findings[0].kind


def _as_json(record):
    return json.dumps(asdict(record), sort_keys=True)


@pytest.fixture
def generator_calls(monkeypatch):
    """Count ``generate_program`` calls per seed; a seed listed in
    ``failing`` raises the exception mapped to it."""
    calls = []
    failing = {}
    real = fuzz_session.generate_program

    def generate(seed, profile):
        calls.append(seed)
        if seed in failing:
            raise failing[seed]
        return real(seed, profile)

    monkeypatch.setattr(fuzz_session, "generate_program", generate)
    return calls, failing


class TestResumeFailures:
    """Resume treats a journaled failure by its kind, as sweeps do: a
    deterministic one replays from the ledger, a transient one re-runs."""

    def _session(self, tmp_path, resume=False):
        return FuzzSession(
            schemes=SMOKE_SCHEMES,
            matrix="schemes",
            jobs=1,
            retries=1,
            retry_backoff=0.0,
            repro_dir=tmp_path,
            resume=resume,
        )

    def test_deterministic_failure_replays_from_ledger(
        self, tmp_path, generator_calls
    ):
        calls, failing = generator_calls
        failing[1] = ConfigError("no program for seed 1")
        profiles = resolve_profiles(("default",))
        first = self._session(tmp_path).run([0, 1], profiles)
        assert calls == [0, 1]  # deterministic: never retried
        (failure,) = first.failures
        assert failure.error_type == "ConfigError"

        calls.clear()
        resumed = self._session(tmp_path, resume=True)
        summary = resumed.run([0, 1], profiles)
        assert calls == []
        assert summary.store_hits == 1
        assert summary.programs == 2
        assert summary.clean == 1
        (replayed,) = summary.failures
        # The ledger holds JSON, so compare the records as JSON.
        assert _as_json(replayed) == _as_json(failure)
        assert resumed.ledger_hits == 1
        manifest = json.loads((tmp_path / "failure_manifest.json").read_text())
        (entry,) = manifest["failures"]
        assert entry["error_type"] == "ConfigError"
        assert entry["benchmark"] == "fuzz/default/seed1"

    def test_transient_failure_runs_again(self, tmp_path, generator_calls):
        calls, failing = generator_calls
        failing[1] = RuntimeError("flaky infrastructure")
        profiles = resolve_profiles(("default",))
        first = self._session(tmp_path).run([0, 1], profiles)
        assert calls == [0, 1, 1]  # one retry, then journaled as failed
        (failure,) = first.failures
        assert (failure.error_type, failure.transient) == ("RuntimeError", True)
        records = [
            json.loads(line)
            for line in (tmp_path / "ledger.jsonl").read_text().splitlines()
        ]
        (journaled,) = [r for r in records if r.get("ok") is False]
        assert journaled["payload"]["transient"] is True

        calls.clear()
        failing.clear()
        resumed = self._session(tmp_path, resume=True)
        summary = resumed.run([0, 1], profiles)
        assert calls == [1]
        assert summary.store_hits == 1
        assert summary.programs == summary.clean == 2
        assert summary.failures == []
        assert resumed.ledger_hits == 0
