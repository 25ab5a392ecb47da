"""The fuzzing campaign runner: jobs, worker, and parallel session.

One :class:`FuzzJob` is one (seed, profile) pair run through the full
differential matrix.  :class:`FuzzSession` is a
:class:`~repro.harness.jobs.Campaign`, like the sweep session, so
fuzzing inherits its fault tolerance for free: per-job timeouts with
stuck-worker kill, bounded retries of transients, crash isolation,
incremental resolution (an interrupted campaign keeps every finished
verdict), and the same verdict store, progress ledger and resume.

Divergences are *successful* job executions (the worker found what it
was sent to find) — they come back as data, get minimized in the worker,
and the parent writes one self-contained repro file per finding plus a
``failure_manifest.json`` whose entries carry the full job spec and a
single replay command.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig, config_from_dict, config_to_dict
from repro.fuzz.corpus import ReproFile
from repro.fuzz.differential import (
    KIND_CLEAN,
    MatrixReport,
    fuzz_config,
    run_matrix,
)
from repro.fuzz.generator import generate_program
from repro.fuzz.profiles import FuzzProfile
from repro.fuzz.shrink import minimize
from repro.harness.jobs import (
    Campaign,
    FailureRecord,
    Payload,
    guarded,
    replay_command,
)

#: Default schemes a campaign crosses — the unsafe baseline plus every
#: secure scheme, with and without address prediction for DoM.
DEFAULT_FUZZ_SCHEMES: Tuple[str, ...] = (
    "unsafe",
    "nda",
    "stt",
    "dom",
    "dom+ap",
    "dom+vp",
)


@dataclass(frozen=True)
class FuzzJob:
    """One (seed, profile) differential run as a picklable spec."""

    seed: int
    profile: Dict[str, Any]
    schemes: Tuple[str, ...]
    matrix: str
    config: Dict[str, Any]  # config_to_dict() form
    mutation: Optional[str] = None
    minimize: bool = True

    @classmethod
    def build(
        cls,
        seed: int,
        profile: FuzzProfile,
        schemes: Sequence[str],
        matrix: str,
        config: SystemConfig,
        mutation: Optional[str] = None,
        minimize_findings: bool = True,
    ) -> "FuzzJob":
        return cls(
            seed=seed,
            profile=profile.to_dict(),
            schemes=tuple(schemes),
            matrix=matrix,
            config=config_to_dict(config),
            mutation=mutation,
            minimize=minimize_findings,
        )

    @property
    def profile_name(self) -> str:
        return self.profile.get("name", "?")

    @property
    def label(self) -> str:
        return f"fuzz/{self.profile_name}/seed{self.seed}"

    def spec(self) -> Dict[str, Any]:
        """The full job as replayable data (manifest ``spec`` entries)."""
        payload = asdict(self)
        payload["kind"] = "fuzz"
        return payload

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FuzzJob":
        return cls(
            seed=spec["seed"],
            profile=dict(spec["profile"]),
            schemes=tuple(spec["schemes"]),
            matrix=spec["matrix"],
            config=dict(spec["config"]),
            mutation=spec.get("mutation"),
            minimize=spec.get("minimize", True),
        )


def _fuzz_key(job: FuzzJob) -> Dict[str, Any]:
    """A job's key in the engine, the verdict store and the ledger: its
    full replayable spec, so any change to seed, profile knobs, schemes,
    matrix, config, or mutation misses by construction."""
    return job.spec()


def _fuzz_entry_slug(key: Dict[str, Any]) -> str:
    """Human-readable prefix for a fuzz verdict's file name."""
    profile = key.get("profile") or {}
    return f"{profile.get('name', 'p')}-seed{key.get('seed')}"


def fuzz_job_fields(job: FuzzJob) -> Dict[str, Any]:
    """Label + spec fields attached to engine-generated failure payloads."""
    return {
        "benchmark": job.label,
        "scheme": ",".join(job.schemes),
        "spec": job.spec(),
    }


def _shrink_predicate(job: FuzzJob, config: SystemConfig, kind: str):
    """The shrinker's "still fails the same way" test for one finding."""

    def predicate(candidate) -> bool:
        report = run_matrix(
            candidate,
            job.schemes,
            config=config,
            matrix=job.matrix,
            mutation=job.mutation,
        )
        return report.kind == kind

    return predicate


def _run_fuzz_job(job: FuzzJob) -> Dict[str, Any]:
    profile = FuzzProfile.from_dict(job.profile)
    config = config_from_dict(job.config)
    program = generate_program(job.seed, profile)
    report = run_matrix(
        program,
        job.schemes,
        config=config,
        matrix=job.matrix,
        mutation=job.mutation,
    )
    result: Dict[str, Any] = {
        "kind": report.kind,
        "executions": len(report.executions),
        "divergences": list(report.divergences),
    }
    if not report.clean:
        minimized = program
        if job.minimize:
            minimized = minimize(
                program, _shrink_predicate(job, config, report.kind)
            )
            # Report the divergences of the *minimized* program — that is
            # what lands in the repro file and what a triager reads first.
            report = run_matrix(
                minimized,
                job.schemes,
                config=config,
                matrix=job.matrix,
                mutation=job.mutation,
            )
        repro = ReproFile.from_finding(
            seed=job.seed,
            profile=job.profile,
            schemes=job.schemes,
            matrix=job.matrix,
            config=config,
            report=report,
            minimized=minimized,
            original_length=len(program),
            mutation=job.mutation,
        )
        result["repro"] = repro.to_dict()
        result["divergences"] = list(report.divergences)
    return result


def execute_fuzz_job(job: FuzzJob) -> Dict[str, Any]:
    """Worker entry point: generate, run the matrix, minimize findings.

    Must stay module-level (pickled by name into the pool) and never
    raise.  A divergence is a *successful* execution — the payload is
    ``ok`` with a non-clean verdict and a ready-to-save repro dict; only
    infrastructure problems (generator crash, unpicklable state...)
    produce failure payloads.
    """
    return guarded(_run_fuzz_job, job, fuzz_job_fields)


@dataclass
class Finding:
    """One non-clean verdict, with its repro file (if written)."""

    job: FuzzJob
    kind: str
    divergences: List[str]
    repro_path: Optional[Path] = None

    def summary(self) -> str:
        where = f" -> {self.repro_path}" if self.repro_path else ""
        return f"{self.job.label}: {self.kind}{where}"

    def record(self, manifest: Path) -> FailureRecord:
        """This finding as a failure-manifest entry; it replays from its
        repro file when one was written, else from the manifest."""
        return FailureRecord(
            benchmark=self.job.label,
            scheme=",".join(self.job.schemes),
            error_type=self.kind,
            message=self.divergences[0] if self.divergences else self.kind,
            dump_path=str(self.repro_path) if self.repro_path else None,
            key=[self.job.label],
            spec=self.job.spec(),
            replay=replay_command(self.repro_path or manifest),
        )


@dataclass
class FuzzSummary:
    """Outcome of one campaign."""

    programs: int = 0
    clean: int = 0
    findings: List[Finding] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    skipped_budget: int = 0
    store_hits: int = 0
    elapsed: float = 0.0
    manifest_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.findings and not self.failures

    def render(self) -> str:
        lines = [
            f"fuzz: {self.programs} program(s) in {self.elapsed:.1f}s — "
            f"{self.clean} clean, {len(self.findings)} finding(s), "
            f"{len(self.failures)} infrastructure failure(s)"
            + (
                f", {self.skipped_budget} skipped (time budget)"
                if self.skipped_budget
                else ""
            )
            + (
                f", {self.store_hits} resumed from store"
                if self.store_hits
                else ""
            )
        ]
        for finding in self.findings:
            lines.append(f"  FINDING {finding.summary()}")
            lines.extend(f"    {entry}" for entry in finding.divergences[:6])
        for failure in self.failures:
            lines.append(
                f"  FAILURE {failure.benchmark}: {failure.error_type}: "
                f"{failure.message}"
            )
        if (self.findings or self.failures) and self.manifest_path:
            lines.append(
                f"  replay everything: python -m repro fuzz --replay "
                f"{self.manifest_path}"
            )
        return "\n".join(lines)


class FuzzSession(Campaign):
    """Fan a fuzzing campaign out over the fault-tolerant job engine.

    Parameters mirror :class:`~repro.harness.parallel.ParallelSession`
    where they overlap; ``repro_dir`` is where repro files, the verdict
    store, the ledger and the failure manifest land (``None`` keeps
    findings in memory only).  Unlike a sweep's cache, the verdict store
    is read only under ``resume``, so a fresh campaign fuzzes the
    current code again.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        schemes: Sequence[str] = DEFAULT_FUZZ_SCHEMES,
        matrix: str = "full",
        jobs: Optional[int] = None,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.5,
        mp_context: Optional[str] = None,
        repro_dir: Optional[os.PathLike] = None,
        mutation: Optional[str] = None,
        minimize_findings: bool = True,
        resume: bool = False,
        chaos: Optional[Any] = None,
    ):
        super().__init__(
            repro_dir,
            store_dir="store",
            namer=_fuzz_entry_slug,
            describe=fuzz_job_fields,
            resume=resume,
            chaos=chaos,
            jobs=jobs,
            job_timeout=job_timeout,
            retries=retries,
            retry_backoff=retry_backoff,
            mp_context=mp_context,
        )
        self.config = fuzz_config(config)
        self.schemes = tuple(schemes)
        self.matrix = matrix
        self.mutation = mutation
        self.minimize_findings = minimize_findings

    # ------------------------------------------------------------------
    # Campaign
    # ------------------------------------------------------------------
    def build_jobs(
        self,
        seeds: Sequence[int],
        profiles: Sequence[FuzzProfile],
    ) -> List[FuzzJob]:
        """One job per seed, profiles assigned round-robin.

        Round-robin (rather than the full seeds × profiles grid) keeps
        ``--seeds N`` meaning "N programs" while still rotating through
        every pressure profile.
        """
        return [
            FuzzJob.build(
                seed,
                profiles[index % len(profiles)],
                self.schemes,
                self.matrix,
                self.config,
                mutation=self.mutation,
                minimize_findings=self.minimize_findings,
            )
            for index, seed in enumerate(seeds)
        ]

    def run(
        self,
        seeds: Sequence[int],
        profiles: Sequence[FuzzProfile],
        time_budget: Optional[float] = None,
    ) -> FuzzSummary:
        return self.run_jobs(self.build_jobs(seeds, profiles), time_budget)

    def run_jobs(
        self,
        jobs: Sequence[FuzzJob],
        time_budget: Optional[float] = None,
    ) -> FuzzSummary:
        """Run prebuilt jobs; honors an optional wall-clock budget.

        The budget is checked between engine batches (see
        :meth:`~repro.harness.jobs.Campaign.execute`): a spent budget
        stops submitting, and every finished verdict is kept.  The
        manifest is written whatever happens.
        """
        summary = FuzzSummary()
        started = time.monotonic()

        def resolve(key: Dict[str, Any], payload: Payload) -> None:
            if payload["ok"] and self.store is not None:
                # Verdicts — clean and findings alike — are worth keeping:
                # a resumed campaign replays them instead of refuzzing.
                self.store.put(key, payload["result"])
            self._count(summary, FuzzJob.from_spec(key).label, payload)

        keys = [_fuzz_key(job) for job in jobs]
        try:
            with self.journal(keys):
                # With --resume, stored verdicts and the deterministic
                # failures the ledger journaled replay without re-running
                # the matrix; transient failures get a fresh attempt.
                cold: List[Tuple[Dict[str, Any], FuzzJob]] = []
                for key, job in zip(keys, jobs):
                    cached = None
                    if self.resume and self.store is not None:
                        cached = self.store.get(key)
                    if isinstance(cached, dict) and "kind" in cached:
                        summary.store_hits += 1
                        self._count(summary, job.label, {"ok": True, "result": cached})
                        continue
                    replayed = self.replayed_failure(key)
                    if replayed is not None:
                        self._count(summary, job.label, replayed)
                        continue
                    cold.append((key, job))
                summary.skipped_budget = self.execute(
                    cold, execute_fuzz_job, resolve, time_budget, started
                )
        finally:
            summary.elapsed = time.monotonic() - started
            summary.manifest_path = self.write_manifest(summary)
        return summary

    def _count(self, summary: FuzzSummary, label: str, payload: Payload) -> None:
        """Add one resolved program to ``summary``."""
        summary.programs += 1
        if not payload["ok"]:
            summary.failures.append(FailureRecord.from_payload([label], payload))
        elif payload["result"]["kind"] == KIND_CLEAN:
            summary.clean += 1
        else:
            summary.findings.append(self._record_finding(label, payload["result"]))

    def _record_finding(self, label: str, result: Dict[str, Any]) -> Finding:
        repro_payload = result.get("repro")
        repro_path: Optional[Path] = None
        finding_job = None
        if repro_payload is not None:
            repro = ReproFile(**{
                key: repro_payload[key]
                for key in ReproFile.__dataclass_fields__
                if key in repro_payload
            })
            finding_job = FuzzJob.build(
                repro.seed,
                FuzzProfile.from_dict(repro.profile),
                repro.schemes,
                repro.matrix,
                config_from_dict(repro.config),
                mutation=repro.mutation,
                minimize_findings=self.minimize_findings,
            )
            if self.directory is not None:
                name = f"repro-{repro.profile.get('name', 'p')}-{repro.seed}.json"
                repro_path = repro.save(self.directory / name)
        if finding_job is None:
            finding_job = FuzzJob(
                seed=-1,
                profile={"name": label},
                schemes=self.schemes,
                matrix=self.matrix,
                config=config_to_dict(self.config),
            )
        return Finding(
            job=finding_job,
            kind=result["kind"],
            divergences=list(result.get("divergences", [])),
            repro_path=repro_path,
        )

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def write_manifest(self, summary: FuzzSummary) -> Optional[Path]:
        """Record findings *and* infrastructure failures, each entry with
        its full job spec and one replay command."""
        path = self.failure_manifest_path
        if path is None:
            return None
        records = [finding.record(path) for finding in summary.findings]
        records.extend(
            replace(failure, replay=replay_command(path))
            for failure in summary.failures
        )
        return self.save_manifest(records)


def _outcome_report(label: str, outcome: Payload) -> MatrixReport:
    """One replayed job's outcome as a report.  A sweep run that
    completes is clean; a fuzz verdict names its own kind."""
    if not outcome["ok"]:
        return MatrixReport(
            program_name=label,
            kind="error",
            divergences=[f"{outcome['error_type']}: {outcome['message']}"],
        )
    result = outcome["result"]
    return MatrixReport(
        program_name=label,
        kind=result.get("kind", KIND_CLEAN),
        divergences=list(result.get("divergences", [])),
    )


def replay_manifest(path: os.PathLike) -> List[Tuple[str, MatrixReport]]:
    """Re-run every fuzz entry of a failure manifest, spec by spec.

    Returns ``(label, report)`` pairs.  Sweep-job entries (``kind:
    "sweep"``) are re-run through the sweep worker and reported by their
    outcome; entries with no spec are skipped with a note.
    """
    from repro.harness.parallel import SweepJob, execute_job

    payload = json.loads(Path(path).read_text())
    results: List[Tuple[str, MatrixReport]] = []
    for entry in payload.get("failures", []):
        spec = entry.get("spec") or {}
        if spec.get("kind") == "fuzz":
            job = FuzzJob.from_spec(spec)
            label, outcome = job.label, execute_fuzz_job(job)
        elif spec.get("kind") == "sweep":
            job = SweepJob.from_spec(spec)
            label, outcome = f"sweep/{job.benchmark}/{job.scheme}", execute_job(job)
        else:
            label = entry.get("benchmark", "?")
            results.append(
                (
                    label,
                    MatrixReport(
                        program_name=label,
                        kind="error",
                        divergences=["manifest entry has no replayable spec"],
                    ),
                )
            )
            continue
        results.append((label, _outcome_report(label, outcome)))
    return results
