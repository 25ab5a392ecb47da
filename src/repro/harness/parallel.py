"""A parallel, persistent, fault-tolerant experiment runner.

The paper's evaluation is a (benchmark × scheme) matrix — Figures 1, 6,
7, and 8 all re-sweep the same seven configurations over every SPEC
stand-in.  :class:`ParallelSession` is the one session every figure
runs through; ``jobs=1`` runs each pair inline with the same memo.  It
makes that matrix cheap twice over:

* **Parallel** — :meth:`ParallelSession.sweep` fans the pairs out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker receives
  a picklable :class:`SweepJob` (labels, window sizes, and the config as
  plain data), rebuilds the :class:`~repro.pipeline.core.Core` from
  scratch, and ships the measurement-window
  :class:`~repro.common.stats.SimStats` back as a dict.  Every pair is
  simulated from a fresh core; a worker keeps only read-only caches
  derived from job inputs (the decode table and the last-built
  stand-in), so results are bit-identical between ``jobs=1`` and
  ``jobs=N``: the simulator is deterministic and stats are never
  accumulated across processes — the parent reassembles results
  strictly in request order.

* **Persistent** — with ``cache_dir`` set, every finished run is written
  to a content-addressed :class:`~repro.harness.store.ResultStore` keyed
  by a stable fingerprint of (benchmark, scheme, warmup, measure, full
  :class:`~repro.common.config.SystemConfig`).  Re-running any figure
  after an unrelated code change is a cache hit; changing any config
  knob or window size misses by construction.  Entries are sharded,
  checksummed, and written atomically (unique tmp + rename) so
  concurrent writers can share a directory; corrupt entries are
  quarantined on read and recomputed, and persistent disk errors degrade
  the store to memory instead of killing the sweep.  **Only successful
  runs are ever written to disk** — a failure cached as data would mask
  later fixes until the cache directory is cleared, so failures live in
  the session memo only.  A progress ledger (``ledger.jsonl``) journals
  every resolution; ``resume=True`` adopts it so an interrupted campaign
  loses at most the in-flight wave.  The store, ledger and manifest
  come from :class:`~repro.harness.jobs.Campaign`, which the fuzzing
  session shares.

Failure semantics (the fault-tolerance layer):

* A worker that hits a :class:`~repro.common.errors.ReproError` returns
  the error as data.  These are **deterministic** — the simulator has no
  nondeterminism, so retrying is pointless — and the parent re-raises
  them (typed, naming the pair) from :meth:`run`, or, with
  ``skip_errors=True``, records them in :attr:`skipped` and keeps the
  rest of the sweep.
* A worker that exceeds ``job_timeout``, dies outright, or raises a
  non-simulator exception produces a **transient** failure: the job is
  retried up to ``retries`` times with exponential backoff before it is
  recorded as failed.  A dead worker breaks the whole pool (CPython
  offers no per-future blame), so every job in flight at the moment of
  the crash is marked transient and re-run — the deterministic culprit
  fails again on retry while innocent bystanders complete, which is what
  isolates a crash to the job that caused it.
* Results are stored (memo + disk) *as each job resolves*, so Ctrl-C or
  a mid-sweep crash loses only in-flight work; everything already
  finished is in the cache when the sweep is re-run.
* After any sweep that ran cold jobs, a **failure manifest**
  (``failure_manifest.json`` in the cache dir) records each failed run's
  key, error type, attempt count, and crash-dump path if the guardrails
  wrote one.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.config import (
    SystemConfig,
    config_from_dict,
    config_to_dict,
    default_config,
)
from repro.common.errors import (
    DeadlockError,
    EmptyMeasurementError,
    InvariantViolationError,
    JobTimeoutError,
    ReproError,
    WorkerCrashError,
)
from repro.common.stats import RunResult
from repro.harness.jobs import Campaign, FailureRecord, guarded, replay_command
from repro.harness.runner import (
    BASELINE_SCHEME,
    DEFAULT_MEASURE,
    DEFAULT_WARMUP,
    RunKey,
    run_benchmark,
    run_key,
)


def _sweep_entry_slug(key: RunKey) -> str:
    """Human-readable prefix for a sweep entry's file name."""
    benchmark, scheme, warmup, measure, _digest = key
    safe_scheme = str(scheme).replace("+", "_").replace("/", "_")
    return f"{benchmark}-{safe_scheme}-w{warmup}-m{measure}"


@dataclass(frozen=True)
class SweepJob:
    """One (benchmark, scheme) run as a picklable, process-portable spec."""

    benchmark: str
    scheme: str
    warmup: int
    measure: int
    config: Dict[str, Any]  # config_to_dict() form

    @classmethod
    def build(
        cls,
        benchmark: str,
        scheme: str,
        warmup: int,
        measure: int,
        config: SystemConfig,
    ) -> "SweepJob":
        return cls(benchmark, scheme, warmup, measure, config_to_dict(config))

    def spec(self) -> Dict[str, Any]:
        """The full job as replayable data (manifest ``spec`` entries)."""
        payload = asdict(self)
        payload["kind"] = "sweep"
        return payload

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "SweepJob":
        return cls(
            benchmark=spec["benchmark"],
            scheme=spec["scheme"],
            warmup=spec["warmup"],
            measure=spec["measure"],
            config=dict(spec["config"]),
        )


def sweep_job_fields(job: SweepJob) -> Dict[str, Any]:
    """Label + spec fields attached to every failure payload for ``job``."""
    return {
        "benchmark": job.benchmark,
        "scheme": job.scheme,
        "spec": job.spec(),
    }


def _run_sweep_job(job: SweepJob) -> Dict[str, Any]:
    result = run_benchmark(
        job.benchmark,
        job.scheme,
        config_from_dict(job.config),
        job.warmup,
        job.measure,
    )
    return result.to_dict()


def execute_job(job: SweepJob) -> Dict[str, Any]:
    """Worker entry point: rebuild the Core, run, return plain data.

    Must stay a module-level function (pickled by name into the pool) and
    must never raise: :func:`~repro.harness.jobs.guarded` returns errors
    as data, so one bad pair cannot poison the pool or lose the rest of a
    sweep.  Simulator errors are deterministic; anything else, a Ctrl-C
    in the worker included, is transient.
    """
    return guarded(_run_sweep_job, job, sweep_job_fields)


def _raise_job_error(payload: Dict[str, Any]) -> None:
    """Re-raise a failure payload as the typed error it came from."""
    error_type = payload["error_type"]
    benchmark = payload["benchmark"]
    scheme = payload["scheme"]
    message = payload["message"]
    labelled = f"({benchmark}, {scheme}): {message}"
    if error_type == "EmptyMeasurementError":
        # The worker's message already carries the "(benchmark, scheme):"
        # prefix, so rebuild without re-prefixing and reattach the labels.
        error = EmptyMeasurementError(message)
        error.benchmark = benchmark
        error.scheme = scheme
        raise error
    if error_type == "InvariantViolationError":
        raise InvariantViolationError(
            labelled,
            invariant=payload.get("invariant", "unknown"),
            violations=payload.get("violations"),
            dump_path=payload.get("dump_path"),
        )
    if error_type == "DeadlockError":
        raise DeadlockError(
            labelled,
            kind=payload.get("kind", "deadlock"),
            dump_path=payload.get("dump_path"),
        )
    if error_type == "JobTimeoutError":
        raise JobTimeoutError(labelled)
    if error_type in ("WorkerCrashError", "KeyboardInterrupt"):
        raise WorkerCrashError(labelled)
    raise ReproError(labelled)


class ParallelSession(Campaign):
    """Parallel, disk-backed, fault-tolerant experiment session.

    Parameters
    ----------
    jobs:
        Worker processes for :meth:`sweep`.  ``None`` means one per CPU;
        ``1`` runs everything inline (no pool, still disk-cached).
    cache_dir:
        Directory for the persistent result cache; ``None`` disables it.
    job_timeout:
        Per-job wall-clock budget in seconds; ``None`` (default) waits
        forever.  A wave of jobs gets ``job_timeout × ceil(n / workers)``
        to finish — the bound a fair scheduler would need — and anything
        still unfinished is marked :class:`JobTimeoutError` (transient),
        the stuck workers are killed, and the jobs retried.
    retries:
        How many times a *transient* failure (timeout, worker crash,
        unexpected exception) is re-run before being recorded as failed.
        Deterministic simulator errors are never retried.
    retry_backoff:
        Base delay in seconds before each retry wave, doubling per wave.
    mp_context:
        ``multiprocessing`` start method for the pool (``"fork"``,
        ``"spawn"``...); ``None`` uses the platform default.
    resume:
        Adopt the cache directory's progress ledger from an interrupted
        campaign of the same grid: deterministic failures it recorded
        replay without re-simulating, successes load from the store, and
        only genuinely unresolved pairs reach the pool.
    chaos:
        Optional armed :class:`~repro.harness.chaos.ChaosEngine`; routes
        store writes through its fault-injecting filesystem and worker
        submissions through its fault stages.  Test-harness only.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        warmup: int = DEFAULT_WARMUP,
        measure: int = DEFAULT_MEASURE,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.5,
        mp_context: Optional[str] = None,
        resume: bool = False,
        chaos: Optional[Any] = None,
    ):
        super().__init__(
            cache_dir,
            store_dir="",
            namer=_sweep_entry_slug,
            describe=sweep_job_fields,
            resume=resume,
            chaos=chaos,
            jobs=jobs,
            job_timeout=job_timeout,
            retries=retries,
            retry_backoff=retry_backoff,
            mp_context=mp_context,
        )
        self.config = config if config is not None else default_config()
        self.warmup = warmup
        self.measure = measure
        self._memo: Dict[RunKey, RunResult] = {}
        self._failures: Dict[RunKey, Dict[str, Any]] = {}
        self.skipped: List[FailureRecord] = []
        # Provenance counters: where did each requested run come from?
        # (ledger_hits is the campaign's.)
        self.memo_hits = 0
        self.disk_hits = 0
        self.simulated = 0

    # ------------------------------------------------------------------
    # Keys and the on-disk cache
    # ------------------------------------------------------------------
    def _key(self, benchmark: str, scheme: str) -> RunKey:
        return run_key(benchmark, scheme, self.warmup, self.measure, self.config)

    def _cache_path(self, key: RunKey) -> Optional[Path]:
        if self.store is None:
            return None
        return self.store.path_for(key)

    def _disk_load(self, key: RunKey) -> Optional[RunResult]:
        """Load one result from the store.  Corrupt entries (torn writes,
        checksum mismatches...) are quarantined by the store and read as
        a miss — they are never returned and never raise."""
        if self.store is None:
            return None
        payload = self.store.get(key)
        if not isinstance(payload, dict):
            return None
        if not payload.get("result"):
            return None  # never trust an entry without a real result body
        return RunResult.from_dict(payload["result"])

    def _disk_store(self, key: RunKey, result: RunResult) -> None:
        if self.store is None:
            return
        self.store.put(
            key,
            {"config": config_to_dict(self.config), "result": result.to_dict()},
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _known_failure(self, key: RunKey) -> Optional[Dict[str, Any]]:
        """The *deterministic* failure this session recorded for ``key``;
        a transient one (timeout, crash) reads as None so it re-runs."""
        recorded = self._failures.get(key)
        if recorded is None or recorded.get("transient", False):
            return None
        return recorded

    def _lookup(self, key: RunKey) -> Optional[RunResult]:
        """Memo, then disk, counting where a hit came from."""
        if key in self._memo:
            self.memo_hits += 1
            return self._memo[key]
        from_disk = self._disk_load(key)
        if from_disk is not None:
            self.disk_hits += 1
            self._memo[key] = from_disk
        return from_disk

    def _resolve(self, key: RunKey, payload: Dict[str, Any]) -> Optional[RunResult]:
        """Record one simulated pair: its result, or its failure."""
        self.simulated += 1
        if not payload["ok"]:
            # Failures are memoized in the session only — never written
            # to the disk cache, where they would mask later fixes until
            # the cache directory is cleared (see module docstring).
            self._failures[key] = payload
            return None
        self._failures.pop(key, None)  # a retry succeeded; clear the record
        result = RunResult.from_dict(payload["result"])
        self._memo[key] = result
        self._disk_store(key, result)
        return result

    def run(self, benchmark: str, scheme: str) -> RunResult:
        """Run (or recall) one pair.  Always inline — no pool spin-up."""
        key = self._key(benchmark, scheme)
        recorded = self._known_failure(key)
        if recorded is not None:
            _raise_job_error(recorded)
        found = self._lookup(key)
        if found is not None:
            return found
        payload = execute_job(
            SweepJob.build(benchmark, scheme, self.warmup, self.measure, self.config)
        )
        result = self._resolve(key, payload)
        if result is None:
            _raise_job_error(payload)
        return result

    def sweep(
        self,
        benchmarks: Iterable[str],
        schemes: Iterable[str],
        skip_errors: bool = False,
    ) -> List[RunResult]:
        """Run the full (benchmark × scheme) grid, fanned out over the pool.

        Results come back in request order — ``for b in benchmarks for s
        in schemes`` — regardless of worker scheduling, minus failed pairs
        when ``skip_errors`` is set (those are appended to
        :attr:`skipped`).  Each run is cached the moment it finishes, so
        interrupting a sweep preserves all completed work; after the cold
        jobs run, the failure manifest in the cache directory is
        rewritten to match this sweep's outcome.
        """
        pairs: List[Tuple[str, str]] = [
            (b, s) for b in benchmarks for s in schemes
        ]
        keys = [self._key(b, s) for b, s in pairs]
        with self.journal(keys):
            # Resolve memo/disk/ledger hits first; only cold pairs reach
            # the pool.  A pair may appear twice in a grid; dedupe while
            # keeping order.  A *transient* recorded failure does not
            # count as resolved — the pair re-runs; only deterministic
            # failures replay (from the memo, or from a resumed ledger).
            cold: List[Tuple[RunKey, SweepJob]] = []
            seen = set()
            for key, (benchmark, scheme) in zip(keys, pairs):
                if key in seen:
                    # The copy resolves with the first from the memo.
                    self.memo_hits += 1
                    continue
                if (
                    self._known_failure(key) is not None
                    or self._lookup(key) is not None
                ):
                    continue
                replayed = self.replayed_failure(key)
                if replayed is not None:
                    self._failures[key] = replayed
                    continue
                seen.add(key)
                job = SweepJob.build(
                    benchmark, scheme, self.warmup, self.measure, self.config
                )
                cold.append((key, job))
            if cold:
                try:
                    self.execute(cold, execute_job, self._resolve)
                finally:
                    # Even an interrupted sweep leaves an accurate manifest
                    # for whatever resolved before the interrupt.
                    self.write_failure_manifest()

        results: List[RunResult] = []
        for key in keys:
            payload = self._failures.get(key)
            if payload is None:
                results.append(self._memo[key])
                continue
            if not skip_errors:
                _raise_job_error(payload)
            self.skipped.append(self._failure_record(key, payload))
        return results

    # ------------------------------------------------------------------
    # Failure introspection
    # ------------------------------------------------------------------
    def _failure_record(
        self, key: RunKey, payload: Dict[str, Any]
    ) -> FailureRecord:
        return FailureRecord.from_payload(
            key, payload, replay=replay_command(self.failure_manifest_path)
        )

    def failures(self) -> List[FailureRecord]:
        """Every currently-recorded failed run, as structured records."""
        return [
            self._failure_record(key, payload)
            for key, payload in sorted(self._failures.items())
        ]

    def write_failure_manifest(self) -> Optional[Path]:
        """Write the failure manifest; returns its path (None if no cache).

        Always rewritten after a sweep ran cold jobs — an empty
        ``failures`` list is the machine-readable all-clear, replacing
        any stale manifest from an earlier broken run.
        """
        return self.save_manifest(self.failures())

    # ------------------------------------------------------------------
    # Derived metrics / introspection
    # ------------------------------------------------------------------
    def normalized_ipc(self, benchmark: str, scheme: str) -> float:
        """IPC of ``scheme`` normalized to the unsafe baseline."""
        baseline = self.run(benchmark, BASELINE_SCHEME).ipc
        if baseline == 0:
            raise EmptyMeasurementError(
                "baseline committed nothing in its measurement window",
                benchmark=benchmark,
                scheme=BASELINE_SCHEME,
            )
        return self.run(benchmark, scheme).ipc / baseline

    def cached_runs(self) -> int:
        return len(self._memo)

    def counters(self) -> Dict[str, int]:
        """Provenance summary: how many runs came from where."""
        return {
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "simulated": self.simulated,
            "skipped": len(self.skipped),
            "ledger_hits": self.ledger_hits,
        }

    def store_counters(self) -> Dict[str, Any]:
        """The store's integrity/health counters ({} without a cache)."""
        if self.store is None:
            return {}
        return self.store.counters()
