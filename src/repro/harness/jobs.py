"""A generic fault-tolerant process-pool job engine, and the campaign
around it.

:class:`JobEngine` runs jobs; :class:`Campaign` gives a batch of them a
directory: a result store, a progress ledger for ``--resume``, and a
failure manifest.  The sweep session and the differential fuzzer are
both campaigns, so they share one implementation of each.  The engine
has these failure semantics:

* **Waves with bounded retry** — every job resolves exactly once:
  success, deterministic failure, or a transient failure that exhausted
  its retries.  Transient failures (timeout, worker crash, unexpected
  exception) re-run up to ``retries`` times with exponential backoff;
  deterministic ones never re-run.
* **Per-job wall-clock budget** — a wave gets
  ``job_timeout × ceil(n / workers)`` (the bound a fair scheduler would
  need); anything still in flight when it expires is reported as a
  timeout and the stuck workers are killed rather than leaked.
* **Crash isolation** — a dead worker breaks the whole pool and CPython
  cannot say which job killed it, so every in-flight job is marked
  transient and re-run: the culprit fails again, bystanders complete.
* **Incremental resolution** — the ``store`` callback fires the moment
  each job resolves (not at the end of the wave), so an interrupt loses
  only in-flight work.

The engine is payload-shaped, not result-shaped: the worker must be a
**module-level function** (pickled by qualified name into the pool) that
**never raises**, returning a dict with at least ``ok`` (bool) and — for
failures — ``transient`` (bool), ``error_type``, and ``message``;
:func:`guarded` builds exactly that around a job body.  The
``describe`` hook supplies per-job label fields (benchmark/scheme,
seed/profile, the full job spec...) merged into engine-generated
timeout/crash payloads so every failure is attributable and replayable.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import random
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import DeadlockError, InvariantViolationError, ReproError
from repro.common.io import atomic_write_json
from repro.harness.store import ProgressLedger, ResultStore, campaign_id

Payload = Dict[str, Any]
"""What a worker returns: ``{"ok": True, ...}`` or a failure payload."""

#: Version of the failure-manifest layout.  (Store entries are versioned
#: by the store's own STORE_FORMAT_VERSION; see repro.harness.store.)
CACHE_FORMAT_VERSION = 1

#: Name of the per-campaign-directory record of failed runs.
FAILURE_MANIFEST_NAME = "failure_manifest.json"

#: Name of the per-campaign-directory progress ledger (see ProgressLedger).
LEDGER_NAME = "ledger.jsonl"


def backoff_schedule(
    retries: int,
    base: float,
    cap: float = 30.0,
    seed: int = 0,
) -> Tuple[float, ...]:
    """Seeded jittered-exponential retry delays, one per retry wave.

    Wave ``n`` (1-based) waits ``min(cap, base * 2**(n-1))`` scaled by a
    jitter factor drawn uniformly from [0.5, 1.0] — decorrelating the
    retry storms of concurrent campaigns sharing a disk or cache without
    ever waiting *longer* than the capped exponential.  The jitter comes
    from a string-seeded :class:`random.Random`, so a given ``seed``
    always produces the same schedule (campaigns replay byte-for-byte)
    and ``base=0`` always produces all-zero delays.
    """
    rng = random.Random(f"repro-backoff:{seed}")
    schedule = []
    for wave in range(1, max(0, retries) + 1):
        raw = min(float(cap), float(base) * (2.0 ** (wave - 1)))
        schedule.append(raw * (0.5 + 0.5 * rng.random()))
    return tuple(schedule)


def failure_payload(
    error_type: str,
    message: str,
    transient: bool,
    fields: Optional[Dict[str, Any]] = None,
) -> Payload:
    """The canonical failure payload shape shared by all job runners."""
    payload: Payload = {
        "ok": False,
        "error_type": error_type,
        "message": message,
        "transient": transient,
    }
    if fields:
        payload.update(fields)
    return payload


def _no_fields(job: Any) -> Dict[str, Any]:
    return {}


def _error_fields(error: ReproError) -> Dict[str, Any]:
    """What a typed error carries beyond its message, so the parent can
    re-raise it whole (and point at its crash dump)."""
    if isinstance(error, InvariantViolationError):
        return {
            "invariant": error.invariant,
            "violations": list(error.violations),
            "dump_path": error.dump_path,
        }
    if isinstance(error, DeadlockError):
        return {"kind": error.kind, "dump_path": error.dump_path}
    return {}


def guarded(
    body: Callable[[Any], Any],
    job: Any,
    describe: Callable[[Any], Dict[str, Any]],
) -> Payload:
    """Run ``body(job)`` as a worker must: never raise.

    Returns ``{"ok": True, "result": body(job)}`` or the failure as data.
    Simulator errors (:class:`ReproError`) are deterministic; anything
    else, a Ctrl-C in the worker included, is transient, so the parent
    can flush finished results and retry later.  ``describe(job)``
    labels a failure and is called only on failure.
    """
    try:
        return {"ok": True, "result": body(job)}
    except ReproError as error:
        fields = {**describe(job), **_error_fields(error)}
        return failure_payload(type(error).__name__, str(error), False, fields)
    except KeyboardInterrupt:
        message = "interrupted mid-run"
        return failure_payload("KeyboardInterrupt", message, True, describe(job))
    except Exception as error:  # crash isolation: bugs travel back as data
        message = str(error) or repr(error)
        return failure_payload(type(error).__name__, message, True, describe(job))


class JobEngine:
    """Run picklable jobs through waves of execution + bounded retry.

    Parameters
    ----------
    worker:
        Module-level function mapping one job to a :data:`Payload`.
        Must never raise (errors travel back as data).
    jobs:
        Worker processes.  ``None`` means one per CPU; ``1`` with no
        ``job_timeout`` runs everything inline in the parent (no pool —
        a wall-clock budget can only be enforced on a killable child).
    job_timeout:
        Per-job wall-clock budget in seconds; ``None`` waits forever.
    retries:
        Re-runs granted to each *transient* failure.
    retry_backoff:
        Base delay before each retry wave; waves follow the seeded
        jittered-exponential :func:`backoff_schedule` at its default cap
        and seed, so a campaign's schedule replays.
    mp_context:
        ``multiprocessing`` start method; ``None`` is the platform default.
    describe:
        ``job -> dict`` of label fields merged into engine-generated
        timeout/crash payloads (e.g. benchmark/scheme plus a replayable
        job spec).
    chaos:
        Optional armed :class:`~repro.harness.chaos.ChaosEngine`.  When
        set, every submission is routed through ``chaos.wrap`` (which may
        substitute a fault-staging worker) and every resolution through
        ``chaos.on_resolved`` (which may raise the injected interrupt).
        The engine only speaks this two-method protocol — it never
        imports the chaos module.
    """

    def __init__(
        self,
        worker: Callable[[Any], Payload],
        *,
        jobs: Optional[int] = None,
        job_timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.5,
        mp_context: Optional[str] = None,
        describe: Callable[[Any], Dict[str, Any]] = _no_fields,
        chaos: Optional[Any] = None,
    ):
        self.worker = worker
        self.jobs = max(1, jobs if jobs is not None else os.cpu_count() or 1)
        self.job_timeout = job_timeout
        self.retries = max(0, retries)
        self.retry_backoff = max(0.0, retry_backoff)
        self.backoff = backoff_schedule(self.retries, self.retry_backoff)
        self.mp_context = mp_context
        self.describe = describe
        self.chaos = chaos

    # ------------------------------------------------------------------
    # Engine-generated payloads
    # ------------------------------------------------------------------
    def timeout_payload(self, job: Any) -> Payload:
        return failure_payload(
            "JobTimeoutError",
            f"no result within the {self.job_timeout:g}s per-job budget",
            transient=True,
            fields=self.describe(job),
        )

    def crash_payload(self, job: Any) -> Payload:
        return failure_payload(
            "WorkerCrashError",
            "worker process died before returning a result",
            transient=True,
            fields=self.describe(job),
        )

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        cold: Sequence[Tuple[Any, Any]],
        store: Callable[[Any, Payload], None],
    ) -> None:
        """Run ``(key, job)`` pairs; call ``store(key, payload)`` per job.

        Every job resolves exactly once — success, deterministic failure,
        or transient failure that exhausted its retries — and ``store``
        fires *the moment it resolves*, so an interrupt can only lose
        jobs still in flight.  Resolved payloads carry an ``attempts``
        count.
        """
        unresolved: Dict[int, Tuple[Any, Any]] = dict(enumerate(cold))
        attempts: Dict[int, int] = {index: 0 for index in unresolved}
        last_transient: Dict[int, Payload] = {}

        def resolve(index: int, payload: Payload) -> None:
            attempts[index] += 1
            final_wave = wave == self.retries
            if payload["ok"] or not payload.get("transient", False) or final_wave:
                key, _ = unresolved.pop(index)
                payload["attempts"] = attempts[index]
                store(key, payload)
                if self.chaos is not None:
                    self.chaos.on_resolved(key, payload)
            else:
                last_transient[index] = payload

        for wave in range(self.retries + 1):
            if not unresolved:
                break
            if wave and self.backoff[wave - 1]:
                time.sleep(self.backoff[wave - 1])
            self._run_wave(dict(unresolved), resolve, wave)

        # A wave can end without resolving everything only if it was cut
        # short (pool broke after its futures were marked transient, or a
        # kill raced a result); record whatever we last saw.
        for index in list(unresolved):
            key, job = unresolved.pop(index)
            payload = last_transient.get(index, self.crash_payload(job))
            payload["attempts"] = max(1, attempts[index])
            store(key, payload)

    def _target(
        self, key: Any, job: Any, attempt: int, inline: bool
    ) -> Tuple[Callable[..., Payload], Tuple[Any, ...]]:
        """What to actually run for one submission: the worker itself, or
        — under an armed chaos engine — whatever fault stage it wraps in."""
        if self.chaos is None:
            return self.worker, (job,)
        return self.chaos.wrap(self.worker, key, job, attempt, inline=inline)

    def _run_wave(
        self,
        items: Dict[int, Tuple[Any, Any]],
        resolve: Callable[[int, Payload], None],
        attempt: int,
    ) -> None:
        """One attempt at every unresolved job; calls ``resolve`` per job.

        ``resolve`` fires as each future completes (not after the wave),
        which is what makes mid-batch interrupts lossless for finished
        work.  On a per-wave timeout the hung workers are killed; on a
        broken pool every in-flight job is reported as a (transient)
        worker crash and the next wave sorts the culprit from bystanders.
        """
        # Inline only for a serial engine with no timeout: a wall-clock
        # budget can only be enforced on a killable child process, and a
        # parallel engine must keep crash isolation even when a retry
        # wave is down to a single job — running that job in the parent
        # would let a crashing worker take the whole batch with it.
        if self.jobs == 1 and self.job_timeout is None:
            for index, (key, job) in items.items():
                target, args = self._target(key, job, attempt, inline=True)
                resolve(index, target(*args))
            return

        workers = min(self.jobs, len(items))
        context = multiprocessing.get_context(self.mp_context)
        # Each worker moves the heap it inherits at fork into the
        # collector's permanent generation, so the collection after every
        # job walks only what the worker allocated since (and writes no
        # GC headers into pages it shares with the parent).  The parent
        # and the inline path never freeze: they must free their garbage.
        executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=context, initializer=gc.freeze
        )
        interrupted = False
        try:
            # The worker (and any chaos stage) must be module-level for
            # the pool to pickle it by qualified name.
            futures: Dict[Future, int] = {}
            for index, (key, job) in items.items():
                target, args = self._target(key, job, attempt, inline=False)
                futures[executor.submit(target, *args)] = index
            pending = set(futures)
            deadline = None
            if self.job_timeout is not None:
                # Each worker may serve ceil(n / workers) queued jobs.
                budget = self.job_timeout * math.ceil(len(items) / workers)
                deadline = time.monotonic() + budget
            while pending:
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - time.monotonic())
                done, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Wave budget exhausted: everything still in flight is
                    # a timeout; kill the stuck workers so the pool dies
                    # with this wave instead of leaking hung processes.
                    for future in pending:
                        index = futures[future]
                        resolve(index, self.timeout_payload(items[index][1]))
                    self._kill_workers(executor)
                    return
                broken = False
                for future in done:
                    index = futures[future]
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        payload = self.crash_payload(items[index][1])
                        broken = True
                    except Exception as error:  # unpicklable payloads etc.
                        payload = failure_payload(
                            type(error).__name__,
                            str(error) or repr(error),
                            transient=True,
                            fields=self.describe(items[index][1]),
                        )
                    resolve(index, payload)
                if broken:
                    # The pool is gone; every remaining future died with
                    # it.  CPython cannot say *which* worker crashed, so
                    # all of them go back for retry — the deterministic
                    # culprit fails again, the bystanders complete.
                    for future in pending:
                        index = futures[future]
                        resolve(index, self.crash_payload(items[index][1]))
                    self._kill_workers(executor)
                    return
        except BaseException:
            # Ctrl-C (or an unexpected bug) mid-wave: results already
            # resolved are stored; kill the workers so the interpreter
            # does not block on join at exit.
            interrupted = True
            self._kill_workers(executor)
            raise
        finally:
            # Every wave but an interrupted one joins its pool: an idle one
            # in a few ms, a killed (timed-out or broken) one once its
            # manager has reaped the dead workers.  So no manager or
            # queue-feeder thread still runs when the retry wave or the
            # next session forks.  An interrupted pool is left to die
            # without a wait.
            executor.shutdown(wait=not interrupted, cancel_futures=True)

    @staticmethod
    def _kill_workers(executor: ProcessPoolExecutor) -> None:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, AttributeError):  # already gone
                pass


@dataclass
class FailureRecord:
    """One failed run, as recorded in the failure manifest.

    ``spec`` carries the *complete* job description (window sizes, full
    config, generator seed and knobs for fuzz jobs), and ``replay`` the
    one command that re-runs it — so any manifest entry is reproducible
    without reconstructing the campaign that produced it.
    """

    benchmark: str
    scheme: str
    error_type: str
    message: str
    attempts: int = 1
    transient: bool = False
    dump_path: Optional[str] = None
    key: List[Any] = field(default_factory=list)
    spec: Dict[str, Any] = field(default_factory=dict)
    replay: Optional[str] = None

    @classmethod
    def from_payload(
        cls,
        key: Sequence[Any],
        payload: Payload,
        replay: Optional[str] = None,
    ) -> "FailureRecord":
        return cls(
            benchmark=payload["benchmark"],
            scheme=payload["scheme"],
            error_type=payload["error_type"],
            message=payload["message"],
            attempts=payload.get("attempts", 1),
            transient=payload.get("transient", False),
            dump_path=payload.get("dump_path"),
            key=list(key),
            spec=dict(payload.get("spec", {})),
            replay=payload.get("replay", replay),
        )


def replay_command(target: Optional[os.PathLike]) -> Optional[str]:
    """The one-liner that re-runs a manifest's entries or a repro file."""
    return None if target is None else f"python -m repro fuzz --replay {target}"


class Campaign:
    """Store, ledger, resume and manifest for a batch of jobs of one type.

    A subclass is a job type: it keys its jobs, hands its module-level
    worker to :meth:`execute` (read from the module's globals at each
    call, so a wrapped worker is the one that runs), says what a
    resolved payload means, and decides when to read the store and when
    to write the manifest.  ``directory=None`` keeps it all in memory.
    ``engine`` holds the :class:`JobEngine` options (``jobs``,
    ``job_timeout``, ``retries``, ``retry_backoff``, ``mp_context``).
    """

    def __init__(
        self,
        directory: Optional[os.PathLike],
        *,
        store_dir: str,
        namer: Callable[[Any], str],
        describe: Callable[[Any], Dict[str, Any]],
        resume: bool,
        chaos: Optional[Any],
        **engine: Any,
    ):
        self.directory = Path(directory) if directory is not None else None
        self.resume = resume
        self.store: Optional[ResultStore] = None
        if self.directory is not None:
            fs = chaos.fs if chaos is not None else None
            self.store = ResultStore(self.directory / store_dir, fs=fs, namer=namer)
        self.engine_options = dict(engine, describe=describe, chaos=chaos)
        self.ledger_hits = 0
        self._ledger: Optional[ProgressLedger] = None

    @contextmanager
    def journal(self, keys: Sequence[Any]) -> Iterator[None]:
        """Keep the ledger of the campaign over ``keys`` open for a block.

        Resuming adopts the previous ledger of the same key set; any other
        starts fresh.  A ledger that cannot be opened (read-only
        directory...) is not worth failing over: the campaign just runs
        checkpoint-less.
        """
        if self.directory is not None:
            try:
                self._ledger = ProgressLedger(
                    self.directory / LEDGER_NAME, campaign_id(keys), self.resume
                )
            except OSError:
                pass
        try:
            yield
        finally:
            if self._ledger is not None:
                self._ledger.close()
                self._ledger = None

    def replayed_failure(self, key: Any) -> Optional[Payload]:
        """The deterministic failure a resumed ledger journaled for ``key``,
        counted in :attr:`ledger_hits`.  Successes load from the store and
        transient failures re-run, so both read as None."""
        ledger = self._ledger
        if ledger is None or not ledger.resumed:
            return None
        entry = ledger.get(key)
        if entry is None or entry.get("ok", False):
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict) or payload.get("transient", False):
            return None
        self.ledger_hits += 1
        return payload

    def execute(
        self,
        cold: Sequence[Tuple[Any, Any]],
        worker: Callable[[Any], Payload],
        resolve: Callable[[Any, Payload], None],
        time_budget: Optional[float] = None,
        started: float = 0.0,
    ) -> int:
        """Run cold ``(key, job)`` pairs; returns how many were left unrun.

        ``resolve(key, payload)`` stores each job the moment it resolves,
        and the ledger journals it right after, so a journaled success is
        always in the store.  A ``time_budget`` (seconds after the
        ``time.monotonic()`` reading ``started``) is checked between
        batches of eight pool-loads, since each batch boundary pays a
        pool restart and a wait for the slowest job; jobs in flight still
        finish.  Without a budget all jobs run as one batch.
        """
        engine = JobEngine(worker, **self.engine_options)

        def resolved(key: Any, payload: Payload) -> None:
            resolve(key, payload)
            if self._ledger is not None:
                # The ledger entry is the done-marker; a failure carries its
                # payload so a resumed run can replay a deterministic one.
                ok = payload["ok"]
                self._ledger.record(key, ok, None if ok else payload)

        size = max(1, len(cold) if time_budget is None else engine.jobs * 8)
        for start in range(0, len(cold), size):
            if time_budget is not None and time.monotonic() - started > time_budget:
                return len(cold) - start
            engine.run(cold[start : start + size], resolved)
        return 0

    @property
    def failure_manifest_path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / FAILURE_MANIFEST_NAME

    def save_manifest(self, records: Sequence[FailureRecord]) -> Optional[Path]:
        """Atomically write ``records`` as the versioned failure manifest
        (None without a directory).  An empty list is the all-clear."""
        path = self.failure_manifest_path
        if path is None:
            return None
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "failures": [asdict(record) for record in records],
        }
        return atomic_write_json(path, payload, indent=2)
