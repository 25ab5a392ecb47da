"""Deterministic fault injection for the harness, and the chaos check.

PR 6 aimed generate-then-check at the simulator core; this module aims
it at the harness itself.  A :class:`FaultPlan` is a *seeded* schedule of
faults — worker crashes, hangs, slow workers, torn cache writes,
corrupted payloads, disk-full, a mid-wave interrupt — whose every
decision is a pure function of ``(seed, fault kind, job digest,
attempt)``, so a failing chaos run replays exactly from its seed.

Faults enter through two seams, both injectable and zero-cost when off:

* :meth:`ChaosEngine.wrap` sits between :class:`~repro.harness.jobs.JobEngine`
  and its worker, substituting a fault-wrapped worker for attempt 0 of a
  doomed job.  Worker faults fire only on the **first** attempt, so the
  engine's own retry machinery is what recovers — chaos tests the real
  recovery path, never a special one.
* :class:`ChaosFS` wraps the store's filesystem shim and corrupts,
  truncates, or rejects the **first** write of an entry; the rewrite
  after quarantine goes through clean.  Every corruption it injects is
  counted, so the chaos check can demand one quarantine per corruption.

:func:`run_chaos_check` is the differential: run a small figure6 sweep
fault-free, run it again under the plan (resuming over injected
interrupts), then re-read the battered cache with a clean session — and
require bit-identical results plus a quarantine for every injected
corruption.  ``repro chaos`` and the doctor smoke drive it.
"""

from __future__ import annotations

import errno
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.harness.jobs import Payload, failure_payload
from repro.harness.store import RealFS, key_digest

#: Faults staged in the worker process (or emulated inline).
WORKER_FAULTS = ("crash", "hang", "slow")

#: Faults staged in the store's filesystem shim.
WRITE_FAULTS = ("disk_full", "torn_write", "corrupt_write")


class ChaosInterrupt(KeyboardInterrupt):
    """The injected mid-wave interrupt.

    Subclasses :class:`KeyboardInterrupt` so it unwinds through exactly
    the code paths a real Ctrl-C (or a kill) exercises: the engine's
    kill-and-reraise, the session's finally-write-the-manifest, the
    ledger close.  Chaos must not get a gentler exit than the user does.
    """


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of injected faults.

    Each rate is the independent probability that the corresponding
    fault fires for a given (job, attempt) or (entry, write); decisions
    are drawn from a :class:`random.Random` seeded with the fault kind
    and the target's digest, so they are stable across runs, processes,
    and wave ordering.  Worker faults fire only while ``attempt <
    fault_attempts`` and write faults only for the first
    ``fault_attempts`` writes of an entry — with the default of 1 and
    ``retries >= 1`` on the engine, every faulted job converges on
    retry, which is what lets the chaos check demand bit-identical
    results.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    slow: float = 0.0
    torn_write: float = 0.0
    corrupt_write: float = 0.0
    disk_full: float = 0.0
    #: Raise :class:`ChaosInterrupt` after this many resolutions (None: never).
    interrupt_after: Optional[int] = None
    #: Attempts (per job) and writes (per entry) eligible for faults.
    fault_attempts: int = 1
    #: How long a hung worker naps (bounded so leaked processes die).
    hang_seconds: float = 60.0
    slow_seconds: float = 0.2

    @classmethod
    def chaotic(
        cls, seed: int = 0, interrupt_after: Optional[int] = 3
    ) -> "FaultPlan":
        """The default everything-on plan used by ``repro chaos``."""
        return cls(
            seed=seed,
            crash=0.20,
            hang=0.15,
            slow=0.25,
            torn_write=0.25,
            corrupt_write=0.25,
            disk_full=0.10,
            interrupt_after=interrupt_after,
        )

    def _decide(self, kinds: Sequence[str], rates: Sequence[float],
                scope: str, target: str, nth: int) -> Optional[str]:
        """First fault in ``kinds`` whose seeded coin lands; None if all
        miss.  One Random per (kind, target, nth) keeps decisions
        independent of each other and of call order."""
        for kind, rate in zip(kinds, rates):
            if rate <= 0.0:
                continue
            rng = random.Random(f"chaos:{self.seed}:{scope}:{kind}:{target}:{nth}")
            if rng.random() < rate:
                return kind
        return None

    def worker_fault(self, digest: str, attempt: int) -> Optional[str]:
        """Which worker fault (if any) job ``digest`` suffers on ``attempt``."""
        if attempt >= self.fault_attempts:
            return None
        return self._decide(
            WORKER_FAULTS, (self.crash, self.hang, self.slow),
            "worker", digest, attempt,
        )

    def write_fault(self, entry: str, nth: int) -> Optional[str]:
        """Which write fault (if any) the ``nth`` write of ``entry`` suffers."""
        if nth >= self.fault_attempts:
            return None
        return self._decide(
            WRITE_FAULTS, (self.disk_full, self.torn_write, self.corrupt_write),
            "write", entry, nth,
        )

    def describe(self) -> str:
        rates = ", ".join(
            f"{kind}={getattr(self, kind):g}"
            for kind in WORKER_FAULTS + WRITE_FAULTS
            if getattr(self, kind) > 0
        )
        interrupt = (
            f", interrupt after {self.interrupt_after}"
            if self.interrupt_after is not None
            else ""
        )
        return f"seed={self.seed}: {rates or 'no faults'}{interrupt}"


def chaos_worker(
    fault: str,
    worker: Callable[[Any], Payload],
    job: Any,
    hang_seconds: float,
    slow_seconds: float,
) -> Payload:
    """Pool-side fault stage.  Module-level so it pickles by name.

    ``crash`` dies without unwinding (``os._exit``, like a segfault or
    OOM kill — the pool breaks and the engine's crash isolation takes
    over); ``hang`` naps past any sane per-job budget so the engine's
    wave deadline and worker kill fire; ``slow`` just delays, testing
    that latency alone never changes results.
    """
    if fault == "crash":
        os._exit(23)
    if fault == "hang":
        time.sleep(hang_seconds)
        # A generous budget survived the nap: degrade to a slow worker.
        return worker(job)
    if fault == "slow":
        time.sleep(slow_seconds)
    return worker(job)


def chaos_key_digest(key: Any) -> str:
    """Digest of an engine key, whatever its shape.

    Campaign engines key jobs by JSON-able values (a sweep's
    :data:`~repro.harness.runner.RunKey`, a fuzz job's spec dict), the
    same keys the store and ledger use.  ``repr`` is the last-ditch
    fallback so chaos never crashes a campaign over an exotic key —
    determinism of the *digest* is all the fault schedule needs.
    """
    try:
        return key_digest(key)
    except TypeError:
        return key_digest(repr(key))


def _emulated_crash(job: Any) -> Payload:
    """Inline stand-in for a worker crash (no pool to break in-process)."""
    return failure_payload(
        "WorkerCrashError", "chaos: injected worker crash", transient=True
    )


def _emulated_hang(job: Any) -> Payload:
    """Inline stand-in for a hung worker (no wave deadline in-process)."""
    return failure_payload(
        "JobTimeoutError", "chaos: injected worker hang", transient=True
    )


class ChaosFS(RealFS):
    """Fault-injecting filesystem shim for :class:`~repro.harness.store.ResultStore`.

    Only ``write_text`` misbehaves — and only on an entry's first
    ``fault_attempts`` writes, keyed by the *entry* name (temp-file
    suffixes are stripped), so the rewrite after a quarantine goes
    through clean and the campaign converges.  Injected corruptions are
    counted in :attr:`corrupt_writes`; the chaos check requires the
    store to quarantine every one of them.
    """

    def __init__(self, plan: FaultPlan, base: Optional[RealFS] = None):
        self.plan = plan
        self.base = base if base is not None else RealFS()
        self.injected: List[Dict[str, Any]] = []
        self.corrupt_writes = 0
        self._write_counts: Dict[str, int] = {}

    @staticmethod
    def _entry_name(path: Path) -> str:
        """The durable entry a write targets, temp suffix stripped."""
        return Path(path).name.split(".tmp-")[0]

    def read_text(self, path: Path) -> str:
        return self.base.read_text(path)

    def replace(self, src: Path, dst: Path) -> None:
        self.base.replace(src, dst)

    def mkdir(self, path: Path) -> None:
        self.base.mkdir(path)

    def write_text(self, path: Path, text: str) -> None:
        name = self._entry_name(path)
        nth = self._write_counts.get(name, 0)
        self._write_counts[name] = nth + 1
        fault = self.plan.write_fault(name, nth)
        if fault is not None:
            self.injected.append({"fault": fault, "entry": name, "nth": nth})
        if fault == "disk_full":
            # The real error the store must survive, not a repro-typed
            # wrapper: degradation triggers on errno, nothing else.
            raise OSError(errno.ENOSPC, "chaos: injected disk-full")  # repro: noqa[RPL301] - injecting the OS-level error under test
        if fault == "torn_write":
            self.corrupt_writes += 1
            text = text[: max(1, len(text) // 3)]
        elif fault == "corrupt_write":
            self.corrupt_writes += 1
            text = self._corrupt(text)
        self.base.write_text(path, text)

    @staticmethod
    def _corrupt(text: str) -> str:
        """Valid JSON, wrong bytes: only the checksum can catch this."""
        try:
            entry = json.loads(text)
        except ValueError:
            return text[: max(1, len(text) // 2)]
        if isinstance(entry, dict) and isinstance(entry.get("payload"), dict):
            entry = dict(entry)
            entry["payload"] = dict(entry["payload"])
            entry["payload"]["__chaos_corrupted__"] = True
            return json.dumps(entry, sort_keys=True)
        return text + " trailing garbage"


class ChaosEngine:
    """One fault plan, armed: the object sessions and engines accept.

    Holds the plan, the shared :class:`ChaosFS` (one per campaign so
    write counts persist across resumed sessions), the injection log,
    and the interrupt trigger.  :class:`~repro.harness.jobs.JobEngine`
    calls :meth:`wrap` per submission and :meth:`on_resolved` per
    resolution; neither import goes the other way, so the engine stays
    chaos-free when no plan is armed.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.fs = ChaosFS(plan)
        self.injected: List[Dict[str, Any]] = []
        self.resolved = 0
        self._interrupted = False

    def wrap(
        self,
        worker: Callable[[Any], Payload],
        key: Any,
        job: Any,
        attempt: int,
        inline: bool = False,
    ) -> Tuple[Callable[..., Payload], Tuple[Any, ...]]:
        """The (callable, args) the engine should run for this submission.

        Healthy jobs pass straight through.  In a pool, doomed jobs run
        :func:`chaos_worker`; inline (no pool to crash, no deadline to
        trip) crash/hang are emulated as the transient failure payloads
        the engine would have synthesized, so retry semantics still get
        exercised.
        """
        digest = chaos_key_digest(key)
        fault = self.plan.worker_fault(digest, attempt)
        if fault is None:
            return worker, (job,)
        self.injected.append(
            {"fault": fault, "digest": digest[:16], "attempt": attempt}
        )
        if inline:
            if fault == "crash":
                return _emulated_crash, (job,)
            if fault == "hang":
                return _emulated_hang, (job,)
            time.sleep(self.plan.slow_seconds)
            return worker, (job,)
        return chaos_worker, (
            fault, worker, job, self.plan.hang_seconds, self.plan.slow_seconds
        )

    def on_resolved(self, key: Any, payload: Payload) -> None:
        """Fire the (single) mid-wave interrupt once enough jobs resolved.

        Raised *after* the resolution was stored, so the interrupted
        campaign keeps it — exactly what a kill between two stores does.
        """
        self.resolved += 1
        if (
            self.plan.interrupt_after is not None
            and not self._interrupted
            and self.resolved >= self.plan.interrupt_after
        ):
            self._interrupted = True
            self.injected.append(
                {"fault": "interrupt", "after_resolved": self.resolved}
            )
            raise ChaosInterrupt("chaos: injected mid-wave interrupt")

    def injected_summary(self) -> Dict[str, int]:
        """Fault kind -> times injected, across workers and writes."""
        summary: Dict[str, int] = {}
        for event in self.injected + self.fs.injected:
            summary[event["fault"]] = summary.get(event["fault"], 0) + 1
        return summary


@dataclass
class ChaosCheckReport:
    """Outcome of one differential chaos check."""

    seed: int = 0
    plan: str = ""
    pairs: int = 0
    identical: bool = False
    resumes: int = 0
    quarantined: int = 0
    corrupt_writes: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    verify_disk_hits: int = 0
    verify_simulated: int = 0
    problems: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    work_dir: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.identical and not self.problems

    def render(self) -> str:
        injected = (
            ", ".join(f"{k}×{v}" for k, v in sorted(self.injected.items()))
            or "none"
        )
        lines = [
            f"chaos check ({self.plan})",
            f"  injected: {injected}",
            f"  {self.pairs} pair(s), {self.resumes} resume(s), "
            f"{self.quarantined} quarantined / {self.corrupt_writes} corrupted "
            f"write(s), verify pass: {self.verify_disk_hits} from store, "
            f"{self.verify_simulated} recomputed",
            f"  results bit-identical to fault-free run: "
            f"{'yes' if self.identical else 'NO'}",
        ]
        for problem in self.problems:
            lines.append(f"  PROBLEM: {problem}")
        lines.append(
            f"  {'OK' if self.ok else 'FAILED'} in {self.elapsed:.1f}s"
            + (f" (artifacts: {self.work_dir})" if self.work_dir and not self.ok else "")
        )
        return "\n".join(lines)


def run_chaos_check(
    seed: int = 0,
    benchmarks: Sequence[str] = ("hmmer", "mcf"),
    schemes: Sequence[str] = ("unsafe", "dom+ap"),
    warmup: int = 300,
    measure: int = 900,
    jobs: int = 2,
    config: Optional[SystemConfig] = None,
    plan: Optional[FaultPlan] = None,
    work_dir: Optional[os.PathLike] = None,
    job_timeout: Optional[float] = 20.0,
    retries: int = 2,
    max_resumes: int = 10,
    mp_context: Optional[str] = None,
) -> ChaosCheckReport:
    """The sweep-under-faults differential.

    1. Run the grid fault-free into a clean cache (the reference).
    2. Run it again under ``plan`` into a second cache, resuming over
       injected interrupts (each resume is the real ``--resume`` path).
    3. Re-read the battered cache with a fault-free session: corrupt
       entries must quarantine and recompute, everything else must load.
    4. Require the final results bit-identical to the reference and one
       quarantine for every corruption the plan injected.

    With ``work_dir=None`` a temp directory is used and removed on
    success; on failure it is kept (and named in the report) so the
    quarantine and ledger can be inspected.
    """
    from repro.harness.parallel import ParallelSession

    started = time.monotonic()
    plan = plan if plan is not None else FaultPlan.chaotic(seed)
    report = ChaosCheckReport(seed=plan.seed, plan=plan.describe())
    cleanup = work_dir is None
    root = Path(work_dir) if work_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-chaos-")
    )
    report.work_dir = str(root)
    benchmarks = tuple(benchmarks)
    schemes = tuple(schemes)

    def session(cache: Path, chaos=None, resume=False) -> ParallelSession:
        return ParallelSession(
            config=config,
            warmup=warmup,
            measure=measure,
            jobs=jobs,
            cache_dir=cache,
            job_timeout=job_timeout if chaos is not None else None,
            retries=retries if chaos is not None else 1,
            retry_backoff=0.01,
            mp_context=mp_context,
            chaos=chaos,
            resume=resume,
        )

    # 1. Fault-free reference.
    expected = session(root / "clean").sweep(benchmarks, schemes)

    # 2. The same grid under the fault plan, resuming over interrupts.
    chaos = ChaosEngine(plan)
    quarantined = 0
    completed = False
    for attempt in range(max_resumes + 1):
        chaotic = session(root / "chaos", chaos=chaos, resume=attempt > 0)
        try:
            chaotic.sweep(benchmarks, schemes)
            completed = True
        except ChaosInterrupt:
            report.resumes += 1
        except ReproError as error:
            report.problems.append(
                f"chaos sweep failed instead of converging: "
                f"{type(error).__name__}: {error}"
            )
        finally:
            quarantined += chaotic.store_counters().get("quarantined", 0)
        if completed or report.problems:
            break
    if not completed and not report.problems:
        report.problems.append(
            f"chaos sweep did not complete within {max_resumes} resume(s)"
        )

    # 3. Fault-free verification read of the battered cache.
    verify = session(root / "chaos")
    actual = verify.sweep(benchmarks, schemes)
    quarantined += verify.store_counters().get("quarantined", 0)

    # 4. The verdict.
    report.pairs = len(expected)
    report.quarantined = quarantined
    report.corrupt_writes = chaos.fs.corrupt_writes
    report.injected = chaos.injected_summary()
    report.verify_disk_hits = verify.disk_hits
    report.verify_simulated = verify.simulated
    report.identical = len(actual) == len(expected) and all(
        a.benchmark == e.benchmark
        and a.scheme == e.scheme
        and a.stats == e.stats
        for a, e in zip(actual, expected)
    )
    if not report.identical:
        report.problems.append(
            "results under faults diverged from the fault-free reference"
        )
    if quarantined < chaos.fs.corrupt_writes:
        report.problems.append(
            f"only {quarantined} of {chaos.fs.corrupt_writes} injected "
            f"corruption(s) were quarantined"
        )
    report.elapsed = time.monotonic() - started
    if cleanup and report.ok:
        shutil.rmtree(root, ignore_errors=True)
        report.work_dir = None
    return report
