#!/usr/bin/env python3
"""End-to-end benchmark of the repro simulator and its harness.

Run from the repository root::

    python3 e2ebench/run.py --workload grid-short --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload grid-short --seed 1 --seconds 20 --trace 1

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics.  ``--trace 1`` first repeats that untraced
measurement, then wraps every layer boundary (see ``layers.py``), runs the
same passes again and prints the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are the same
numbers for people.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench"
EXPECTED_PATH = HERE / "expected.json"

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))
try:
    from repro.common.config import default_config
    from repro.fuzz import PROFILES, FuzzSession
    from repro.fuzz.generator import generate_program
    from repro.harness.parallel import ParallelSession
    from repro.oracle import interpret_reference
except ImportError as error:
    sys.exit(f"e2ebench: cannot import the repro package from {SRC}: {error}")

import layers  # noqa: E402  (needs the path set up above)

#: Pool size of every workload: a closed batch from one benchmark process
#: through two workers.
WORKERS = 2

#: The unsafe baseline plus the six Figure-6 schemes.
GRID_SCHEMES = ("unsafe", "nda", "nda+ap", "stt", "stt+ap", "dom", "dom+ap")

#: One stand-in per kernel family (stream, gather, pointer_chase, branchy,
#: stencil, hash_probe, scatter), each the family member with a cheap
#: per-job set-up, so that Core.run does most of a grid-long job.
LONG_BENCHMARKS = ("hmmer", "gcc", "mcf", "gobmk", "namd", "xalancbmk_s", "cam4_s")

#: All 37 SPEC stand-ins.
SHORT_BENCHMARKS = (
    "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng", "libquantum", "h264ref",
    "omnetpp", "astar", "xalancbmk", "gromacs", "GemsFDTD", "lbm", "milc",
    "namd", "soplex", "sphinx3", "zeusmp", "perlbench_s", "gcc_s", "mcf_s",
    "lbm_s", "omnetpp_s", "xalancbmk_s", "x264_s", "deepsjeng_s", "leela_s",
    "exchange2_s", "xz_s", "wrf_s", "nab_s", "fotonik3d_s", "roms_s",
    "cactuBSSN_s", "imagick_s", "cam4_s",
)

#: (warmup, measure) instruction windows per grid regime.
WINDOWS = {"long": (6_000, 24_000), "short": (500, 1_500)}

FUZZ_PROFILES = ("default", "branchy", "chase", "store_pressure", "streaming")
#: 6 fuzz schemes × idle_skip on/off × guardrails off/full.
FUZZ_EXECUTIONS = 24

SETUP_SAMPLES = 7
SAMPLE_INTERVAL_S = 0.05

#: Host-speed calibration: ``ops_per_s``, ``sim_ips`` and ``setup_s`` are
#: given per *reference* second, the host time in which one
#: ``calibration_kernel`` call would take CALIBRATION_REFERENCE_NS of CPU
#: time.  On the 2-vCPU 2.1 GHz host of README.md a call took 1.1-2.0 ms.
CALIBRATION_ITERATIONS = 8_000
CALIBRATION_REFERENCE_NS = 1_000_000

WORKLOADS = ("grid-long", "grid-short", "grid-warm", "fuzz-matrix")

#: End-to-end metric units, in print order.
END_TO_END = {
    "ops_per_s": "ops/s",
    "sim_ips": "instr/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Scale:
    """How much work one pass of each workload does."""

    long_benchmarks: Tuple[str, ...] = LONG_BENCHMARKS
    short_benchmarks: Tuple[str, ...] = SHORT_BENCHMARKS
    schemes: Tuple[str, ...] = GRID_SCHEMES
    fuzz_programs: int = 20


FULL = Scale()


@dataclass
class Pass:
    """One timed pass over a workload's fixed input."""

    start: float
    wall: float
    ops: int
    instructions: int
    failed: int
    #: Per-op simulated outputs, for the traced/untraced comparison.
    outputs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    untraced: List[Pass]
    traced: List[Pass] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Recorded outputs
# ----------------------------------------------------------------------
def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, Dict[str, int]]]:
    """``{regime: {"benchmark/scheme": {counter: value}}}`` as recorded."""
    data = json.loads(path.read_text())
    counters = data["counters"]
    return {
        regime: {pair: dict(zip(counters, values)) for pair, values in spec["pairs"].items()}
        for regime, spec in data["grids"].items()
    }


def matches(recorded: Optional[Dict[str, int]], stats: Dict[str, int]) -> bool:
    """Every recorded counter has its recorded value.  Counters added
    after the recording are not compared."""
    return recorded is not None and all(
        stats.get(name) == value for name, value in recorded.items()
    )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def grid_pass(
    config, regime: str, benchmarks: Sequence[str], schemes: Sequence[str],
    expected: Dict[str, Dict[str, int]], store: Path, warm: bool = False,
) -> Pass:
    warmup, measure = WINDOWS[regime]
    started = time.perf_counter()
    session = ParallelSession(
        config, warmup=warmup, measure=measure, jobs=WORKERS, cache_dir=store
    )
    results = session.sweep(benchmarks, schemes, skip_errors=True)
    wall = time.perf_counter() - started
    ops = len(benchmarks) * len(schemes)
    outputs = {f"{r.benchmark}/{r.scheme}": r.stats.as_dict() for r in results}
    failed = ops - len(outputs)
    failed += sum(not matches(expected.get(pair), stats) for pair, stats in outputs.items())
    if warm:
        # grid-warm exists to read: a pair it had to simulate is a failure.
        failed += session.counters()["simulated"]
    # Warmup windows are counted at their nominal size (a run may commit
    # up to commit_width - 1 more before its budget check stops it).
    instructions = sum(warmup + stats["committed_instructions"] for stats in outputs.values())
    return Pass(started, wall, ops, instructions, min(ops, failed), outputs)


def fuzz_pass(seeds: Sequence[int], repro_dir: Path) -> Pass:
    """One campaign; ``settle_fuzz`` checks it once tracing is off."""
    profiles = tuple(PROFILES[name] for name in FUZZ_PROFILES)
    started = time.perf_counter()
    session = FuzzSession(jobs=WORKERS, repro_dir=repro_dir)
    session.run(seeds, profiles)
    wall = time.perf_counter() - started
    get = layers.unwrapped(type(session.store).get)
    outputs: Dict[str, Any] = {}
    for index, job in enumerate(session.build_jobs(seeds, profiles)):
        verdict = get(session.store, job.spec()) or {}
        outputs[job.label] = [
            verdict.get("kind"), verdict.get("executions", 0), job.seed,
            FUZZ_PROFILES[index % len(FUZZ_PROFILES)],
        ]
    return Pass(started, wall, len(seeds), 0, 0, outputs)


def settle_fuzz(passes: Sequence[Pass]) -> None:
    """Count each program's simulated instructions and failures.

    A clean verdict means every execution committed exactly the reference
    interpreter's dynamic instruction count, so the count comes from the
    reference run, outside the timed region.
    """
    for p in passes:
        for output in p.outputs.values():
            kind, executions, seed, profile = output[:4]
            program = generate_program(seed, PROFILES[profile])
            committed = interpret_reference(program).instructions_executed
            output[4:] = [committed]
            p.instructions += executions * committed
            p.failed += kind != "clean" or executions != FUZZ_EXECUTIONS


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def filled_store(config, benchmarks: Sequence[str], schemes: Sequence[str]) -> Path:
    """A store holding the grid-short grid, simulated once per source tree
    and grid and kept under the work directory for later runs."""
    key = json.dumps([source_digest(), sorted(benchmarks), sorted(schemes), WINDOWS["short"]])
    filled = WORK / f"warm-fill-{hashlib.sha256(key.encode()).hexdigest()[:16]}"
    if not filled.exists():
        staging = WORK / f"warm-staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        session = ParallelSession(
            config, warmup=WINDOWS["short"][0], measure=WINDOWS["short"][1],
            jobs=WORKERS, cache_dir=staging,
        )
        session.sweep(benchmarks, schemes, skip_errors=True)
        try:
            staging.rename(filled)
        except OSError:  # another run filled it first
            shutil.rmtree(staging, ignore_errors=True)
        for stale in WORK.glob("warm-fill-*"):
            if stale != filled:
                shutil.rmtree(stale, ignore_errors=True)
    return filled


class Plan:
    """A workload bound to its inputs: ``run(k)`` does timed pass ``k``."""

    def __init__(self, workload: str, seed: int, scale: Scale, expected, work: Path):
        self.workload = workload
        self.work = work
        self.config = default_config()
        self.expected = expected
        self._passes = 0
        rng = random.Random(seed)
        regime = "long" if workload == "grid-long" else "short"
        benchmarks = list(scale.long_benchmarks if regime == "long" else scale.short_benchmarks)
        schemes = list(scale.schemes)
        # The seed shuffles the submission order (sweep submits the
        # benchmark × scheme product); results do not depend on it.
        rng.shuffle(benchmarks)
        rng.shuffle(schemes)
        self.regime, self.benchmarks, self.schemes = regime, benchmarks, schemes
        self.seed = seed
        self.fuzz_programs = scale.fuzz_programs
        self.warm_store: Optional[Path] = None
        if workload == "grid-warm":
            self.warm_store = work / "warm-store"
            shutil.copytree(filled_store(self.config, benchmarks, schemes), self.warm_store)

    def run(self, index: int) -> Pass:
        self._passes += 1
        if self.workload == "fuzz-matrix":
            pass_dir = self.work / f"pass-{self._passes}"
            try:
                return fuzz_pass(range(self.seed, self.seed + self.fuzz_programs), pass_dir)
            finally:
                shutil.rmtree(pass_dir, ignore_errors=True)
        expected = self.expected[self.regime]
        if self.warm_store is not None:
            done = grid_pass(self.config, self.regime, self.benchmarks, self.schemes,
                             expected, self.warm_store, warm=True)
        else:
            pass_dir = self.work / f"pass-{self._passes}"
            try:
                done = grid_pass(self.config, self.regime, self.benchmarks,
                                 self.schemes, expected, pass_dir)
            finally:
                shutil.rmtree(pass_dir, ignore_errors=True)
        if index:
            # Every pass resolves the same grid and was checked against
            # the recorded outputs; holding hundreds of copies would only
            # grow the heap the passes are timed in.
            done.outputs = {}
        return done

    def settle(self, passes: Sequence[Pass]) -> None:
        if self.workload == "fuzz-matrix":
            settle_fuzz(passes)

    def setup_code(self) -> str:
        """What a fresh interpreter does before its first job is submitted."""
        store = str(self.work / "setup-probe")
        if self.workload == "fuzz-matrix":
            return (
                "from repro.fuzz import PROFILES, FuzzSession\n"
                f"profiles = tuple(PROFILES[n] for n in {FUZZ_PROFILES!r})\n"
                f"session = FuzzSession(jobs={WORKERS}, repro_dir={store!r})\n"
            )
        warmup, measure = WINDOWS[self.regime]
        return (
            "from repro.common.config import default_config\n"
            "from repro.harness.parallel import ParallelSession\n"
            "config = default_config()\n"
            f"session = ParallelSession(config, warmup={warmup}, measure={measure}, "
            f"jobs={WORKERS}, cache_dir={store!r})\n"
        )


def timed_passes(run: Callable[[int], Pass], seconds: float) -> List[Pass]:
    """Passes until ``seconds`` are spent; the next pass is skipped when
    it would likely end past the budget.  Always at least one."""
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(run(len(passes)))
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


# ----------------------------------------------------------------------
# Set-up time, memory and host speed
# ----------------------------------------------------------------------
def setup_times(code: str, samples: int) -> List[Tuple[float, float]]:
    """``(start, seconds)`` from spawning a fresh interpreter to the point
    where its session is built and ready to submit a job."""
    script = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import repro\n" + code + "print(time.perf_counter_ns())\n"
    )
    values = []
    for _ in range(samples):
        started = time.perf_counter_ns()
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=60,
        )
        values.append((started / 1e9, (int(done.stdout.split()[-1]) - started) / 1e9))
    return values


def _rss_peak_bytes(pid: int) -> int:
    """The process's resident high-water mark (VmHWM), 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, IndexError, ValueError):  # exited between listing and reading
        pass
    return 0


def _children(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def calibration_kernel(iterations: int = CALIBRATION_ITERATIONS) -> int:
    """Fixed interpreter-bound work (dict and integer operations, like the
    simulator's); its CPU time measures how fast the host runs Python."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += (i * 3) ^ key
    return total


class Sampler:
    """While open, samples every ``interval`` seconds, on one pinned
    thread per CPU this process may use, the CPU time of one
    :func:`calibration_kernel` call; the first thread also samples the
    summed RSS of this process and its live children (the pool workers).

    Other tenants of a shared host slow each CPU by different amounts at
    different moments; sampling every CPU during the timed passes lets a
    pass be scaled by the speed the host had while it ran.  Each RSS
    sample sums the live processes' own high-water marks, so the figure
    does not depend on whether two workers' largest jobs happened to
    overlap between samples.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.kernel_ns: List[Tuple[float, int]] = []
        self.rss: List[Tuple[float, int]] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu, index == 0), daemon=True)
            for index, cpu in enumerate(sorted(os.sched_getaffinity(0)))
        ]

    def _sample(self, cpu: int, rss: bool) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        pid = os.getpid()
        while True:
            if rss:
                total = _rss_peak_bytes(pid) + sum(map(_rss_peak_bytes, _children(pid)))
                self.rss.append((time.perf_counter(), total))
            started = time.thread_time_ns()
            calibration_kernel()
            self.kernel_ns.append((time.perf_counter(), time.thread_time_ns() - started))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "Sampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def speed(self, start: float, seconds: float) -> float:
        """Host speed relative to the reference over ``[start, start +
        seconds]``, widened by 0.5 s either side so short intervals get
        samples: reference kernel time ÷ median measured kernel time."""
        costs = [ns for t, ns in self.kernel_ns if start - 0.5 <= t <= start + seconds + 0.5]
        return CALIBRATION_REFERENCE_NS / statistics.median(
            costs or [ns for _, ns in self.kernel_ns]
        )

    def peak_rss(self, start: float, seconds: float) -> int:
        """Largest sample in ``[start, start + seconds]``; for an interval
        too short to hold one, this process's high-water mark now."""
        inside = [b for t, b in self.rss if start <= t <= start + seconds]
        return max(inside) if inside else _rss_peak_bytes(os.getpid())


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def pass_rate(passes: Sequence[Pass], attr: str, host: Optional[Sampler] = None) -> float:
    """Median over passes of ``attr`` per reference second: per host
    second divided by the host speed during the pass (unscaled without
    ``host``)."""
    return statistics.median(
        getattr(p, attr) / p.wall / (host.speed(p.start, p.wall) if host else 1.0)
        for p in passes
    )


def _traced_mismatches(untraced: Sequence[Pass], traced: Sequence[Pass]) -> int:
    """Ops whose simulated outputs differ between the two phases."""
    return sum(
        sum(a.outputs.get(key) != value for key, value in b.outputs.items())
        for a, b in zip(untraced, traced)
    )


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool,
    scale: Scale = FULL, expected=None,
) -> Outcome:
    if expected is None:
        expected = load_expected()
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = Plan(workload, seed, scale, expected, work)
        with Sampler() as host:
            # Set-up is sampled on both sides of the timed passes, so the
            # samples straddle more than one stretch of host load.
            setup = [] if trace else setup_times(plan.setup_code(), SETUP_SAMPLES // 2 + 1)
            untraced = timed_passes(plan.run, seconds)
            if trace:
                tracer = layers.Tracer().install()
                try:
                    traced = timed_passes(plan.run, seconds)
                finally:
                    tracer.uninstall()
            else:
                setup += setup_times(plan.setup_code(), SETUP_SAMPLES // 2)
        if not trace:
            return untraced_outcome(plan, untraced, setup, host)
        plan.settle(untraced)
        plan.settle(traced)
        attempted = sum(p.ops for p in untraced + traced)
        failed = sum(p.failed for p in untraced + traced)
        failed += _traced_mismatches(untraced, traced)
        notes = []
        if workload == "fuzz-matrix":
            # Every Core run's commits, counted by the Core.run wrapper,
            # must add up to what the untraced accounting assumed.
            captured = tracer.merged()[1].get("committed", 0)
            expected_commits = sum(p.instructions for p in traced)
            if captured != expected_commits:
                failed += 1
                notes.append(f"traced commits {captured} != expected {expected_commits}")
        metrics = tracer.metrics(
            sum(p.wall for p in traced),
            pass_rate(untraced, "ops", host),
            pass_rate(traced, "ops", host),
        )
        where = tracer.write(WORK / f"trace-{workload}")
        notes.append(f"spans written to {where.relative_to(ROOT)}")
        if tracer.missing:
            notes.append("boundaries not found: " + ", ".join(tracer.missing))
        return Outcome(attempted, failed, metrics, untraced, traced, notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def untraced_outcome(
    plan: Plan, passes: List[Pass], setup: List[Tuple[float, float]], host: Sampler
) -> Outcome:
    plan.settle(passes)
    start = passes[0].start
    timed = passes[-1].start + passes[-1].wall - start
    metrics = {
        "ops_per_s": (pass_rate(passes, "ops", host), END_TO_END["ops_per_s"]),
        "sim_ips": (pass_rate(passes, "instructions", host), END_TO_END["sim_ips"]),
        "setup_s": (statistics.median(
            seconds * host.speed(start, seconds) for start, seconds in setup
        ), END_TO_END["setup_s"]),
        "peak_rss_mb": (host.peak_rss(start, timed) / 2**20, END_TO_END["peak_rss_mb"]),
    }
    notes = [
        f"host speed {host.speed(start, timed):.4f} of the reference; per host second: "
        f"{pass_rate(passes, 'ops'):.6g} ops/s, "
        f"{pass_rate(passes, 'instructions'):.6g} instr/s, "
        f"set-up {statistics.median(seconds for _, seconds in setup):.6g} s"
    ]
    return Outcome(
        sum(p.ops for p in passes), sum(p.failed for p in passes), metrics, passes,
        notes=notes,
    )


def report(workload: str, outcome: Outcome) -> str:
    lines = [f"e2ebench {workload}: {len(outcome.untraced)} untraced pass(es)"
             + (f", {len(outcome.traced)} traced" if outcome.traced else "")]
    for name, (value, unit) in outcome.metrics.items():
        lines.append(f"  {name:36s} {value:16.6g} {unit}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    lines.append(f"  {'failed_ratio':36s} {ratio:16.6g} "
                 f"({outcome.failed} failed of {outcome.attempted} attempted)")
    lines.extend(f"  note: {note}" for note in outcome.notes)
    return "\n".join(lines)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(workload: str, outcome: Outcome) -> None:
    """Print the report, then the one-line JSON result."""
    print(report(workload, outcome))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }), flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    emit(args.workload, run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
