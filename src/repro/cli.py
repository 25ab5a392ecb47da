"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``list`` — available benchmarks and schemes.
* ``run`` — simulate one benchmark under one scheme and print statistics.
* ``sweep`` — run a (benchmark × scheme) grid over a worker pool, with an
  optional persistent on-disk result cache (``--jobs`` / ``--cache-dir``).
* ``figures`` — regenerate the paper's figures (Figure 1/6/7/8 + ablation).
* ``profile`` — per-stage wall shares (or a cProfile view) of the core
  over the figure6 grid (``--quick`` for a CI-sized cut of it).
* ``attack`` — run the Spectre v1 gadget against every configuration.
* ``trace`` — run with the pipeline tracer and print an instruction
  timeline (Konata-style, in text).
* ``doctor`` — run a smoke program under every scheme with guardrails at
  ``full`` and print pass/fail per invariant class.
* ``chaos`` — differential resilience check: run a small sweep under a
  seeded fault plan (crashes, hangs, torn writes, disk-full, interrupts)
  and require results bit-identical to a fault-free run with every
  injected corruption quarantined.
* ``specflow`` — static speculative-leakage analysis over the attack
  corpus and fuzz-generated secret gadgets, cross-checked against the
  dynamic noninterference oracle (static ``safe`` must be dynamically
  clean).
* ``fuzz`` — differential fuzzing of seeded random programs against the
  reference interpreter.
* ``lint`` — reprolint static analysis of the simulator's invariants.

``lint`` and ``specflow`` attach their options here, so that parsing a
command line loads no analyzer; their implementations
(:mod:`repro.analysis.cli`, :mod:`repro.analysis.specflow.cli`) load at
dispatch.

``run`` and ``sweep`` accept ``--guardrails {off,cheap,full}`` to arm the
microarchitectural invariant checker (``--dump-dir`` adds crash dumps);
``sweep`` adds ``--job-timeout`` / ``--retries`` for fault-tolerant
pools.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from repro.common.errors import ReproError
from repro.schemes import SCHEME_CLASSES, SCHEME_LABELS, make_scheme


def comma_list(spec: str) -> Tuple[str, ...]:
    """The entries of a comma-separated option, stripped; empty entries
    (the one after ``dom,``) are dropped."""
    return tuple(name.strip() for name in spec.split(",") if name.strip())


def scheme_label(label: str) -> str:
    """The one spelling of a scheme label that a run, a cache key and a
    report use: ``" DOM+AP"`` gives ``"dom+ap"``.  Every ``--scheme``
    and ``--schemes`` entry passes through here as it is parsed."""
    return label.strip().lower()


def scheme_labels(spec: str) -> Tuple[str, ...]:
    """A ``--schemes`` list, each label in its canonical spelling."""
    return tuple(scheme_label(name) for name in comma_list(spec))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Doppelganger Loads (ISCA 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and schemes")

    run = sub.add_parser("run", help="simulate one benchmark under one scheme")
    run.add_argument("benchmark")
    run.add_argument("--scheme", default="unsafe", type=scheme_label)
    run.add_argument("--warmup", type=int, default=4000)
    run.add_argument("--measure", type=int, default=16000)
    run.add_argument(
        "--baseline", action="store_true",
        help="also run the unsafe baseline and print normalized IPC",
    )
    _add_guardrail_args(run)

    sweep = sub.add_parser(
        "sweep", help="run a (benchmark × scheme) grid over a worker pool"
    )
    sweep.add_argument(
        "--benchmarks", default="all",
        help="comma-separated names, or a suite (all/spec2006/spec2017)",
    )
    sweep.add_argument(
        "--schemes", default=None, type=scheme_labels,
        help="comma-separated scheme names (default: unsafe and the "
             "Figure 6 schemes)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: one per CPU; 1 = run inline)",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="persistent result cache directory (reruns become cache hits)",
    )
    sweep.add_argument("--warmup", type=int, default=4000)
    sweep.add_argument("--measure", type=int, default=16000)
    sweep.add_argument(
        "--csv", default=None, help="also write raw counters as CSV here"
    )
    sweep.add_argument(
        "--skip-errors", action="store_true",
        help="report pairs with empty measurement windows instead of aborting",
    )
    sweep.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds (hung workers are "
             "killed, the job retried, then recorded in the failure "
             "manifest; default: wait forever)",
    )
    sweep.add_argument(
        "--retries", type=int, default=1,
        help="retry attempts for transient worker failures "
             "(timeout/crash; default: 1)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="adopt the cache directory's progress ledger from an "
             "interrupted run of the same grid: resolved results load "
             "from the store, recorded deterministic failures replay, "
             "only unresolved pairs re-run (requires --cache-dir)",
    )
    _add_guardrail_args(sweep)

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument(
        "--fast", action="store_true",
        help="use short measurement windows (quick smoke run)",
    )
    figures.add_argument("--warmup", type=int, default=None)
    figures.add_argument("--measure", type=int, default=None)
    figures.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the shared sweep (default: one per CPU)",
    )
    figures.add_argument(
        "--cache-dir", default=None,
        help="persistent result cache directory shared across invocations",
    )

    prof = sub.add_parser(
        "profile",
        help="profile the core over the figure6 grid: per-stage wall "
             "shares (default) or cProfile (--cprofile)",
    )
    prof.add_argument(
        "--quick", action="store_true",
        help="CI-sized cut of the grid instead of the full figure6 sweep",
    )
    prof.add_argument(
        "--cprofile", action="store_true",
        help="deterministic cProfile view instead of stage accounting",
    )
    prof.add_argument(
        "--top", type=int, default=25,
        help="rows to keep in the cProfile view (default 25)",
    )
    prof.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full report as JSON here",
    )

    attack = sub.add_parser("attack", help="run Spectre v1 against every scheme")
    attack.add_argument("--secret", type=int, default=7)

    trace = sub.add_parser("trace", help="trace a window of the pipeline")
    trace.add_argument("benchmark")
    trace.add_argument("--scheme", default="dom+ap", type=scheme_label)
    trace.add_argument("--instructions", type=int, default=300)
    trace.add_argument("--window", type=int, default=40)

    doctor = sub.add_parser(
        "doctor",
        help="static lint preflight, then smoke-run every scheme with "
             "full guardrails; report per invariant class",
    )
    doctor.add_argument(
        "--schemes", default=None, type=scheme_labels,
        help="comma-separated scheme names (default: every variant)",
    )
    doctor.add_argument("--instructions", type=int, default=4000)
    doctor.add_argument(
        "--no-lint", action="store_true",
        help="skip the reprolint static preflight",
    )
    doctor.add_argument(
        "--no-fuzz", action="store_true",
        help="skip the differential fuzz smoke (a few seeds × 2 schemes)",
    )
    doctor.add_argument(
        "--no-chaos", action="store_true",
        help="skip the chaos smoke (a tiny sweep under injected faults)",
    )
    doctor.add_argument(
        "--no-specflow", action="store_true",
        help="skip the specflow smoke (static-vs-dynamic differential "
             "over a corpus cut)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="sweep-under-faults differential: seeded crashes, hangs, "
             "torn/corrupt cache writes, disk-full, and a mid-wave "
             "interrupt must leave results bit-identical to a fault-free "
             "run, with every corruption quarantined (exit 0/1)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--benchmarks", default="hmmer,mcf",
        help="comma-separated benchmark names (default: hmmer,mcf)",
    )
    chaos.add_argument(
        "--schemes", default="unsafe,dom+ap", type=scheme_labels,
        help="comma-separated scheme names (default: unsafe,dom+ap)",
    )
    chaos.add_argument("--warmup", type=int, default=300)
    chaos.add_argument("--measure", type=int, default=900)
    chaos.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for the sweeps under test (default: 2)",
    )
    chaos.add_argument(
        "--job-timeout", type=float, default=10.0,
        help="per-job budget for the chaotic sweep — bounds how long an "
             "injected hang can stall a wave (default: 10s)",
    )
    chaos.add_argument(
        "--retries", type=int, default=2,
        help="transient-failure retries for the chaotic sweep (default: 2)",
    )
    chaos.add_argument(
        "--work-dir", default=None,
        help="keep the reference and chaos caches here (default: a temp "
             "dir, removed on success, kept and named on failure)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: run seeded random programs under every "
             "scheme × idle_skip × guardrails and demand identical "
             "architectural state (exit 0 clean, 1 findings)",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=50,
        help="how many seeds to run (default: 50)",
    )
    fuzz.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed of the window (default: 0)",
    )
    fuzz.add_argument(
        "--profiles", default=None,
        help="comma-separated profile names, assigned round-robin over the "
             "seed window (default: every named profile)",
    )
    fuzz.add_argument(
        "--schemes", default=None, type=scheme_labels,
        help="comma-separated scheme names (default: "
             "unsafe,nda,stt,dom,dom+ap,dom+vp)",
    )
    fuzz.add_argument(
        "--matrix", choices=("full", "schemes"), default="full",
        help="execution matrix per program: 'full' crosses schemes × "
             "idle_skip × guardrails; 'schemes' is one cell per scheme",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: one per CPU; 1 = run inline)",
    )
    fuzz.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-program wall-clock budget in seconds (default: wait "
             "forever)",
    )
    fuzz.add_argument(
        "--retries", type=int, default=1,
        help="retry attempts for transient worker failures (default: 1)",
    )
    fuzz.add_argument(
        "--time-budget", type=float, default=None,
        help="stop submitting new programs after this many seconds",
    )
    fuzz.add_argument(
        "--repro-dir", default="fuzz-repros",
        help="directory for minimized repro files and the failure manifest "
             "(default: fuzz-repros)",
    )
    fuzz.add_argument(
        "--no-minimize", action="store_true",
        help="record findings without delta-debugging them first",
    )
    fuzz.add_argument(
        "--mutation", default=None,
        help="run with a named scheme bug injected (oracle self-test); "
             "findings are then expected",
    )
    fuzz.add_argument(
        "--selftest", action="store_true",
        help="end-to-end check: inject a mutation, require the oracle to "
             "catch it and the shrinker to minimize it to <= 10 "
             "instructions (exit 0 on success)",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="PATH",
        help="re-run a repro file or every entry of a failure manifest "
             "instead of fuzzing (exit 1 if anything still diverges)",
    )
    fuzz.add_argument(
        "--resume", action="store_true",
        help="replay verdicts already in the repro dir's store instead of "
             "re-running them — an interrupted campaign continues where "
             "it stopped",
    )

    lint = sub.add_parser(
        "lint",
        help="reprolint: static analysis of simulator invariants "
             "(exit 0 clean, 1 findings, 2 usage error)",
    )
    add_lint_arguments(lint)

    specflow = sub.add_parser(
        "specflow",
        help="static speculative-leakage analysis cross-checked against "
             "the dynamic noninterference oracle over the attack corpus "
             "and fuzz-generated gadgets (exit 0 agree, 1 disagreements, "
             "2 usage error)",
    )
    add_specflow_arguments(specflow)
    return parser


def _add_guardrail_args(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--guardrails", choices=("off", "cheap", "full"), default="off",
        help="microarchitectural invariant checker cadence: off (default), "
             "cheap (every-N cycles), full (every cycle)",
    )
    command.add_argument(
        "--dump-dir", default=None,
        help="directory for crash dumps on invariant/watchdog failures",
    )


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro lint``'s arguments to a subcommand parser."""
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed repro "
             "package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the CI artifact form)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline JSON of grandfathered findings (default: the "
             "packaged src/repro/analysis/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore every baseline (report grandfathered findings too)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings (existing "
             "justifications are kept; new entries get a TODO marker)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def add_specflow_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``repro specflow``'s arguments to a subcommand parser."""
    parser.add_argument(
        "--gadget", action="append", default=None, metavar="NAME",
        help="corpus gadget to analyze (repeatable; default: the whole "
             "attack corpus; see --list-gadgets)",
    )
    parser.add_argument(
        "--schemes", default=None, type=scheme_labels,
        help="comma-separated scheme labels (default: the full corpus "
             "matrix, e.g. unsafe,nda,...,dom+ap,dom-insecure-branches+ap)",
    )
    parser.add_argument(
        "--fuzz-seeds", type=int, default=10, metavar="N",
        help="generated secret-gadget cases to cross-check (default 10; "
             "0 disables the fuzz portion)",
    )
    parser.add_argument(
        "--seed-start", type=int, default=0, metavar="S",
        help="first fuzz seed (cases use seeds S..S+N-1)",
    )
    parser.add_argument(
        "--static-only", action="store_true",
        help="skip every simulator run: report static verdicts and check "
             "only the pinned static expectations",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the CI artifact form)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="additionally write the JSON report to PATH (written on "
             "failure too — the CI disagreement artifact)",
    )
    parser.add_argument(
        "--list-gadgets", action="store_true",
        help="print the corpus gadget names and exit",
    )


def _guardrail_config(args: argparse.Namespace):
    """The session config with the requested guardrail level applied."""
    from repro.common.config import GuardrailConfig, default_config

    return default_config().with_overrides(
        guardrails=GuardrailConfig(level=args.guardrails, dump_dir=args.dump_dir)
    )


def _cmd_list() -> int:
    from repro.workloads.profiles import ALL_PROFILES

    print("schemes:")
    for name, cls in SCHEME_CLASSES.items():
        print(f"  {name}" + ("       (+ap variant available)"
                             if cls.supports_address_prediction else ""))
    print("\nbenchmarks (suite, kernel):")
    for profile in ALL_PROFILES:
        print(f"  {profile.name:<14} {profile.suite:<9} {profile.kernel}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.runner import run_benchmark

    config = _guardrail_config(args)
    result = run_benchmark(
        args.benchmark, args.scheme, config,
        warmup=args.warmup, measure=args.measure,
    )
    print(f"{args.benchmark} under {args.scheme}:")
    print(result.stats.summary())
    if args.baseline and args.scheme != "unsafe":
        base = run_benchmark(
            args.benchmark, "unsafe", config,
            warmup=args.warmup, measure=args.measure,
        )
        print(f"normalized IPC vs unsafe: {result.ipc / base.ipc:.3f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.parallel import ParallelSession
    from repro.harness.runner import BASELINE_SCHEME, FIGURE_SCHEMES
    from repro.workloads.profiles import PROFILES_BY_NAME, benchmark_names

    if args.benchmarks in ("all", "spec2006", "spec2017"):
        benchmarks = benchmark_names(args.benchmarks)
    else:
        benchmarks = comma_list(args.benchmarks)
        for name in benchmarks:
            if name not in PROFILES_BY_NAME:
                print(f"error: unknown benchmark {name!r}", file=sys.stderr)
                return 1
    schemes = args.schemes
    if schemes is None:
        schemes = (BASELINE_SCHEME,) + FIGURE_SCHEMES

    if args.resume and args.cache_dir is None:
        print("error: --resume requires --cache-dir (the ledger lives "
              "there)", file=sys.stderr)
        return 1
    session = ParallelSession(
        config=_guardrail_config(args),
        warmup=args.warmup,
        measure=args.measure,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        job_timeout=args.job_timeout,
        retries=args.retries,
        resume=args.resume,
    )
    results = session.sweep(benchmarks, schemes, skip_errors=args.skip_errors)
    print(f"{'benchmark':<14}{'scheme':<11}{'IPC':>8}{'instructions':>14}{'cycles':>10}")
    for result in results:
        print(
            f"{result.benchmark:<14}{result.scheme:<11}{result.ipc:>8.3f}"
            f"{result.stats.committed_instructions:>14}{result.stats.cycles:>10}"
        )
    for skip in session.skipped:
        print(f"skipped ({skip.benchmark}, {skip.scheme}): "
              f"{skip.error_type}: {skip.message}")
    manifest = session.failure_manifest_path
    if session.skipped and manifest is not None and manifest.exists():
        print(f"failure manifest: {manifest}")
    counters = session.counters()
    print(
        f"\n{len(results)} results with {args.jobs or 'auto'} jobs: "
        f"{counters['simulated']} simulated, {counters['disk_hits']} from disk "
        f"cache, {counters['memo_hits']} memoized, {counters['skipped']} skipped"
        + (
            f", {counters['ledger_hits']} replayed from ledger"
            if counters["ledger_hits"]
            else ""
        )
    )
    store = session.store_counters()
    if store.get("quarantined"):
        print(
            f"note: {store['quarantined']} corrupt cache entr"
            f"{'y' if store['quarantined'] == 1 else 'ies'} quarantined "
            f"under {session.store.quarantine_dir} and recomputed"
        )
    if store.get("degraded"):
        print(
            "warning: persistent disk errors — results for this run were "
            "kept in memory, not the cache directory"
        )
    if args.csv:
        from repro.harness.export import sweep_to_csv

        with open(args.csv, "w") as handle:
            handle.write(sweep_to_csv(results))
        print(f"raw counters written to {args.csv}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    import time

    from repro import harness
    from repro.workloads.profiles import benchmark_names

    warmup = args.warmup if args.warmup is not None else (1000 if args.fast else 4000)
    measure = args.measure if args.measure is not None else (4000 if args.fast else 16000)
    session = harness.ParallelSession(
        warmup=warmup, measure=measure, jobs=args.jobs, cache_dir=args.cache_dir
    )
    started = time.time()

    # One parallel sweep feeds every figure below (all reads are memo hits).
    session.sweep(
        benchmark_names("all"),
        ("unsafe", "unsafe+ap") + harness.FIGURE_SCHEMES,
        skip_errors=True,
    )

    for title, figure in (
        (f"Figure 6: normalized IPC (warmup={warmup}, measure={measure})",
         harness.figure6_normalized_ipc),
        ("Figure 1 / §7 headline: measured vs paper", harness.figure1_summary),
        ("Figure 7: predictor coverage and accuracy (DoM+AP)",
         harness.figure7_coverage_accuracy),
        ("Figure 8: normalized L1/L2 accesses", harness.figure8_cache_traffic),
        ("§7 Unsafe Baseline + AP", harness.unsafe_ap_delta),
    ):
        print(f"== {title} ==")
        print(figure(session).format_table())
        print()

    counters = session.counters()
    print(
        f"completed {session.cached_runs()} runs in {time.time() - started:.0f}s "
        f"({counters['simulated']} simulated, {counters['disk_hits']} from disk, "
        f"{counters['skipped']} skipped)"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.harness.profiling import (
        profile_cprofile,
        profile_stages,
        render_stage_report,
        write_report,
    )

    profile = "quick" if args.quick else "full"
    if args.cprofile:
        report = profile_cprofile(profile, top=args.top)
        print(report["text"], end="")
    else:
        report = profile_stages(profile)
        print(render_stage_report(report))
    if args.json is not None:
        write_report(args.json, report)
        print(f"profile report written to {args.json}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks import run_attack, spectre_v1

    gadget = spectre_v1(secret_value=args.secret)
    print(f"Spectre v1, secret = {args.secret}")
    # Each scheme beside its Doppelganger Loads form, as in the paper.
    for name, cls in SCHEME_CLASSES.items():
        if not cls.supports_address_prediction:
            continue
        for scheme in (name, name + "+ap"):
            outcome = run_attack(gadget, scheme)
            verdict = "LEAKED" if outcome.leaked else "safe"
            print(f"  {scheme:<10} {verdict:<8} inferred={outcome.inferred}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.pipeline.core import Core
    from repro.trace import PipelineTracer
    from repro.workloads.profiles import build_workload

    core = Core(build_workload(args.benchmark), make_scheme(args.scheme))
    tracer = PipelineTracer()
    core.observer = tracer
    core.run(max_instructions=args.instructions)
    print(tracer.render_summary())
    print()
    first = max(0, len(tracer.records()) - args.window)
    print(tracer.render_timeline(first=first, count=args.window))
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.guardrails import run_doctor

    report = run_doctor(
        schemes=SCHEME_LABELS if args.schemes is None else args.schemes,
        instructions=args.instructions,
        lint_preflight=not args.no_lint,
        fuzz_smoke=not args.no_fuzz,
        chaos_smoke=not args.no_chaos,
        specflow_smoke=not args.no_specflow,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.harness.chaos import run_chaos_check

    report = run_chaos_check(
        seed=args.seed,
        benchmarks=comma_list(args.benchmarks),
        schemes=args.schemes,
        warmup=args.warmup,
        measure=args.measure,
        jobs=args.jobs,
        job_timeout=args.job_timeout,
        retries=args.retries,
        work_dir=args.work_dir,
    )
    print(report.render())
    return 0 if report.ok else 1


def _fuzz_schemes(schemes: Optional[Tuple[str, ...]]) -> tuple:
    from repro.fuzz import DEFAULT_FUZZ_SCHEMES

    return tuple(DEFAULT_FUZZ_SCHEMES) if schemes is None else schemes


def _fuzz_profiles(spec: Optional[str]) -> tuple:
    from repro.fuzz import PROFILES
    from repro.fuzz.profiles import resolve_profiles

    if spec is None:
        return tuple(PROFILES.values())
    return resolve_profiles(comma_list(spec))


def _cmd_fuzz_replay(path: str) -> int:
    """Replay a repro file or a failure manifest; exit 1 on divergence."""
    import json as _json

    from repro.fuzz import KIND_CLEAN, ReproFile, replay_manifest

    payload = None
    try:
        payload = _json.loads(open(path).read())
    except (OSError, ValueError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return 1
    if isinstance(payload, dict) and "program" in payload:
        repro = ReproFile.load(path)
        if repro.config_drifted():
            print(f"warning: {path}: config edited after fingerprinting")
        report = repro.replay()
        print(f"{path}: {report.summary()}")
        if repro.mutation is not None:
            # A mutation-sourced repro is *supposed* to diverge when the
            # recorded bug is re-injected; the stock simulator must be
            # clean.  Check both so the file proves what it claims.
            stock = repro.replay(mutation=None)
            print(f"{path} (stock simulator): {stock.summary()}")
            faithful = report.kind == repro.kind and stock.clean
            return 0 if faithful else 1
        return 0 if report.clean else 1
    reports = replay_manifest(path)
    if not reports:
        print(f"{path}: no replayable entries")
        return 0
    worst = 0
    for label, report in reports:
        print(f"{label}: {report.summary()}")
        if report.kind != KIND_CLEAN:
            worst = 1
    return worst


def _cmd_fuzz_selftest(args: argparse.Namespace) -> int:
    """Prove the oracle + shrinker end to end with an injected bug."""
    from repro.fuzz import MUTATIONS, FuzzSession

    mutation = args.mutation or next(iter(sorted(MUTATIONS)))
    session = FuzzSession(
        schemes=_fuzz_schemes(args.schemes),
        matrix=args.matrix,
        jobs=args.jobs,
        job_timeout=args.job_timeout,
        retries=args.retries,
        repro_dir=args.repro_dir,
        mutation=mutation,
        minimize_findings=True,
    )
    seeds = list(range(args.seed_start, args.seed_start + max(args.seeds, 1)))
    summary = session.run(seeds, _fuzz_profiles(args.profiles),
                          time_budget=args.time_budget)
    print(summary.render())
    if not summary.findings:
        print(
            f"selftest FAILED: mutation {mutation!r} produced no findings "
            f"over {len(seeds)} seed(s)",
            file=sys.stderr,
        )
        return 1
    from repro.fuzz import ReproFile

    small_enough = False
    for finding in summary.findings:
        if finding.repro_path is None:
            continue
        repro = ReproFile.load(finding.repro_path)
        print(
            f"selftest: {finding.job.label} minimized "
            f"{repro.original_instructions} -> "
            f"{repro.minimized_instructions} instruction(s)"
        )
        small_enough |= repro.minimized_instructions <= 10
    if not small_enough:
        print(
            "selftest FAILED: no finding minimized to <= 10 instructions",
            file=sys.stderr,
        )
        return 1
    print(f"selftest OK: oracle caught {mutation!r} and shrank the repro")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.replay is not None:
        return _cmd_fuzz_replay(args.replay)
    if args.selftest:
        return _cmd_fuzz_selftest(args)
    from repro.fuzz import FuzzSession

    session = FuzzSession(
        schemes=_fuzz_schemes(args.schemes),
        matrix=args.matrix,
        jobs=args.jobs,
        job_timeout=args.job_timeout,
        retries=args.retries,
        repro_dir=args.repro_dir,
        mutation=args.mutation,
        minimize_findings=not args.no_minimize,
        resume=args.resume,
    )
    seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    summary = session.run(seeds, _fuzz_profiles(args.profiles),
                          time_budget=args.time_budget)
    print(summary.render())
    if args.mutation is not None:
        # With an injected bug, findings are the expected outcome.
        return 0 if summary.findings and not summary.failures else 1
    return 0 if summary.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_specflow(args: argparse.Namespace) -> int:
    from repro.analysis.specflow.cli import run_specflow

    return run_specflow(args)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        # Flush inside the try, so a reader that closed the pipe early
        # (``repro trace ... | head``) surfaces here and not as a
        # traceback from the flush at interpreter exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # The recipe of the Python documentation (signal module, "Note on
        # SIGPIPE"): point stdout at the null device so that exit-time
        # flush cannot fail again, and exit 1 as an EPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


def _dispatch(args: argparse.Namespace) -> int:
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "figures":
            return _cmd_figures(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "attack":
            return _cmd_attack(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "doctor":
            return _cmd_doctor(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "lint":
            # Lint handles its own errors: findings are exit 1, misuse
            # (LintUsageError) exit 2 — distinct from ReproError below.
            return _cmd_lint(args)
        if args.command == "specflow":
            # Same contract as lint: disagreements exit 1, misuse exit 2.
            return _cmd_specflow(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
