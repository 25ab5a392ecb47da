"""``repro doctor`` — a guardrails self-check.

Runs a small smoke program that exercises every mechanism the invariant
classes guard (dependent loads, store-to-load forwarding, data-dependent
branches, streaming misses) under **every scheme** with guardrails at
``full`` (invariant sweep every cycle), then prints pass/fail per
invariant class.  A clean doctor run means the simulator's machine-state
contracts held on every single cycle of every scheme — the cheapest
possible confidence check after touching the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.config import GuardrailConfig, SystemConfig, small_config
from repro.common.errors import DeadlockError, InvariantViolationError, ReproError
from repro.guardrails.invariants import INVARIANT_CLASSES, InvariantChecker
from repro.isa.builder import CodeBuilder
from repro.isa.program import Program
from repro.schemes import SCHEME_LABELS, make_scheme

_DATA_BASE = 0x0001_0000
_INDEX_BASE = 0x0002_0000
_STREAM_BASE = 0x0004_0000
_OUT_BASE = 0x0008_0000


def smoke_program(trips: int = 300) -> Program:
    """A compact kernel touching every guarded mechanism.

    Per iteration: an index load feeding a dependent data load (load
    chains + address prediction fodder), a data-dependent branch (control
    shadows + squashes), a store immediately reloaded (forwarding + store
    shadows), and a 64-byte-stride streaming load (L1 misses, MSHR
    pressure, DoM delays, prefetcher traffic).
    """
    b = CodeBuilder()
    for i in range(64):
        # Low bit pseudo-random so the data-dependent branch mispredicts.
        b.set_memory(_DATA_BASE + 8 * i, (i * 2654435761) & 0xFFFF)
        b.set_memory(_INDEX_BASE + 8 * i, (i * 17 + 5) % 64)
    b.li(1, trips)       # trip count
    b.li(2, 0)           # i
    b.li(3, 0)           # accumulator
    b.li(10, _DATA_BASE)
    b.li(11, _INDEX_BASE)
    b.li(12, _STREAM_BASE)
    b.li(13, _OUT_BASE)
    b.label("loop")
    b.andi(16, 2, 63)            # i & 63
    b.shli(16, 16, 3)
    b.add(16, 11, 16)
    b.load(17, 16)               # index = index_array[i & 63]
    b.shli(17, 17, 3)
    b.add(17, 10, 17)
    b.load(18, 17)               # value = data[index]  (dependent load)
    b.add(3, 3, 18)
    b.andi(19, 2, 15)            # out slot
    b.shli(19, 19, 3)
    b.add(19, 13, 19)
    b.store(3, 19)               # store accumulator ...
    b.load(20, 19)               # ... and forward it right back
    b.shli(21, 2, 6)             # i * 64: one new cache line per trip
    b.andi(21, 21, 0x3FFFF)
    b.add(21, 12, 21)
    b.load(22, 21)               # streaming miss
    b.andi(23, 18, 1)
    b.beq(23, 0, "even")         # data-dependent branch
    b.addi(3, 3, 1)
    b.label("even")
    b.addi(2, 2, 1)
    b.blt(2, 1, "loop")
    b.store(3, 0, disp=8)
    b.halt()
    return b.build(name="guardrail_smoke")


@dataclass
class SchemeReport:
    """Doctor outcome for one scheme: status per invariant class."""

    scheme: str
    classes: Dict[str, str] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(
            status in ("ok", "n/a") for status in self.classes.values()
        )


@dataclass
class DoctorReport:
    """Aggregated doctor outcome across every scheme."""

    rows: List[SchemeReport]
    instructions: int
    #: reprolint preflight outcome: "clean", "N finding(s)", or
    #: "skipped" when the caller disabled it (--no-lint).
    lint_status: str = "skipped"
    lint_findings: int = 0
    #: differential fuzz smoke outcome: "clean", "N finding(s)/...", or
    #: "skipped" when the caller disabled it (--no-fuzz).
    fuzz_status: str = "skipped"
    fuzz_findings: int = 0
    #: chaos smoke outcome: "clean", "N problem(s)/...", or "skipped"
    #: when the caller disabled it (--no-chaos).
    chaos_status: str = "skipped"
    chaos_findings: int = 0
    #: specflow smoke outcome: "clean", "N disagreement(s)/...", or
    #: "skipped" when the caller disabled it (--no-specflow).
    specflow_status: str = "skipped"
    specflow_findings: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.lint_findings == 0
            and self.fuzz_findings == 0
            and self.chaos_findings == 0
            and self.specflow_findings == 0
            and all(row.ok for row in self.rows)
        )

    def render(self) -> str:
        width = max(len(row.scheme) for row in self.rows) + 2
        header = "scheme".ljust(width) + "".join(
            name.ljust(14) for name in INVARIANT_CLASSES
        )
        lines = [
            f"static preflight (repro lint): {self.lint_status}",
            f"differential fuzz smoke: {self.fuzz_status}",
            f"chaos smoke (repro chaos): {self.chaos_status}",
            f"specflow smoke (repro specflow): {self.specflow_status}",
            "",
        ]
        lines += [header, "-" * len(header)]
        for row in self.rows:
            cells = "".join(
                row.classes.get(name, "?").ljust(14) for name in INVARIANT_CLASSES
            )
            lines.append(row.scheme.ljust(width) + cells)
            if row.error is not None:
                lines.append(f"    {row.error}")
        verdict = (
            f"doctor: all invariants held over {self.instructions} "
            f"instructions x {len(self.rows)} schemes (guardrails=full)"
            if self.ok
            else "doctor: FAILURES detected — see rows above"
        )
        lines.append("")
        lines.append(verdict)
        return "\n".join(lines)


def _lint_preflight() -> Tuple[str, int]:
    """Self-lint the installed package; ``(status_line, finding_count)``.

    Runs reprolint over ``src/repro`` with the packaged baseline before
    any simulation: a dynamic smoke check is moot if the tree already
    violates a statically-checkable contract (nondeterminism in the
    simulator core, a fingerprint/exclusion mismatch, a layering break).
    """
    from pathlib import Path

    import repro
    from repro.analysis.baseline import PACKAGED_BASELINE, Baseline
    from repro.analysis.engine import LintRunner

    baseline = (
        Baseline.load(PACKAGED_BASELINE) if PACKAGED_BASELINE.exists() else Baseline()
    )
    runner = LintRunner(baseline=baseline)
    report = runner.run([str(Path(repro.__file__).resolve().parent)])
    count = len(report.findings)
    if count == 0:
        return (
            f"clean ({report.files_scanned} files, "
            f"{len(report.rules_run)} rules)",
            0,
        )
    worst = report.findings[0]
    return (
        f"{count} finding(s) — run `repro lint` for the list "
        f"(first: {worst.render()})",
        count,
    )


#: Schemes exercised by the doctor's differential fuzz smoke: the unsafe
#: baseline plus the paper's headline scheme is enough to catch a broken
#: commit path while keeping the smoke to a couple of seconds.
FUZZ_SMOKE_SCHEMES: Tuple[str, ...] = ("unsafe", "dom+ap")
FUZZ_SMOKE_SEEDS: Tuple[int, ...] = (0, 1, 2)


def _fuzz_smoke() -> Tuple[str, int]:
    """Tiny differential fuzz pass; ``(status_line, finding_count)``.

    A few seeded random programs, one execution per scheme (matrix
    ``"schemes"``), run inline — no pools, no repro files.  Any
    architectural divergence or infrastructure failure fails the doctor
    just like an invariant violation would.
    """
    from repro.fuzz import PROFILES, FuzzSession

    session = FuzzSession(
        schemes=FUZZ_SMOKE_SCHEMES,
        matrix="schemes",
        jobs=1,
        minimize_findings=False,
    )
    summary = session.run(list(FUZZ_SMOKE_SEEDS), tuple(PROFILES.values()))
    problems = len(summary.findings) + len(summary.failures)
    if problems == 0:
        return (
            f"clean ({summary.programs} programs x "
            f"{len(FUZZ_SMOKE_SCHEMES)} schemes, {summary.elapsed:.1f}s)",
            0,
        )
    first = (
        summary.findings[0].summary()
        if summary.findings
        else f"{summary.failures[0].error_type}: {summary.failures[0].message}"
    )
    return (
        f"{problems} problem(s) — run `repro fuzz` for details "
        f"(first: {first})",
        problems,
    )


#: Chaos smoke shape: one benchmark, two schemes, short runs — enough to
#: drive the store/ledger/retry machinery through real faults without
#: stretching the doctor past a few seconds.
CHAOS_SMOKE_SEED = 7
CHAOS_SMOKE_BENCHMARKS: Tuple[str, ...] = ("hmmer",)
CHAOS_SMOKE_SCHEMES: Tuple[str, ...] = ("unsafe", "dom+ap")


def _chaos_smoke() -> Tuple[str, int]:
    """Tiny sweep-under-faults differential; ``(status_line, count)``.

    Runs a two-job figure6 sweep under a seeded fault plan (crashes, torn
    and corrupted cache writes, disk-full, a mid-wave interrupt) and
    checks the battered run converges to results bit-identical to a
    fault-free reference, with every injected corruption quarantined.
    """
    from repro.common.errors import ReproError
    from repro.harness.chaos import run_chaos_check

    try:
        report = run_chaos_check(
            seed=CHAOS_SMOKE_SEED,
            benchmarks=CHAOS_SMOKE_BENCHMARKS,
            schemes=CHAOS_SMOKE_SCHEMES,
            warmup=200,
            measure=600,
            jobs=2,
            job_timeout=10.0,
            retries=2,
        )
    except ReproError as error:
        return (f"infrastructure failure: {error}", 1)
    if report.ok:
        injected = sum(report.injected.values())
        return (
            f"clean ({report.pairs} runs, {injected} faults injected, "
            f"{report.quarantined} quarantined, {report.resumes} "
            f"resume(s), {report.elapsed:.1f}s)",
            0,
        )
    problems = len(report.problems) or 1
    first = (
        report.problems[0]
        if report.problems
        else "results diverged from the fault-free run"
    )
    return (
        f"{problems} problem(s) — run `repro chaos --seed "
        f"{CHAOS_SMOKE_SEED}` for details (first: {first})",
        problems,
    )


#: Specflow smoke shape: three corpus gadgets (the headline attack, the
#: paper's hardest fig4 variant, and the all-safe control) against the
#: unprotected baseline, a delay-based defense, and the doppelganger
#: configuration — enough cells to catch a broken verdict on either the
#: static or the dynamic side in well under a second per cell.
SPECFLOW_SMOKE_GADGETS: Tuple[str, ...] = (
    "spectre_v1",
    "fig4b_register_secret",
    "store_forward_probe",
)
SPECFLOW_SMOKE_SCHEMES: Tuple[str, ...] = ("unsafe", "nda", "dom+ap")


def _specflow_smoke() -> Tuple[str, int]:
    """Tiny static-vs-dynamic leakage differential; ``(status_line, count)``.

    Analyzes a three-gadget corpus cut with the specflow static analyzer
    and replays each cell through the dynamic noninterference oracle,
    checking the pinned verdicts on both sides plus the soundness
    inclusion (static ``safe`` must imply dynamically clean).
    """
    from repro.analysis.specflow.differential import run_differential
    from repro.common.errors import ReproError

    try:
        report = run_differential(
            fuzz_seeds=0,
            schemes=list(SPECFLOW_SMOKE_SCHEMES),
            gadgets=list(SPECFLOW_SMOKE_GADGETS),
        )
    except ReproError as error:
        return (f"infrastructure failure: {error}", 1)
    if report.ok:
        return (
            f"clean ({report.corpus_cells} cells, "
            f"{len(SPECFLOW_SMOKE_GADGETS)} gadgets x "
            f"{len(SPECFLOW_SMOKE_SCHEMES)} schemes, "
            f"{report.unknown_cells} unknown)",
            0,
        )
    problems = len(report.disagreements)
    first = report.disagreements[0].render()
    return (
        f"{problems} disagreement(s) — run `repro specflow` for details "
        f"(first: {first})",
        problems,
    )


def run_doctor(
    schemes: Tuple[str, ...] = SCHEME_LABELS,
    instructions: int = 4000,
    config: Optional[SystemConfig] = None,
    lint_preflight: bool = True,
    fuzz_smoke: bool = True,
    chaos_smoke: bool = True,
    specflow_smoke: bool = True,
) -> DoctorReport:
    """Run the smoke program under every scheme with full guardrails.

    ``lint_preflight`` additionally self-lints the installed package
    (reprolint with the packaged baseline) before simulating; findings
    fail the report just like invariant violations.  ``fuzz_smoke`` adds
    a small differential fuzz pass (a few seeds, two schemes) checking
    architectural equivalence end to end.  ``chaos_smoke`` runs a tiny
    sweep under injected faults and requires bit-identical convergence.
    ``specflow_smoke`` cross-checks the static leakage analyzer against
    the dynamic noninterference oracle on a corpus cut.
    """
    from repro.pipeline.core import Core

    lint_status, lint_findings = ("skipped", 0)
    if lint_preflight:
        lint_status, lint_findings = _lint_preflight()

    fuzz_status, fuzz_findings = ("skipped", 0)
    if fuzz_smoke:
        fuzz_status, fuzz_findings = _fuzz_smoke()

    chaos_status, chaos_findings = ("skipped", 0)
    if chaos_smoke:
        chaos_status, chaos_findings = _chaos_smoke()

    specflow_status, specflow_findings = ("skipped", 0)
    if specflow_smoke:
        specflow_status, specflow_findings = _specflow_smoke()

    base = config if config is not None else small_config()
    cfg = base.with_overrides(guardrails=GuardrailConfig(level="full"))
    rows: List[SchemeReport] = []
    for name in schemes:
        core = Core(smoke_program(), make_scheme(name), config=cfg)
        report = SchemeReport(scheme=name, classes={c: "ok" for c in INVARIANT_CLASSES})
        if core.engine is None:
            report.classes["doppelganger"] = "n/a"
        try:
            core.run(max_instructions=instructions)
        except InvariantViolationError as error:
            report.classes[error.invariant] = "FAIL"
            report.error = str(error)
        except DeadlockError as error:
            report.error = f"watchdog: {error}"
        except ReproError as error:  # pragma: no cover - unexpected
            report.error = str(error)
        else:
            # Belt and braces: one final full audit on the end state.
            for cls, problems in InvariantChecker(core).audit().items():
                if problems:
                    report.classes[cls] = "FAIL"
                    report.error = problems[0]
        rows.append(report)
    return DoctorReport(
        rows=rows,
        instructions=instructions,
        lint_status=lint_status,
        lint_findings=lint_findings,
        fuzz_status=fuzz_status,
        fuzz_findings=fuzz_findings,
        chaos_status=chaos_status,
        chaos_findings=chaos_findings,
        specflow_status=specflow_status,
        specflow_findings=specflow_findings,
    )
