"""The ``repro specflow`` subcommand implementation.

Kept separate from :mod:`repro.cli` so the top-level parser stays cheap
to import (mirrors :mod:`repro.analysis.cli` for ``repro lint``).

Exit codes (same contract as ``repro lint``): 0 — every analyzed cell
agrees (statically and, unless ``--static-only``, with the dynamic
oracle and the pinned corpus expectations); 1 — disagreements; 2 —
usage error (unknown gadget or scheme name).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.cli import scheme_labels
from repro.common.errors import ConfigError, SpecflowUsageError

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


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


def _check_schemes(
    labels: Optional[Tuple[str, ...]], known: List[str]
) -> Optional[Tuple[str, ...]]:
    if labels is None:
        return None
    if not labels:
        raise SpecflowUsageError("--schemes given but empty")
    for label in labels:
        if label not in known:
            raise SpecflowUsageError(
                f"unknown scheme label {label!r}; expected one of {known}"
            )
    return labels


def run_specflow(args: argparse.Namespace) -> int:
    """Execute ``repro specflow``; returns the process exit code."""
    from repro.attacks.corpus import CORPUS_BY_NAME, CORPUS_SCHEME_LABELS
    from repro.analysis.specflow.differential import run_differential

    try:
        if args.list_gadgets:
            for name in sorted(CORPUS_BY_NAME):
                print(name)
            return EXIT_CLEAN
        gadgets = args.gadget
        if gadgets is not None:
            for name in gadgets:
                if name not in CORPUS_BY_NAME:
                    raise SpecflowUsageError(
                        f"unknown corpus gadget {name!r}; expected one of "
                        f"{sorted(CORPUS_BY_NAME)}"
                    )
        schemes = _check_schemes(args.schemes, list(CORPUS_SCHEME_LABELS))
        if args.fuzz_seeds < 0:
            raise SpecflowUsageError("--fuzz-seeds must be >= 0")
        report = run_differential(
            fuzz_seeds=args.fuzz_seeds,
            seed_start=args.seed_start,
            schemes=schemes,
            gadgets=gadgets,
            static_only=args.static_only,
        )
    except SpecflowUsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return EXIT_USAGE

    payload = report.to_dict()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _render_text(report)
    return EXIT_CLEAN if report.ok else EXIT_FINDINGS


def _render_text(report) -> None:
    from repro.analysis.specflow.model import VERDICT_LEAK

    for program_report in report.static_reports:
        regions = ", ".join(
            f"[{start:#x},{end:#x})" for start, end in program_report.secret_regions
        )
        print(
            f"{program_report.program_name}: "
            f"windows={program_report.windows} "
            f"transmitters={program_report.transmitters} "
            f"secret={regions or '(none)'}"
        )
        for label, verdict in sorted(program_report.verdicts.items()):
            print(f"  {label:28s} {verdict.verdict:13s} {verdict.reason}")
            if verdict.verdict == VERDICT_LEAK:
                for leak in verdict.leaks[:1]:
                    for line in leak.render():
                        print(f"      {line}")
    total = report.corpus_cells + report.fuzz_cells
    print(
        f"\n{total} cell(s) checked "
        f"({report.corpus_cells} corpus, {report.fuzz_cells} fuzz), "
        f"{report.unknown_cells} unknown, "
        f"{len(report.disagreements)} disagreement(s)"
    )
    for problem in report.disagreements:
        print(f"  {problem.render()}")


__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "add_specflow_arguments",
    "run_specflow",
]
