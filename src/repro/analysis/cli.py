"""The ``repro lint`` subcommand implementation.

:mod:`repro.cli` declares the subcommand's options and imports this
module only to run it, so that parsing any command line loads no lint
machinery.

Exit codes: 0 clean (after baseline + suppressions), 1 findings,
2 usage error (unknown rule id, missing path, unreadable baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.common.errors import LintError, LintUsageError

#: Exit codes (also documented in ``repro lint --help``).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint``; returns the process exit code."""
    from repro.analysis.baseline import (
        PACKAGED_BASELINE,
        Baseline,
        write_baseline,
    )
    from repro.analysis.engine import LintRunner
    from repro.analysis.registry import all_rules
    from repro.analysis.reporters import render_json, render_text

    try:
        if args.list_rules:
            for rule_id, rule in sorted(all_rules().items()):
                print(f"{rule_id}  {rule.name}")
                print(f"    {rule.rationale}")
            return EXIT_CLEAN

        paths = args.paths or [_default_target()]
        baseline = _load_baseline(args, Baseline, PACKAGED_BASELINE)
        runner = LintRunner(
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            baseline=baseline,
        )
        report = runner.run(paths)

        if args.update_baseline:
            target = Path(args.baseline) if args.baseline else PACKAGED_BASELINE
            count = write_baseline(target, report.all_findings(), baseline)
            print(f"baseline rewritten: {count} entr(y/ies) -> {target}")
            return EXIT_CLEAN

        output = render_json(report) if args.format == "json" else render_text(report)
        print(output)
        return report.exit_code
    except LintUsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except LintError as error:
        print(f"lint error: {error}", file=sys.stderr)
        return EXIT_USAGE


def _default_target() -> str:
    import repro

    return str(Path(repro.__file__).resolve().parent)


def _load_baseline(args, baseline_cls, packaged: Path):
    if args.no_baseline:
        return baseline_cls()
    if args.baseline is not None:
        path = Path(args.baseline)
        if not path.exists():
            if args.update_baseline:
                return baseline_cls(source=str(path))
            raise LintUsageError(f"baseline file not found: {path}")
        return baseline_cls.load(path)
    if packaged.exists():
        return baseline_cls.load(packaged)
    return baseline_cls()


def _split_ids(raw: Optional[str]) -> List[str]:
    if not raw:
        return []
    return [part.strip().upper() for part in raw.split(",") if part.strip()]
