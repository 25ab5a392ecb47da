"""EXPERIMENTS.md quotes the figure outputs it cites.

The Figure 1 tables, the NDA-P+AP vs STT comparison under them and the
unsafe+AP geomean are copied from ``benchmarks/output/``.  A change that
moves a figure must commit the rewritten output (CI's ``figures-pinned``
job), and then this test fails until the document says the same.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "EXPERIMENTS.md"
OUTPUT = ROOT / "benchmarks" / "output"

#: The document's scheme names and the labels the output files use.
SCHEMES = {
    "NDA-P": "nda",
    "NDA-P+AP": "nda+ap",
    "STT": "stt",
    "STT+AP": "stt+ap",
    "DoM": "dom",
    "DoM+AP": "dom+ap",
}

#: label -> (measured, paper), as printed.
Table = Dict[str, Tuple[str, str]]


def output_tables() -> Tuple[Table, Table]:
    """Normalized performance and slowdown reduction from
    ``figure1_summary.txt``."""
    performance: Table = {}
    reduction: Table = {}
    table = performance
    for line in (OUTPUT / "figure1_summary.txt").read_text().splitlines():
        fields = line.split()
        if fields and fields[0] == "scheme":
            table = reduction if "slowdown" in fields else performance
        elif len(fields) == 3 and fields[0] in SCHEMES.values():
            table[fields[0]] = (fields[1], fields[2])
    return performance, reduction


def doc_section(heading: str) -> str:
    text = DOC.read_text()
    start = text.index(f"\n## {heading}")
    end = text.find("\n## ", start + 1)
    return text[start:end]


def doc_tables() -> Tuple[Table, Table]:
    """The two Markdown tables of the Figure 1 section, keyed by label."""
    performance: Table = {}
    reduction: Table = {}
    table = performance
    for line in doc_section("Figure 1").splitlines():
        if not line.startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[0] == "slowdown reduction":
            table = reduction
        elif cells[0] in SCHEMES and len(cells) == 3:
            paper, measured = cells[1], cells[2]
            table[SCHEMES[cells[0]]] = (measured, paper)
    return performance, reduction


def test_figure1_tables_match_the_output():
    doc_performance, doc_reduction = doc_tables()
    out_performance, out_reduction = output_tables()
    assert sorted(out_performance) == sorted(SCHEMES.values())
    assert doc_performance == out_performance
    assert sorted(out_reduction) == ["dom", "nda", "stt"]
    assert doc_reduction == out_reduction


def test_nda_ap_against_stt_quotes_the_output():
    performance, _ = output_tables()
    quoted = re.findall(
        r"measured (\d\.\d{3}) vs (\d\.\d{3})", doc_section("Figure 1")
    )
    assert quoted == [(performance["nda+ap"][0], performance["stt"][0])]


def test_unsafe_ap_geomean_matches_the_output():
    gain = None
    for line in (OUTPUT / "unsafe_ap_delta.txt").read_text().splitlines():
        if line.startswith("GMEAN gain"):
            gain = line.split()[-1].rstrip("%")
    assert gain is not None
    text = DOC.read_text()
    quoted = re.findall(r"measured \+(\S+)% geomean", text) + re.findall(
        r"geomean \+(\S+)% \(paper", text
    )
    assert len(quoted) == 2
    assert quoted == [gain, gain]
