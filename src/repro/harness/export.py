"""Export a sweep's raw counters as CSV (``repro sweep --csv``).

The figure objects (:mod:`repro.harness.experiments`) render fixed-width
text for terminals; downstream users usually want the counters as data.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from repro.common.stats import RunResult


def sweep_to_csv(results: Sequence[RunResult]) -> str:
    """A sweep as CSV: labels, windows, then every raw counter."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if not results:
        return ""
    counter_names = sorted(results[0].stats.as_dict())
    writer.writerow(["benchmark", "scheme", "warmup", "measure", *counter_names])
    for result in results:
        stats = result.stats.as_dict()
        writer.writerow(
            [
                result.benchmark,
                result.scheme,
                result.metadata.get("warmup", ""),
                result.metadata.get("measure", ""),
                *(stats[name] for name in counter_names),
            ]
        )
    return buffer.getvalue()
