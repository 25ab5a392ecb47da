#!/usr/bin/env python3
"""Watch a Doppelganger Load work, cycle by cycle.

Attaches the pipeline tracer to a short strided-load run under DoM+AP and
prints the instruction timeline: you can see doppelganger-covered loads
(marked ``*``) complete long before their plain-DoM counterparts would,
and wrong-path instructions end in ``X`` instead of ``R``.

Run:  python examples/tracing_demo.py
"""

from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.trace import PipelineTracer
from repro.workloads import build_workload


def trace(scheme: str, instructions: int = 240) -> PipelineTracer:
    core = Core(build_workload("libquantum"), make_scheme(scheme))
    tracer = PipelineTracer()
    core.observer = tracer
    core.run(max_instructions=instructions)
    return tracer


def main() -> None:
    for scheme in ("dom", "dom+ap"):
        tracer = trace(scheme)
        print(f"=== {scheme} ===")
        print(tracer.render_summary())
        records = tracer.records()
        first = max(0, len(records) - 28)
        print(tracer.render_timeline(first=first, count=28, width=70))
        print()
    print(
        "Loads marked '*' had a doppelganger issued; compare the distance "
        "between their D (dispatch) and C (complete) marks under dom vs "
        "dom+ap — the doppelganger's early, address-predicted access is "
        "what closes the gap."
    )


if __name__ == "__main__":
    main()
