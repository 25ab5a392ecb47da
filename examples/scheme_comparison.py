#!/usr/bin/env python3
"""Compare the three secure speculation schemes across workload classes.

Runs a small representative slice of the suite — one streaming, one
pointer-chasing, one irregular-probing, and one compute-bound benchmark —
and prints normalized IPC, predictor quality, and the scheme-internal
counters that explain *why* each scheme wins or loses where it does
(DoM's delayed misses, NDA's locked propagations, STT's delayed
transmitters).

Run:  python examples/scheme_comparison.py
"""

from repro.harness import ParallelSession

BENCHMARKS = ("libquantum", "mcf", "xalancbmk_s", "exchange2_s")
SCHEMES = ("nda", "nda+ap", "stt", "stt+ap", "dom", "dom+ap")


def main() -> None:
    session = ParallelSession(warmup=3000, measure=12000, jobs=1)
    for name in BENCHMARKS:
        baseline = session.run(name, "unsafe")
        print(f"\n=== {name} (baseline IPC {baseline.ipc:.3f}) ===")
        print(
            f"{'scheme':<9}{'norm IPC':>9}{'cov':>7}{'acc':>7}"
            f"{'dom-delayed':>12}{'nda-locked':>11}{'stt-delayed':>12}"
        )
        print("-" * 67)
        for scheme in SCHEMES:
            result = session.run(name, scheme)
            stats = result.stats
            print(
                f"{scheme:<9}"
                f"{session.normalized_ipc(name, scheme):>9.3f}"
                f"{stats.coverage:>6.0%}{stats.accuracy:>7.0%}"
                f"{stats.dom_delayed_misses:>12}"
                f"{stats.delayed_propagations:>11}"
                f"{stats.delayed_transmitters:>12}"
            )
    print(
        "\nReading guide: libquantum shows DoM's delayed misses and their "
        "recovery; mcf's shuffled pointer chase gives the predictor "
        "nothing (coverage ~0, AP changes nothing); xalancbmk_s has "
        "confident-but-wrong predictions (low accuracy) so AP adds L1 "
        "traffic for little gain; exchange2_s barely touches memory, so "
        "every scheme is near-free."
    )


if __name__ == "__main__":
    main()
