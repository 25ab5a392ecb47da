#!/usr/bin/env python3
"""Regenerate every figure of the paper's evaluation in one run.

This is the script behind EXPERIMENTS.md and the same report as
``python -m repro figures``: it sweeps all benchmarks and schemes once
(memoized), regenerates Figures 1, 6, 7, and 8 plus the Unsafe+AP
ablation, and prints each alongside the paper's reference numbers.
Expect a few minutes with the default windows.

Run:  python examples/full_evaluation.py [--fast] [--jobs N] [--cache-dir DIR]
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["figures", *sys.argv[1:]]))
