"""Differential fuzzing: generate, cross-check, minimize, replay.

The empirical counterpart to proof-based speculation safety: run seeded
random programs under a set of schemes (by default ``DEFAULT_FUZZ_SCHEMES``:
unsafe, nda, stt, dom, dom+ap and dom+vp) × idle_skip × guardrails and
demand identical architectural state everywhere, with the invariant
checker and watchdog silent throughout.

Layers (each importable on its own):

* :mod:`repro.fuzz.profiles` — knob-driven shape profiles.
* :mod:`repro.fuzz.generator` — (seed, profile) → terminating program.
* :mod:`repro.fuzz.differential` — the execution matrix and its oracle.
* :mod:`repro.fuzz.mutations` — injected scheme bugs for self-tests.
* :mod:`repro.fuzz.shrink` — delta-debugging minimizer.
* :mod:`repro.fuzz.corpus` — self-contained repro files / regression corpus.
* :mod:`repro.fuzz.session` — parallel campaigns over the job engine.
"""

from repro.fuzz.corpus import ReproFile, corpus_entries
from repro.fuzz.differential import (
    KIND_ARCH,
    KIND_CLEAN,
    KIND_ERROR,
    KIND_REFERENCE_LIMIT,
    KIND_STATS,
    MatrixReport,
    matrix_modes,
    run_matrix,
)
from repro.fuzz.generator import generate_program
from repro.fuzz.mutations import MUTATIONS, make_scheme_variant
from repro.fuzz.profiles import PROFILES, FuzzProfile, get_profile
from repro.fuzz.session import (
    DEFAULT_FUZZ_SCHEMES,
    Finding,
    FuzzJob,
    FuzzSession,
    FuzzSummary,
    execute_fuzz_job,
    replay_manifest,
)
from repro.fuzz.shrink import minimize

__all__ = [
    "DEFAULT_FUZZ_SCHEMES",
    "Finding",
    "FuzzJob",
    "FuzzProfile",
    "FuzzSession",
    "FuzzSummary",
    "KIND_ARCH",
    "KIND_CLEAN",
    "KIND_ERROR",
    "KIND_REFERENCE_LIMIT",
    "KIND_STATS",
    "MUTATIONS",
    "MatrixReport",
    "PROFILES",
    "ReproFile",
    "corpus_entries",
    "execute_fuzz_job",
    "generate_program",
    "get_profile",
    "make_scheme_variant",
    "matrix_modes",
    "minimize",
    "replay_manifest",
    "run_matrix",
]
