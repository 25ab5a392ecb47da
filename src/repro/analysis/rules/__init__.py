"""Rule modules; importing this package populates the rule registry."""

from repro.analysis.rules import (  # noqa: F401  (imported for side effects)
    atomic_io,
    determinism,
    fingerprint,
    hot_path,
    hygiene,
    layering,
    typed_errors,
    worker_safety,
)
