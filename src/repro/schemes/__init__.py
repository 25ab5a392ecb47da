"""Secure speculation schemes (unsafe baseline, NDA-P, STT, DoM, DoM+VP)
and the label registry every list of scheme labels is built from."""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.common.errors import ConfigError
from repro.schemes.base import SecureScheme
from repro.schemes.dom import DelayOnMiss
from repro.schemes.dom_vp import DoMValuePrediction
from repro.schemes.nda import NDAPermissive
from repro.schemes.stt import STT
from repro.schemes.unsafe import UnsafeBaseline

SCHEME_CLASSES: Dict[str, Type[SecureScheme]] = {
    "unsafe": UnsafeBaseline,
    "nda": NDAPermissive,
    "stt": STT,
    "dom": DelayOnMiss,
    "dom+vp": DoMValuePrediction,
}

SCHEME_NAMES = tuple(SCHEME_CLASSES)

#: Every label :func:`make_scheme` builds: each scheme, then the ``+ap``
#: form of each scheme that supports address prediction.
SCHEME_LABELS: Tuple[str, ...] = SCHEME_NAMES + tuple(
    name + "+ap" for name, cls in SCHEME_CLASSES.items()
    if cls.supports_address_prediction
)


def parse_label(label: str) -> Tuple[str, bool]:
    """Split a scheme label into its key and whether it asks for address
    prediction: ``" DOM+AP "`` gives ``("dom", True)``.  The key is not
    checked against :data:`SCHEME_CLASSES`."""
    key = label.lower().strip()
    if key.endswith("+ap"):
        return key[: -len("+ap")], True
    return key, False


def make_scheme(name: str, address_prediction: bool = False) -> SecureScheme:
    """Build a scheme from a label in :data:`SCHEME_LABELS`.

    A trailing ``+ap`` is shorthand for ``address_prediction=True``, e.g.
    ``make_scheme("dom+ap")``.
    """
    key, suffixed = parse_label(name)
    if key not in SCHEME_CLASSES:
        raise ConfigError(
            f"unknown scheme {name!r}; expected one of {sorted(SCHEME_CLASSES)}"
        )
    return SCHEME_CLASSES[key](address_prediction=address_prediction or suffixed)


__all__ = [
    "DelayOnMiss",
    "DoMValuePrediction",
    "NDAPermissive",
    "SCHEME_CLASSES",
    "SCHEME_LABELS",
    "SCHEME_NAMES",
    "STT",
    "SecureScheme",
    "UnsafeBaseline",
    "make_scheme",
    "parse_label",
]
