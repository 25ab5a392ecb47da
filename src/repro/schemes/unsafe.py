"""The unsafe baseline: a conventional out-of-order core.

No restriction on speculation — speculatively loaded values propagate to
any dependent, including transmitters.  This is the processor Spectre
attacks work on, and the IPC baseline every figure normalizes against.
"""

from __future__ import annotations

from repro.schemes.base import SecureScheme


class UnsafeBaseline(SecureScheme):
    """Figure 1(a): forwards speculatively loaded values unconditionally."""

    name = "unsafe"
