"""Shared parsing for boolean ``REPRO_*`` environment knobs.

:func:`env_flag` is the one place a knob string becomes a Python bool.
It accepts ``1/true/yes/on`` and ``0/false/no/off`` case-insensitively,
and anything else raises, so a typo fails loudly instead of silently
disabling the knob (``REPRO_BENCH_SMOKE=true`` must not read as off).
"""

from __future__ import annotations

import os

__all__ = ["env_flag"]

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off", ""})


def env_flag(name: str, default: bool = False) -> bool:
    """Parse boolean knob *name*: ``1/true/yes/on`` vs ``0/false/no/off``
    (case-insensitive, whitespace-tolerant).  Unset or empty returns
    *default*; any other value raises ``ValueError``."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value == "":
        return default
    if value in _TRUTHY:
        return True
    if value in _FALSY:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a boolean "
        "(expected one of 1/true/yes/on or 0/false/no/off)"
    )

