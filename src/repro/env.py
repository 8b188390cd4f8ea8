"""Shared parsing for ``REPRO_*`` environment knobs.

Every knob used to be read ad hoc — boolean switches with a strict
``== "1"`` comparison (so ``REPRO_BENCH_SMOKE=true`` was silently
ignored), name-valued switches with bare ``os.environ.get`` (so a
trailing space or ``NumPy`` capitalization produced an "unknown backend"
error).  These two helpers are the single place knob strings become
Python values:

* :func:`env_flag` — boolean switches (``REPRO_BENCH_SMOKE``).  Accepts
  ``1/true/yes/on`` and ``0/false/no/off`` case-insensitively; anything
  else raises so a typo fails loudly instead of silently disabling the
  knob.
* :func:`env_name` — name-valued switches (``REPRO_PRIMITIVE_PATH``).
  Strips and lowercases; empty values fall back to the default so
  ``REPRO_PRIMITIVE_PATH= python ...`` behaves like unset.  Validation
  against the accepted names stays with the caller, whose error messages
  name the knob's actual vocabulary.
"""

from __future__ import annotations

import os

__all__ = ["env_flag", "env_name"]

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


def env_name(name: str, default: str) -> str:
    """Read name-valued knob *name*, normalized with strip + lowercase.
    Unset or empty returns *default* (already assumed normalized)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    return value if value else default
