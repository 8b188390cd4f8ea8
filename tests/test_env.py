"""The shared boolean env-knob helper (and the knob that consumes it).

``REPRO_BENCH_SMOKE=true`` used to be silently ignored because the knob
was compared against the literal string ``"1"``; these tests pin the
helper's vocabulary (``1/true/yes/on`` vs ``0/false/no/off``, unset, and
loud failure on junk).
"""

import pytest

from repro.env import env_flag

VAR = "REPRO_TEST_KNOB"


@pytest.mark.parametrize("value", ["1", "true", "yes", "on", "TRUE", " Yes ", "On"])
def test_env_flag_truthy(monkeypatch, value):
    monkeypatch.setenv(VAR, value)
    assert env_flag(VAR) is True
    assert env_flag(VAR, default=False) is True


@pytest.mark.parametrize("value", ["0", "false", "no", "off", "FALSE", " No "])
def test_env_flag_falsy(monkeypatch, value):
    monkeypatch.setenv(VAR, value)
    assert env_flag(VAR) is False
    assert env_flag(VAR, default=True) is False


@pytest.mark.parametrize("default", [False, True])
def test_env_flag_unset_and_empty_use_default(monkeypatch, default):
    monkeypatch.delenv(VAR, raising=False)
    assert env_flag(VAR, default=default) is default
    monkeypatch.setenv(VAR, "   ")
    assert env_flag(VAR, default=default) is default


def test_env_flag_rejects_junk(monkeypatch):
    monkeypatch.setenv(VAR, "maybe")
    with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
        env_flag(VAR)


# --- the knob wired through the helper ----------------------------------

def test_bench_smoke_accepts_word_forms(monkeypatch):
    # The original bug: REPRO_BENCH_SMOKE=true was silently ignored.
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "true")
    assert env_flag("REPRO_BENCH_SMOKE") is True
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "0")
    assert env_flag("REPRO_BENCH_SMOKE") is False
