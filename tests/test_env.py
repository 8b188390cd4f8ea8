"""The shared env-knob helpers (and the knobs that consume them).

``REPRO_BENCH_SMOKE=true`` used to be silently ignored because the knob
was compared against the literal string ``"1"``; these tests pin the
helper's vocabulary (``1/true/yes/on`` vs ``0/false/no/off``, unset, and
loud failure on junk) and that the name-valued executor/backend knobs
tolerate padding and capitalization.
"""

import pytest

from repro.env import env_flag, env_int, env_name

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


def test_env_name_normalizes(monkeypatch):
    monkeypatch.setenv(VAR, "  NumPy ")
    assert env_name(VAR, "pure") == "numpy"
    monkeypatch.setenv(VAR, "")
    assert env_name(VAR, "pure") == "pure"
    monkeypatch.delenv(VAR)
    assert env_name(VAR, "pure") == "pure"


def test_env_int(monkeypatch):
    monkeypatch.setenv(VAR, " 4 ")
    assert env_int(VAR) == 4
    monkeypatch.setenv(VAR, "")
    assert env_int(VAR, 2) == 2
    monkeypatch.delenv(VAR)
    assert env_int(VAR, 3) == 3
    monkeypatch.setenv(VAR, "four")
    with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
        env_int(VAR)


# --- the knobs wired through the helpers --------------------------------

def test_executor_env_tolerates_padding(monkeypatch):
    from repro.mpc.executor import ProcessExecutor, get_executor

    monkeypatch.setenv("REPRO_EXECUTOR", " Process ")
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", " 2 ")
    resolved = get_executor()
    assert isinstance(resolved, ProcessExecutor)
    assert resolved.workers == 2


def test_backend_envs_tolerate_padding(monkeypatch):
    from repro.mpc.backend import PureEngineBackend, get_engine_backend
    from repro.primitives.columnar import primitive_path

    monkeypatch.setenv("REPRO_ENGINE_BACKEND", " pure\t")
    assert isinstance(get_engine_backend(), PureEngineBackend)
    monkeypatch.setenv("REPRO_PRIMITIVE_PATH", " Object ")
    assert primitive_path() == "object"


def test_bench_smoke_accepts_word_forms(monkeypatch):
    # The original bug: REPRO_BENCH_SMOKE=true was silently ignored.
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "true")
    assert env_flag("REPRO_BENCH_SMOKE") is True
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "0")
    assert env_flag("REPRO_BENCH_SMOKE") is False
