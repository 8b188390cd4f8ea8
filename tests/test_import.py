"""Importing ``repro`` keeps numpy's OpenBLAS to one thread: no ``repro``
code calls BLAS, so its worker threads would only burn CPU.  A thread
count the user sets is kept."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
TASKS = "/proc/self/task"

#: Prints the setting ``import repro`` leaves and the process's threads.
PROBE = (
    "import os, repro; "
    f"tasks = os.listdir({TASKS!r}) if os.path.isdir({TASKS!r}) else []; "
    "print(os.environ['OPENBLAS_NUM_THREADS'], len(tasks))"
)


def import_repro(**env: str) -> tuple[str, int]:
    """``(OPENBLAS_NUM_THREADS, OS threads)`` after ``import repro`` in a
    fresh interpreter whose environment adds *env*."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=environ, capture_output=True,
        text=True, check=True,
    )
    value, threads = out.stdout.split()
    return value, int(threads)


@pytest.mark.skipif(not os.path.isdir(TASKS), reason="counts threads in /proc (Linux)")
def test_import_runs_one_thread():
    assert import_repro() == ("1", 1)


def test_a_preset_blas_thread_count_is_kept():
    assert import_repro(OPENBLAS_NUM_THREADS="2")[0] == "2"
