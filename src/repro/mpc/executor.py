"""Executor seam: where per-machine local compute runs.

The simulated cluster used to run every machine's local compute serially
in the coordinator process, so a "round" cost wall-clock proportional to
the number of machines even though the model's whole point is that
machines work in parallel.  This module is the seam that fixes it:

* :class:`SerialExecutor` (the default) runs every *local step* inline —
  the historical behavior, bit for bit.
* :class:`ProcessExecutor` ships shippable steps to a process pool, one
  task per machine shard, and reassembles results in machine order.

A **local step** is a registered pure function over one machine's shard
of data (typically that machine's dataset columns): the primitives
declare their hot per-machine loops with the :func:`local_step` decorator
and run them through :meth:`Cluster.run_local_steps`.  Steps are
addressed *by name* across the process boundary (workers re-import the
defining module and look the kernel up in the registry — closures never
cross; the same resolve-by-name idiom as ``ParallelRunner``).  Steps
whose payloads carry user callables or :class:`~repro.mpc.machine.
Machine` objects register ``ships=False`` and always run inline, on
every executor — the shipping decision is static per kernel, never
data-dependent, so executor choice cannot change which code runs.

Ledger equivalence is **by construction**: executors only ever run pure
functions over per-machine payloads and return results in machine order;
all accounting (words, rounds, memory checkpoints, throttle estimator
feeds) stays derived from plans on the coordinator, never from worker
timing.  A determinism test suite and a CI leg pin artifacts byte-equal
across ``serial``/``process``.

Selection: ``ModelConfig.with_executor("serial"
| "process", workers=N)`` per cluster, the ``REPRO_EXECUTOR`` /
``REPRO_EXECUTOR_WORKERS`` environment variables as the ambient default,
and :func:`forced_executor` for tests and benchmarks.  Nested
parallelism is guarded: inside any worker process spawned by this module
or by ``ParallelRunner`` (``bench --jobs N``), :func:`get_executor`
always returns a :class:`SerialExecutor` — ``--jobs`` takes precedence
over ``--executor``, so a pool of scenario workers never forks a second
pool per worker.
"""

from __future__ import annotations

import atexit
import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Sequence

from ..env import env_int, env_name

__all__ = [
    "LocalStep",
    "local_step",
    "resolve_step",
    "SerialExecutor",
    "ProcessExecutor",
    "shutdown_pools",
    "get_executor",
    "available_executors",
    "forced_executor",
    "in_worker",
    "mark_worker_process",
]

_ENV_VAR = "REPRO_EXECUTOR"
_ENV_WORKERS = "REPRO_EXECUTOR_WORKERS"

#: Forced override installed by :func:`forced_executor` (name, workers).
_FORCED: tuple[str, int] | None = None

#: Set in pool workers (by this module's pools and by ``ParallelRunner``)
#: so nested `get_executor` calls degrade to serial instead of forking a
#: pool inside a pool.
_IN_WORKER = False


def mark_worker_process() -> None:
    """Flag this process as a pool worker (used as a pool *initializer*).

    Any :func:`get_executor` call made after this — e.g. by a Cluster
    constructed inside a ``ParallelRunner`` scenario point — resolves to
    a :class:`SerialExecutor` regardless of config, environment or
    forced override.
    """
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """Whether this process is a pool worker (nested-parallelism guard)."""
    return _IN_WORKER


# ----------------------------------------------------------------------
# The local-step registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LocalStep:
    """One registered per-machine kernel.

    ``ships`` is a static property of the kernel: ``True`` only when its
    payloads and results are plain data (arrays, tuples, scalars) that
    pickle exactly.  ``module`` records where the kernel is defined so a
    spawned worker can import it before resolving by name.
    """

    name: str
    fn: Callable[[Any], Any]
    ships: bool
    module: str


_REGISTRY: dict[str, LocalStep] = {}


def local_step(name: str, *, ships: bool = True) -> Callable[[Callable], Callable]:
    """Register a module-level function as a named local step.

    The function must take exactly one *payload* argument (one machine's
    shard) and be pure — executors may run it inline, in any worker, or
    twice after a pool failure.  Re-registering a name from the same
    module replaces the entry (module reloads); a clash across modules
    raises.
    """

    def register(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.module != fn.__module__:
            raise ValueError(
                f"local step {name!r} already registered by {existing.module}"
            )
        _REGISTRY[name] = LocalStep(
            name=name, fn=fn, ships=ships, module=fn.__module__
        )
        return fn

    return register


def resolve_step(name: str, module: str | None = None) -> LocalStep:
    """Look a step up by name, importing *module* first if needed.

    The import path is what makes resolve-by-name work under the
    ``spawn`` start method, where workers begin with an empty registry.
    """
    step = _REGISTRY.get(name)
    if step is None and module is not None:
        importlib.import_module(module)
        step = _REGISTRY.get(name)
    if step is None:
        raise KeyError(f"unknown local step {name!r}")
    return step


def _invoke(module: str, name: str, payload: Any) -> Any:
    """Pool-side entry point: resolve the kernel and run one payload."""
    return resolve_step(name, module=module).fn(payload)


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class SerialExecutor:
    """Runs every local step inline in the coordinator process."""

    name = "serial"
    workers = 1

    def map_steps(self, step: str, payloads: Sequence[Any]) -> list[Any]:
        """Apply step *step* to each payload, in order."""
        fn = resolve_step(step).fn
        return [fn(payload) for payload in payloads]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


#: Shared pools, keyed by worker count — process startup is amortized
#: across every cluster and every step of a run.
_POOLS: dict[int, ProcessPoolExecutor] = {}

#: Set when pool creation failed (sandboxes without working
#: multiprocessing); all process executors then degrade to inline.
_POOL_UNAVAILABLE = False


def _shared_pool(workers: int) -> ProcessPoolExecutor | None:
    global _POOL_UNAVAILABLE
    if _POOL_UNAVAILABLE:
        return None
    pool = _POOLS.get(workers)
    if pool is None:
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=mark_worker_process
            )
        except (OSError, ValueError, RuntimeError):  # pragma: no cover
            _POOL_UNAVAILABLE = True
            return None
        _POOLS[workers] = pool
    return pool


def shutdown_pools(wait: bool = False) -> None:
    """Reap every shared worker pool now (idempotent).

    The pools are process-lifetime caches: without this call they are
    only torn down by the ``atexit`` hook, which is fine for a benchmark
    run but leaks worker processes across reconfigurations of a
    long-lived daemon.  ``repro serve`` teardown and the benchmark
    epilogues call this explicitly; the next :class:`ProcessExecutor`
    dispatch after a shutdown builds a fresh pool, so shutting down
    eagerly is always safe.  Also resets the pool-unavailable latch, so
    a sandbox that temporarily failed pool creation gets retried.
    """
    global _POOL_UNAVAILABLE
    for pool in _POOLS.values():
        pool.shutdown(wait=wait, cancel_futures=True)
    _POOLS.clear()
    _POOL_UNAVAILABLE = False


atexit.register(shutdown_pools)


class ProcessExecutor:
    """Ships shippable local steps to a process pool.

    One pool task per machine shard; results come back in machine order
    (``Executor.map`` preserves it), so reassembly on the coordinator is
    order-identical to the serial loop.  Non-shippable steps, single
    payloads, and any call made from inside a pool worker run inline.
    A broken pool (a worker killed mid-step) falls back to inline for
    that call and rebuilds the pool on the next — kernels are pure, so
    re-running them is safe.
    """

    name = "process"

    def __init__(self, workers: int = 0) -> None:
        if workers <= 0:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))

    def map_steps(self, step: str, payloads: Sequence[Any]) -> list[Any]:
        """Apply step *step* to each payload, in order."""
        resolved = resolve_step(step)
        payloads = list(payloads)
        if (
            not resolved.ships
            or in_worker()
            or self.workers <= 1
            or len(payloads) <= 1
        ):
            return [resolved.fn(payload) for payload in payloads]
        pool = _shared_pool(self.workers)
        if pool is None:
            return [resolved.fn(payload) for payload in payloads]
        task = partial(_invoke, resolved.module, resolved.name)
        chunksize = max(1, len(payloads) // (self.workers * 4))
        try:
            return list(pool.map(task, payloads, chunksize=chunksize))
        except BrokenProcessPool:  # pragma: no cover - rare pool failure
            _POOLS.pop(self.workers, None)
            return [resolved.fn(payload) for payload in payloads]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessExecutor(workers={self.workers})"


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def available_executors() -> tuple[str, ...]:
    """Names accepted by :func:`get_executor`."""
    return ("serial", "process")


def get_executor(
    spec: object = None, workers: int = 0
) -> SerialExecutor | ProcessExecutor:
    """Resolve *spec* to an executor instance.

    Accepts an existing executor (returned as is), a name (``"serial"``
    or ``"process"``), or ``None`` — which consults the
    :func:`forced_executor` override, then ``REPRO_EXECUTOR``, then the
    serial default.  ``workers`` (or ``REPRO_EXECUTOR_WORKERS``) sizes
    the process pool; 0 means one worker per CPU.

    Inside a pool worker every resolution returns a
    :class:`SerialExecutor` — the nested-parallelism guard that gives
    ``bench --jobs N`` precedence over ``--executor``.
    """
    if in_worker():
        return SerialExecutor()
    if isinstance(spec, (SerialExecutor, ProcessExecutor)):
        return spec
    if spec is None:
        if _FORCED is not None:
            spec, forced_workers = _FORCED
            if workers <= 0:
                workers = forced_workers
        else:
            spec = env_name(_ENV_VAR, "serial")
    if workers <= 0:
        workers = env_int(_ENV_WORKERS, 0)
    name = str(spec).lower()
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(workers)
    raise ValueError(
        f"unknown executor {spec!r} (expected 'serial' or 'process')"
    )


@contextmanager
def forced_executor(spec: str, workers: int = 0) -> Iterator[None]:
    """Force the default executor for a ``with`` block (tests/benchmarks).

    Overrides the environment for every ``get_executor(None)`` resolution
    inside the block; explicit config choices and the in-worker guard
    still win.
    """
    if spec not in available_executors():
        raise ValueError(
            f"unknown executor {spec!r} (expected 'serial' or 'process')"
        )
    global _FORCED
    previous = _FORCED
    _FORCED = (spec, workers)
    try:
        yield
    finally:
        _FORCED = previous
