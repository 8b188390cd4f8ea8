"""One sample of one workload, in a fresh process (started by ``run.py``).

Prints one JSON object on its last stdout line: the workload's raw
measurements, the resolved backends, and with ``--trace`` the per-layer
metrics (and with ``--spans`` the spans themselves).  The speed probe
starts before ``repro`` is imported, so ``setup_s`` includes the import.
``--setup-only`` stops once the inputs are ready and reports ``setup_s``
alone.
"""

from speed import SpeedProbe  # this directory's speed.py; stdlib only

PROBE = SpeedProbe()
PROBE.start()
STARTED = PROBE.mark()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402


def _environment() -> dict:
    """What the defaults resolved to in this process."""
    env = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        import numpy
        env["numpy"] = numpy.__version__
    except ImportError:
        env["numpy"] = None
    try:
        from repro.sketches.backend import get_backend
        env["sketch_backend"] = get_backend().name
    except ImportError:
        env["sketch_backend"] = None
    try:
        from repro.mpc.backend import get_engine_backend
        env["engine_backend"] = get_engine_backend().name
    except ImportError:
        env["engine_backend"] = None
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    tracer = None
    if args.trace:
        from trace import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out = workloads.WORKLOADS[args.workload](
            args.seed, args.quick, tracer, PROBE, STARTED, args.setup_only
        )
    finally:
        PROBE.stop()
        if tracer is not None:
            tracer.uninstall()
    out["slowdown"] = PROBE.slowdown()
    out["env"] = _environment()
    if tracer is not None:
        out["trace"] = tracer.metrics()
        if args.spans:
            out["spans"] = tracer.dump()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
