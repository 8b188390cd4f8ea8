"""The ``repro serve`` daemon: JSONL over stdio or a TCP socket.

Stdio mode (the default) reads one request per line from stdin and
writes one response per line to stdout — trivially scriptable and what
the CI serve-smoke job drives.  ``--listen HOST:PORT`` serves the same
protocol over TCP, one client at a time (the service is single-writer
by design; queries are cheap, so sequential sessions are the honest
model, not a concurrency bottleneck to hide).

Either way the daemon can be pre-initialized from CLI flags (``--n``
...) so clients can skip the ``init`` op, and teardown always releases
the shared executor pools via :func:`repro.mpc.executor.shutdown_pools`
rather than leaving them to the atexit reaper.
"""

from __future__ import annotations

import socket
import sys
from typing import IO

from ..mpc.executor import shutdown_pools
from .protocol import ServeSession
from .service import GraphService, ServeConfig

__all__ = ["build_session", "serve_stdio", "serve_tcp", "run_daemon"]


def build_session(args) -> ServeSession:
    """Build a session, pre-initialized when ``--n`` was given."""
    service = None
    if getattr(args, "n", None) is not None:
        config = ServeConfig(
            n=args.n,
            seed=args.seed,
            copies=args.copies,
            shards=args.shards,
            max_weight=args.max_weight,
            epsilon=args.epsilon,
        )
        service = GraphService(config)
    return ServeSession(service)


def serve_stdio(session: ServeSession, stdin: IO[str], stdout: IO[str]) -> int:
    for line in stdin:
        if not line.strip():
            continue
        stdout.write(session.handle_line(line) + "\n")
        stdout.flush()
        if session.closed:
            break
    return 0


def serve_tcp(session: ServeSession, host: str, port: int,
              ready: IO[str] | None = None) -> int:
    with socket.create_server((host, port)) as server:
        if ready is not None:
            # Announce the bound port (port 0 => ephemeral) for test drivers.
            ready.write(f"listening {server.getsockname()[1]}\n")
            ready.flush()
        while not session.closed:
            conn, _ = server.accept()
            with conn, conn.makefile("rw", encoding="utf-8") as stream:
                for line in stream:
                    if not line.strip():
                        continue
                    stream.write(session.handle_line(line) + "\n")
                    stream.flush()
                    if session.closed:
                        break
    return 0


def run_daemon(args) -> int:
    session = build_session(args)
    try:
        if args.listen:
            host, _, port = args.listen.rpartition(":")
            return serve_tcp(session, host or "127.0.0.1", int(port),
                             ready=sys.stdout)
        return serve_stdio(session, sys.stdin, sys.stdout)
    finally:
        shutdown_pools()
