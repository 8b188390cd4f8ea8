"""The ``repro serve`` daemon: JSONL over stdio or a TCP socket.

Stdio mode (the default) reads one request per line from stdin and
writes one response per line to stdout — trivially scriptable and what
the CI serve-smoke job drives.  ``--listen HOST:PORT`` serves the same
protocol over TCP, one client at a time (the service is single-writer
by design; queries are cheap, so sequential sessions are the honest
model, not a concurrency bottleneck to hide).

Either way the daemon can be pre-initialized from CLI flags (``--n``
...) so clients can skip the ``init`` op.
"""

from __future__ import annotations

import logging
import socket
import sys
from typing import IO

from .protocol import ServeSession
from .service import GraphService, ServeConfig

__all__ = ["build_session", "serve_stdio", "serve_tcp", "run_daemon"]

logger = logging.getLogger(__name__)


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


def _serve_lines(session: ServeSession, lines: IO[str], out: IO[str]) -> None:
    """Answer every request line until the input ends or a ``shutdown``."""
    for line in lines:
        if not line.strip():
            continue
        out.write(session.handle_line(line) + "\n")
        out.flush()
        if session.closed:
            break


def serve_stdio(session: ServeSession, stdin: IO[str], stdout: IO[str]) -> int:
    _serve_lines(session, stdin, stdout)
    return 0


def serve_tcp(session: ServeSession, host: str, port: int,
              ready: IO[str] | None = None) -> int:
    """Serve clients one connection at a time until a ``shutdown`` op.

    A client that sends bytes that are not UTF-8, or hangs up while its
    replies are still being written, ends its own connection only: the
    server goes back to accepting the next client.
    """
    with socket.create_server((host, port)) as server:
        if ready is not None:
            # Announce the bound port (port 0 => ephemeral) for test drivers.
            ready.write(f"listening {server.getsockname()[1]}\n")
            ready.flush()
        while not session.closed:
            conn, _ = server.accept()
            try:
                with conn, conn.makefile("rw", encoding="utf-8") as stream:
                    _serve_lines(session, stream, stream)
            except (OSError, UnicodeDecodeError) as exc:
                logger.warning("dropped a client connection: %s", exc)
    return 0


def run_daemon(args, session: ServeSession) -> int:
    """Serve *session* over ``args.listen`` (a ``(host, port)`` pair) or,
    when that is unset, over stdio."""
    if args.listen:
        host, port = args.listen
        return serve_tcp(session, host, port, ready=sys.stdout)
    return serve_stdio(session, sys.stdin, sys.stdout)
