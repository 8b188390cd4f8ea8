"""Daemon + client round-trips: stdio loop, subprocess spawn, and TCP."""

from __future__ import annotations

import io
import json
import os
import socket
import sys
import threading

import pytest

from repro.serve import ServeClient, ServeRemoteError, ServeSession
from repro.serve.daemon import serve_stdio, serve_tcp

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def run_stdio(lines: list[str], session: ServeSession | None = None) -> list[str]:
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    stdout = io.StringIO()
    serve_stdio(session or ServeSession(), stdin, stdout)
    return stdout.getvalue().splitlines()


def test_stdio_loop_skips_blank_lines_and_stops_on_shutdown():
    out = run_stdio([
        json.dumps({"op": "ping"}),
        "",
        "   ",
        json.dumps({"op": "init", "n": 6}),
        json.dumps({"op": "update", "insert": [[0, 1]]}),
        json.dumps({"op": "shutdown"}),
        json.dumps({"op": "ping"}),  # after shutdown: never answered
    ])
    assert len(out) == 4
    assert json.loads(out[-1])["result"] == {"stopped": True}


def test_stdio_stream_is_byte_deterministic():
    lines = [
        json.dumps({"op": "init", "n": 8, "seed": 5}),
        json.dumps({"op": "update", "insert": [[0, 1], [1, 2], [4, 5]]}),
        json.dumps({"op": "connected", "u": 0, "v": 2}),
        json.dumps({"op": "update", "delete": [[1, 2]]}),
        json.dumps({"op": "components", "labels": True}),
        json.dumps({"op": "shutdown"}),
    ]
    assert run_stdio(lines) == run_stdio(lines)


def test_spawned_daemon_round_trip():
    env = {"PYTHONPATH": REPO_SRC}
    with ServeClient.spawn(["--n", "10", "--seed", "2"], env=env) as client:
        assert client.ping()["initialized"] is True
        client.update(insert=[[0, 1], [1, 2], [5, 6]])
        assert client.connected(0, 2)
        assert not client.connected(0, 5)
        client.update(delete=[[1, 2]])
        assert not client.connected(0, 2)
        assert client.components()["num_components"] == 8
        stats = client.stats()
        assert stats["updates_applied"] == 4
        with pytest.raises(ServeRemoteError, match="universe"):
            client.connected(0, 99)
        assert client.shutdown() == {"stopped": True}


def test_spawned_daemon_init_op_and_mst():
    env = {"PYTHONPATH": REPO_SRC}
    with ServeClient.spawn(env=env) as client:
        assert client.ping()["initialized"] is False
        client.init(8, seed=1, max_weight=4)
        client.update(insert=[[0, 1, 2], [1, 2, 4]])
        result = client.mst_weight()
        assert result["thresholds"][0] == 1
        assert result["estimate"] >= 0
        client.shutdown()


def test_tcp_round_trip():
    session = ServeSession()
    ready_r, ready_w = socket.socketpair()
    announce = ready_w.makefile("w")

    thread = threading.Thread(
        target=serve_tcp, args=(session, "127.0.0.1", 0),
        kwargs={"ready": announce}, daemon=True,
    )
    thread.start()
    with ready_r.makefile("r") as lines:
        port = int(lines.readline().split()[1])
    ready_r.close()
    ready_w.close()

    with ServeClient.connect("127.0.0.1", port) as client:
        client.init(6, seed=0)
        client.update(insert=[[0, 1], [2, 3]])
        assert client.connected(0, 1)
        assert not client.connected(1, 2)

    # A second connection reaches the same live service state.
    with ServeClient.connect("127.0.0.1", port) as client:
        assert client.stats()["edges"] == 2
        client.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_cli_serve_stdio(monkeypatch, capsys):
    from repro.cli import main

    stdin = io.StringIO(
        json.dumps({"op": "update", "insert": [[0, 1]]}) + "\n"
        + json.dumps({"op": "connected", "u": 0, "v": 1}) + "\n"
        + json.dumps({"op": "shutdown"}) + "\n"
    )
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["serve", "--n", "4", "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[1])["result"] == {"connected": True}
    assert json.loads(out[2])["result"] == {"stopped": True}


@pytest.mark.parametrize(
    "value", ["foo", "127.0.0.1:", ":99999", ":-1", ":8_0", ": 80", "host:http"]
)
def test_cli_serve_rejects_a_malformed_listen_address(capsys, value):
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exc_info:
        build_parser().parse_args(["serve", "--listen", value])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(
        f"argument --listen: expected HOST:PORT with a port in 0-65535, got {value!r}"
    )


def test_cli_serve_listen_parses_host_and_port():
    from repro.cli import build_parser

    def listen(value):
        return build_parser().parse_args(["serve", "--listen", value]).listen

    assert listen("0.0.0.0:8000") == ("0.0.0.0", 8000)
    assert listen(":0") == ("127.0.0.1", 0)
    assert listen("::1:65535") == ("::1", 65535)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "0"], "n must be >= 1, got 0"),
        (["--n", "8", "--copies", "0"], "copies must be >= 1, got 0"),
        (["--n", "8", "--epsilon", "nan"], "epsilon must be a positive real"),
    ],
)
def test_cli_serve_reports_a_bad_config_as_a_usage_error(capsys, argv, message):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc_info:
        main(["serve", *argv])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err.splitlines()[-1]


def start_tcp(session: ServeSession):
    """Serve *session* over TCP on an ephemeral port in a thread; return
    the thread and the port."""
    ready_r, ready_w = socket.socketpair()
    announce = ready_w.makefile("w")
    thread = threading.Thread(
        target=serve_tcp, args=(session, "127.0.0.1", 0),
        kwargs={"ready": announce}, daemon=True,
    )
    thread.start()
    with ready_r.makefile("r") as lines:
        port = int(lines.readline().split()[1])
    ready_r.close()
    ready_w.close()
    return thread, port


def shut_down(thread, port) -> None:
    with ServeClient.connect("127.0.0.1", port) as client:
        assert client.ping()["pong"] is True
        client.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_tcp_client_sending_bytes_that_are_not_utf8_ends_only_its_connection():
    thread, port = start_tcp(ServeSession())
    with socket.create_connection(("127.0.0.1", port)) as hostile:
        hostile.sendall(b"\xff\xfe\xfd not utf-8\n")
        hostile.settimeout(10)
        assert hostile.recv(1024) == b""  # the server hung up on it
    assert thread.is_alive()
    shut_down(thread, port)


def test_tcp_client_resetting_mid_reply_ends_only_its_connection():
    """A client pipelines many requests and resets the connection
    without reading the replies: writing them fails, and the server
    moves on to the next client."""
    import struct

    from repro.serve import GraphService, ServeConfig

    session = ServeSession(GraphService(ServeConfig(n=64, seed=0)))
    thread, port = start_tcp(session)
    hostile = socket.create_connection(("127.0.0.1", port))
    hostile.sendall(
        (json.dumps({"op": "components", "labels": True}) + "\n").encode() * 2000
    )
    # Linger 0: close sends a reset, not an orderly shutdown.
    hostile.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    hostile.close()
    shut_down(thread, port)
