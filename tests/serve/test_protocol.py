"""ServeSession protocol: dispatch, errors, and deterministic encoding."""

from __future__ import annotations

import json

from repro.serve import GraphService, ServeConfig, ServeSession, encode


def make_session(n=10, seed=0, **kw) -> ServeSession:
    return ServeSession(GraphService(ServeConfig(n=n, seed=seed, **kw)))


def test_encode_is_canonical():
    line = encode({"b": 1, "a": [2, 3]})
    assert line == '{"a":[2,3],"b":1}'
    assert "\n" not in line


def test_ping_and_echoed_id():
    session = ServeSession()
    response = session.handle({"op": "ping", "id": 42})
    assert response == {
        "ok": True, "op": "ping", "id": 42,
        "result": {"pong": True, "initialized": False},
    }


def test_init_then_query_flow():
    session = ServeSession()
    response = session.handle({"op": "init", "n": 6, "seed": 1})
    assert response["ok"] and response["result"]["config"]["n"] == 6
    session.handle({"op": "update", "insert": [[0, 1], [1, 2]]})
    response = session.handle({"op": "connected", "u": 0, "v": 2})
    assert response["result"] == {"connected": True}


def test_double_init_rejected():
    session = make_session()
    response = session.handle({"op": "init", "n": 5})
    assert not response["ok"] and "already initialized" in response["error"]


def test_query_before_init_rejected():
    session = ServeSession()
    response = session.handle({"op": "components"})
    assert not response["ok"] and "init" in response["error"]


def test_init_rejects_unknown_and_missing_fields():
    session = ServeSession()
    assert not session.handle({"op": "init"})["ok"]
    # Unknown fields are refused by name, not silently dropped.
    response = session.handle({"op": "init", "n": 4, "frobnicate": 1})
    assert not response["ok"] and "frobnicate" in response["error"]
    assert session.service is None
    assert session.handle({"op": "init", "n": 4, "id": 7})["ok"]


def test_init_rejects_misspelled_and_retired_fields():
    for key in ("bakend", "backend"):
        session = ServeSession()
        response = session.handle({"op": "init", "n": 8, key: "numpy"})
        assert response["ok"] is False
        assert key in response["error"]
        assert session.service is None
    line = ServeSession().handle_line('{"op":"init","n":8,"bakend":"numpy"}')
    assert json.loads(line)["ok"] is False and "bakend" in line


def test_components_labels_reply_round_trips_encode():
    """Labels cross the bank boundary as builtin ints, so the reply
    encodes as canonical JSON and decodes to the same object."""
    session = make_session(n=6)
    session.handle({"op": "update", "insert": [[0, 1], [2, 3], [3, 4]]})
    reply = session.handle({"op": "components", "labels": True})
    labels = reply["result"]["labels"]
    assert labels == [0, 0, 2, 2, 2, 5]
    assert all(type(label) is int for label in labels)
    assert json.loads(encode(reply)) == reply


def test_components_labels_flag():
    session = make_session(n=5)
    session.handle({"op": "update", "insert": [[0, 1]]})
    bare = session.handle({"op": "components"})["result"]
    assert "labels" not in bare and bare["num_components"] == 4
    full = session.handle({"op": "components", "labels": True})["result"]
    assert full["labels"] == [0, 0, 2, 3, 4]


def test_update_error_reported_not_raised():
    session = make_session(n=4)
    response = session.handle({"op": "update", "delete": [[0, 1]]})
    assert not response["ok"] and "surviving" in response["error"]


def test_unknown_op_and_bad_json_line():
    session = make_session()
    assert not session.handle({"op": "frobnicate"})["ok"]
    line = session.handle_line("this is not json")
    parsed = json.loads(line)
    assert not parsed["ok"] and "bad request" in parsed["error"]


def test_connected_missing_field():
    session = make_session()
    response = session.handle({"op": "connected", "u": 0})
    assert not response["ok"] and "'v'" in response["error"]


def test_shutdown_closes_session():
    session = make_session()
    response = session.handle({"op": "shutdown"})
    assert response["result"] == {"stopped": True}
    assert session.closed


def test_response_stream_is_deterministic():
    requests = [
        {"op": "init", "n": 8, "seed": 3},
        {"op": "update", "insert": [[0, 1], [2, 3], [1, 2]]},
        {"op": "connected", "u": 0, "v": 3},
        {"op": "update", "delete": [[1, 2]]},
        {"op": "components", "labels": True},
        {"op": "stats"},
    ]

    def run() -> list[str]:
        session = ServeSession()
        return [session.handle_line(json.dumps(r)) for r in requests]

    assert run() == run()  # byte-identical across fresh sessions
