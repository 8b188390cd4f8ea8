"""ServeSession protocol: dispatch, errors, and deterministic encoding."""

from __future__ import annotations

import json

import pytest

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


# ----------------------------------------------------------------------
# Malformed requests answer ok: false and leave the session serving
# ----------------------------------------------------------------------
def _rejected(session: ServeSession, request: dict) -> str:
    """Send *request* as a raw line; assert it is refused, return the error."""
    response = json.loads(session.handle_line(json.dumps(request)))
    assert response["ok"] is False
    return response["error"]


def _still_serving(session: ServeSession) -> None:
    response = session.handle({"op": "connected", "u": 0, "v": 1})
    assert response["ok"] and response["result"] == {"connected": True}
    assert session.handle({"op": "stats"})["result"]["edges"] == 1


def _session_with_one_edge() -> ServeSession:
    session = make_session(n=10)
    assert session.handle({"op": "update", "insert": [[0, 1]]})["ok"]
    return session


def test_connected_rejects_string_vertex():
    session = _session_with_one_edge()
    assert "integers" in _rejected(session, {"op": "connected", "u": "a", "v": 1})
    _still_serving(session)


def test_connected_rejects_float_vertex():
    session = _session_with_one_edge()
    assert "integers" in _rejected(session, {"op": "connected", "u": 1.5, "v": 2})
    _still_serving(session)


def test_connected_rejects_bool_vertex():
    session = _session_with_one_edge()
    assert "integers" in _rejected(session, {"op": "connected", "u": True, "v": 1})
    _still_serving(session)


def test_update_rejects_scalar_batch():
    session = _session_with_one_edge()
    assert "list of edges" in _rejected(session, {"op": "update", "insert": 7})
    _still_serving(session)


def test_update_rejects_scalar_edge():
    session = _session_with_one_edge()
    assert "[u, v]" in _rejected(session, {"op": "update", "insert": [5]})
    _still_serving(session)


def test_update_rejects_bool_endpoint():
    session = _session_with_one_edge()
    error = _rejected(session, {"op": "update", "insert": [[True, 2]]})
    assert "integers" in error
    assert "weight" in _rejected(session, {"op": "update", "insert": [[0, 2, True]]})
    _still_serving(session)


def test_unexpected_exception_answers_internal_error(monkeypatch, caplog):
    session = _session_with_one_edge()

    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(session.service, "stats", broken)
    with caplog.at_level("ERROR", logger="repro.serve.protocol"):
        response = session.handle({"op": "stats", "id": 3})
    assert response == {
        "ok": False, "op": "stats", "id": 3,
        "error": "internal error: RuntimeError: boom",
    }
    assert "Traceback" in caplog.text and "boom" in caplog.text
    monkeypatch.undo()
    _still_serving(session)


# ----------------------------------------------------------------------
# init refuses configurations it cannot serve, naming the field
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fields, field",
    [
        ({"n": True}, "n"),
        ({"n": 8, "shards": True}, "shards"),
        ({"n": 8, "seed": "x"}, "seed"),
        ({"n": 8, "seed": 1.5}, "seed"),
        ({"n": 8, "max_weight": 2.5}, "max_weight"),
        ({"n": 8, "copies": 1.5}, "copies"),
        ({"n": 8, "shards": 2.5}, "shards"),
        ({"n": 8, "epsilon": True}, "epsilon"),
        ({"n": 8, "max_weight": 4, "epsilon": float("inf")}, "epsilon"),
        # Edge ids up to n^2 - 1 past int64 (an OverflowError before).
        ({"n": 3037000500}, "n"),
        # A refresh bank of ~10^11 words (every query a MemoryError before).
        ({"n": 10000000}, "n"),
        # Ten million shard banks, or ~10^7 weight thresholds: no answer
        # within 15 s before.
        ({"n": 8, "shards": 10000000}, "shards"),
        ({"n": 8, "max_weight": 100000000, "epsilon": 0.000001}, "max_weight"),
        # A seed package of ~10^7 slots per vertex (seconds and hundreds
        # of MB to answer ok before).
        ({"n": 64, "copies": 100000}, "copies"),
    ],
    ids=lambda value: json.dumps(value) if isinstance(value, dict) else value,
)
def test_init_refuses_configs_it_cannot_serve(fields, field):
    session = ServeSession()
    error = _rejected(session, {"op": "init", **fields})
    assert error.split()[0].split("=")[0] == field, error
    # Nothing was initialized and the session keeps serving.
    assert session.handle({"op": "init", "n": 4})["ok"]
    assert session.handle({"op": "update", "insert": [[0, 1]]})["ok"]
    assert session.handle({"op": "connected", "u": 0, "v": 1})["result"] == {
        "connected": True
    }


def test_benchmark_serve_configs_sit_well_inside_the_caps():
    """The serve benchmarks and the smoke daemon (n up to 1024, 4 shards,
    3 copies, update batches of 250, 1000 and 13 edges) keep an order of
    magnitude of room under every cap."""
    from repro.serve.service import (
        MAX_BANKS,
        MAX_REFRESH_WORDS,
        MAX_SLOTS,
        MAX_UPDATE_EDGES,
    )
    from repro.sketches import GraphSketchSpec

    slots = GraphSketchSpec.slot_count(1024, 3)
    assert 10 * slots <= MAX_SLOTS
    assert 10 * 1024 * (1 + 3 * slots) <= MAX_REFRESH_WORDS
    assert 10 * 4 <= MAX_BANKS
    assert 10 * max(250, 1000, 13) <= MAX_UPDATE_EDGES
    ServeConfig(n=1024, shards=4, max_weight=1000, epsilon=0.5)


def test_update_refuses_a_batch_past_the_cap():
    """A request over the batch cap answers ok: false naming the limit,
    before any edge is read, and changes nothing; the session keeps
    serving.  (Uncapped, a 10^6-edge update blocked a session for 20 s.)"""
    from repro.serve.service import MAX_UPDATE_EDGES

    session = make_session(n=16, shards=2)
    assert session.handle({"op": "update", "insert": [[0, 1], [2, 3]]})["ok"]
    before = session.handle({"op": "stats"})["result"]
    half = MAX_UPDATE_EDGES // 2 + 1
    for request in (
        {"insert": [[4, 5]] * half, "delete": [[0, 1]] * half},
        {"insert": [[4, 5]] * (MAX_UPDATE_EDGES + 1)},
        # Malformed edges too: the cap is checked before any edge is read.
        {"delete": ["x"] * (MAX_UPDATE_EDGES + 1)},
    ):
        error = _rejected(session, {"op": "update", **request})
        assert "insert and delete" in error and str(MAX_UPDATE_EDGES) in error
        assert session.handle({"op": "stats"})["result"] == before
    assert session.handle({"op": "connected", "u": 0, "v": 1})["result"] == {
        "connected": True
    }
    full = {"op": "update", "insert": [[4, 5]] * MAX_UPDATE_EDGES}
    assert session.handle(full)["result"]["edges"] == 2 + MAX_UPDATE_EDGES
    assert session.handle({"op": "connected", "u": 4, "v": 5})["result"] == {
        "connected": True
    }


def test_json_nested_past_the_recursion_limit_answers_bad_request():
    """A line nested deeper than the decoder can recurse is a bad
    request, not an exception out of the session."""
    session = make_session()
    reply = json.loads(session.handle_line("[" * 100_000 + "]" * 100_000))
    assert reply["ok"] is False and "bad request" in reply["error"]
    assert json.loads(session.handle_line('{"op": "ping"}'))["ok"] is True


def test_every_nesting_depth_of_an_id_gets_an_answer():
    """Ids nested to every depth around the recursion limit: each line
    is answered, and a reply is either the echo or a bad request."""
    import sys

    session = ServeSession()
    for depth in range(1, sys.getrecursionlimit() + 10):
        line = '{"op":"ping","id":' + "[" * depth + "]" * depth + "}"
        reply = json.loads(session.handle_line(line))
        if reply["ok"]:
            assert reply["result"]["pong"] is True
        else:
            assert "id" not in reply and "bad request" in reply["error"]


def test_a_reply_whose_id_cannot_be_encoded_answers_without_it(monkeypatch):
    """An id can decode and still nest too deep for the encoder (how far
    each recurses depends on the interpreter): the reply drops the id
    and op echoes and says why, and the session keeps serving."""
    import repro.serve.protocol as protocol

    encode_reply = protocol.encode

    def encoder_out_of_depth(response):
        if response.get("id") == "deep":
            raise RecursionError("maximum recursion depth exceeded while encoding")
        return encode_reply(response)

    monkeypatch.setattr(protocol, "encode", encoder_out_of_depth)
    session = ServeSession()
    reply = json.loads(session.handle_line('{"op": "ping", "id": "deep"}'))
    assert reply == {
        "ok": False,
        "error": "bad request: cannot echo id or op: "
                 "maximum recursion depth exceeded while encoding",
    }
    assert json.loads(session.handle_line('{"op": "ping", "id": 1}'))["id"] == 1


# ----------------------------------------------------------------------
# Every op reads its own fields, plus op and id, and refuses any other key
# ----------------------------------------------------------------------
def _served_session() -> ServeSession:
    """A weighted session with a fresh forest and MST estimate."""
    session = make_session(n=10, max_weight=4)
    assert session.handle({"op": "update", "insert": [[0, 1, 2], [2, 3]]})["ok"]
    assert session.handle({"op": "connected", "u": 0, "v": 1})["ok"]
    assert session.handle({"op": "mst_weight"})["ok"]
    return session


def _state(session: ServeSession) -> tuple:
    """Edges, forest and counters: what a refused request must not move."""
    service = session.service
    return (
        service.surviving_edges(),
        service._components,
        service._mst_estimate,
        service.stats(),
        session.closed,
    )


@pytest.mark.parametrize(
    "request_, unknown",
    [
        ({"op": "ping", "extra": 1}, ["extra"]),
        ({"op": "update", "inserts": [[1, 2]]}, ["inserts"]),
        ({"op": "update", "insert": [[1, 2]], "x": 0, "a": 1, "id": 4}, ["a", "x"]),
        ({"op": "connected", "u": 1, "v": 2, "x": 5}, ["x"]),
        ({"op": "connected", "u": 1, "v": 2, "id": 3, "x": 5}, ["x"]),
        ({"op": "components", "labels": True, "label": True}, ["label"]),
        ({"op": "mst_weight", "max_weight": 3}, ["max_weight"]),
        ({"op": "stats", "verbose": True}, ["verbose"]),
        ({"op": "shutdown", "now": True}, ["now"]),
    ],
    ids=lambda value: value["op"] if isinstance(value, dict) else None,
)
def test_every_op_refuses_unknown_fields(request_, unknown):
    session = _served_session()
    before = _state(session)
    error = _rejected(session, request_)
    assert error.startswith(f"unknown {request_['op']} field(s) {unknown};"), error
    assert _state(session) == before
    assert _state(session)[1] is before[1]  # the same forest, not a refresh
    # The same request without the unknown keys is served.
    known = {key: value for key, value in request_.items() if key not in unknown}
    assert session.handle(known)["ok"]


def test_ping_before_init_refuses_unknown_fields():
    session = ServeSession()
    assert "extra" in _rejected(session, {"op": "ping", "extra": 1})
    assert session.service is None


def test_init_error_names_unknown_fields_sorted():
    error = _rejected(ServeSession(), {"op": "init", "n": 4, "zeta": 1, "alpha": 2})
    assert error.startswith("unknown init field(s) ['alpha', 'zeta'];")


@pytest.mark.parametrize("labels", ["no", "true", 1, 0, 1.0, None, [], {}])
def test_components_labels_must_be_a_boolean(labels):
    session = _served_session()
    before = _state(session)
    error = _rejected(session, {"op": "components", "labels": labels})
    assert error == f"labels must be true or false, got {labels!r}"
    assert _state(session) == before
