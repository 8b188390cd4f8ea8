"""Golden reply transcript: every reply of a fixed request stream, byte
for byte.

``golden_transcript.jsonl`` holds one ``{"request": ..., "reply": ...}``
object per line: the raw request line as a client sends it (trailing
``\\n`` or ``\\r\\n`` included) and the reply line a fresh
:class:`~repro.serve.ServeSession` answered.  The stream covers a
weighted service (``max_weight``), inserts and deletes with multi-edges
and loops, every query op, ids that are non-ASCII, nested, floats, big
ints and non-finite, and malformed lines: bad JSON, a byte-order mark,
trailing data, leading and trailing whitespace, ``\\r\\n`` endings and
unknown ops.  It holds no blank line (the daemon skips those unread).

``scripts/serve_smoke.py`` pipes the same requests through a stdio
daemon and compares its replies with the file too.

To regenerate after an intended reply change, run::

    PYTHONPATH=src python tests/serve/test_golden_transcript.py
"""

from __future__ import annotations

import json
import pathlib

from repro.serve import ServeSession

GOLDEN = pathlib.Path(__file__).with_name("golden_transcript.jsonl")

REQUESTS = [
    # Before init.
    '{"op":"ping","id":0}\n',
    '{"op":"connected","u":0,"v":1}\n',
    # A weighted service.
    '{"op":"init","n":12,"seed":5,"shards":3,"max_weight":8,"id":"init"}\n',
    '{"op":"init","n":4}\n',
    '{"op":"ping","id":1}\n',
    # Inserts with a multi-edge (one copy reversed), a loop and the
    # heaviest weight.
    '{"op":"update","insert":[[0,1,3],[1,2,5],[1,0,3],[4,4,2],[5,6,8],'
    '[6,7,1],[9,10,2],[10,11,4]],"id":2}\n',
    '{"op":"connected","u":0,"v":2,"id":3}\n',
    '{"op":"connected","u":0,"v":5,"id":4}\n',
    '{"op":"connected","u":4,"v":4}\n',
    '{"op":"components","id":5}\n',
    '{"op":"components","labels":true,"id":6}\n',
    '{"op":"components","labels":false,"id":7}\n',
    '{"op":"mst_weight","id":8}\n',
    '{"op":"stats","id":9}\n',
    # Deletes: one copy of the multi-edge, then the other by reversed
    # endpoints, and the loop; an unweighted pair weighs 1.
    '{"op":"update","delete":[[0,1,3]],"id":10}\n',
    '{"op":"connected","u":0,"v":1,"id":11}\n',
    '{"op":"update","insert":[[2,3,2],[3,3,1],[7,8]],'
    '"delete":[[1,0,3],[4,4,2]],"id":12}\n',
    '{"op":"connected","u":0,"v":1,"id":13}\n',
    '{"op":"update","insert":[],"delete":[]}\n',
    '{"op":"components","labels":true}\n',
    '{"op":"mst_weight"}\n',
    '{"op":"stats"}\n',
    # Refusals of the service and the dispatcher.
    '{"op":"update","delete":[[7,9,1]]}\n',
    '{"op":"update","insert":[[0,1,9]]}\n',
    '{"op":"update","insert":[[0,12,1]]}\n',
    '{"op":"update","insert":7}\n',
    '{"op":"update","insert":[[true,2]]}\n',
    '{"op":"connected","u":0}\n',
    '{"op":"connected","u":true,"v":1}\n',
    '{"op":"connected","u":0,"v":99}\n',
    '{"op":"frobnicate","id":14}\n',
    '{"id":15}\n',
    '[1,2]\n',
    '"ping"\n',
    'null\n',
    # Ids: non-ASCII (raw and escaped, a lone surrogate), nested, floats,
    # big and non-finite numbers.
    '{"op":"ping","id":"Borůvka ✓ ünïcödé 🚀"}\n',
    '{"op":"ping","id":"\\u00e9\\ud83d\\ude80"}\n',
    '{"op":"ping","id":"\\ud800"}\n',
    '{"op":"ping","id":[1,{"b":[2.5,null,false],"a":{"c":"d"}}]}\n',
    '{"op":"ping","id":{"z":1,"a":[[],[{}]]}}\n',
    '{"op":"ping","id":1.5}\n',
    '{"op":"ping","id":0.1}\n',
    '{"op":"ping","id":-0.0}\n',
    '{"op":"ping","id":1e-7}\n',
    '{"op":"ping","id":12345678901234567890123}\n',
    '{"op":"ping","id":1E400}\n',
    '{"op":"ping","id":-Infinity}\n',
    '{"op":"ping","id":NaN}\n',
    # Malformed lines.
    'this is not json\n',
    '{"op":\n',
    '{"op":"ping"\n',
    "{'op':'ping'}\n",
    '\ufeff{"op":"ping","id":"bom"}\n',
    '{"op":"ping"} {"op":"ping"}\n',
    '{"op":"ping"}x\n',
    # Whitespace: only " \t\n\r" is JSON whitespace.
    '{"op":"ping"}\x0b\n',
    '{"op":"ping"}\x0c\n',
    '{"op":"ping"}\xa0\n',
    '{"op":"ping"}\u2028\n',
    '   {"op":"ping","id":"lead"}\n',
    '\t {"op":"ping","id":"tab"}\n',
    '{"op":"ping","id":"crlf"}\r\n',
    '{"op":"stats","id":"crlf"}\r\n',
    '{"op":"ping","id":"tail"}  \t \r\n',
    '{ "op" : "connected" , "u" : 2 , "v" : 3 }\n',
    '{"op":"ping","op":"stats"}\n',
    '{"op":"shutdown","id":"bye"}\n',
]


def load() -> list[tuple[str, str]]:
    """The committed ``(request, reply)`` pairs, in order."""
    pairs = []
    for line in GOLDEN.read_text(encoding="ascii").splitlines():
        record = json.loads(line)
        pairs.append((record["request"], record["reply"]))
    return pairs


def test_golden_transcript_covers_the_request_list():
    assert [request for request, _ in load()] == REQUESTS
    assert all(request.strip() for request in REQUESTS)


def test_golden_transcript_replays_byte_for_byte():
    session = ServeSession()
    for number, (request, reply) in enumerate(load(), 1):
        assert session.handle_line(request) == reply, f"line {number}: {request!r}"
    assert session.closed


if __name__ == "__main__":
    session = ServeSession()
    GOLDEN.write_text(
        "".join(
            json.dumps({"request": line, "reply": session.handle_line(line)}) + "\n"
            for line in REQUESTS
        ),
        encoding="ascii",
    )
