"""The serve codec is the standard library's, built once.

``encode`` must equal ``json.dumps(x, sort_keys=True, separators=(",",
":"))`` (with the C encoder and with the pure-Python fallback), and
``decode`` must return what ``json.loads`` returns, or raise the same
exception type with the same message, over generated JSON values and
lines.
"""

from __future__ import annotations

import json
import json.encoder

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import decode, encode, protocol
from repro.serve.service import ServiceError

#: Every code point, lone surrogates included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()  # NaN, infinities, -0.0 and subnormals included
    | TEXT
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=30,
)
#: JSON whitespace and what ``str.isspace`` also calls whitespace.
SPACES = st.text(
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"), max_size=3
)
#: Nesting either well inside the recursion limit or far past it (near
#: the limit, how deep each caller may go depends on its stack depth).
DEPTHS = st.integers(min_value=1, max_value=60) | st.integers(
    min_value=100_000, max_value=120_000
)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def loads_request(line: str) -> dict:
    """What ``decode`` promises: ``json.loads``, refusing non-objects."""
    request = json.loads(line)
    if not isinstance(request, dict):
        raise ServiceError("request must be a JSON object")
    return request


def outcome(call, *args):
    """A call's value (by ``repr``: NaN, ``-0.0`` and ``1`` vs ``1.0``
    count), or its exception's type and message."""
    try:
        return "value", repr(call(*args))
    except Exception as exc:  # the type is compared
        return type(exc), str(exc)


@pytest.fixture(params=["c", "python"])
def encoder(request):
    """``encode``, and the encoder built with no C accelerator."""
    if request.param == "c":
        yield encode
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        yield protocol._canonical_encoder(None)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(value=JSON_VALUES)
def test_encode_is_canonical_json_dumps(encoder, value):
    assert outcome(encoder, value) == outcome(canonical, value)


@pytest.mark.parametrize("depth", [1, 50, 100_000])
def test_encode_nesting(encoder, depth):
    value: list = []
    for _ in range(depth):
        value = [value]
    got, expected = outcome(encoder, {"id": value}), outcome(canonical, {"id": value})
    if expected[0] is RecursionError:
        # The pure-Python encoder's message names the call the stack ran
        # out in, which depends on the caller's depth.
        got, expected = got[0], expected[0]
    assert got == expected


def test_encode_builds_its_encoder_once():
    assert protocol.encode is encode
    assert encode({"b": float("nan"), "a": "é"}) == '{"a":"\\u00e9","b":NaN}'


BODIES = (
    JSON_VALUES.map(json.dumps)
    | JSON_VALUES.map(canonical)
    | JSON_VALUES.map(lambda value: json.dumps(value, indent=1))
    | st.dictionaries(TEXT, JSON_VALUES, max_size=4).map(json.dumps)
    | DEPTHS.map(lambda depth: "[" * depth + "]" * depth)
    | DEPTHS.map(lambda depth: '{"id":' * depth + "1" + "}" * depth)
    | TEXT
)
LINES = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    SPACES,
    BODIES,
    SPACES,
    st.sampled_from(["", "x", "{}", " 1", "\ufeff", '{"op":"ping"}']),
).map("".join)


@settings(max_examples=400, deadline=None)
@given(line=LINES)
def test_decode_is_json_loads(line):
    assert outcome(decode, line) == outcome(loads_request, line)


@pytest.mark.parametrize(
    "line",
    [
        '{"op":"ping"}',
        '{"op":"ping"}\n',
        '{"op":"ping"} \t\r\n',
        ' {"op":"ping"}',
        '\ufeff{"op":"ping"}',
        '{"op":"ping"}\x0b',
        '{"op":"ping"}\xa0\n',
        '{"op":"ping"}{"op":"ping"}',
        '{"op":',
        "[1]",
        "",
        "[" * 100_000,
        b'{"op":"ping"}\n',
    ],
)
def test_decode_edge_lines(line):
    assert outcome(decode, line) == outcome(loads_request, line)
