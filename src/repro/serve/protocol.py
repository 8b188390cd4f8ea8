"""JSONL request/response protocol for the serve daemon.

One request per line, one response per line.  Requests are JSON objects
with an ``op`` field; an optional ``id`` field is echoed back verbatim
so clients can pipeline.  Responses are canonical JSON (sorted keys, no
whitespace variation, no timestamps) so repeated runs of the same
request stream byte-diff clean — the CI serve-smoke job relies on this.

The codec is the hot path of every request, so both halves are built
once.  :func:`encode` is the C encoder ``json.dumps(sort_keys=True,
separators=(",", ":"))`` builds on every call, built at import (with no
circular-reference markers: a decoded request cannot be circular, and
nesting past the recursion limit still raises :class:`RecursionError`).
:func:`decode` returns what ``json.loads`` returns: a line that holds
one JSON value and then only JSON whitespace (``" \t\n\r"``) is decoded
in one scan, and any other line goes through ``json.loads``, so every
error reads as its own.

A request that fails — bad JSON, JSON nested past the decoder's
recursion limit, a malformed field, an unknown field, a rejected update —
answers ``{"ok": false, "error": ...}`` and the session keeps serving;
a refused request changes no edge, forest or counter.  Anything the
checks miss answers an ``internal error`` and logs its traceback to
stderr.  A request whose ``id`` (or ``op``) decodes but is nested too
deep to encode back has still been handled; its reply is
``{"ok": false, "error": ...}`` without the ``id`` and ``op`` echoes.

Ops (each accepts its own fields plus ``op`` and ``id``, and refuses
any other key by name):

``ping``
    Liveness probe; works before ``init``.
``init``
    Create the service: ``{"op": "init", "n": 64, "seed": 7, ...}``
    (fields mirror :class:`~repro.serve.service.ServeConfig`).  The
    daemon can also be pre-initialized from CLI flags.
``update``
    ``{"op": "update", "insert": [[u, v], [u, v, w], ...],
    "delete": [...]}`` — batched signed edge updates, inserts first.
``connected``
    ``{"op": "connected", "u": 3, "v": 9}``.
``components``
    Component count; pass ``"labels": true`` for the full canonical
    label vector (``labels`` must be a JSON boolean).
``mst_weight``
    Approximate spanning-forest weight (needs ``max_weight``).
``stats`` / ``shutdown``
    Introspection / clean stop.
"""

from __future__ import annotations

import json
import logging
from json.decoder import JSONDecoder
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

from .service import GraphService, ServeConfig, ServiceError

__all__ = ["ServeSession", "encode", "decode"]

logger = logging.getLogger(__name__)

_CONFIG_FIELDS = ("n", "seed", "copies", "shards", "max_weight", "epsilon")
#: Whitespace ``json.loads`` skips after a value (``str.isspace`` is wider).
_JSON_WHITESPACE = " \t\n\r"


def _canonical_encoder(make_encoder):
    """The canonical one-line encoder, built once: the C encoder that
    ``JSONEncoder.iterencode`` builds for every ``json.dumps(...,
    sort_keys=True, separators=(",", ":"))`` call, or the pure-Python
    encoder when there is no C accelerator (*make_encoder* ``None``)."""
    encoder = JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
    if make_encoder is None:
        return encoder.encode
    iterencode = make_encoder(
        None, encoder.default, encode_basestring_ascii, None, ":", ",", True, False, True
    )

    def encode(response: dict) -> str:
        """Canonical one-line encoding (deterministic across runs)."""
        return "".join(iterencode(response, 0))

    return encode


encode = _canonical_encoder(c_make_encoder)
_raw_decode = JSONDecoder().raw_decode


def decode(line: str) -> dict:
    """The JSON object on *line*, exactly as ``json.loads`` returns it
    or fails."""
    try:
        request, end = _raw_decode(line)
    except (ValueError, RecursionError, TypeError):  # TypeError: bytes
        request = json.loads(line)
    else:
        if line[end:].strip(_JSON_WHITESPACE):
            request = json.loads(line)
    if not isinstance(request, dict):
        raise ServiceError("request must be a JSON object")
    return request


def _refuse_unknown_fields(request: dict, op: str, fields: tuple = ()) -> None:
    """Refuse a request holding any key besides *fields*, ``op`` and ``id``."""
    unknown = sorted(set(request) - set(fields) - {"op", "id"}, key=str)
    if unknown:
        expected = f"expected some of {list(fields)}" if fields else "it takes none"
        raise ServiceError(f"unknown {op} field(s) {unknown}; {expected}")


class ServeSession:
    """One client session: dispatches decoded requests to a service."""

    def __init__(self, service: GraphService | None = None) -> None:
        self.service = service
        self.closed = False

    # ------------------------------------------------------------------
    def handle_line(self, line: str) -> str:
        """Parse one raw request line and return the encoded response."""
        try:
            request = decode(line)
        except (ValueError, RecursionError, ServiceError) as exc:
            return encode({"error": f"bad request: {exc}", "ok": False})
        response = self.handle(request)
        try:
            return encode(response)
        except RecursionError as exc:
            # The echoed id or op nests too deep to encode: answer
            # without the echoes (the request itself has been handled).
            return encode({
                "error": f"bad request: cannot echo id or op: {exc}",
                "ok": False,
            })

    def handle(self, request: dict) -> dict:
        op = request.get("op")
        response: dict = {"ok": True, "op": op}
        if "id" in request:
            response["id"] = request["id"]
        try:
            response["result"] = self._dispatch(op, request)
        except ServiceError as exc:
            response["ok"] = False
            response["error"] = str(exc)
        except Exception as exc:
            # Last resort: a request the checks above missed must not end
            # the session.  The traceback goes to the log (stderr), never
            # into the response stream.
            logger.exception("internal error handling a %r request", op)
            response["ok"] = False
            response["error"] = f"internal error: {type(exc).__name__}: {exc}"
        return response

    # ------------------------------------------------------------------
    def _require_service(self) -> GraphService:
        if self.service is None:
            raise ServiceError("service not initialized; send an 'init' op first")
        return self.service

    def _dispatch(self, op, request: dict):
        if op == "ping":
            _refuse_unknown_fields(request, op)
            return {"pong": True, "initialized": self.service is not None}
        if op == "init":
            if self.service is not None:
                raise ServiceError("service already initialized")
            _refuse_unknown_fields(request, op, _CONFIG_FIELDS)
            kwargs = {
                key: request[key] for key in _CONFIG_FIELDS if key in request
            }
            if "n" not in kwargs:
                raise ServiceError("init needs 'n'")
            try:
                config = ServeConfig(**kwargs)
            except TypeError as exc:
                raise ServiceError(f"bad init parameters: {exc}") from exc
            self.service = GraphService(config)
            return {"config": config.to_dict()}
        if op == "shutdown":
            _refuse_unknown_fields(request, op)
            self.closed = True
            return {"stopped": True}
        service = self._require_service()
        if op == "connected":
            try:
                u, v = request["u"], request["v"]
            except KeyError as exc:
                raise ServiceError(f"connected needs {exc.args[0]!r}") from exc
            # op, u, v and maybe id: one length test clears a well-formed
            # request.
            if len(request) > 3 + ("id" in request):
                _refuse_unknown_fields(request, op, ("u", "v"))
            return {"connected": service.connected(u, v)}
        if op == "update":
            _refuse_unknown_fields(request, op, ("insert", "delete"))
            return service.update(
                insert=request.get("insert", ()),
                delete=request.get("delete", ()),
            )
        if op == "components":
            _refuse_unknown_fields(request, op, ("labels",))
            labels = request.get("labels", False)
            if type(labels) is not bool:
                raise ServiceError(f"labels must be true or false, got {labels!r}")
            view = service.components()
            result = {"num_components": view.num_components}
            if labels:
                result["labels"] = view.labels
            return result
        if op == "mst_weight":
            _refuse_unknown_fields(request, op)
            return service.mst_weight()
        if op == "stats":
            _refuse_unknown_fields(request, op)
            return service.stats()
        raise ServiceError(f"unknown op {op!r}")
