"""JSONL request/response protocol for the serve daemon.

One request per line, one response per line.  Requests are JSON objects
with an ``op`` field; an optional ``id`` field is echoed back verbatim
so clients can pipeline.  Responses are canonical JSON (sorted keys, no
whitespace variation, no timestamps) so repeated runs of the same
request stream byte-diff clean — the CI serve-smoke job relies on this.

A request that fails — bad JSON, JSON nested past the decoder's
recursion limit, a malformed field, a rejected update — answers
``{"ok": false, "error": ...}`` and the session keeps serving.
Anything the checks miss answers an ``internal error`` and logs its
traceback to stderr.  A request whose ``id`` (or ``op``) decodes but is
nested too deep to encode back has still been handled; its reply is
``{"ok": false, "error": ...}`` without the ``id`` and ``op`` echoes.

Ops:

``ping``
    Liveness probe; works before ``init``.
``init``
    Create the service: ``{"op": "init", "n": 64, "seed": 7, ...}``
    (fields mirror :class:`~repro.serve.service.ServeConfig`; any other
    key except ``op`` and ``id`` is rejected).  The daemon can also be
    pre-initialized from CLI flags.
``update``
    ``{"op": "update", "insert": [[u, v], [u, v, w], ...],
    "delete": [...]}`` — batched signed edge updates, inserts first.
``connected``
    ``{"op": "connected", "u": 3, "v": 9}``.
``components``
    Component count; pass ``"labels": true`` for the full canonical
    label vector.
``mst_weight``
    Approximate spanning-forest weight (needs ``max_weight``).
``stats`` / ``shutdown``
    Introspection / clean stop.
"""

from __future__ import annotations

import json
import logging

from .service import GraphService, ServeConfig, ServiceError

__all__ = ["ServeSession", "encode", "decode"]

logger = logging.getLogger(__name__)

_CONFIG_FIELDS = ("n", "seed", "copies", "shards", "max_weight", "epsilon")


def encode(response: dict) -> str:
    """Canonical one-line encoding (deterministic across runs)."""
    return json.dumps(response, sort_keys=True, separators=(",", ":"))


def decode(line: str) -> dict:
    request = json.loads(line)
    if not isinstance(request, dict):
        raise ServiceError("request must be a JSON object")
    return request


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
            return {"pong": True, "initialized": self.service is not None}
        if op == "init":
            if self.service is not None:
                raise ServiceError("service already initialized")
            unknown = sorted(
                set(request) - set(_CONFIG_FIELDS) - {"op", "id"}, key=str
            )
            if unknown:
                raise ServiceError(
                    f"unknown init field(s) {unknown}; expected some of "
                    f"{list(_CONFIG_FIELDS)}"
                )
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
            self.closed = True
            return {"stopped": True}
        service = self._require_service()
        if op == "update":
            return service.update(
                insert=request.get("insert", ()),
                delete=request.get("delete", ()),
            )
        if op == "connected":
            try:
                u, v = request["u"], request["v"]
            except KeyError as exc:
                raise ServiceError(f"connected needs {exc.args[0]!r}") from exc
            return {"connected": service.connected(u, v)}
        if op == "components":
            view = service.components()
            result = {"num_components": view.num_components}
            if request.get("labels"):
                result["labels"] = view.labels
            return result
        if op == "mst_weight":
            return service.mst_weight()
        if op == "stats":
            return service.stats()
        raise ServiceError(f"unknown op {op!r}")
