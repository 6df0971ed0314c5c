"""Wire protocol of the schedule service.

Newline-delimited JSON: every message — request, streamed event, response —
is one JSON object serialized *canonically* (sorted keys, compact separators,
UTF-8) on a single ``\\n``-terminated line.  Canonical serialization is what
makes round-trips byte-exact: ``encode_message(decode_message(line)) ==
line`` for every message the service emits, so traces, tune specs, and error
payloads survive client → server → client unchanged.

Message shapes
--------------
Requests carry ``id`` (client-chosen, echoed back), ``type`` (one of
:data:`REQUEST_TYPES`), and per-type fields (see :mod:`repro.service.server`).
The server answers each request with zero or more *events*::

    {"id": ..., "type": "event", "event": {"kind": ..., ...}}

followed by exactly one terminal *response*::

    {"id": ..., "type": "response", "ok": true,  "result": {...}}
    {"id": ..., "type": "response", "ok": false, "error": {...}}

Error payloads
--------------
:func:`encode_error` flattens an exception into JSON-able data —
``kind`` (class name), ``message``, and the scheduling-specific context the
combinator layer relies on: ``primitive`` (the innermost failing primitive,
see :class:`repro.errors.ExoError`) and ``location`` / ``proc_name`` (code
generation).  :func:`decode_error` rebuilds the *same exception class* for
every error type in :data:`ERROR_REGISTRY` (``KnobError`` raised by a remote
schedule is a ``KnobError`` at the client, with ``.primitive`` intact), and
falls back to :class:`RemoteServiceError` for anything unrecognized.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Type

from ..errors import (
    BackendError,
    CodegenError,
    ExoError,
    InvalidCursorError,
    ParseError,
    SchedulingError,
)
from ..api.knobs import KnobError
from ..api.serialize import ReplayError

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_TYPES",
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "RemoteServiceError",
    "ERROR_REGISTRY",
    "encode_message",
    "encode_response_raw",
    "decode_message",
    "encode_error",
    "decode_error",
    "request",
    "response",
    "error_response",
    "event",
]

PROTOCOL_VERSION = 1

REQUEST_TYPES = ("schedule", "tune", "stats", "ping", "shutdown")

#: One message must fit comfortably in memory; procedure sources and traces
#: are small, so anything near this bound is a framing bug, not a workload.
MAX_MESSAGE_BYTES = 8 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed frame: not JSON, not an object, or missing envelope
    fields.  Raised at both ends; the server answers with an error response
    when it can still attribute an ``id``, else drops the connection."""


class RemoteServiceError(Exception):
    """A server-side failure whose exception class has no local counterpart
    (or the generic transport for unregistered kinds).  Carries the remote
    class name in ``kind``."""

    def __init__(self, message: str, kind: str = "RemoteServiceError"):
        super().__init__(message)
        self.kind = kind
        self.primitive = None


#: Exception classes that cross the wire as themselves.  Keys are class
#: names — the ``kind`` field of an error payload.
ERROR_REGISTRY: Dict[str, Type[BaseException]] = {
    cls.__name__: cls
    for cls in (
        ExoError,
        SchedulingError,
        InvalidCursorError,
        ParseError,
        BackendError,
        CodegenError,
        KnobError,
        ReplayError,
        ProtocolError,
        SyntaxError,
        TypeError,
        ValueError,
        KeyError,
        TimeoutError,
    )
}


def encode_message(msg: dict) -> bytes:
    """Serialize one message to its canonical single-line wire form."""
    body = json.dumps(msg, sort_keys=True, separators=(",", ":"), default=repr)
    if "\n" in body:  # json.dumps never emits raw newlines; belt and braces
        raise ProtocolError("message serialization produced a newline")
    return body.encode("utf-8") + b"\n"


def encode_response_raw(req_id, result_json: bytes) -> bytes:
    """The wire line of ``response(req_id, result)`` for a result that is
    already canonical JSON: byte for byte what :func:`encode_message` gives
    for the decoded result, without serializing it again (the server keeps
    a schedule reply's encoded result and sends it to every later asker)."""
    head = encode_message({"id": req_id, "ok": True})  # b'{"id":...,"ok":true}\n'
    return head[:-2] + b',"result":' + result_json + b',"type":"response"}\n'


def decode_message(line: bytes) -> dict:
    """Parse one wire line back into a message dict."""
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    try:
        msg = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(msg).__name__}")
    return msg


# -- error payloads ----------------------------------------------------------


def encode_error(exc: BaseException) -> dict:
    """Flatten an exception into a JSON-able error payload.

    Always carries ``kind`` and ``message``; ``primitive``, ``location`` and
    ``proc_name`` are preserved whenever the exception has them (``None``
    otherwise, so payload shape is stable and round-trips byte-exactly).
    """
    return {
        "kind": type(exc).__name__,
        "message": str(exc),
        "primitive": getattr(exc, "primitive", None),
        "location": getattr(exc, "location", None),
        "proc_name": getattr(exc, "proc_name", None),
    }


def decode_error(payload: dict) -> BaseException:
    """Rebuild the exception an error payload describes.

    Registered kinds come back as their own class with ``primitive`` /
    ``location`` / ``proc_name`` restored; unknown kinds become
    :class:`RemoteServiceError`.
    """
    kind = payload.get("kind", "RemoteServiceError")
    message = payload.get("message", "")
    cls = ERROR_REGISTRY.get(kind)
    if cls is None:
        return RemoteServiceError(message, kind=kind)
    try:
        exc = cls(message)
    except Exception:  # a constructor demanding more than a message
        return RemoteServiceError(message, kind=kind)
    for attr in ("primitive", "location", "proc_name"):
        value = payload.get(attr)
        if value is not None:
            try:
                setattr(exc, attr, value)
            except AttributeError:  # __slots__-restricted exception
                pass
    return exc


# -- envelope constructors ---------------------------------------------------


def request(req_id: str, req_type: str, **fields) -> dict:
    if req_type not in REQUEST_TYPES:
        raise ProtocolError(f"unknown request type {req_type!r} (valid: {REQUEST_TYPES})")
    msg = {"id": req_id, "type": req_type, "v": PROTOCOL_VERSION}
    msg.update(fields)
    return msg


def response(req_id, result: dict) -> dict:
    return {"id": req_id, "type": "response", "ok": True, "result": result}


def error_response(req_id, exc: BaseException) -> dict:
    return {"id": req_id, "type": "response", "ok": False, "error": encode_error(exc)}


def event(req_id, payload: dict) -> dict:
    return {"id": req_id, "type": "event", "event": payload}
