"""Wire-format round-trips: every payload the service exchanges must survive
client → server → client byte-identically, and every error must come back as
the exception class that was raised remotely."""

from __future__ import annotations

import json

import pytest

from repro.api import S, knob, seq
from repro.api.knobs import KnobError
from repro.api.serialize import ReplayError
from repro.errors import (
    BackendError,
    CodegenError,
    ExoError,
    InvalidCursorError,
    ParseError,
    SchedulingError,
)
from repro.service import protocol as P


def roundtrip(msg: dict) -> dict:
    return P.decode_message(P.encode_message(msg))


def wire_stable(msg: dict) -> bool:
    """Canonical encoding is a fixed point: re-encoding a decoded message
    reproduces the exact bytes."""
    line = P.encode_message(msg)
    return P.encode_message(P.decode_message(line)) == line


# -- framing -----------------------------------------------------------------


def test_messages_roundtrip_byte_identically():
    cases = [
        {"id": "r1", "type": "ping", "v": 1},
        P.request("r2", "stats"),
        P.response("r3", {"pong": True, "nested": {"a": [1, 2, {"b": None}]}}),
        P.event("r4", {"kind": "measurement", "index": 0, "total": 3}),
        {"id": None, "type": "response", "ok": False, "error": {"kind": "X", "message": "m"}},
        {"unicode": "λx → ∀y", "num": 1.5, "neg": -7},
    ]
    for msg in cases:
        assert roundtrip(msg) == msg
        assert wire_stable(msg)


def test_raw_result_envelope_equals_the_encoded_response():
    result = {"cache": "hit", "proc": "def f():\n    pass  # λ \"q\"", "trace": {"entries": [1, {"b": None}]}}
    result_json = P.encode_message(result)[:-1]
    for req_id in ("c1", 7, None, 'λ"\n', 1.5):
        line = P.encode_response_raw(req_id, result_json)
        assert line == P.encode_message(P.response(req_id, result))
        assert P.decode_message(line) == P.response(req_id, result)


def test_encoding_is_canonical_regardless_of_key_order():
    a = {"b": 1, "a": 2, "nested": {"z": 0, "y": 1}}
    b = {"nested": {"y": 1, "z": 0}, "a": 2, "b": 1}
    assert P.encode_message(a) == P.encode_message(b)


def test_malformed_frames_raise_protocol_error():
    for line in [b"not json\n", b"[1, 2]\n", b'"a string"\n', b"\xff\xfe\n", b"42\n"]:
        with pytest.raises(P.ProtocolError):
            P.decode_message(line)


def test_oversized_frames_are_rejected():
    with pytest.raises(P.ProtocolError):
        P.decode_message(b"x" * (P.MAX_MESSAGE_BYTES + 1))


def test_request_constructor_rejects_unknown_types():
    with pytest.raises(P.ProtocolError):
        P.request("r1", "bogus")


# -- traces and tune specs ---------------------------------------------------


def test_trace_payload_survives_the_wire_byte_identically(axpy):
    sched = seq(
        S.divide_loop("i", 16, ["io", "ii"]),
        S.divide_loop("ii", knob("w", 4, choices=(2, 4, 8)), ["iio", "iii"]),
    )
    _, trace = sched.apply_traced(axpy, {"w": 8})
    msg = P.request("r1", "schedule", proc={"ref": "x:y"}, schedule={"trace": trace.to_dict()})
    assert wire_stable(msg)
    back = roundtrip(msg)
    assert back["schedule"]["trace"] == trace.to_dict()


def test_tune_spec_payload_survives_the_wire_byte_identically():
    spec = {
        "proc": "repro.blas:LEVEL1_KERNELS",
        "proc_args": ["saxpy"],
        "schedule": "repro.blas:level1_schedule",
        "size_env": {"n": 65536},
        "repeats": 3,
        "backend": "c",
        "timeout_s": 1.5,
    }
    msg = P.request("r1", "tune", spec=spec, configs=[{"interleave": 2}, {"interleave": 4}])
    assert wire_stable(msg)
    assert roundtrip(msg)["spec"] == spec


# -- error payloads ----------------------------------------------------------


def test_every_registered_error_decodes_to_its_own_class():
    for name, cls in P.ERROR_REGISTRY.items():
        try:
            exc = cls(f"synthetic {name}")
        except Exception:
            pytest.fail(f"{name} not constructible from a message")
        payload = P.encode_error(exc)
        assert payload["kind"] == name
        back = P.decode_error(payload)
        assert type(back) is cls
        assert name == "KeyError" or f"synthetic {name}" in str(back)


def test_error_payloads_are_wire_stable():
    for cls in (SchedulingError, KnobError, ParseError, ValueError):
        msg = P.error_response("r9", cls("boom"))
        assert wire_stable(msg)
        assert roundtrip(msg) == msg


def test_scheduling_error_preserves_primitive_across_the_wire(axpy):
    # a real failing primitive, not a synthetic attribute
    with pytest.raises(SchedulingError) as err:
        S.divide_loop("i", 7, ["io", "ii"], perfect=True).apply(axpy, {})
    original = err.value
    assert original.primitive is not None
    back = P.decode_error(P.encode_error(original))
    assert type(back) is SchedulingError
    assert back.primitive == original.primitive
    assert str(back) == str(original)


def test_knob_error_preserves_primitive_and_message():
    exc = KnobError("unknown knob(s) 'bogus'")
    exc.primitive = "divide_loop"
    back = P.decode_error(P.encode_error(exc))
    assert type(back) is KnobError
    assert back.primitive == "divide_loop"


def test_location_and_proc_name_fields_survive():
    exc = CodegenError("no lowering for reduce")
    exc.location = "blur.c:42"
    exc.proc_name = "blur"
    back = P.decode_error(P.encode_error(exc))
    assert (back.location, back.proc_name) == ("blur.c:42", "blur")


def test_unknown_error_kind_falls_back_to_remote_service_error():
    back = P.decode_error({"kind": "SomethingNovel", "message": "m"})
    assert isinstance(back, P.RemoteServiceError)
    assert back.kind == "SomethingNovel"
    assert "m" in str(back)


def test_error_payload_shape_is_stable():
    # every encode_error payload carries the same five keys, so client-side
    # consumers can rely on the shape without defensive lookups
    for exc in (ExoError("a"), InvalidCursorError("b"), BackendError("c"), ReplayError("d")):
        assert sorted(P.encode_error(exc)) == [
            "kind",
            "location",
            "message",
            "primitive",
            "proc_name",
        ]


def test_error_response_roundtrips_through_full_frames():
    exc = SchedulingError("divide_loop: loop not found")
    line = P.encode_message(P.error_response("r1", exc))
    msg = P.decode_message(line)
    assert msg["ok"] is False
    back = P.decode_error(msg["error"])
    assert type(back) is SchedulingError and "divide_loop" in str(back)
    assert P.encode_message(msg) == line
