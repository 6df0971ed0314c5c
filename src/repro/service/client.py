"""Synchronous client for the schedule service.

A thin blocking wrapper over the newline-delimited JSON protocol
(:mod:`repro.service.protocol`).  One client holds one connection; requests
on it are answered in order, so a client is safe to share across threads
only with external locking — spin up one client per thread instead (the
server multiplexes connections).

Errors the server reports come back as the *same exception class* the remote
side raised whenever it is registered in the protocol's error registry: a
``KnobError`` from a remote schedule raises ``KnobError`` here, with
``.primitive`` intact.

Usage::

    with ServiceClient("/tmp/repro/service.sock") as c:
        out = c.schedule(proc={"source": src}, schedule={"ref": "mypkg.kernels:blur_schedule"})
        print(out["cache"], out["state_hash"])
"""

from __future__ import annotations

import itertools
import socket
from typing import Callable, List, Optional

from . import protocol as P

__all__ = ["ServiceClient", "connect"]


def _parse_address(address):
    """``"host:port"`` → TCP, anything else → Unix socket path."""
    if isinstance(address, tuple):
        return ("tcp", address)
    if isinstance(address, str) and ":" in address and not address.startswith("/"):
        host, _, port = address.rpartition(":")
        return ("tcp", (host, int(port)))
    return ("unix", address)


class ServiceClient:
    """A blocking connection to a running :class:`~repro.service.server.ScheduleService`."""

    def __init__(self, address, *, timeout_s: Optional[float] = 60.0):
        kind, target = _parse_address(address)
        if kind == "tcp":
            self._sock = socket.create_connection(target, timeout=timeout_s)
        else:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout_s)
            self._sock.connect(target)
        self._rfile = self._sock.makefile("rb")
        self._ids = itertools.count(1)

    # -- plumbing ------------------------------------------------------------

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(
        self,
        req_type: str,
        on_event: Optional[Callable[[dict], None]] = None,
        **fields,
    ) -> dict:
        """Send one request, collect its events, return the terminal result
        (or raise the decoded error)."""
        req_id = f"c{next(self._ids)}"
        self._sock.sendall(P.encode_message(P.request(req_id, req_type, **fields)))
        while True:
            line = self._rfile.readline()
            if not line:
                raise ConnectionError("server closed the connection mid-request")
            msg = P.decode_message(line)
            if msg.get("id") not in (req_id, None):
                continue  # a stray frame for another request; not ours
            if msg.get("type") == "event":
                if on_event is not None:
                    on_event(msg.get("event") or {})
                continue
            if msg.get("type") != "response":
                raise P.ProtocolError(f"unexpected frame type {msg.get('type')!r}")
            if msg.get("ok"):
                return msg.get("result") or {}
            raise P.decode_error(msg.get("error") or {})

    # -- request types -------------------------------------------------------

    def ping(self) -> dict:
        return self._call("ping")

    def stats(self) -> dict:
        """The server's observability snapshot (cache hit rates, queue depth,
        coalescing counts, latency percentiles)."""
        return self._call("stats")

    def shutdown(self) -> dict:
        """Ask the server to stop accepting connections and exit."""
        return self._call("shutdown")

    def schedule(
        self,
        *,
        proc: dict,
        schedule: dict,
        knobs: Optional[dict] = None,
        stream: bool = False,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Apply (or replay) a schedule server-side.

        ``proc`` is ``{"source": ...}`` or ``{"ref": "pkg.mod:attr"}``;
        ``schedule`` is ``{"ref": ...}`` (optionally with ``args``/``kwargs``)
        or ``{"trace": <Trace.to_dict()>}``.  Returns the scheduled
        procedure's pretty-printed code, ``state_hash``, the recorded trace,
        and which cache tier answered (``hit`` / ``miss`` / ``replay`` /
        ``coalesced``)."""
        return self._call(
            "schedule",
            on_event=on_event,
            proc=proc,
            schedule=schedule,
            knobs=dict(knobs or {}),
            stream=bool(stream),
        )

    def replay_trace(self, *, proc: dict, trace: dict, **kw) -> dict:
        """Convenience wrapper: replay a recorded trace against ``proc``."""
        return self.schedule(proc=proc, schedule={"trace": trace}, **kw)

    def tune(
        self,
        *,
        spec: dict,
        configs: Optional[List[dict]] = None,
        space: Optional[dict] = None,
        stream: bool = False,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Run a measurement sweep server-side.

        ``spec`` follows :func:`repro.tune.runner.evaluate_spec` (dotted
        ``proc`` / ``schedule`` refs, ``backend``, ``repeats``, ...);
        candidates come from ``configs`` (explicit list) or ``space``
        (``{"ref": ...}`` resolving to a :class:`~repro.tune.space.Space`).
        With ``stream=True`` the server emits one event per measurement —
        pass ``on_event`` to watch progress."""
        fields = {"spec": dict(spec), "stream": bool(stream)}
        if configs is not None:
            fields["configs"] = [dict(c) for c in configs]
        if space is not None:
            fields["space"] = space
        return self._call("tune", on_event=on_event, **fields)
