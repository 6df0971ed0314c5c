"""The schedule service: a resident server that amortizes scheduling,
compilation, and tuning across clients and processes.

The synchronous API (:mod:`repro.api`) pays parse + fingerprint + apply on
every invocation and shares results only through the on-disk stores.  The
service keeps one warm process resident: the in-memory replay-cache tier,
parsed procedures, native artifacts, and leaderboard stay hot, identical
in-flight requests coalesce into one computation, and every answer is a
cache probe away for the next client.

- :mod:`repro.service.protocol` — canonical newline-delimited JSON framing,
  error encode/decode (exceptions cross the wire as themselves).
- :mod:`repro.service.server` — the asyncio :class:`ScheduleService`.
- :mod:`repro.service.client` — the blocking :class:`ServiceClient`.

Run a server: ``python -m repro.service --socket /tmp/repro.sock``.
"""

from .client import ServiceClient
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteServiceError,
    decode_error,
    decode_message,
    encode_error,
    encode_message,
)
from .server import JOURNAL_NAME, SOCKET_NAME, ScheduleService

__all__ = [
    "ScheduleService",
    "ServiceClient",
    "ProtocolError",
    "RemoteServiceError",
    "PROTOCOL_VERSION",
    "SOCKET_NAME",
    "JOURNAL_NAME",
    "encode_message",
    "decode_message",
    "encode_error",
    "decode_error",
]
