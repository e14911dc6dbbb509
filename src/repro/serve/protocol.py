"""Length-prefixed wire protocol for the serve tier.

A connection carries *frames*: a 4-byte big-endian payload length
followed by that many bytes of canonical JSON (sorted keys, no
whitespace — the same encoding convention as the obs/trace JSONL
exports).  Every payload is an object with a ``type`` key.

The first exchange on every connection is a handshake: the client sends
a ``hello`` carrying :data:`PROTOCOL_FORMAT` and :data:`PROTOCOL_VERSION`
plus its role (``instance`` streams events, ``control`` drives the
worker); the server answers ``hello_ack`` with the same format/version
(or an ``error`` frame and a close).  A version mismatch is a loud
:class:`ProtocolError` on both sides, never a silent misparse.

Malformed input — truncated length prefix, truncated payload, an
oversized frame, JSON that does not decode, a payload that is not an
object, a missing ``type`` — always raises :class:`ProtocolError` naming
the frame position.  Event payloads reuse the canonical obs-event dict
encoding (:meth:`repro.obs.trace.ObsEvent.to_dict`), so the bytes an
instance streams are exactly the bytes its JSONL export would hold.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import List, Optional

from repro.documents import DocumentError, canonical_json, check_envelope
from repro.obs.trace import ObsEvent

PROTOCOL_FORMAT = "repro-serve-proto"
PROTOCOL_VERSION = 1

#: Upper bound on a single frame's payload (guards against a corrupt or
#: hostile length prefix allocating unbounded memory).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct("!I")

#: Frame types either side may legally send (loud error otherwise).
FRAME_TYPES = frozenset(
    {
        "hello",
        "hello_ack",
        "events",
        "credit",
        "checkpoint",
        "end",
        "end_ack",
        "report",
        "report_ack",
        "shutdown",
        "shutdown_ack",
        "error",
    }
)


class ProtocolError(DocumentError):
    """A frame violated the wire protocol (malformed, oversized, foreign
    version, unexpected type).  Protocol errors are not transient: the
    connection that raised one must be closed, not retried.  A
    :class:`~repro.documents.DocumentError`, like every decoder error."""


class PeerClosedError(ProtocolError, ConnectionError):
    """The peer went away mid-conversation: EOF where a frame was
    expected, or a frame cut off mid-write.  Unlike other protocol
    errors this is how a SIGKILLed worker looks from the instance side,
    so it also subclasses :class:`ConnectionError` — failover links
    catch connection errors and retry, while genuinely malformed frames
    stay fatal."""


def encode_frame(payload: dict) -> bytes:
    """Canonical JSON payload behind a 4-byte big-endian length prefix."""
    frame_type = payload.get("type")
    if frame_type not in FRAME_TYPES:
        raise ProtocolError(f"cannot encode unknown frame type {frame_type!r}")
    body = canonical_json(payload).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); batch fewer events per frame"
        )
    return _LENGTH.pack(len(body)) + body


def decode_payload(body: bytes, where: str = "frame") -> dict:
    """Parse one frame payload (loud on malformed bytes)."""
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as error:  # incl. UnicodeDecodeError
        raise ProtocolError(f"{where}: malformed frame payload: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"{where}: frame payload is not an object")
    frame_type = payload.get("type")
    if frame_type not in FRAME_TYPES:
        raise ProtocolError(f"{where}: unknown frame type {frame_type!r}")
    return payload


class FrameStream:
    """Frame reader/writer over one asyncio stream pair.

    Tracks the frame count so malformed-frame errors name the position
    (``frame 17``) — the serve tier's debugging depends on it the same
    way JSONL import errors depend on line numbers.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.frames_read = 0
        self.frames_written = 0

    async def read(self) -> Optional[dict]:
        """Read one frame; ``None`` on clean EOF at a frame boundary."""
        prefix = await self.reader.read(_LENGTH.size)
        if not prefix:
            return None
        while len(prefix) < _LENGTH.size:
            more = await self.reader.read(_LENGTH.size - len(prefix))
            if not more:
                raise PeerClosedError(
                    f"frame {self.frames_read}: truncated length prefix "
                    f"({len(prefix)} of {_LENGTH.size} bytes)"
                )
            prefix += more
        (length,) = _LENGTH.unpack(prefix)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame {self.frames_read}: declared payload of {length} "
                f"bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES}); "
                "corrupt stream or foreign protocol"
            )
        try:
            body = await self.reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            raise PeerClosedError(
                f"frame {self.frames_read}: truncated payload "
                f"({len(error.partial)} of {length} bytes)"
            ) from None
        payload = decode_payload(body, where=f"frame {self.frames_read}")
        self.frames_read += 1
        return payload

    async def expect(self, *types: str) -> dict:
        """Read one frame and demand one of ``types`` (``error`` frames
        surface as ProtocolError carrying the peer's message)."""
        payload = await self.read()
        if payload is None:
            raise PeerClosedError(
                f"connection closed while waiting for {'/'.join(types)}"
            )
        if payload["type"] == "error" and "error" not in types:
            raise ProtocolError(f"peer error: {payload.get('message')}")
        if payload["type"] not in types:
            raise ProtocolError(
                f"expected {'/'.join(types)}, got {payload['type']!r}"
            )
        return payload

    async def write(self, payload: dict) -> None:
        self.writer.write(encode_frame(payload))
        self.frames_written += 1
        await self.writer.drain()

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (OSError, ConnectionError):
            pass


# -- handshake ----------------------------------------------------------

def hello(role: str, **fields) -> dict:
    return {
        "type": "hello",
        "format": PROTOCOL_FORMAT,
        "version": PROTOCOL_VERSION,
        "role": role,
        **fields,
    }


def check_version(payload: dict) -> dict:
    """Validate a hello/hello_ack's format + version fields (loud)."""
    return check_envelope(
        payload, PROTOCOL_FORMAT, PROTOCOL_VERSION,
        where="handshake", error=ProtocolError,
    )


async def client_handshake(stream: FrameStream, role: str, **fields) -> dict:
    """Send hello, await hello_ack; returns the validated ack payload."""
    await stream.write(hello(role, **fields))
    return check_version(await stream.expect("hello_ack"))


async def server_handshake(stream: FrameStream, **ack_fields) -> dict:
    """Await hello, validate, send hello_ack; returns the hello payload.

    On a version/format mismatch the server answers with an ``error``
    frame (so the client sees *why*) before raising.
    """
    payload = await stream.expect("hello")
    try:
        check_version(payload)
    except ProtocolError as error:
        await stream.write({"type": "error", "message": str(error)})
        raise
    await stream.write(
        {
            "type": "hello_ack",
            "format": PROTOCOL_FORMAT,
            "version": PROTOCOL_VERSION,
            **ack_fields,
        }
    )
    return payload


# -- event payload encoding ---------------------------------------------

def events_frame(events: List[dict]) -> dict:
    """An ``events`` frame carrying canonical obs-event dicts."""
    return {"type": "events", "events": events}


def decode_events(payload: dict, where: str = "events frame") -> List[ObsEvent]:
    """Rebuild :class:`ObsEvent` records from an ``events`` frame (loud)."""
    records = payload.get("events")
    if not isinstance(records, list):
        raise ProtocolError(f"{where}: 'events' must be a list")
    events = []
    for index, record in enumerate(records):
        try:
            events.append(ObsEvent.from_dict(record))
        except (ValueError, TypeError) as error:
            raise ProtocolError(f"{where}, event {index}: {error}") from None
    return events
