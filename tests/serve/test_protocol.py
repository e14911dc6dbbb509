"""Wire-protocol tests: framing, loud malformed-input errors, handshake."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.obs.trace import ObsEvent
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_FORMAT,
    PROTOCOL_VERSION,
    FrameStream,
    PeerClosedError,
    ProtocolError,
    check_version,
    decode_events,
    decode_payload,
    encode_frame,
    events_frame,
    hello,
)


def reader_for(data: bytes) -> FrameStream:
    """A FrameStream reading from an in-memory byte buffer (no writer).

    Must be called inside a running event loop (StreamReader binds one).
    """
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return FrameStream(reader, writer=None)


def read_one(data: bytes):
    async def scenario():
        return await reader_for(data).read()

    return asyncio.run(scenario())


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame({"type": "credit", "n": 1})
        assert read_one(frame) == {"type": "credit", "n": 1}

    def test_payload_is_canonical_json(self):
        frame = encode_frame({"type": "credit", "n": 1, "ack_seq": 7})
        body = frame[4:]
        assert body == json.dumps(
            {"type": "credit", "n": 1, "ack_seq": 7},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()

    def test_length_prefix_is_big_endian(self):
        frame = encode_frame({"type": "end"})
        (length,) = struct.unpack("!I", frame[:4])
        assert length == len(frame) - 4

    def test_encode_unknown_type_raises(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            encode_frame({"type": "gossip"})
        with pytest.raises(ProtocolError, match="unknown frame type"):
            encode_frame({})

    def test_clean_eof_returns_none(self):
        assert read_one(b"") is None

    def test_multiple_frames_in_sequence(self):
        data = encode_frame({"type": "end"}) + encode_frame({"type": "end_ack"})

        async def scenario():
            stream = reader_for(data)
            first = await stream.read()
            second = await stream.read()
            third = await stream.read()
            return first, second, third

        first, second, third = asyncio.run(scenario())
        assert first == {"type": "end"}
        assert second == {"type": "end_ack"}
        assert third is None


class TestMalformedInput:
    def test_truncated_length_prefix(self):
        with pytest.raises(PeerClosedError, match="frame 0: truncated length"):
            read_one(b"\x00\x00")

    def test_truncated_payload(self):
        frame = encode_frame({"type": "end"})
        with pytest.raises(PeerClosedError, match="frame 0: truncated payload"):
            read_one(frame[:-3])

    def test_oversized_declared_length(self):
        prefix = struct.pack("!I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            read_one(prefix)

    def test_malformed_json_payload(self):
        body = b"{not json"
        with pytest.raises(ProtocolError, match="frame 0: malformed"):
            read_one(struct.pack("!I", len(body)) + body)

    def test_non_utf8_payload(self):
        body = b'{"type":"end","x":"\xff"}'
        with pytest.raises(ProtocolError, match="malformed"):
            decode_payload(body)
        with pytest.raises(ProtocolError, match="frame 0: malformed"):
            read_one(struct.pack("!I", len(body)) + body)

    def test_non_object_payload(self):
        body = b"[1,2,3]"
        with pytest.raises(ProtocolError, match="not an object"):
            read_one(struct.pack("!I", len(body)) + body)

    def test_unknown_frame_type(self):
        body = json.dumps({"type": "gossip"}).encode()
        with pytest.raises(ProtocolError, match="unknown frame type 'gossip'"):
            read_one(struct.pack("!I", len(body)) + body)

    def test_error_names_frame_position(self):
        data = encode_frame({"type": "end"}) + b"\x00\x00\x00\x05junk"

        async def scenario():
            stream = reader_for(data)
            await stream.read()
            await stream.read()

        with pytest.raises(ProtocolError, match="frame 1"):
            asyncio.run(scenario())

    def test_peer_closed_is_both_protocol_and_connection_error(self):
        assert issubclass(PeerClosedError, ProtocolError)
        assert issubclass(PeerClosedError, ConnectionError)

    def test_decode_payload_where_prefix(self):
        with pytest.raises(ProtocolError, match="frame 42"):
            decode_payload(b"!!", where="frame 42")


class TestExpect:
    def test_expect_surfaces_peer_error_frame(self):
        data = encode_frame({"type": "error", "message": "you broke it"})

        async def scenario():
            await reader_for(data).expect("hello_ack")

        with pytest.raises(ProtocolError, match="you broke it"):
            asyncio.run(scenario())

    def test_expect_rejects_unexpected_type(self):
        data = encode_frame({"type": "credit", "n": 1})

        async def scenario():
            await reader_for(data).expect("end_ack")

        with pytest.raises(ProtocolError, match="expected end_ack, got 'credit'"):
            asyncio.run(scenario())

    def test_expect_eof_is_peer_closed(self):
        async def scenario():
            await reader_for(b"").expect("credit")

        with pytest.raises(PeerClosedError, match="connection closed"):
            asyncio.run(scenario())


class TestHandshake:
    def test_hello_carries_format_and_version(self):
        payload = hello("instance", instance=3)
        assert payload["format"] == PROTOCOL_FORMAT
        assert payload["version"] == PROTOCOL_VERSION
        assert payload["role"] == "instance"
        assert payload["instance"] == 3

    def test_check_version_accepts_current(self):
        check_version(hello("control"))

    def test_check_version_rejects_foreign_format(self):
        with pytest.raises(ProtocolError, match="not a repro-serve-proto document"):
            check_version({"format": "other-proto", "version": 1})

    def test_check_version_rejects_version_skew(self):
        with pytest.raises(ProtocolError, match="version 2"):
            check_version({"format": PROTOCOL_FORMAT, "version": 2})


class TestEventFrames:
    def events(self):
        return [
            ObsEvent(seq=0, cycle=0.0, kind="run_start", request_id=None,
                     data={"workload": "tpcc", "seed": 1}),
            ObsEvent(seq=1, cycle=5.0, kind="request_admitted", request_id=0,
                     data={"kind": "new_order"}),
        ]

    def test_round_trip(self):
        frame = events_frame([e.to_dict() for e in self.events()])
        decoded = decode_events(frame)
        assert [e.to_dict() for e in decoded] == [
            e.to_dict() for e in self.events()
        ]

    def test_missing_events_key_raises(self):
        with pytest.raises(ProtocolError, match="events"):
            decode_events({"type": "events"})

    def test_bad_event_names_index(self):
        frame = events_frame([e.to_dict() for e in self.events()])
        frame["events"][1] = {"bogus": True}
        with pytest.raises(ProtocolError, match="event 1"):
            decode_events(frame)
