"""The CRC-framed feed format: every mangling must be detected."""

from __future__ import annotations

import json
import zlib

import pytest

from repro.exceptions import SerializationError
from repro.core.codec import stamp_record as feed_record
from repro.replication.feed import (
    FEED_FORMAT_VERSION,
    decode_feed_frame,
    encode_feed_frame,
)


def frame(epoch: int = 0, last_lsn: int = 3, lsns=(1, 2, 3)) -> bytes:
    records = [feed_record(lsn, [{"op": "insert_node", "args": [lsn]}]) for lsn in lsns]
    return encode_feed_frame(epoch, last_lsn, records)


class TestRoundTrip:
    def test_preserves_everything(self):
        decoded = decode_feed_frame(frame(epoch=7, last_lsn=9, lsns=(4, 5)))
        assert decoded.epoch == 7
        assert decoded.last_lsn == 9
        assert [lsn for lsn, _ in decoded.records] == [4, 5]
        assert decoded.records[0][1] == [{"op": "insert_node", "args": [4]}]

    def test_empty_frame(self):
        decoded = decode_feed_frame(frame(lsns=()))
        assert decoded.records == []
        assert decoded.last_lsn == 3

    def test_record_carries_version_and_crc(self):
        record = feed_record(1, [])
        assert record["v"] == FEED_FORMAT_VERSION
        assert isinstance(record["crc"], int)


class TestDetection:
    def test_truncation(self):
        raw = frame()
        for cut in (1, len(raw) // 2, len(raw) - 1):
            with pytest.raises(SerializationError):
                decode_feed_frame(raw[:cut])

    def test_flipped_byte(self):
        raw = bytearray(frame())
        raw[len(raw) // 2] ^= 0xFF
        with pytest.raises(SerializationError):
            decode_feed_frame(bytes(raw))

    def test_record_corrupted_behind_a_valid_envelope(self):
        """A middlebox that re-frames: outer CRC passes, record CRC must
        catch the tampering."""
        document = json.loads(frame())
        document["data"]["records"][1]["lsn"] += 1
        payload = json.dumps(document["data"], sort_keys=True, separators=(",", ":"))
        reframed = json.dumps(
            {"crc": zlib.crc32(payload.encode("utf-8")), "data": json.loads(payload)},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        with pytest.raises(SerializationError):
            decode_feed_frame(reframed)

    def test_future_format_version_rejected(self):
        document = json.loads(frame(lsns=()))
        document["data"]["v"] = FEED_FORMAT_VERSION + 1
        payload = json.dumps(document["data"], sort_keys=True, separators=(",", ":"))
        reframed = (
            f'{{"crc": {zlib.crc32(payload.encode("utf-8"))}, "data": {payload}}}'
        ).encode("utf-8")
        with pytest.raises(SerializationError):
            decode_feed_frame(reframed)

    def test_not_json_at_all(self):
        with pytest.raises(SerializationError):
            decode_feed_frame(b"\x00\x01\x02")

    @pytest.mark.parametrize(
        "field, value",
        [("lsn", True), ("lsn", -1), ("v", True), ("v", -1), ("v", FEED_FORMAT_VERSION + 1)],
    )
    def test_record_lsn_and_version_must_be_counts(self, field, value):
        """CRC-valid records behind a valid envelope, refused on shape."""
        body = {"lsn": 1, "ops": [], "v": FEED_FORMAT_VERSION, field: value}
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
        record = dict(body, crc=zlib.crc32(payload.encode("utf-8")))
        with pytest.raises(SerializationError):
            decode_feed_frame(encode_feed_frame(0, 1, [record]))
