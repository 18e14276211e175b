"""The byte-level codecs: delta-coded extents, the log record, the envelope.

Everything here is a pure function of its arguments and imports nothing
from the library, so any layer may use it.

**Delta codecs.**  Index extents serialize as sorted oid lists.  At rest
the gaps between consecutive sorted oids are small (document-local
allocation makes them mostly 1), so v2 wire dumps store ``[first, gap,
gap, ...]`` instead of absolute oids: JSON then emits one or two
characters per member instead of a full oid.  The codec is exact and
order-preserving; the in-memory core never stores extents this way (live
extents are unsorted compact arrays with O(1) swap-removal).

**The record.**  One committed batch travels as ``{"crc", "lsn", "ops",
"v"}`` — a line of the write-ahead log at rest, an element of a feed
frame in flight — where ``crc`` is the CRC32 of the canonical (compact,
sorted-key) JSON of the other three fields, so a reader re-serialises
and compares.  :func:`encode_record` / :func:`stamp_record` write it,
:func:`decode_record` is the one reader.

**The envelope.**  A whole document (a checkpoint file, a feed frame)
travels as ``{"crc": <crc>, "data": <canonical JSON>}``: :func:`seal` /
:func:`unseal`.  A writer that formats its canonical text itself (the
checkpoint, straight off the slab core) assembles it with
:func:`canonical_object` / :func:`canonical_array` / :func:`delta_text`
/ :func:`canonical_value` and hands it to :func:`seal_canonical`, which
encodes it once for the CRC and the file.

Both formats are frozen: ``tests/store/fixtures/golden/`` holds bytes
that every later version must reproduce.
"""

from __future__ import annotations

import json
import zlib
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import sub
from typing import Any, Iterable, Mapping, Optional, Sequence

#: version of the record layout; readers refuse anything newer
RECORD_FORMAT_VERSION = 1


def delta_encode(sorted_values: Sequence[int]) -> list[int]:
    """``[v0, v1, v2, ...]`` (ascending) → ``[v0, v1-v0, v2-v1, ...]``."""
    out: list[int] = []
    prev = 0
    for value in sorted_values:
        out.append(value - prev)
        prev = value
    return out


def delta_decode(deltas: Iterable[int]) -> list[int]:
    """Inverse of :func:`delta_encode`."""
    out: list[int] = []
    acc = 0
    for delta in deltas:
        acc += delta
        out.append(acc)
    return out


def canonical(value: Any) -> str:
    """Compact sorted-key JSON: the text every CRC here is taken over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_value(value: Any) -> str:
    """:func:`canonical` of one node value, on its two short paths.

    ``None`` and plain strings (every XML text value) skip the encoder
    object ``json.dumps`` builds per call; anything else is handed to it.
    """
    if value is None:
        return "null"
    if type(value) is str:
        return encode_basestring_ascii(value)
    return canonical(value)


def canonical_object(members: Mapping[str, str]) -> str:
    """The canonical text of an object whose member values are already
    canonical texts: keys sorted, no whitespace.  One join: a member
    value (a whole graph's text, in a checkpoint) is copied once."""
    parts = ["{"]
    for key in sorted(members):
        if len(parts) > 1:
            parts.append(",")
        parts += (encode_basestring_ascii(key), ":", members[key])
    parts.append("}")
    return "".join(parts)


def canonical_array(items: Iterable[str]) -> str:
    """The canonical text of an array of already-canonical texts."""
    return "[%s]" % ",".join(items)


def delta_text(sorted_values: Sequence[int]) -> str:
    """``canonical(delta_encode(sorted_values))`` without the list between."""
    return canonical_array(map(str, map(sub, sorted_values, chain((0,), sorted_values))))


def crc_of(text: str) -> int:
    """The CRC32 both formats stamp, over *text* as UTF-8."""
    return zlib.crc32(text.encode("utf-8"))


def is_count(value: Any) -> bool:
    """A non-negative int that is not a bool (LSNs, epochs, versions)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _record_body(lsn: int, ops: list) -> str:
    return canonical({"lsn": lsn, "ops": ops, "v": RECORD_FORMAT_VERSION})


def encode_record(lsn: int, ops: list) -> str:
    """The canonical JSON of the CRC-stamped record; *ops* is serialised once.

    Raises ``TypeError`` / ``ValueError`` when *ops* is not JSON.
    """
    body = _record_body(lsn, ops)
    return f'{{"crc":{crc_of(body)},{body[1:]}'  # "crc" sorts first


def stamp_record(lsn: int, ops: list) -> dict[str, Any]:
    """The same record as a dict, for nesting inside a sealed document."""
    return {
        "crc": crc_of(_record_body(lsn, ops)),
        "lsn": lsn,
        "ops": ops,
        "v": RECORD_FORMAT_VERSION,
    }


def decode_record(record: Any) -> Optional[tuple[int, list]]:
    """Verify one parsed record; ``(lsn, ops)``, or ``None`` when damaged.

    Damaged is what a torn write or a flipped bit leaves: not an object,
    no or a wrong ``crc``, ``lsn`` not a count, ``ops`` not a list.  A
    record that passes its CRC but whose ``v`` is not a count, or is
    newer than :data:`RECORD_FORMAT_VERSION`, is whole and unreadable:
    that raises ``ValueError``, because a reader must not guess at it.
    """
    if not isinstance(record, dict) or "crc" not in record:
        return None
    body = {key: value for key, value in record.items() if key != "crc"}
    if record["crc"] != crc_of(canonical(body)):
        return None
    version = body.get("v", 0)
    if not is_count(version) or version > RECORD_FORMAT_VERSION:
        raise ValueError(
            f"record format version {version!r} is not one this reader "
            f"supports (<= {RECORD_FORMAT_VERSION})"
        )
    lsn, ops = body.get("lsn"), body.get("ops")
    if not is_count(lsn) or not isinstance(ops, list):
        return None
    return lsn, ops


def seal_canonical(payload: str) -> bytes:
    """The envelope around an already-canonical *payload*, as the bytes
    of the document: *payload* is encoded once, for the CRC and the file."""
    body = payload.encode("utf-8")
    return b'{"crc": %d, "data": %b}' % (zlib.crc32(body), body)


def seal(data: Any) -> str:
    """Wrap *data* in the CRC envelope."""
    return seal_canonical(canonical(data)).decode("utf-8")


def unseal(raw: bytes | str, error: type, what: str) -> Any:
    """Open an envelope and return its verified ``data``.

    Not JSON, not an envelope or a CRC mismatch raises *error*, naming
    the document as *what*.
    """
    try:
        document = json.loads(raw)
        crc, data = document["crc"], document["data"]
    except (ValueError, KeyError, TypeError) as exc:
        raise error(f"{what} is not a sealed JSON document: {exc!r}") from exc
    if crc != crc_of(canonical(data)):
        raise error(f"{what} failed its CRC check")
    return data
