"""Slotted adjacency slabs: many small int sets in one flat array.

The dict-of-sets adjacency layout pays >200 bytes of ``set`` overhead
per node before storing a single neighbour.  :class:`SlotSlabs` packs
all the per-node sequences ("slots") into one shared ``array('q')``
data slab with three parallel header arrays (offset, length, capacity).
A slot with no members costs 16 bytes of headers; each member costs 8
bytes plus amortized-doubling slack.

Growth policy
-------------
A full slot doubles: its segment is copied to the tail of the data slab
and the old segment becomes a tombstone (counted in ``_dead``).  When
tombstones exceed half the slab (and a 4096-cell floor), the slab is
compacted in one O(live) pass that rewrites every live segment with a
tight capacity.  :meth:`SlotSlabs.from_members` lays a whole
collection out the same way — every slot tight, from counts and prefix
sums — so a bulk-loaded slot's first append is a growth.  Removal is
swap-with-last inside the segment, so the slab never tombstones on
removal — only growth and slot clearing leave dead cells behind.

Membership
----------
Small slots answer membership/position queries with ``array.index`` (a
C scan over at most ``OVERLAY_MIN`` cells).  Slots that reach
``OVERLAY_MIN`` members get a per-slot overlay ``dict[value -> pos]``
so hub nodes keep O(1) membership and removal; the overlay is dropped
once the slot shrinks well below the threshold (hysteresis at 1/4).

Slots hold *sets* semantically: callers must not append duplicates
(the graph/index layers check membership first, exactly as the dict
core's ``set.add`` paths did behind their own pre-checks).
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from itertools import accumulate, compress
from typing import Iterator

#: slots at or above this many members carry a value→position overlay dict
OVERLAY_MIN = 256
#: compaction floor: never compact slabs smaller than this many dead cells
COMPACT_MIN_DEAD = 4096


class SlotSlabs:
    """A collection of growable int sequences packed into one array."""

    __slots__ = ("_data", "_off", "_len", "_cap", "_free", "_dead", "_overlay")

    def __init__(self) -> None:
        self._data = array("q")
        self._off = array("q")
        self._len = array("i")
        self._cap = array("i")
        self._free: list[int] = []
        self._dead: int = 0
        self._overlay: dict[int, dict[int, int]] = {}

    @classmethod
    def from_members(
        cls, num_slots: int, slots: Sequence[int], members: Sequence[int]
    ) -> "SlotSlabs":
        """Slabs of *num_slots* slots where slot ``s`` holds ``members[i]``
        for every ``i`` with ``slots[i] == s``, in index order.

        Equal, slot for slot, to ``new_slot()`` *num_slots* times and then
        ``append(slots[i], members[i])`` for each ``i`` in turn, but laid
        out in one pass: the slots are counted, the offsets are their
        prefix sums, and each member is written once.  Every slot is tight
        (capacity = length), nothing is dead, and every slot of at least
        ``OVERLAY_MIN`` members carries its overlay.
        """
        lengths = array("i", bytes(4 * num_slots))
        for slot in slots:
            lengths[slot] += 1
        offsets = array("q", accumulate(lengths, initial=0))
        offsets.pop()
        cursor = array("q", offsets)
        data = array("q", bytes(8 * len(members)))
        for slot, member in zip(slots, members):
            position = cursor[slot]
            data[position] = member
            cursor[slot] = position + 1
        slabs = cls()
        slabs._data = data
        slabs._off = offsets
        slabs._len = lengths
        slabs._cap = array("i", lengths)
        for slot in compress(range(num_slots), map(OVERLAY_MIN.__le__, lengths)):
            slabs._build_overlay(slot)
        return slabs

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------

    def new_slot(self) -> int:
        """Allocate an empty slot (recycling freed ids) and return it."""
        if self._free:
            return self._free.pop()
        slot = len(self._off)
        self._off.append(0)
        self._len.append(0)
        self._cap.append(0)
        return slot

    def free_slot(self, slot: int) -> None:
        """Clear *slot* and return its id to the freelist."""
        self.clear_slot(slot)
        self._free.append(slot)

    def clear_slot(self, slot: int) -> None:
        """Drop all members of *slot*; its segment becomes tombstones."""
        self._dead += self._cap[slot]
        self._off[slot] = 0
        self._len[slot] = 0
        self._cap[slot] = 0
        self._overlay.pop(slot, None)
        self._maybe_compact()

    @property
    def num_slots(self) -> int:
        return len(self._off)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def length(self, slot: int) -> int:
        return self._len[slot]

    def contains(self, slot: int, value: int) -> bool:
        overlay = self._overlay.get(slot)
        if overlay is not None:
            return value in overlay
        off = self._off[slot]
        try:
            self._data.index(value, off, off + self._len[slot])
            return True
        except ValueError:
            return False

    def to_list(self, slot: int) -> list[int]:
        off = self._off[slot]
        return self._data[off : off + self._len[slot]].tolist()

    def segment(self, slot: int) -> array:
        """The slot's members as a fresh ``array('q')`` (C-speed copy)."""
        off = self._off[slot]
        return self._data[off : off + self._len[slot]]

    def iter_slot(self, slot: int) -> Iterator[int]:
        """Iterate the slot's members; the slab must not be mutated."""
        data = self._data
        off = self._off[slot]
        return iter(data[off : off + self._len[slot]])

    # ------------------------------------------------------------------
    # Mutators
    # ------------------------------------------------------------------

    def append(self, slot: int, value: int) -> None:
        """Add *value* to *slot* (caller guarantees it is not present)."""
        length = self._len[slot]
        if length == self._cap[slot]:
            self._grow(slot)
        self._data[self._off[slot] + length] = value
        self._len[slot] = length + 1
        overlay = self._overlay.get(slot)
        if overlay is not None:
            overlay[value] = length
        elif length + 1 >= OVERLAY_MIN:
            self._build_overlay(slot)

    def remove(self, slot: int, value: int, missing_ok: bool = False) -> bool:
        """Swap-remove *value* from *slot*; returns whether it was present."""
        off = self._off[slot]
        length = self._len[slot]
        overlay = self._overlay.get(slot)
        if overlay is not None:
            pos = overlay.pop(value, None)
            if pos is None:
                if missing_ok:
                    return False
                raise ValueError(f"value {value} not in slot {slot}")
        else:
            try:
                pos = self._data.index(value, off, off + length) - off
            except ValueError:
                if missing_ok:
                    return False
                raise ValueError(f"value {value} not in slot {slot}") from None
        last = length - 1
        if pos != last:
            moved = self._data[off + last]
            self._data[off + pos] = moved
            if overlay is not None:
                overlay[moved] = pos
        self._len[slot] = last
        if overlay is not None and last < OVERLAY_MIN // 4:
            del self._overlay[slot]
        return True

    # ------------------------------------------------------------------
    # Growth and compaction
    # ------------------------------------------------------------------

    def _grow(self, slot: int) -> None:
        # compact *before* growing: compaction trims every capacity to its
        # length, which would take back the room the caller appends into
        self._maybe_compact()
        cap = self._cap[slot]
        new_cap = 4 if cap == 0 else cap * 2
        data = self._data
        new_off = len(data)
        if cap:
            old_off = self._off[slot]
            data.extend(data[old_off : old_off + cap])
            self._dead += cap
        data.frombytes(bytes(8 * (new_cap - cap)))
        self._off[slot] = new_off
        self._cap[slot] = new_cap

    def _maybe_compact(self) -> None:
        if self._dead > COMPACT_MIN_DEAD and self._dead * 2 > len(self._data):
            self.compact()

    def compact(self) -> None:
        """Rewrite every live segment contiguously with tight capacity."""
        old = self._data
        new = array("q")
        for slot in range(len(self._off)):
            length = self._len[slot]
            new_off = len(new)
            if length:
                off = self._off[slot]
                new.extend(old[off : off + length])
            self._off[slot] = new_off
            self._cap[slot] = length
        self._data = new
        self._dead = 0

    def _build_overlay(self, slot: int) -> None:
        off = self._off[slot]
        segment = self._data[off : off + self._len[slot]]
        self._overlay[slot] = {value: pos for pos, value in enumerate(segment)}

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------

    def copy(self) -> "SlotSlabs":
        clone = SlotSlabs()
        clone._data = array("q", self._data)
        clone._off = array("q", self._off)
        clone._len = array("i", self._len)
        clone._cap = array("i", self._cap)
        clone._free = list(self._free)
        clone._dead = self._dead
        clone._overlay = {slot: dict(ov) for slot, ov in self._overlay.items()}
        return clone

    def approx_bytes(self) -> int:
        """Resident bytes of the slab, headers, freelist and overlays."""
        total = (
            sys.getsizeof(self._data)
            + sys.getsizeof(self._off)
            + sys.getsizeof(self._len)
            + sys.getsizeof(self._cap)
            + sys.getsizeof(self._free)
            + sys.getsizeof(self._overlay)
        )
        for overlay in self._overlay.values():
            total += sys.getsizeof(overlay) + 32 * len(overlay)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SlotSlabs slots={len(self._off)} cells={len(self._data)} "
            f"dead={self._dead} overlays={len(self._overlay)}>"
        )
