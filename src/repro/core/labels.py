"""String↔int label interning for the graph core.

A million-node XMark graph carries a few dozen distinct labels; storing
one Python str reference per node in a dict costs ~50 bytes per entry
even with shared string objects.  The slab core stores an ``array('i')``
of label ids instead (4 bytes per node) and resolves them through this
two-way table.  The table is append-only: labels of deleted nodes stay
interned (a handful of strings), so label ids are stable for the life of
the graph — which is what lets the journal undo paths restore a removed
node's label by re-interning it.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence


class LabelInterner:
    """An append-only two-way string↔int table."""

    __slots__ = ("_names", "_ids")

    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, name: str) -> int:
        """The id of *name*, assigning the next free id on first sight."""
        label_id = self._ids.get(name)
        if label_id is None:
            label_id = len(self._names)
            self._names.append(name)
            self._ids[name] = label_id
        return label_id

    def intern_all(self, names: Sequence[str]) -> array:
        """The ids of *names* in order, as an ``array('i')``: :meth:`intern`
        on each in turn, with one call per distinct name."""
        for name in dict.fromkeys(names):
            self.intern(name)
        return array("i", map(self._ids.__getitem__, names))

    def name_of(self, label_id: int) -> str:
        return self._names[label_id]

    def id_of(self, name: str) -> int:
        """The id of *name*; raises :class:`KeyError` if never interned."""
        return self._ids[name]

    def __contains__(self, name: object) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def copy(self) -> "LabelInterner":
        clone = LabelInterner()
        clone._names = list(self._names)
        clone._ids = dict(self._ids)
        return clone

    def approx_bytes(self) -> int:
        total = sys.getsizeof(self._names) + sys.getsizeof(self._ids)
        for name in self._names:
            total += sys.getsizeof(name) + 32  # string + dict entry overhead
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LabelInterner labels={len(self._names)}>"
