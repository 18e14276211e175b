"""Array-backed storage primitives for the graph and index cores.

The dict-of-sets representation that carried the reproduction to ~150k
nodes spends most of its bytes on per-object overhead: a Python ``set``
costs >200 bytes before it holds a single element, and a million sparse
oid keys cost a dict slot plus a boxed int each.  This package provides
the compact building blocks the rewritten cores are made of:

* :class:`~repro.core.intmap.PagedIntMap` — an int→int map stored as
  fixed-size ``array('q')`` pages (~8 bytes per entry for dense keys);
* :class:`~repro.core.slab.SlotSlabs` — slotted adjacency slabs: many
  small int sequences packed into one ``array('q')`` with per-slot
  capacity, amortized-doubling growth and tombstone compaction;
* :class:`~repro.core.labels.LabelInterner` — a string↔int label table;
* :mod:`~repro.core.codec` — the byte-level codecs: delta-coded sorted
  int arrays (v2 extents), the CRC-stamped log record, the CRC envelope;
* :mod:`~repro.core.sizing` — deep ``approx_bytes`` accounting.

The dict-backed reference implementations the differential tests
compare these cores against live with the tests, in
``tests/core/refimpl.py``.
"""

from repro.core.codec import delta_decode, delta_encode
from repro.core.intmap import PagedIntMap
from repro.core.labels import LabelInterner
from repro.core.sizing import deep_sizeof
from repro.core.slab import SlotSlabs

__all__ = [
    "PagedIntMap",
    "SlotSlabs",
    "LabelInterner",
    "delta_encode",
    "delta_decode",
    "deep_sizeof",
]
