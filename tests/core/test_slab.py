"""Unit tests for the slotted adjacency slabs of the array-backed core."""

import random

import pytest

from repro.core.slab import COMPACT_MIN_DEAD, OVERLAY_MIN, SlotSlabs


class TestSlotLifecycle:
    def test_new_slots_are_empty_and_sequential(self):
        s = SlotSlabs()
        a, b = s.new_slot(), s.new_slot()
        assert (a, b) == (0, 1)
        assert s.num_slots == 2
        assert s.length(a) == 0
        assert s.to_list(a) == []

    def test_free_slot_recycles_id(self):
        s = SlotSlabs()
        a = s.new_slot()
        s.append(a, 5)
        s.free_slot(a)
        b = s.new_slot()
        assert b == a
        assert s.length(b) == 0
        assert not s.contains(b, 5)

    def test_clear_slot_keeps_id_live(self):
        s = SlotSlabs()
        a = s.new_slot()
        for v in (1, 2, 3):
            s.append(a, v)
        s.clear_slot(a)
        assert s.length(a) == 0
        s.append(a, 9)
        assert s.to_list(a) == [9]


class TestMembership:
    def test_append_contains_remove(self):
        s = SlotSlabs()
        a = s.new_slot()
        for v in (10, 20, 30):
            s.append(a, v)
        assert s.contains(a, 20)
        assert not s.contains(a, 40)
        assert s.remove(a, 20)
        assert not s.contains(a, 20)
        assert sorted(s.to_list(a)) == [10, 30]

    def test_remove_swaps_with_last(self):
        s = SlotSlabs()
        a = s.new_slot()
        for v in (1, 2, 3, 4):
            s.append(a, v)
        s.remove(a, 1)
        # swap-with-last: 4 moved into position 0, order is not preserved
        assert s.to_list(a) == [4, 2, 3]

    def test_remove_missing(self):
        s = SlotSlabs()
        a = s.new_slot()
        s.append(a, 1)
        with pytest.raises(ValueError):
            s.remove(a, 2)
        assert s.remove(a, 2, missing_ok=True) is False
        assert s.remove(a, 1) is True
        assert s.length(a) == 0

    def test_read_views_agree(self):
        s = SlotSlabs()
        a = s.new_slot()
        values = [7, 3, 11, 5]
        for v in values:
            s.append(a, v)
        assert s.to_list(a) == values
        assert list(s.segment(a)) == values
        assert list(s.iter_slot(a)) == values

    def test_slots_are_isolated(self):
        s = SlotSlabs()
        a, b = s.new_slot(), s.new_slot()
        s.append(a, 1)
        s.append(b, 2)
        assert s.to_list(a) == [1]
        assert s.to_list(b) == [2]
        s.remove(a, 1)
        assert s.to_list(b) == [2]


class TestOverlay:
    def test_overlay_built_at_threshold_and_dropped_with_hysteresis(self):
        s = SlotSlabs()
        a = s.new_slot()
        for v in range(OVERLAY_MIN - 1):
            s.append(a, v)
        assert a not in s._overlay
        s.append(a, OVERLAY_MIN - 1)
        assert a in s._overlay
        # membership and removal still correct through the overlay
        assert s.contains(a, 0)
        assert not s.contains(a, OVERLAY_MIN)
        # shrink below the 1/4 hysteresis point: overlay dropped
        for v in range(OVERLAY_MIN - OVERLAY_MIN // 4 + 1):
            s.remove(a, v)
        assert a not in s._overlay
        remaining = set(range(OVERLAY_MIN)) - set(
            range(OVERLAY_MIN - OVERLAY_MIN // 4 + 1)
        )
        assert set(s.to_list(a)) == remaining

    def test_hub_slot_matches_set_semantics(self):
        rng = random.Random(11)
        s = SlotSlabs()
        a = s.new_slot()
        oracle: set[int] = set()
        for _ in range(4000):
            v = rng.randrange(600)
            if v in oracle:
                s.remove(a, v)
                oracle.discard(v)
            else:
                s.append(a, v)
                oracle.add(v)
        assert set(s.to_list(a)) == oracle
        assert s.length(a) == len(oracle)
        for v in range(600):
            assert s.contains(a, v) == (v in oracle)


class TestCompaction:
    def test_growth_tombstones_then_compaction_reclaims(self):
        s = SlotSlabs()
        slots = [s.new_slot() for _ in range(64)]
        # repeated doubling leaves dead cells behind until the compactor
        # (> COMPACT_MIN_DEAD and more than half the slab) kicks in
        for v in range(512):
            for slot in slots:
                s.append(slot, v)
        assert not (s._dead > COMPACT_MIN_DEAD and s._dead * 2 > len(s._data))
        expected = {slot: list(range(512)) for slot in slots}
        s.compact()
        assert s._dead == 0
        # tight capacity: no slack cells remain after an explicit compact
        assert len(s._data) == 64 * 512
        for slot in slots:
            assert s.to_list(slot) == expected[slot]

    def test_compaction_triggered_by_growth_keeps_the_new_capacity(self):
        # regression: _grow used to compact *after* allocating the doubled
        # segment; compaction trimmed it back to the old length and the
        # pending append overwrote the first member of the next slot
        s = SlotSlabs()
        grower, victim, filler = s.new_slot(), s.new_slot(), s.new_slot()
        for v in range(2048):
            s.append(grower, v)
        for v in range(4):
            s.append(victim, 9000 + v)
        for v in range(600):
            s.append(filler, v)
        s.clear_slot(filler)
        # more than half the slab is dead, but still under the floor: the
        # tombstone of the grower's next doubling is what crosses it
        assert s._dead * 2 > len(s._data) and s._dead <= COMPACT_MIN_DEAD
        assert s._dead + 2048 > COMPACT_MIN_DEAD
        s.append(grower, 2048)
        assert s.to_list(victim) == [9000, 9001, 9002, 9003]
        assert s.to_list(grower) == list(range(2049))
        assert s.contains(grower, 2048) and s.length(grower) == 2049

    def test_compact_preserves_free_and_empty_slots(self):
        s = SlotSlabs()
        a, b, c = s.new_slot(), s.new_slot(), s.new_slot()
        for v in range(10):
            s.append(a, v)
            s.append(c, v * 2)
        s.free_slot(b)
        s.compact()
        assert s.to_list(a) == list(range(10))
        assert s.to_list(c) == [v * 2 for v in range(10)]
        assert s.new_slot() == b


class TestCopyAndSizing:
    def test_copy_is_independent(self):
        s = SlotSlabs()
        a = s.new_slot()
        s.append(a, 1)
        clone = s.copy()
        clone.append(a, 2)
        s.remove(a, 1)
        assert s.to_list(a) == []
        assert sorted(clone.to_list(a)) == [1, 2]

    def test_copy_preserves_overlays(self):
        s = SlotSlabs()
        a = s.new_slot()
        for v in range(OVERLAY_MIN):
            s.append(a, v)
        clone = s.copy()
        assert a in clone._overlay
        assert clone._overlay[a] is not s._overlay[a]
        clone.remove(a, 0)
        assert s.contains(a, 0)

    def test_approx_bytes_grows_with_data(self):
        s = SlotSlabs()
        a = s.new_slot()
        empty = s.approx_bytes()
        for v in range(1000):
            s.append(a, v)
        assert s.approx_bytes() > empty


class TestFromMembers:
    """The bulk layout equals the appends it stands for, slot for slot."""

    @staticmethod
    def appended(num_slots, slots, members):
        s = SlotSlabs()
        for _ in range(num_slots):
            s.new_slot()
        for slot, member in zip(slots, members):
            s.append(slot, member)
        return s

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_appends_and_is_tight(self, seed):
        rng = random.Random(seed)
        num_slots = 40
        # slot 0 is a hub (overlay), slot 1 sits just under the threshold
        slots = [0] * (OVERLAY_MIN + 7) + [1] * (OVERLAY_MIN - 1)
        slots += [rng.randrange(2, num_slots - 3) for _ in range(500)]
        rng.shuffle(slots)
        members = [rng.randrange(1 << 40) for _ in slots]
        bulk = SlotSlabs.from_members(num_slots, slots, members)
        reference = self.appended(num_slots, slots, members)
        assert bulk.num_slots == reference.num_slots == num_slots
        for slot in range(num_slots):
            assert bulk.to_list(slot) == reference.to_list(slot)
        assert bulk._cap == bulk._len
        assert bulk._dead == 0 and len(bulk._data) == len(members)
        assert set(bulk._overlay) == {0}
        assert bulk._overlay == reference._overlay
        assert bulk.to_list(num_slots - 1) == []

    def test_appending_to_a_tight_slot_grows_it(self):
        bulk = SlotSlabs.from_members(3, [2, 0, 2], [7, 8, 9])
        bulk.append(2, 10)
        assert bulk.to_list(2) == [7, 9, 10]
        assert bulk._cap[2] == 4 and bulk._dead == 2
        assert bulk.to_list(0) == [8]
        assert bulk.remove(2, 7) and bulk.to_list(2) == [10, 9]

    def test_no_slots(self):
        bulk = SlotSlabs.from_members(0, [], [])
        assert bulk.num_slots == 0 and len(bulk._data) == 0
