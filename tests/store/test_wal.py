"""The write-ahead log: LSNs, rotation, fsync policy, torn tails, CRCs."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import InjectedFaultError, StoreError, WalCorruptionError
from repro.obs import observed
from repro.resilience.faults import FaultInjector
from repro.store.wal import (
    WAL_FORMAT_VERSION,
    WriteAheadLog,
    encode_record,
    list_segments,
    read_records,
    segment_first_lsn,
    segment_name,
)


def _ops(n: int) -> list[dict]:
    """A distinguishable wire batch (content is opaque to the WAL)."""
    return [{"op": "delete_node", "args": [n]}]


def _segment_path(wal: WriteAheadLog) -> str:
    return os.path.join(wal.directory, wal.active_segment)


class TestAppendAndRead:
    def test_lsns_start_at_one_and_are_contiguous(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off")
        results = [wal.append(_ops(i)) for i in range(5)]
        assert [r.lsn for r in results] == [1, 2, 3, 4, 5]
        assert wal.last_lsn == 5
        wal.close()
        records = read_records(store_dir)
        assert [r.lsn for r in records] == [1, 2, 3, 4, 5]
        assert [r.ops for r in records] == [_ops(i) for i in range(5)]

    def test_append_reports_byte_span(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off")
        first = wal.append(_ops(0))
        second = wal.append(_ops(1))
        assert first.start == 0
        assert second.start == first.end
        wal.close()
        assert os.path.getsize(_segment_path(wal)) == second.end

    def test_reopen_resumes_lsn_sequence(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off")
        wal.append(_ops(0))
        wal.append(_ops(1))
        wal.close()
        wal = WriteAheadLog(store_dir, fsync="off")
        assert wal.next_lsn == 3
        wal.append(_ops(2))
        wal.close()
        assert [r.lsn for r in read_records(store_dir)] == [1, 2, 3]

    def test_empty_ops_record_is_legal(self, store_dir):
        # an all-coalesced batch still logs (version/LSN lockstep)
        wal = WriteAheadLog(store_dir, fsync="off")
        wal.append([])
        wal.close()
        assert read_records(store_dir)[0].ops == []


class TestRotation:
    def test_rotates_at_segment_max_bytes(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off", segment_max_bytes=1)
        for i in range(3):
            wal.append(_ops(i))
        wal.close()
        segments = list_segments(store_dir)
        assert len(segments) == 3
        assert [segment_first_lsn(s) for s in segments] == [1, 2, 3]
        assert [r.lsn for r in read_records(store_dir)] == [1, 2, 3]
        assert wal.rotations >= 2

    def test_truncate_upto_drops_whole_superseded_segments(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off", segment_max_bytes=1)
        for i in range(4):
            wal.append(_ops(i))
        removed = wal.truncate_upto(2)
        assert removed == 2
        # records after the checkpoint LSN survive
        assert [r.lsn for r in read_records(store_dir)] == [3, 4]
        wal.append(_ops(4))
        assert wal.last_lsn == 5
        wal.close()
        assert [r.lsn for r in read_records(store_dir)] == [3, 4, 5]

    def test_truncate_everything_keeps_appendable_log(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off")
        for i in range(3):
            wal.append(_ops(i))
        wal.truncate_upto(3)
        assert read_records(store_dir) == []
        wal.append(_ops(3))
        assert [r.lsn for r in read_records(store_dir)] == [4]
        wal.close()


class TestFsyncPolicy:
    def test_policy_validation(self, store_dir):
        with pytest.raises(StoreError):
            WriteAheadLog(store_dir, fsync="sometimes")
        with pytest.raises(StoreError):
            WriteAheadLog(store_dir, sync_every=0)
        with pytest.raises(StoreError):
            WriteAheadLog(store_dir, segment_max_bytes=0)

    def test_always_fsyncs_per_append(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="always")
        for i in range(3):
            wal.append(_ops(i))
        assert wal.fsyncs_performed == 3
        wal.close()

    def test_batch_fsyncs_every_sync_every(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="batch", sync_every=2)
        for i in range(5):
            wal.append(_ops(i))
        assert wal.fsyncs_performed == 2  # after appends 2 and 4
        wal.close()  # close syncs the straggler
        assert wal.fsyncs_performed == 3

    def test_off_never_fsyncs(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off")
        for i in range(5):
            wal.append(_ops(i))
        wal.close()
        assert wal.fsyncs_performed == 0

    @pytest.mark.parametrize("policy", ["batch", "always"])
    def test_log_bytes_do_not_depend_on_the_policy(self, tmp_path, policy):
        # the policy decides when the log reaches the platter, never
        # what is in it: same appends, byte-identical segments
        def logged(fsync: str) -> dict[str, bytes]:
            directory = tmp_path / fsync
            directory.mkdir()
            wal = WriteAheadLog(
                str(directory), fsync=fsync, sync_every=2, segment_max_bytes=150
            )
            for i in range(7):
                wal.append(_ops(i))
            wal.close()
            return {
                name: (directory / name).read_bytes()
                for name in list_segments(str(directory))
            }

        reference = logged("off")
        assert len(reference) > 1  # the comparison spans a rotation
        assert logged(policy) == reference

    def test_obs_counters(self, store_dir):
        with observed() as obs:
            wal = WriteAheadLog(store_dir, fsync="always")
            wal.append(_ops(0))
            wal.close()
            assert obs.metrics.counter("store.wal_appends").value == 1
            assert obs.metrics.counter("store.fsyncs").value >= 1
            assert obs.metrics.counter("store.wal_bytes").value > 0


class TestFaultInjection:
    def test_io_fault_on_append_leaves_log_unchanged(self, store_dir):
        injector = FaultInjector(at_io=2)
        wal = WriteAheadLog(store_dir, fsync="off", fault_injector=injector)
        wal.append(_ops(0))
        with pytest.raises(InjectedFaultError):
            wal.append(_ops(1))
        wal.close()
        # the failed append wrote nothing: record 1 is the whole log
        assert [r.lsn for r in read_records(store_dir)] == [1]

    def test_io_fault_on_fsync(self, store_dir):
        injector = FaultInjector(at_io=2)  # 1st io = write, 2nd = fsync
        wal = WriteAheadLog(store_dir, fsync="always", fault_injector=injector)
        with pytest.raises(InjectedFaultError):
            wal.append(_ops(0))
        wal.close()
        # the write itself landed; only the sync was killed
        assert [r.lsn for r in read_records(store_dir)] == [1]
        assert wal.fsyncs_performed == 1  # close() retried the sync


class TestTornTails:
    def _write(self, store_dir, n=3) -> tuple[str, bytes]:
        wal = WriteAheadLog(store_dir, fsync="off")
        for i in range(n):
            wal.append(_ops(i))
        wal.close()
        path = os.path.join(store_dir, list_segments(store_dir)[0])
        with open(path, "rb") as fp:
            return path, fp.read()

    def test_torn_tail_truncated_at_every_byte(self, store_dir):
        path, data = self._write(store_dir)
        lines = data.splitlines(keepends=True)
        boundaries = [0]
        for line in lines:
            boundaries.append(boundaries[-1] + len(line))
        for cut in range(len(data) + 1):
            with open(path, "wb") as fp:
                fp.write(data[:cut])
            records = read_records(store_dir)
            # whole records before the cut survive; cutting only the
            # final newline still yields a complete, decodable record
            expected = sum(1 for b in boundaries[1:] if b <= cut or b == cut + 1)
            assert len(records) == expected, f"cut at byte {cut}"
        # restore and confirm full read
        with open(path, "wb") as fp:
            fp.write(data)
        assert len(read_records(store_dir)) == 3

    def test_repair_truncates_file(self, store_dir):
        path, data = self._write(store_dir)
        cut = len(data) - 5
        with open(path, "wb") as fp:
            fp.write(data[:cut])
        records = read_records(store_dir, repair=True)
        assert [r.lsn for r in records] == [1, 2]
        # the torn suffix is gone from disk
        assert os.path.getsize(path) < cut
        # and a reopened writer resumes cleanly after the repair
        wal = WriteAheadLog(store_dir, fsync="off")
        assert wal.next_lsn == 3
        wal.append(_ops(9))
        wal.close()
        assert [r.lsn for r in read_records(store_dir)] == [1, 2, 3]

    def test_repair_restores_cut_final_newline(self, store_dir):
        # crash cut exactly the trailing newline: the record is whole and
        # survives, and repair must rewrite the terminator — otherwise a
        # reopened writer glues its next append onto the same line and a
        # later read discards BOTH acknowledged records as a torn tail
        path, data = self._write(store_dir)
        with open(path, "wb") as fp:
            fp.write(data[:-1])
        assert [r.lsn for r in read_records(store_dir, repair=True)] == [1, 2, 3]
        assert os.path.getsize(path) == len(data)  # newline is back
        wal = WriteAheadLog(store_dir, fsync="off")
        assert wal.next_lsn == 4
        wal.append(_ops(3))
        wal.close()
        assert [r.lsn for r in read_records(store_dir)] == [1, 2, 3, 4]

    def test_reopen_after_newline_cut_does_not_glue_records(self, store_dir):
        # same cut, but the writer reopens directly (its __init__ repairs)
        path, data = self._write(store_dir)
        with open(path, "wb") as fp:
            fp.write(data[:-1])
        wal = WriteAheadLog(store_dir, fsync="off")
        wal.append(_ops(3))
        wal.close()
        assert [r.lsn for r in read_records(store_dir)] == [1, 2, 3, 4]

    def test_bad_line_before_valid_records_raises_even_in_last_segment(
        self, store_dir
    ):
        # a mid-segment bit flip with acknowledged records after it is
        # corruption, not a torn tail — truncating would silently drop
        # the valid suffix
        path, data = self._write(store_dir)
        lines = data.splitlines(keepends=True)
        corrupted = lines[0] + lines[1].replace(b'"lsn":2', b'"lsn":9') + lines[2]
        with open(path, "wb") as fp:
            fp.write(corrupted)
        with pytest.raises(WalCorruptionError):
            read_records(store_dir)
        with pytest.raises(WalCorruptionError):
            read_records(store_dir, repair=True)
        # and repair must not have truncated anything
        assert os.path.getsize(path) == len(corrupted)

    def test_bad_line_before_torn_final_record_still_truncates(self, store_dir):
        # bad line + torn junk after it: nothing valid follows, so the
        # whole suffix is one torn tail
        path, data = self._write(store_dir)
        lines = data.splitlines(keepends=True)
        mangled = lines[0] + lines[1].replace(b'"lsn":2', b'"lsn":9') + lines[2][:10]
        with open(path, "wb") as fp:
            fp.write(mangled)
        assert [r.lsn for r in read_records(store_dir, repair=True)] == [1]
        assert os.path.getsize(path) == len(lines[0])

    def test_bitflip_in_tail_drops_record(self, store_dir):
        path, data = self._write(store_dir)
        lines = data.splitlines(keepends=True)
        # flip one byte inside the last record's CRC-covered payload
        corrupted = lines[0] + lines[1] + lines[2].replace(b'"lsn":3', b'"lsn":4')
        with open(path, "wb") as fp:
            fp.write(corrupted)
        assert [r.lsn for r in read_records(store_dir)] == [1, 2]

    def test_corruption_before_tail_raises(self, store_dir):
        wal = WriteAheadLog(store_dir, fsync="off", segment_max_bytes=1)
        for i in range(3):
            wal.append(_ops(i))
        wal.close()
        first = os.path.join(store_dir, list_segments(store_dir)[0])
        with open(first, "rb+") as fp:
            fp.write(b"garbage")
        with pytest.raises(WalCorruptionError):
            read_records(store_dir)

    def test_lsn_gap_raises(self, store_dir):
        with open(os.path.join(store_dir, segment_name(1)), "wb") as fp:
            fp.write(encode_record(1, _ops(0)))
            fp.write(encode_record(3, _ops(2)))  # gap: 2 is missing
        with pytest.raises(WalCorruptionError):
            read_records(store_dir)

    def test_future_format_version_rejected(self, store_dir):
        import json
        import zlib

        body = {"lsn": 1, "ops": [], "v": WAL_FORMAT_VERSION + 1}
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
        record = dict(body)
        record["crc"] = zlib.crc32(payload.encode())
        with open(os.path.join(store_dir, segment_name(1)), "w") as fp:
            fp.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(WalCorruptionError):
            read_records(store_dir)

    @pytest.mark.parametrize(
        "field, value, corrupt",
        [
            ("v", True, True),
            ("v", -1, True),
            ("v", "1", True),
            ("lsn", True, False),
            ("lsn", -1, False),
            ("lsn", 1.0, False),
        ],
    )
    def test_lsn_and_version_must_be_counts(self, store_dir, field, value, corrupt):
        # a CRC-valid record all the same: an unreadable version is
        # corruption, an unreadable LSN is a damaged (torn) line
        import json
        import zlib

        body = {"lsn": 1, "ops": [], "v": WAL_FORMAT_VERSION, field: value}
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
        record = dict(body, crc=zlib.crc32(payload.encode()))
        with open(os.path.join(store_dir, segment_name(1)), "w") as fp:
            fp.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        if corrupt:
            with pytest.raises(WalCorruptionError):
                read_records(store_dir)
        else:
            assert read_records(store_dir) == []
