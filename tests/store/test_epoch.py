"""The fencing epoch file: damage is an error, never a permission."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import StoreError
from repro.store import read_epoch, write_epoch
from repro.store.epoch import EPOCH_FILE


def test_absent_file_is_epoch_zero_and_writes_round_trip(tmp_path):
    store_dir = str(tmp_path)
    assert read_epoch(store_dir) == 0
    write_epoch(store_dir, 3)
    assert read_epoch(store_dir) == 3
    assert os.listdir(store_dir) == [EPOCH_FILE]  # the tmp file was renamed away
    with pytest.raises(StoreError, match="refusing to lower"):
        write_epoch(store_dir, 2)
    assert read_epoch(store_dir) == 3


@pytest.mark.parametrize(
    "content", ['{"epoch": true}', '{"epoch": -1}', '{"epoch": "1"}', '{"epoch": 1.0}', "[1]", "{"]
)
def test_a_damaged_epoch_file_raises(tmp_path, content):
    # ``true`` used to read as epoch 1: isinstance(True, int)
    (tmp_path / EPOCH_FILE).write_text(content)
    with pytest.raises(StoreError):
        read_epoch(str(tmp_path))
