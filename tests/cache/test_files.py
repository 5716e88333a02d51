"""The IO seam: whole-file replaces, and fsync only when asked."""

import os

import pytest

from repro.cache import files


def _refuse_replace(_src, _dst):
    raise OSError("replace refused")


@pytest.mark.parametrize("old", [None, b"old"], ids=["new", "existing"])
def test_a_failed_replace_leaves_no_temp_file_and_no_partial_target(
    old, tmp_path, monkeypatch
):
    target = tmp_path / "sub" / "manifest.json"
    if old is not None:
        target.parent.mkdir()
        target.write_bytes(old)
    monkeypatch.setattr(os, "replace", _refuse_replace)
    with pytest.raises(OSError, match="replace refused"):
        files.write_atomic(str(target), b"{}", durable=True)
    if old is None:
        assert os.listdir(target.parent) == []
    else:
        assert os.listdir(target.parent) == ["manifest.json"]
        assert target.read_bytes() == old


@pytest.mark.parametrize("durable, expected", [(True, 1), (False, 0)])
def test_only_a_durable_write_fsyncs_and_then_once(
    durable, expected, tmp_path, fsyncs
):
    files.write_atomic(str(tmp_path / "f"), b"x", durable=durable)
    assert len(fsyncs) == expected


def test_sync_is_one_fsync_of_the_handle(tmp_path, fsyncs):
    with open(tmp_path / "log.bin", "ab") as handle:
        handle.write(b"frame")
        handle.flush()
        files.sync(handle)
        assert fsyncs == [handle.fileno()]


def test_an_existing_target_is_replaced_whole(tmp_path):
    target = tmp_path / "unit_timings.json"
    target.write_bytes(b"a much longer previous version of the file")
    files.write_atomic(str(target), b"short", durable=False)
    assert target.read_bytes() == b"short"
    assert os.listdir(tmp_path) == ["unit_timings.json"]
