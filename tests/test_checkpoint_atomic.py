"""Atomicity of checkpoint writes: a crash mid-write must leave the
previous complete checkpoint on disk, never a torn file."""

import json
import os

import pytest
from differential import sum_scheme

from repro.runtime import OnlineOperator, load_checkpoint, save_checkpoint
from repro.runtime.checkpoint import atomic_write_text


class TestAtomicWriteText:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, '{"v": 1}\n')
        assert path.read_text() == '{"v": 1}\n'
        atomic_write_text(path, '{"v": 2}\n')
        assert path.read_text() == '{"v": 2}\n'

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.json", "data\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_interrupted_write_preserves_previous_contents(self, tmp_path, monkeypatch):
        # Simulate a crash partway through the new write: the replace never
        # happens, so the previous complete file must survive untouched.
        path = tmp_path / "ck.json"
        atomic_write_text(path, "previous complete checkpoint\n")

        real_fsync = os.fsync

        def exploding_fsync(fd):
            real_fsync(fd)
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_text(path, "torn")
        monkeypatch.undo()
        assert path.read_text() == "previous complete checkpoint\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]

    def test_interrupted_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.json"
        monkeypatch.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(OSError("x")))
        with pytest.raises(OSError):
            atomic_write_text(path, "torn")
        monkeypatch.undo()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_fsyncs_containing_directory_after_replace(self, tmp_path, monkeypatch):
        # The rename itself must be made durable: without fsyncing the
        # directory, a power cut after os.replace can forget the new entry.
        import stat

        real_fsync = os.fsync
        synced_dirs = []

        def recording_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                synced_dirs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        atomic_write_text(tmp_path / "out.json", "data\n")
        monkeypatch.undo()
        assert synced_dirs, "atomic_write_text never fsynced the directory"

    def test_directory_fsync_failure_is_not_fatal(self, tmp_path, monkeypatch):
        # Some filesystems refuse fsync on a directory fd; the write (which
        # already completed atomically) must not be reported as failed.
        from repro.runtime import checkpoint as ckpt_mod

        monkeypatch.setattr(
            ckpt_mod.os, "open",
            lambda *a, **k: (_ for _ in ()).throw(OSError("no dir fds here")),
        )
        path = tmp_path / "out.json"
        atomic_write_text(path, "data\n")
        monkeypatch.undo()
        assert path.read_text() == "data\n"


class TestSaveCheckpointAtomicity:
    def test_torn_save_keeps_previous_checkpoint_loadable(self, tmp_path, monkeypatch):
        path = tmp_path / "op.json"
        op = OnlineOperator(sum_scheme())
        op.push_many([1, 2, 3])
        save_checkpoint(op, path)

        op.push_many([4, 5])
        monkeypatch.setattr(os, "replace", lambda a, b: (_ for _ in ()).throw(OSError("crash")))
        with pytest.raises(OSError):
            save_checkpoint(op, path)
        monkeypatch.undo()

        restored = load_checkpoint(path)  # the old file, complete and valid
        assert restored.count == 3
        assert restored.state == (6,)

    def test_save_accepts_ready_made_dicts(self, tmp_path):
        # The serve worker merges/relays checkpoint dicts; save_checkpoint
        # must write them unchanged.
        op = OnlineOperator(sum_scheme())
        op.push_many([2, 2])
        path = tmp_path / "dict.json"
        save_checkpoint(op.checkpoint(), path)
        assert json.loads(path.read_text())["count"] == 2
        assert load_checkpoint(path).state == (4,)
