"""Tests for the in-memory filesystem and Env."""

import pytest

from repro.errors import DBError
from repro.lsm.env import Env, FileNotFound, MemFileSystem


class TestMemFileSystem:
    def test_create_and_read(self):
        fs = MemFileSystem()
        f = fs.create("/a/b")
        f.append(b"hello")
        assert fs.read_all("/a/b") == b"hello"
        assert fs.file_size("/a/b") == 5

    def test_create_existing_rejected(self):
        fs = MemFileSystem()
        fs.create("/x")
        with pytest.raises(DBError):
            fs.create("/x")
        fs.create("/x", overwrite=True)  # explicit overwrite ok

    def test_open_writable_appends(self):
        fs = MemFileSystem()
        fs.open_writable("/x").append(b"ab")
        fs.open_writable("/x").append(b"cd")
        assert fs.read_all("/x") == b"abcd"

    def test_random_access_read(self):
        fs = MemFileSystem()
        fs.create("/x").append(b"0123456789")
        r = fs.open_random("/x")
        assert r.read(2, 3) == b"234"
        assert r.read(8, 100) == b"89"  # short read at EOF
        assert r.size() == 10

    def test_random_access_missing(self):
        with pytest.raises(FileNotFound):
            MemFileSystem().open_random("/ghost")

    def test_negative_read_rejected(self):
        fs = MemFileSystem()
        fs.create("/x").append(b"abc")
        with pytest.raises(ValueError):
            fs.open_random("/x").read(-1, 1)

    def test_delete(self):
        fs = MemFileSystem()
        fs.create("/x")
        fs.delete("/x")
        assert not fs.exists("/x")
        with pytest.raises(FileNotFound):
            fs.delete("/x")

    def test_list_dir(self):
        fs = MemFileSystem()
        for path in ("/db/1.sst", "/db/2.log", "/other/3.sst"):
            fs.create(path)
        assert fs.list_dir("/db") == ["/db/1.sst", "/db/2.log"]

    def test_total_bytes(self):
        fs = MemFileSystem()
        fs.create("/a").append(b"12345")
        fs.create("/b").append(b"67")
        assert fs.total_bytes() == 7

    def test_append_after_close_rejected(self):
        fs = MemFileSystem()
        f = fs.create("/x")
        f.close()
        with pytest.raises(DBError):
            f.append(b"no")

    def test_sync_tracks_durable_prefix(self):
        fs = MemFileSystem()
        f = fs.create("/x")
        f.append(b"abc")
        assert f.sync() == 3
        f.append(b"de")
        assert f.unsynced_bytes() == 2

    def test_corrupt(self):
        fs = MemFileSystem()
        fs.create("/x").append(b"abc")
        fs.corrupt("/x", 1, ord("X"))
        assert fs.read_all("/x") == b"aXc"
        with pytest.raises(ValueError):
            fs.corrupt("/x", 99, 0)

    def test_truncate(self):
        fs = MemFileSystem()
        f = fs.create("/x")
        f.append(b"abcdef")
        f.sync()
        fs.truncate("/x", 2)
        assert fs.read_all("/x") == b"ab"


class TestEnv:
    def test_defaults(self):
        env = Env()
        assert env.now_us() == 0.0
        assert isinstance(env.fs, MemFileSystem)

    def test_clock_shared(self):
        env = Env()
        env.clock.advance(5.0)
        assert env.now_us() == 5.0
