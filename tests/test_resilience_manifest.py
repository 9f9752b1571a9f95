"""Checkpoint-manifest unit tests: checksums, serialisation, verification."""

import zlib

import pytest

from repro.pfs import FileSystem
from repro.pfs.blockstore import _PAGE as STORE_PAGE
from repro.resilience import (
    CheckpointManifest,
    ManifestEntry,
    ManifestVerificationError,
    checksum_bytes,
    entry_for_bytes,
    entry_for_segments,
    manifest_path,
)


class TestChecksums:
    def test_chained_crc_equals_concatenated_crc(self):
        assert checksum_bytes(b"abc", b"def") == zlib.crc32(b"abcdef")

    def test_empty_is_zero(self):
        assert checksum_bytes() == 0
        assert checksum_bytes(b"") == 0


class TestEntries:
    def test_entry_for_bytes_single_segment(self):
        e = entry_for_bytes("top/field/density", "ckpt", 64, b"ABCD")
        assert e.segments == ((64, 4),)
        assert e.nbytes == 4
        assert e.checksum == zlib.crc32(b"ABCD")

    def test_entry_for_segments_filters_empty_and_checks_total(self):
        e = entry_for_segments(
            "x", "ckpt", [(0, 2), (10, 0), (20, 2)], b"ABCD"
        )
        assert e.segments == ((0, 2), (20, 2))
        with pytest.raises(ValueError, match="segments cover"):
            entry_for_segments("x", "ckpt", [(0, 2)], b"ABCD")

    def test_entry_accepts_numpy_arrays(self):
        import numpy as np

        arr = np.arange(4, dtype=np.float64)
        e = entry_for_bytes("x", "ckpt", 0, arr)
        assert e.nbytes == arr.nbytes
        assert e.checksum == zlib.crc32(arr.tobytes())


class TestManifest:
    def test_add_skips_empty_and_rejects_duplicates(self):
        m = CheckpointManifest(strategy="mpi-io")
        m.add(entry_for_bytes("a", "ckpt", 0, b""))
        assert len(m) == 0
        m.add(entry_for_bytes("a", "ckpt", 0, b"xy"))
        with pytest.raises(ValueError, match="duplicate"):
            m.add(entry_for_bytes("a", "ckpt", 8, b"zw"))

    def test_round_trip_is_deterministic(self):
        m = CheckpointManifest(strategy="hdf5")
        m.add(entry_for_bytes("b", "ckpt", 8, b"wxyz"))
        m.add(entry_for_bytes("a", "ckpt", 0, b"abcd"))
        raw = m.to_bytes()
        # Insertion order must not leak into the serialised commit record.
        m2 = CheckpointManifest(strategy="hdf5")
        m2.add(entry_for_bytes("a", "ckpt", 0, b"abcd"))
        m2.add(entry_for_bytes("b", "ckpt", 8, b"wxyz"))
        assert raw == m2.to_bytes()
        back = CheckpointManifest.from_bytes(raw)
        assert back.strategy == "hdf5"
        assert sorted(e.name for e in back) == ["a", "b"]
        assert {e.name: e.checksum for e in back} == {
            e.name: e.checksum for e in m
        }

    def test_from_bytes_wraps_garbage(self):
        with pytest.raises(ManifestVerificationError, match="corrupt"):
            CheckpointManifest.from_bytes(b"not a pickle")
        with pytest.raises(ManifestVerificationError):
            CheckpointManifest.from_bytes(b"")

    def test_from_bytes_rejects_future_version(self):
        import pickle

        raw = pickle.dumps({"version": 99, "strategy": "", "entries": []})
        with pytest.raises(ManifestVerificationError, match="version"):
            CheckpointManifest.from_bytes(raw)

    def test_manifest_path_convention(self):
        assert manifest_path("dump.cycle0001") == "dump.cycle0001.manifest"


class TestVerification:
    def _store_with(self, payloads):
        fs = FileSystem()
        for path, data in payloads.items():
            fs.create(path)
            fs.write(path, 0, data)
        return fs.store

    def test_clean_checkpoint_verifies(self):
        store = self._store_with({"ckpt": b"ABCDEFGH"})
        m = CheckpointManifest()
        m.add(entry_for_bytes("a", "ckpt", 0, b"ABCD"))
        m.add(entry_for_segments("b", "ckpt", [(4, 2), (6, 2)], b"EFGH"))
        assert m.verify(store) == []
        m.verify_or_raise(store, "ckpt")  # no raise

    def test_flipped_byte_is_caught(self):
        store = self._store_with({"ckpt": b"ABCDEFGH"})
        m = CheckpointManifest()
        m.add(entry_for_bytes("a", "ckpt", 0, b"ABCD"))
        store.open("ckpt").write(2, b"X")
        problems = m.verify(store)
        assert len(problems) == 1 and "checksum mismatch" in problems[0]
        with pytest.raises(ManifestVerificationError, match="a: checksum"):
            m.verify_or_raise(store, "ckpt")

    def test_flip_in_the_middle_run_of_a_page_straddling_entry_names_it(self):
        data = bytes(i % 251 for i in range(3 * STORE_PAGE))
        store = self._store_with({"ckpt": data})
        runs = [(100, 64), (STORE_PAGE - 40, 100), (2 * STORE_PAGE + 7, 64)]
        m = CheckpointManifest()
        m.add(entry_for_segments(
            "grid3/density", "ckpt", runs, b"".join(data[o:o + n] for o, n in runs)
        ))
        m.add(entry_for_bytes("grid3/energy", "ckpt", 300, data[300:400]))
        assert m.verify(store) == []
        store.open("ckpt").write(STORE_PAGE + 10, b"\xff")  # past the seam, run 2
        problems = m.verify(store)
        assert len(problems) == 1
        assert problems[0].startswith("grid3/density: checksum mismatch")

    def test_truncated_file_is_caught_via_zero_fill(self):
        # BlockStore zero-fills reads past EOF: a torn write that stopped
        # short must be caught by the checksum, not by an exception.
        store = self._store_with({"ckpt": b"ABCD"})
        m = CheckpointManifest()
        m.add(entry_for_bytes("a", "ckpt", 0, b"ABCDEFGH"))
        problems = m.verify(store)
        assert len(problems) == 1 and "checksum mismatch" in problems[0]

    def test_missing_file_is_caught(self):
        store = self._store_with({})
        m = CheckpointManifest()
        m.add(entry_for_bytes("a", "gone", 0, b"ABCD"))
        problems = m.verify(store)
        assert len(problems) == 1 and "missing" in problems[0]

    def test_verify_or_raise_caps_the_problem_list(self):
        store = self._store_with({})
        m = CheckpointManifest()
        for i in range(8):
            m.add(entry_for_bytes(f"e{i}", f"gone{i}", 0, b"x"))
        with pytest.raises(ManifestVerificationError, match=r"\+3 more"):
            m.verify_or_raise(store, "ckpt")
