"""HDF4 SD library tests."""

import numpy as np
import pytest

from repro.hdf4 import SDFile
from repro.hdf4.format import DDEntry, pack_dd, pack_header, unpack_dds, unpack_header
from repro.mpi import run_spmd

from .conftest import make_machine


class TestFormat:
    def test_header_roundtrip(self):
        raw = pack_header(12345, 7)
        version, dd_offset, ndd = unpack_header(raw)
        assert (version, dd_offset, ndd) == (1, 12345, 7)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            unpack_header(b"XXXX" + b"\0" * 16)

    def test_dd_roundtrip(self):
        entries = [
            DDEntry("density", np.float64, (4, 5, 6), 100, 960),
            DDEntry("particle_id", np.int64, (1000,), 1060, 8000),
            DDEntry("flags", np.uint8, (), 9060, 1),
        ]
        blob = b"".join(pack_dd(e) for e in entries)
        got = unpack_dds(blob, len(entries))
        assert got == entries

    def test_unsupported_dtype(self):
        with pytest.raises(TypeError):
            DDEntry("x", np.complex128, (2,), 0, 32)


def single_rank(fn):
    return run_spmd(make_machine(1), fn).results[0]


class TestSDFile:
    def test_create_write_read_roundtrip(self):
        def program(comm):
            sd = SDFile.start(comm, "dump", "w")
            a = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
            b = np.arange(10, dtype=np.int64)
            sd.create("density", np.float64, a.shape).write(a)
            sd.create("particle_id", np.int64, b.shape).write(b)
            sd.end()
            sd = SDFile.start(comm, "dump", "r")
            assert sd.datasets() == ["density", "particle_id"]
            a2 = sd.select("density").read()
            b2 = sd.select("particle_id").read()
            sd.end()
            np.testing.assert_array_equal(a, a2)
            np.testing.assert_array_equal(b, b2)
            return True

        assert single_rank(program)

    def test_write_before_read_same_handle(self):
        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            sds = sd.create("x", np.float32, (5,))
            sds.write(np.ones(5, dtype=np.float32))
            got = sds.read()
            sd.end()
            return got

        np.testing.assert_array_equal(single_rank(program), np.ones(5, np.float32))

    def test_shape_mismatch_rejected(self):
        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            sds = sd.create("x", np.float64, (4,))
            with pytest.raises(ValueError):
                sds.write(np.zeros(5))
            sd.end()
            return True

        assert single_rank(program)

    def test_duplicate_name_rejected(self):
        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            sd.create("x", np.float64, (1,))
            with pytest.raises(ValueError):
                sd.create("x", np.float64, (1,))
            sd.end()
            return True

        assert single_rank(program)

    def test_select_missing_raises(self):
        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            sd.end()
            sd = SDFile.start(comm, "f", "r")
            with pytest.raises(KeyError):
                sd.select("nope")
            return True

        assert single_rank(program)

    def test_read_mode_rejects_writes(self):
        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            sd.create("x", np.float64, (2,)).write(np.zeros(2))
            sd.end()
            sd = SDFile.start(comm, "f", "r")
            with pytest.raises(ValueError):
                sd.create("y", np.float64, (2,))
            sds = sd.select("x")
            with pytest.raises(ValueError):
                sds.write(np.zeros(2))
            return True

        assert single_rank(program)

    def test_contains_and_datasets_order(self):
        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            for name in ("b", "a", "c"):
                sd.create(name, np.uint8, (1,)).write(np.zeros(1, np.uint8))
            sd.end()
            sd = SDFile.start(comm, "f", "r")
            assert "a" in sd and "zz" not in sd
            return sd.datasets()

        assert single_rank(program) == ["b", "a", "c"]

    def test_calls_cost_time(self):
        def program(comm):
            t0 = comm.clock
            sd = SDFile.start(comm, "f", "w")
            sd.create("x", np.float64, (100,)).write(np.zeros(100))
            sd.end()
            return comm.clock - t0

        assert single_rank(program) > 0.0

    def test_only_calling_rank_does_io(self):
        m = make_machine(4)

        def program(comm):
            if comm.rank == 0:
                sd = SDFile.start(comm, "f", "w")
                sd.create("x", np.float64, (8,)).write(np.arange(8.0))
                sd.end()
            return comm.clock

        res = run_spmd(m, program)
        # Ranks 1..3 did nothing and spent no time.
        assert res.results[1] == 0.0
        assert m.fs.exists("f")

    def test_mode_validation(self):
        def program(comm):
            with pytest.raises(ValueError):
                SDFile.start(comm, "f", "a")
            return True

        assert single_rank(program)


class TestHdf4FormatEdges:
    def test_zero_dim_dataset(self):
        from repro.hdf4 import SDFile

        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            sd.create("empty", np.float64, (0,)).write(
                np.empty(0, dtype=np.float64)
            )
            sd.end()
            sd = SDFile.start(comm, "f", "r")
            got = sd.select("empty").read()
            return got.shape

        res = run_spmd(make_machine(1), program)
        assert res.results[0] == (0,)

    def test_long_dataset_names(self):
        from repro.hdf4 import SDFile

        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            name = "x" * 200
            sd.create(name, np.int32, (3,)).write(np.arange(3, dtype=np.int32))
            sd.end()
            sd = SDFile.start(comm, "f", "r")
            return sd.select(name).read().tolist()

        assert run_spmd(make_machine(1), program).results[0] == [0, 1, 2]
