"""Robustness and edge-case tests across modules: corrupted files, closed
handles, bad arguments, unusual-but-legal call sequences."""

import numpy as np
import pytest

from repro.hdf4 import SDFile
from repro.hdf5 import H5File, ObjectHeader
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.mpiio import ADIOFile, File, Hints
from repro.sim import RankFailedError

from .conftest import make_machine


def single(fn, nprocs=1, fs=None):
    m = make_machine(nprocs, fs=fs)
    return run_spmd(m, fn).results[0], m


class TestCorruptedFormats:
    def test_hdf4_bad_magic(self):
        def program(comm):
            fs = comm.machine.fs
            fs.create("junk")
            fs.write("junk", 0, b"NOTAFILE" + b"\0" * 100)
            with pytest.raises(ValueError, match="magic"):
                SDFile.start(comm, "junk", "r")
            return True

        assert single(program)[0]

    def test_hdf5_bad_magic(self):
        def program(comm):
            fs = comm.machine.fs
            fs.create("junk")
            fs.write("junk", 0, b"\x89HDF\r\n\x1a\n" + b"\0" * 100)
            with pytest.raises(ValueError, match="magic"):
                H5File.open(comm, "junk")
            return True

        assert single(program)[0]

    def test_hdf5_corrupt_object_header(self):
        header = ObjectHeader("x", np.float64, (4,), 100, 32)
        blob = bytearray(header.pack())
        blob[0] ^= 0x5A  # clobber the used-length field
        with pytest.raises(ValueError):
            ObjectHeader.unpack(bytes(blob))

    def test_hdf5_header_attr_overflow(self):
        header = ObjectHeader("x", np.float64, (4,), 100, 32)
        header.attrs["big"] = "y" * 600  # exceeds HEADER_CAPACITY
        with pytest.raises(ValueError, match="capacity"):
            header.pack()

    def test_sidecar_missing_fails_cleanly(self):

        def program(comm):
            registry.create("mpi-io").read_checkpoint(comm, "never-written")

        m = make_machine(2)
        with pytest.raises(RankFailedError) as ei:
            run_spmd(m, program)
        assert isinstance(ei.value.__cause__, OSError)


class TestHandleLifecycles:
    def test_adio_use_after_close(self):
        def program(comm):
            fs = comm.machine.fs
            fs.create("f")
            adio = ADIOFile(fs, "f", comm)
            adio.close()
            with pytest.raises(ValueError, match="closed"):
                adio.read_contig(0, 1)
            with pytest.raises(ValueError, match="closed"):
                adio.write_contig(0, b"x")
            return True

        assert single(program)[0]

    def test_sd_end_twice_is_idempotent(self):
        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            sd.create("x", np.float64, (2,)).write(np.zeros(2))
            sd.end()
            sd.end()  # no error
            return True

        assert single(program)[0]

    def test_h5_dataset_use_after_close(self):
        def program(comm):
            f = H5File.create(comm, "f")
            d = f.create_dataset("x", (4,), np.float64)
            d.close()
            with pytest.raises(ValueError, match="closed"):
                d.write(np.zeros(4), collective=False)
            f.close()
            return True

        assert single(program)[0]

    def test_h5_close_twice(self):
        def program(comm):
            f = H5File.create(comm, "f")
            f.close()
            f.close()
            return True

        assert single(program)[0]

    def test_mpiio_file_modes(self):
        def program(comm):
            for mode in ("x", "a"):
                with pytest.raises(ValueError):
                    File.open(comm, "f", mode)
            fh = File.open(comm, "f", "w")
            fh.write_at(0, b"abc")
            fh.close()
            File.open(comm, "f", "r").close()  # an existing file opens as it is
            return comm.machine.fs.file_size("f")

        assert single(program)[0] == 3

    def test_mpiio_seek_tell(self):
        """The individual file pointer has no seek / tell: each ``write``
        moves it past what it wrote, and a new view resets it."""

        def program(comm):
            fh = File.open(comm, "f", "w")
            fh.write(b"01")
            fh.write(b"23")
            fh.set_view(4)
            fh.write(b"45")
            fh.set_view(0)
            got = fh.read_at(1, 4)
            fh.close()
            return got

        assert single(program)[0] == b"1234"


class TestCommEdgeCases:
    def test_scatter_wrong_length_fails(self):
        from repro.mpi import collectives as coll

        def program(comm):
            objs = [1] if comm.rank == 0 else None  # wrong length
            coll.scatter(comm, objs, root=0)

        m = make_machine(3)
        with pytest.raises(RankFailedError):
            run_spmd(m, program)


class TestPartitionedStateErrors:
    def test_collect_empty(self):
        from repro.enzo import PartitionedState

        with pytest.raises(ValueError):
            PartitionedState.collect([])

    def test_collect_missing_piece(self):
        from repro.amr import BlockPartition, make_initial_conditions
        from repro.enzo import HierarchyMeta, PartitionedState

        h = make_initial_conditions((8, 8, 8), seed=0, pre_refine=0)
        meta = HierarchyMeta.from_hierarchy(h)
        part = BlockPartition.for_grid((8, 8, 8), 2)
        broken = PartitionedState(
            rank=0, nprocs=2, meta=meta,
            pieces={h.root_id: None}, partitions={h.root_id: part},
        )
        other = PartitionedState(
            rank=1, nprocs=2, meta=meta,
            pieces={h.root_id: None}, partitions={h.root_id: part},
        )
        with pytest.raises(ValueError, match="missing pieces"):
            PartitionedState.collect([broken, other])
