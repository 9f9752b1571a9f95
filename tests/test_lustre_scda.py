"""Lustre model + scda serial-equivalent format: partition-invariance suite.

Two pillars gate the subsystem (the per-file OST layout arithmetic is
``StripeLayout``'s and is fuzzed in ``test_pfs_striping.py``):

* ``scda`` is *serial equivalent*: the committed checkpoint file and its
  manifest are byte-identical for every process count, for both the sync
  and the async composition -- the property the format exists to provide.
* Torn scda headers or padding are detected at restart -- never silently
  parsed -- and the recover-or-raise fault matrix holds on Lustre too.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import make_initial_conditions
from repro.core import trace_filesystem
from repro.enzo import RankState, hierarchies_equivalent
from repro.enzo.layout import CheckpointLayout
from repro.enzo.meta import HierarchyMeta
from repro.insights import AutoTuner
from repro.insights.autotune import stripe_headroom_of
from repro.iostack import registry, scda
from repro.iostack.scda import (
    FILE_HEADER_NBYTES,
    SECTION_HEADER_NBYTES,
    ScdaHeaderError,
    ScdaLayout,
    crc32_combine,
)
from repro.mpi import run_spmd
from repro.pfs.lustre import LustreFS
from repro.resilience import ManifestVerificationError
from repro.sim import RankFailedError
from repro.topology import origin2000
from repro.topology.presets import lustre as lustre_preset

from .conftest import make_machine

SCDA_STRATEGIES = ("mpi-io-scda", "mpi-io-scda-async")


@pytest.fixture(scope="module")
def hierarchy():
    return make_initial_conditions(
        (16, 16, 16), seed=3, pre_refine=0, particles_per_cell=0.25
    )


def write_program(hierarchy, strategy, base="ckpt"):
    def program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        return strategy.write_checkpoint(comm, state, base)

    return program


def read_program(strategy, base="ckpt"):
    def program(comm):
        state, _stats = strategy.read_checkpoint(comm, base)
        return state

    return program


def dump(strategy_name, nprocs, hierarchy, machine=None):
    m = machine if machine is not None else make_machine(nprocs)
    run_spmd(m, write_program(hierarchy, registry.create(strategy_name)))
    return m


def file_bytes(m, path):
    f = m.fs.store.open(path)
    return f.read(0, f.size)


# -- the tentpole property: committed bytes do not depend on P ---------------


class TestScdaPartitionInvariance:
    @pytest.mark.parametrize("strategy", SCDA_STRATEGIES)
    def test_bytes_identical_for_every_nprocs(self, strategy, hierarchy):
        """For P in {1,2,4,8,16} the committed file *and* its manifest are
        byte-identical to the serial run -- the scda contract."""
        ref = dump(strategy, 1, hierarchy)
        ref_data = file_bytes(ref, "ckpt")
        ref_manifest = file_bytes(ref, "ckpt.manifest")
        assert len(ref_data) > FILE_HEADER_NBYTES
        for nprocs in (2, 4, 8, 16):
            m = dump(strategy, nprocs, hierarchy)
            assert file_bytes(m, "ckpt") == ref_data, f"P={nprocs}"
            assert (
                file_bytes(m, "ckpt.manifest") == ref_manifest
            ), f"P={nprocs}"

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fuzzed_hierarchies_stay_invariant(self, seed):
        """Invariance is structural, not an artifact of one hierarchy:
        fuzz the initial conditions, include a non-dividing P=3."""
        h = make_initial_conditions(
            (8, 8, 8), seed=seed, pre_refine=0, particles_per_cell=0.25
        )
        ref = dump("mpi-io-scda", 1, h)
        ref_bytes = (file_bytes(ref, "ckpt"), file_bytes(ref, "ckpt.manifest"))
        for nprocs in (3, 4):
            m = dump("mpi-io-scda", nprocs, h)
            got = (file_bytes(m, "ckpt"), file_bytes(m, "ckpt.manifest"))
            assert got == ref_bytes, f"P={nprocs}"

    @pytest.mark.parametrize("strategy", SCDA_STRATEGIES)
    def test_restores_bit_identical_arrays(self, strategy, hierarchy):
        m = dump(strategy, 4, hierarchy)
        res = run_spmd(m, read_program(registry.create(strategy)))
        rebuilt = RankState.collect(res.results)
        assert hierarchies_equivalent(rebuilt, hierarchy)


# -- satellite: sync-vs-async differential -----------------------------------


class TestScdaSyncAsyncDifferential:
    def test_same_data_file_and_restored_state(self, hierarchy):
        """The async composition commits the *same* bytes the sync one
        does, and both restore bit-identical arrays."""
        sync = dump("mpi-io-scda", 4, hierarchy)
        asyn = dump("mpi-io-scda-async", 4, hierarchy)
        assert file_bytes(sync, "ckpt") == file_bytes(asyn, "ckpt")

        for m in (sync, asyn):
            res = run_spmd(m, read_program(registry.create("mpi-io-scda")))
            rebuilt = RankState.collect(res.results)
            assert hierarchies_equivalent(rebuilt, hierarchy)

    def test_async_drains_before_manifest_commit(self, hierarchy):
        """The write-behind queue is empty before the commit record: the
        manifest write is the last write the file system sees, and every
        data write has retired before it starts."""
        m = make_machine(4)
        trace = trace_filesystem(m.fs)
        run_spmd(
            m, write_program(hierarchy, registry.create("mpi-io-scda-async"))
        )
        trace.detach()
        writes = trace.ops("write")
        assert writes and writes[-1].path == "ckpt.manifest"
        manifest_start = min(
            e.start for e in writes if e.path == "ckpt.manifest"
        )
        data_end = max(e.end for e in writes if e.path == "ckpt")
        assert manifest_start >= data_end - 1e-12


# -- scda on-disk structure ---------------------------------------------------


class TestScdaLayoutFormat:
    BLOCK = 4096

    @pytest.fixture(scope="class")
    def layout(self, hierarchy):
        inner = CheckpointLayout(HierarchyMeta.from_hierarchy(hierarchy))
        return ScdaLayout(inner, block_size=self.BLOCK)

    def test_headers_padding_sections_tile_the_file(self, layout):
        """File header + padding gaps + section (header, data) pairs cover
        [0, last section end) exactly once -- no overlap, no hole."""
        spans = list(layout.header_segments())
        spans.extend(layout.padding_segments())
        spans.extend((ext.offset, ext.nbytes) for _, _, ext in layout.sections)
        spans.sort()
        pos = 0
        for off, nbytes in spans:
            assert off == pos, f"gap or overlap at byte {pos}"
            pos += nbytes
        last_end = max(ext.end for _, _, ext in layout.sections)
        assert pos == last_end
        # the file rounds up to a whole block
        assert layout.total_nbytes == -(-last_end // self.BLOCK) * self.BLOCK

    def test_sections_are_block_aligned(self, layout):
        for name, header_offset, ext in layout.sections:
            assert header_offset % self.BLOCK == 0, name
            assert ext.offset == header_offset + SECTION_HEADER_NBYTES, name

    def test_headers_are_fixed_width_ascii(self, layout):
        blob = layout.header_blob()
        assert len(blob) == FILE_HEADER_NBYTES + SECTION_HEADER_NBYTES * len(
            layout.sections
        )
        fh = layout.file_header()
        assert len(fh) == FILE_HEADER_NBYTES
        assert fh.decode("ascii").startswith("scda-file version=1")
        assert fh.rstrip(b" \n").endswith(str(layout.total_nbytes).encode())
        for name, _, ext in layout.sections:
            sh = layout.section_header(name, ext)
            assert len(sh) == SECTION_HEADER_NBYTES
            assert name in sh.decode("ascii")

    def test_validate_headers_names_the_torn_header(self, layout):
        layout.validate_headers(layout.header_blob())  # clean blob passes
        blob = bytearray(layout.header_blob())
        blob[FILE_HEADER_NBYTES + 4] ^= 0xFF  # first section header
        with pytest.raises(ScdaHeaderError, match="section"):
            layout.validate_headers(bytes(blob))
        blob = bytearray(layout.header_blob())
        blob[3] ^= 0xFF
        with pytest.raises(ScdaHeaderError, match="file header"):
            layout.validate_headers(bytes(blob))

    def test_oversized_header_line_is_rejected(self, layout):
        with pytest.raises(ScdaHeaderError, match="overflow"):
            ScdaLayout._pad("x" * SECTION_HEADER_NBYTES, SECTION_HEADER_NBYTES)

    def test_block_size_must_hold_the_file_header(self, hierarchy):
        inner = CheckpointLayout(HierarchyMeta.from_hierarchy(hierarchy))
        with pytest.raises(ValueError):
            ScdaLayout(inner, block_size=64)


def _gf2_matrix_times(mat, vec):
    total = 0
    i = 0
    while vec:
        if vec & 1:
            total ^= mat[i]
        vec >>= 1
        i += 1
    return total


def _gf2_matrix_square(square, mat):
    for i in range(32):
        square[i] = _gf2_matrix_times(mat, mat[i])


def crc32_combine_reference(crc1, crc2, len2):
    """The pre-1.2.12 zlib algorithm ``scda`` shipped first: the shift
    operator rebuilt per call by GF(2) matrix squaring.  Shares no code
    with the polynomial form, so it is the oracle for lengths no buffer
    could back."""
    if len2 <= 0:
        return crc1
    even = [0] * 32
    odd = [0] * 32
    odd[0] = 0xEDB88320
    row = 1
    for i in range(1, 32):
        odd[i] = row
        row <<= 1
    _gf2_matrix_square(even, odd)
    _gf2_matrix_square(odd, even)
    while True:
        _gf2_matrix_square(even, odd)
        if len2 & 1:
            crc1 = _gf2_matrix_times(even, crc1)
        len2 >>= 1
        if len2 == 0:
            break
        _gf2_matrix_square(odd, even)
        if len2 & 1:
            crc1 = _gf2_matrix_times(odd, crc1)
        len2 >>= 1
        if len2 == 0:
            break
    return crc1 ^ crc2


crc_values = st.integers(min_value=0, max_value=2**32 - 1)
piece_lengths = st.integers(min_value=0, max_value=2**40)


class TestCrc32Combine:
    @settings(max_examples=80, deadline=None)
    @given(a=st.binary(max_size=512), b=st.binary(max_size=512))
    def test_matches_zlib_on_concatenation(self, a, b):
        assert crc32_combine(
            zlib.crc32(a), zlib.crc32(b), len(b)
        ) == zlib.crc32(a + b)

    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(st.binary(max_size=128), max_size=8))
    def test_chains_over_many_pieces(self, parts):
        crc, whole = 0, b""
        for p in parts:
            crc = crc32_combine(crc, zlib.crc32(p), len(p))
            whole += p
        assert crc == zlib.crc32(whole)

    @settings(max_examples=200, deadline=None)
    @given(crc1=crc_values, crc2=crc_values, len2=piece_lengths)
    def test_matches_the_matrix_reference(self, crc1, crc2, len2):
        assert crc32_combine(crc1, crc2, len2) == crc32_combine_reference(
            crc1, crc2, len2
        )

    @settings(max_examples=100, deadline=None)
    @given(a=crc_values, b=crc_values, c=crc_values,
           len_b=piece_lengths, len_c=piece_lengths)
    def test_is_associative(self, a, b, c, len_b, len_c):
        b = b if len_b else 0  # the CRC of no bytes
        left = crc32_combine(crc32_combine(a, b, len_b), c, len_c)
        right = crc32_combine(a, crc32_combine(b, c, len_c), len_b + len_c)
        assert left == right

    def test_zero_length_pieces_are_neutral(self):
        parts = [b"", b"abc", b"", b"", b"defgh", b""]
        crc = 0
        for p in parts:
            crc = crc32_combine(crc, zlib.crc32(p), len(p))
        assert crc == zlib.crc32(b"abcdefgh")
        assert crc32_combine(0xDEADBEEF, 0, 0) == 0xDEADBEEF

    def test_long_equal_length_chain(self):
        """The merge's own shape: one section, 5 000 same-length rows."""
        row = 24
        whole = bytes(i * 7 % 251 for i in range(5000 * row))
        crc = 0
        for i in range(0, len(whole), row):
            crc = crc32_combine(crc, zlib.crc32(whole[i:i + row]), row)
        assert crc == zlib.crc32(whole)

    def test_negative_length_is_rejected(self):
        with pytest.raises(ValueError, match="-3"):
            crc32_combine(1, 2, -3)

    @pytest.mark.parametrize("length", [1, 7, 4096, 2**40 - 1, 2**40])
    def test_cost_in_modular_products(self, monkeypatch, length):
        """Counted, not timed: a cold length pays for its operator once,
        every later fold of that length is exactly one product."""
        products = []
        multmodp = scda._multmodp

        def counting(a, b):
            products.append(a)
            return multmodp(a, b)

        monkeypatch.setattr(scda, "_multmodp", counting)
        scda._shift_operator.cache_clear()
        crc32_combine(0x12345678, 0x9ABCDEF0, length)
        assert 1 <= len(products) <= 2 * length.bit_length() + 1
        products.clear()
        crc32_combine(0x0F1E2D3C, 0x4B5A6978, length)
        assert len(products) == 1

    def test_operator_cache_is_bounded(self):
        assert scda._shift_operator.cache_info().maxsize is not None


# -- a piece list that does not tile its section fails loudly at close -------


class TestScdaMergeFaults:
    @pytest.mark.parametrize(
        "shift, fault", [(+8, "a coverage gap"), (-8, "an overlap")]
    )
    def test_gap_and_overlap_are_told_apart(
        self, hierarchy, monkeypatch, shift, fault
    ):
        """Rank 0's first recorded piece claims an offset ``shift`` bytes
        off: the error names section, both offsets and the piece length."""
        commit = scda._ScdaSession._commit
        moved = []

        def shifted(session, key, kind, name, segments, arr):
            commit(session, key, kind, name, segments, arr)
            if session.ctx.comm.rank == 0 and not moved:
                section = scda.section_name(key, kind, name)
                offset, nbytes, crc = session._pieces[section][-1]
                session._pieces[section][-1] = (offset + shift, nbytes, crc)
                moved.append((section, offset, nbytes))

        monkeypatch.setattr(scda._ScdaSession, "_commit", shifted)
        with pytest.raises(RankFailedError) as ei:
            dump("mpi-io-scda", 2, hierarchy)
        assert isinstance(ei.value.__cause__, ScdaHeaderError)
        section, offset, nbytes = moved[0]
        assert str(ei.value.__cause__) == (
            f"scda section {section!r} has {fault}: expected a piece at offset "
            f"{offset}, found {nbytes} bytes at offset {offset + shift}"
        )


# -- torn scda headers / padding are detected, never silently parsed ---------


class TestScdaTornHeaderDetection:
    def corrupt_and_restart(self, hierarchy, offset, data):
        m = dump("mpi-io-scda", 2, hierarchy)
        m.fs.store.open("ckpt").write(offset, data)
        with pytest.raises(RankFailedError) as ei:
            run_spmd(m, read_program(registry.create("mpi-io-scda")))
        assert isinstance(
            ei.value.__cause__, (ScdaHeaderError, ManifestVerificationError)
        ), ei.value.__cause__
        return ei.value.__cause__

    def test_torn_file_header(self, hierarchy):
        self.corrupt_and_restart(hierarchy, 0, b"scdb")

    def test_torn_section_header(self, hierarchy):
        self.corrupt_and_restart(hierarchy, 4096, b"XXXX")

    def test_scribbled_padding(self, hierarchy):
        # bytes inside the [128, 4096) alignment gap must stay zero; the
        # manifest's padding entry catches anything else
        self.corrupt_and_restart(hierarchy, FILE_HEADER_NBYTES + 8, b"\x01")

    def test_clean_file_still_restores(self, hierarchy):
        """The detection tests above are not vacuous: the same pipeline
        with no corruption restores bit-identical state."""
        m = dump("mpi-io-scda", 2, hierarchy)
        res = run_spmd(m, read_program(registry.create("mpi-io-scda")))
        assert hierarchies_equivalent(
            RankState.collect(res.results), hierarchy
        )


# -- LustreFS: lfs setstripe, MDS scaling, hint plumbing ---------------------


def make_lustre_fs(**kw):
    defaults = dict(
        nosts=4,
        stripe_size=4096,
        stripe_count=2,
        disk_bandwidth=1e9,
        seek_time=0.0,
        mds_open_time=1e-3,
        mds_per_file_time=1e-4,
    )
    defaults.update(kw)
    return LustreFS("lfs-test", **defaults)


class TestLustreFS:
    def test_setstripe_clamps_to_ost_count(self):
        fs = make_lustre_fs()
        fs.set_file_striping("ckpt", stripe_count=64)
        lay = fs.layout_for("ckpt")
        assert lay.stripe_count == 4
        assert lay.start == 0  # explicit layouts pin OST 0

    def test_setstripe_without_knobs_keeps_volume_default(self):
        fs = make_lustre_fs()
        fs.set_file_striping("ckpt")
        assert fs.layout_for("ckpt") is fs.layout

    def test_setstripe_partial_knobs_inherit_the_rest(self):
        fs = make_lustre_fs()
        fs.set_file_striping("a", stripe_size=8192)
        lay = fs.layout_for("a")
        assert lay.stripe_size == 8192
        assert lay.stripe_count == fs.layout.stripe_count == 2

    def test_default_layouts_rotate_over_osts(self):
        fs = make_lustre_fs()  # 4 OSTs, default 2-wide
        fs._service_meta("create", "f0", 0, 0.0)
        fs._service_meta("create", "f1", 0, 0.0)
        assert fs.layout_for("f0").start == 0
        assert fs.layout_for("f1").start == 2

    def test_mds_cost_grows_with_tracked_files(self):
        """The single-MDS explosion: each namespace op pays for every file
        the MDS already tracks, so per-op latency rises monotonically."""
        fs = make_lustre_fs(mds_per_file_time=1e-3)
        ts = [fs._service_meta("create", f"f{i}", 0, 0.0) for i in range(20)]
        deltas = [b - a for a, b in zip(ts, ts[1:])]
        assert deltas == sorted(deltas)
        assert deltas[-1] > deltas[0]

    def test_delete_forgets_the_file(self):
        fs = make_lustre_fs()
        fs._service_meta("create", "f0", 0, 0.0)
        assert fs.layout_for("f0") is not fs.layout
        fs._service_meta("delete", "f0", 0, 0.0)
        assert fs.layout_for("f0") is fs.layout


def test_striping_hints_reach_the_filesystem(hierarchy):
    """mpi-io-lustre's striping_factor/striping_unit hints land as an
    lfs-setstripe on the checkpoint file at open."""
    m = lustre_preset(nprocs=2)
    run_spmd(m, write_program(hierarchy, registry.create("mpi-io-lustre")))
    lay = m.fs.layout_for("ckpt")
    assert lay.stripe_count == 16  # widened from the volume default of 4
    assert lay.stripe_size == 1 << 20


def test_striping_hints_reach_hdf5_as_they_reach_mpiio(hierarchy):
    """One collective open serves ``File.open`` and the HDF5 mpio driver,
    so the stripe-count x alignment remedy can be expressed for ``hdf5*``
    (the parallel-HDF5 open used to drop both hints)."""
    from repro.hdf5 import H5File
    from repro.mpiio import File, Hints
    from repro.topology import PRESETS

    h = Hints(striping_factor=2, striping_unit=65536)
    m = PRESETS["lustre"](nprocs=2)

    def program(comm):
        File.open(comm, "raw", "w", hints=h).close()
        H5File.create(comm, "h5", hints=h).close()

    run_spmd(m, program)
    run_spmd(m, write_program(hierarchy, registry.create("hdf5", hints=h)))
    for path in ("raw", "h5", "ckpt"):
        lay = m.fs.layout_for(path)
        assert (lay.stripe_count, lay.stripe_size) == (2, 65536), path
    assert m.fs.layout_for("raw") == m.fs.layout_for("h5")
    assert m.fs.layout_for("ckpt.hierarchy").stripe_count == 4  # volume default


def test_a_zero_striping_unit_hint_keeps_the_volume_default():
    """``Hints(striping_unit=0)`` is "not set", never a 0-byte stripe."""
    from repro.mpiio import File, Hints
    from repro.topology import PRESETS

    m = PRESETS["lustre"](nprocs=2)
    h = Hints(striping_unit=0, striping_factor=2)
    run_spmd(m, lambda comm: File.open(comm, "raw", "w", hints=h).close())
    lay = m.fs.layout_for("raw")
    assert (lay.stripe_size, lay.stripe_count) == (m.fs.layout.stripe_size, 2)


def test_stripe_headroom_is_lustre_specific():
    assert stripe_headroom_of(lustre_preset(nprocs=2)) == 16
    assert stripe_headroom_of(origin2000(nprocs=2)) == 0


@pytest.mark.regression
def test_autotuner_retunes_stripes_on_lustre():
    """On a misaligned Lustre workload the tuner proposes widening the
    file's stripe count to all OSTs and bandwidth strictly improves."""
    tuner = AutoTuner(
        lambda n: lustre_preset(nprocs=n),
        problem="AMR16",
        nprocs=4,
        strategy="mpi-io",
        max_rounds=2,
    )
    report = tuner.tune()
    applied = [a for s in report.steps for a in s.applied]
    assert "striping_factor=16" in applied
    assert report.bandwidth_delta > 0
