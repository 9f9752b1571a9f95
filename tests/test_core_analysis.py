"""Tests for the access-pattern analysis, metadata registry and optimizer."""

import numpy as np
import pytest

from repro.core import (
    AccessDescriptor,
    IOTrace,
    MetadataRegistry,
    Optimizer,
    PatternClass,
    classify_accesses,
    format_table,
    format_trace_report,
    trace_filesystem,
)


def block_descriptors_3d(shape, pgrid):
    """(Block, Block, Block) descriptors over a 3-D processor grid."""
    from repro.amr import BlockPartition

    nprocs = int(np.prod(pgrid))
    part = BlockPartition(shape, nprocs)
    out = []
    for r in range(nprocs):
        starts, sizes = part.block_of(r)
        out.append(
            AccessDescriptor(global_shape=shape, starts=starts, subsizes=sizes)
        )
    return out


class TestClassification:
    def test_block_block_block_is_regular(self):
        descs = block_descriptors_3d((8, 8, 8), (2, 2, 2))
        assert classify_accesses(descs) == PatternClass.REGULAR_BLOCK

    def test_slab_decomposition_is_contiguous(self):
        descs = [
            AccessDescriptor((8, 4, 4), starts=(i * 2, 0, 0), subsizes=(2, 4, 4))
            for i in range(4)
        ]
        assert classify_accesses(descs) == PatternClass.CONTIGUOUS

    def test_1d_block_is_contiguous(self):
        descs = [
            AccessDescriptor((100,), starts=(i * 25,), subsizes=(25,))
            for i in range(4)
        ]
        assert classify_accesses(descs) == PatternClass.CONTIGUOUS

    def test_explicit_indices_is_irregular(self):
        descs = [
            AccessDescriptor((100,), indices=(1, 5, 7)),
            AccessDescriptor((100,), indices=(2, 3)),
        ]
        assert classify_accesses(descs) == PatternClass.IRREGULAR

    def test_overlapping_blocks_is_irregular(self):
        descs = [
            AccessDescriptor((10,), starts=(0,), subsizes=(6,)),
            AccessDescriptor((10,), starts=(4,), subsizes=(6,)),
        ]
        assert classify_accesses(descs) == PatternClass.IRREGULAR

    def test_holes_are_irregular(self):
        descs = [AccessDescriptor((10,), starts=(0,), subsizes=(5,))]
        assert classify_accesses(descs) == PatternClass.IRREGULAR

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            AccessDescriptor((10,))
        with pytest.raises(ValueError):
            AccessDescriptor((10,), starts=(0,))
        with pytest.raises(ValueError):
            AccessDescriptor((10,), starts=(0,), subsizes=(20,))
        with pytest.raises(ValueError):
            AccessDescriptor((10,), starts=(0,), subsizes=(5,), indices=(1,))
        with pytest.raises(ValueError):
            classify_accesses([])

    def test_enzo_patterns_classified_as_paper_says(self):
        """Baryon fields regular, particles irregular (paper Fig. 4)."""
        baryon = block_descriptors_3d((16, 16, 16), (2, 2, 1))
        assert classify_accesses(baryon) == PatternClass.REGULAR_BLOCK
        rng = np.random.default_rng(0)
        owner = rng.integers(0, 4, size=64)
        particle = [
            AccessDescriptor(
                (64,), indices=tuple(np.flatnonzero(owner == r).tolist())
            )
            for r in range(4)
        ]
        assert classify_accesses(particle) == PatternClass.IRREGULAR


class TestMetadataRegistry:
    def make(self):
        reg = MetadataRegistry()
        reg.register("top", "density", (64, 64, 64), np.float64,
                     PatternClass.REGULAR_BLOCK)
        reg.register("top", "particle_id", (1000,), np.int64,
                     PatternClass.IRREGULAR)
        reg.register(1, "density", (16, 16, 16), np.float64,
                     PatternClass.CONTIGUOUS)
        return reg

    def test_access_order_preserved(self):
        reg = self.make()
        assert [a.name for a in reg.arrays()] == [
            "density", "particle_id", "density"
        ]
        assert [a.order_index for a in reg.arrays()] == [0, 1, 2]

    def test_lookup_and_grouping(self):
        reg = self.make()
        assert reg.lookup("top", "density").rank == 3
        assert reg.grid_keys() == ["top", 1]
        assert len(reg.arrays("top")) == 2
        assert ("top", "density") in reg

    def test_nbytes(self):
        reg = self.make()
        assert reg.lookup("top", "particle_id").nbytes == 8000
        assert reg.total_nbytes() == 64**3 * 8 + 8000 + 16**3 * 8

    def test_duplicate_rejected(self):
        reg = self.make()
        with pytest.raises(ValueError):
            reg.register("top", "density", (4, 4, 4), np.float64,
                         PatternClass.REGULAR_BLOCK)

    def test_rank_dim_mismatch(self):
        from repro.core.metadata import ArrayMetadata

        with pytest.raises(ValueError):
            ArrayMetadata("x", 2, (4,), "float64", PatternClass.IRREGULAR, 0)


class TestOptimizer:
    def test_plan_follows_paper_rules(self):
        reg = TestMetadataRegistry().make()
        plan = Optimizer(stripe_size=65536).plan(reg)
        assert plan.plan_for("particle_id").method == "sort_blockwise"
        assert not plan.plan_for("particle_id").collective
        top_density = plan.arrays[0]
        assert top_density.method == "collective_subarray"
        assert top_density.collective
        sub_density = plan.arrays[2]
        assert sub_density.method == "independent_contiguous"
        assert plan.shared_file
        assert plan.align_to_stripe == 65536

    def test_explain_mentions_key_decisions(self):
        reg = TestMetadataRegistry().make()
        text = Optimizer().plan(reg).explain()
        assert "collective_subarray" in text
        assert "sort_blockwise" in text
        assert "single shared file" in text


class TestTrace:
    def test_manual_recording_and_stats(self):
        t = IOTrace()
        t.record(op="write", path="f", offset=0, nbytes=100, start=0.0,
                 end=1.0, node=0)
        t.record(op="write", path="f", offset=100, nbytes=100, start=1.0,
                 end=2.0, node=1)
        t.record(op="write", path="f", offset=500, nbytes=50, start=2.0,
                 end=3.0, node=0)
        assert t.total_bytes("write") == 250
        assert t.sequential_fraction("write") == pytest.approx(1 / 3)
        assert t.bandwidth("write") == pytest.approx(250 / 3.0)
        assert t.per_node_bytes("write") == {0: 150, 1: 100}
        assert len(t) == 3
        assert t.total_bytes("read") == 0
        assert t.bandwidth("read") == 0.0

    def test_size_histogram(self):
        t = IOTrace()
        for size in (100, 2000, 2**18, 2**21):
            t.record(op="read", path="f", offset=0, nbytes=size, start=0.0,
                     end=0.1, node=0)
        h = t.size_histogram("read")
        assert h["<1K"] == 1
        assert h["1K-16K"] == 1
        assert h["128K-1M"] == 1
        assert h[">=1M"] == 1

    def test_trace_filesystem_wrapper(self):
        from repro.pfs import FileSystem

        fs = FileSystem()
        trace = trace_filesystem(fs)
        fs.create("f")
        fs.write("f", 0, b"x" * 64)
        fs.read("f", 0, 64)
        assert len(trace) == 3
        assert trace.ops("meta")[0].kind == "create"
        assert trace.ops("write")[0].nbytes == 64
        assert trace.ops("read")[0].nbytes == 64

    def test_report_formatting(self):
        from repro.pfs import FileSystem

        fs = FileSystem()
        trace = trace_filesystem(fs)
        fs.create("f")
        for i in range(5):
            fs.write("f", i * 100, b"y" * 100)
        report = format_trace_report(trace, title="test run")
        assert "test run" in report
        assert "WRITE: 5 requests" in report
        assert "sequential frac" in report

    def test_format_table(self):
        out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "333" in lines[3]
