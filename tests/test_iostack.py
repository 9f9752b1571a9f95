"""Layered I/O stack: registry contract and composed strategies.

Two properties pin the stack down:

* the registry rejects bad registrations (duplicate names, incompatible
  layer combinations) and resolves good ones everywhere strategies are
  named (CLI included);
* a registered composition is a complete strategy -- ``hdf5-aligned``
  checkpoints written at one width restart at another.
"""

import pytest

from repro.amr import make_initial_conditions
from repro.enzo import RankState, hierarchies_equivalent
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.resilience import CheckpointManifest

from .conftest import edge_case_hierarchy, make_machine

@pytest.fixture(scope="module")
def hierarchy():
    return make_initial_conditions(
        (16, 16, 16), seed=11, pre_refine=1, particles_per_cell=0.5
    )


def dump(machine, hierarchy, strategy, base="ckpt"):
    def program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        return strategy.write_checkpoint(comm, state, base)

    return run_spmd(machine, program, nprocs=machine.nprocs)


def restart(machine, strategy, base="ckpt"):
    def program(comm):
        state, _stats = strategy.read_checkpoint(comm, base)
        return state

    res = run_spmd(machine, program, nprocs=machine.nprocs)
    return RankState.collect(res.results)


# -- registry contract -------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert set(registry.names()) >= {"hdf4", "mpi-io", "hdf5", "hdf5-aligned"}

    def test_duplicate_name_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register(
                registry.StrategyComposition(
                    name="hdf4",
                    layout="file-per-grid",
                    transport="funnel",
                    format="hdf4-sd",
                )
            )

    def test_incompatible_layers_raise(self):
        with pytest.raises(ValueError, match="requires"):
            registry.register(
                registry.StrategyComposition(
                    name="bogus-funnel",
                    layout="shared-file",
                    transport="funnel",
                    format="raw",
                )
            )
        with pytest.raises(ValueError, match="unknown layer"):
            registry.register(
                registry.StrategyComposition(
                    name="bogus-layer",
                    layout="shared-file",
                    transport="collective",
                    format="netcdf",
                )
            )
        assert "bogus-funnel" not in registry.names()
        assert "bogus-layer" not in registry.names()

    def test_register_then_unregister(self):
        comp = registry.StrategyComposition(
            name="hdf5-test-variant",
            layout="shared-file",
            transport="collective",
            format="hdf5",
            options={"meta_aggregation": True},
            variant_of="hdf5",
        )
        registry.register(comp)
        try:
            assert "hdf5-test-variant" in registry.names()
            strategy = registry.create("hdf5-test-variant")
            assert strategy.name == "hdf5-test-variant"
            assert strategy.format.meta_aggregation
        finally:
            registry.unregister("hdf5-test-variant")
        assert "hdf5-test-variant" not in registry.names()

    def test_unknown_strategy_raises_with_available(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            registry.get("netcdf")
        with pytest.raises(ValueError, match="available"):
            registry.create("netcdf")

    def test_upgrades_derived_from_registrations(self):
        ups = {c.name: c.upgrades_to for c in registry.compositions()
               if c.upgrades_to}
        assert ups["hdf4"] == "mpi-io"
        assert ups["hdf5"] == "mpi-io"
        assert ups["mpi-io"] == "mpi-io-async"
        assert "mpi-io-async" not in ups  # the chain terminates

    def test_upgrade_chain_is_transitive(self):
        assert registry.upgrade_chain("hdf4") == ("mpi-io", "mpi-io-async")
        assert registry.upgrade_chain("mpi-io") == ("mpi-io-async",)
        assert registry.upgrade_chain("mpi-io-async") == ()
        assert registry.upgrade_chain("nosuch") == ()

    def test_every_async_composition_has_a_sync_twin(self):
        """An async regress cell reruns its workload through the composition
        it is a ``variant_of``; that twin differs by ``async`` alone."""
        asyncs = [c for c in registry.compositions() if "async" in c.options]
        assert asyncs
        for comp in asyncs:
            assert comp.variant_of in registry.names(), comp.name
            twin = registry.get(comp.variant_of)
            assert "async" not in twin.options, comp.name
            assert (twin.layout, twin.transport, twin.format) == (
                comp.layout, comp.transport, comp.format), comp.name
            assert dict(twin.options) == {
                k: v for k, v in comp.options.items() if k != "async"
            }, comp.name

    def test_cli_rejects_unknown_strategy(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--strategy", "netcdf"])
        assert exc.value.code == 2


# -- composed strategies are complete strategies -----------------------------


class TestComposedRoundTrip:
    def test_hdf5_aligned_restarts_at_different_width(self, hierarchy):
        """hdf5-aligned dump at P=4 restarts bit-equivalent at P'=2."""
        m = make_machine(4)
        dump(m, hierarchy, registry.create("hdf5-aligned"))
        rm = make_machine(2, fs=m.fs)
        rebuilt = restart(rm, registry.create("hdf5-aligned"))
        assert hierarchies_equivalent(rebuilt, hierarchy)

    def test_hdf5_aligned_aggregates_metadata(self, hierarchy):
        """The aggregated dump issues strictly fewer fs write requests."""
        plain, aligned = make_machine(4), make_machine(4)
        dump(plain, hierarchy, registry.create("hdf5"))
        dump(aligned, hierarchy, registry.create("hdf5-aligned"))
        assert (
            aligned.fs.counters.writes < plain.fs.counters.writes
        )


# -- manifest entry names are simulated behaviour ----------------------------
#
# The pickled list of a rank's entries is the wire size of write_manifest's
# gather, so a renamed entry moves simulated time (and every golden digest).

FIELDS = (
    "density", "total_energy", "velocity_x", "velocity_y", "velocity_z",
    "temperature", "dark_matter_density", "internal_energy",
)
PARTICLES = (
    "particle_id", "position_x", "position_y", "position_z", "velocity_x",
    "velocity_y", "velocity_z", "mass", "attribute_0", "attribute_1",
)


def manifest_names(strategy_name, nprocs):
    m = make_machine(nprocs)
    dump(m, edge_case_hierarchy(), registry.create(strategy_name))
    raw = m.fs.store.open("ckpt.manifest")
    return sorted(CheckpointManifest.from_bytes(raw.read(0, raw.size)).entries)


class TestManifestEntryNames:
    # Grid 2 of the edge-case hierarchy has no particles: its empty arrays
    # carry no corruptible bytes and are not in any manifest.
    def test_per_rank_entries_of_the_raw_and_hdf5_formats(self):
        expect = sorted(
            [f"top/field/{f}/r{r:04d}" for f in FIELDS for r in (0, 1)]
            + [f"top/particle/{a}/r{r:04d}" for a in PARTICLES for r in (0, 1)]
            + [f"grid{g}/field/{f}" for g in (1, 2, 3, 4) for f in FIELDS]
            + [f"grid{g}/particle/{a}" for g in (1, 3, 4) for a in PARTICLES]
        )
        assert "top/field/density/r0000" in expect
        assert "top/particle/mass/r0001" in expect
        assert "grid3/particle/particle_id" in expect
        assert manifest_names("mpi-io", 2) == expect
        assert manifest_names("hdf5", 2) == expect

    def test_scda_entries_are_the_rank_free_section_names(self):
        expect = sorted(
            ["scda/headers", "scda/padding"]
            + [f"top/field/{f}" for f in FIELDS]
            + [f"top/particle/{a}" for a in PARTICLES]
            + [f"grid{g}/field/{f}" for g in (1, 2, 3, 4) for f in FIELDS]
            + [f"grid{g}/particle/{a}" for g in (1, 3, 4) for a in PARTICLES]
        )
        assert manifest_names("mpi-io-scda", 2) == expect
        assert manifest_names("mpi-io-scda", 3) == expect


class TestAddressArithmeticOnce:
    """A write and the manifest entry recording it share one flattening."""

    def test_a_raw_block_write_maps_its_view_once(self, monkeypatch):
        from repro.iostack import formats
        from repro.mpiio import fileview

        maps, strided_writes = [], []
        real_map = fileview.map_stream
        monkeypatch.setattr(
            fileview, "map_stream", lambda *a: maps.append(1) or real_map(*a)
        )
        real_begin = formats._RawSession.begin_block_write

        def begin(self, *args):
            op = real_begin(self, *args)
            if not self.fh.view.is_contiguous:
                strided_writes.append(1)
            return op

        monkeypatch.setattr(formats._RawSession, "begin_block_write", begin)
        dump(make_machine(4), edge_case_hierarchy(), registry.create("mpi-io"))
        assert strided_writes and len(maps) == len(strided_writes)

    def test_an_hdf5_dataset_write_flattens_its_selection_once(self, monkeypatch):
        from repro.hdf5 import file as h5file

        flattens, writes = [], []
        real_flat = h5file._flat_runs
        monkeypatch.setattr(
            h5file, "_flat_runs", lambda *a: flattens.append(1) or real_flat(*a)
        )
        real_write = h5file.H5Dataset.write
        monkeypatch.setattr(
            h5file.H5Dataset, "write",
            lambda self, *a, **k: writes.append(1) or real_write(self, *a, **k),
        )
        dump(make_machine(4), edge_case_hierarchy(), registry.create("hdf5"))
        assert writes and len(flattens) == len(writes)
