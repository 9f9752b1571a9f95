"""Tests for the ENZO simulation driver (evolve -> dump -> restart)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.bench import build_workload
from repro.enzo import (
    EnzoConfig,
    EnzoSimulation,
    RankState,
    hierarchies_equivalent,
)
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.scenarios import registry as scenario_registry

from .conftest import make_machine


def make_sim(strategy=None, ncycles=2, dump_every=None, **scenario_kw):
    scenario = replace(scenario_registry.get("AMR16"),
                       **{"max_level": 1, "refine_threshold": 2.0,
                          **scenario_kw})
    config = EnzoConfig(problem=scenario, ncycles=ncycles,
                        dump_every=dump_every)
    return EnzoSimulation(
        config=config,
        strategy=strategy or registry.create("mpi-io"),
        hierarchy=EnzoSimulation.build_initial_hierarchy(config),
    )


class TestEnzoConfig:
    def test_root_dims(self):
        assert EnzoConfig(problem="AMR64").scenario().root_dims == (64, 64, 64)
        with pytest.raises(ValueError):
            EnzoConfig(problem="AMR9000").scenario()

    #: Every registered scenario up to 64^3 root cells: AMR128 alone takes
    #: ~10 s and ~0.7 GB per build.
    BUILDABLE = [n for n in scenario_registry.names()
                 if np.prod(scenario_registry.get(n).root_dims) <= 64**3]

    @pytest.mark.parametrize("name", BUILDABLE)
    def test_driver_builds_what_the_workload_builder_builds(self, name):
        """One builder: a scenario object's initial hierarchy is the
        workload builder's, its own refinement included."""
        scenario = scenario_registry.get(name)
        driver = EnzoSimulation.build_initial_hierarchy(
            EnzoConfig(problem=scenario))
        workload = build_workload(scenario)
        assert [(g.id, g.level, g.dims, g.parent_id) for g in driver.grids()] \
            == [(g.id, g.level, g.dims, g.parent_id) for g in workload.grids()]
        assert hierarchies_equivalent(driver, workload)

    def test_a_name_drives_the_named_problem_refinement(self):
        scenario = EnzoConfig(problem="AMR16").scenario()
        assert (scenario.refine_threshold, scenario.max_level) == (1.8, 2)
        assert scenario.root_dims == (16, 16, 16)
        # ... while a scenario object is taken as written, at any size.
        assert all(EnzoConfig(problem=s).scenario() is s
                   for s in scenario_registry.scenarios())


class TestSimulationRun:
    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_run_produces_dumps(self, nprocs):
        sim = make_sim()
        m = make_machine(nprocs)
        res = run_spmd(m, lambda c: sim.run(c, base="x"), nprocs=nprocs)
        summary = res.results[0]
        assert summary["dumps"] == ["x.cycle0001", "x.cycle0002"]
        assert summary["cycles"] == 2
        assert len(summary["write_stats"]) == 2
        # Checkpoint files really exist.
        assert m.fs.exists("x.cycle0002")
        assert m.fs.exists("x.cycle0002.hierarchy")

    def test_dump_every(self):
        sim = make_sim(ncycles=4, dump_every=2)
        m = make_machine(2)
        res = run_spmd(m, lambda c: sim.run(c, base="y"), nprocs=2)
        assert res.results[0]["dumps"] == ["y.cycle0002", "y.cycle0004"]

    def test_evolution_changes_dump_content(self):
        sim = make_sim(ncycles=2)
        m = make_machine(2)
        run_spmd(m, lambda c: sim.run(c, base="z"), nprocs=2)
        f1 = m.fs.store.open("z.cycle0001")
        f2 = m.fs.store.open("z.cycle0002")
        assert f1.read(0, f1.size) != f2.read(0, f2.size)

    def test_restart_recovers_final_state(self):
        sim = make_sim()
        m = make_machine(4)
        res = run_spmd(m, lambda c: sim.run(c, base="r"), nprocs=4)
        last = res.results[0]["dumps"][-1]
        restart = run_spmd(m, lambda c: sim.restart(c, last), nprocs=4)
        rebuilt = RankState.collect(restart.results)
        assert hierarchies_equivalent(rebuilt, sim.hierarchy)
        assert len(sim.read_stats) == 4  # one per rank

    def test_restart_with_hdf4(self):
        sim = make_sim(strategy=registry.create("hdf4"))
        m = make_machine(3)
        res = run_spmd(m, lambda c: sim.run(c, base="h"), nprocs=3)
        last = res.results[0]["dumps"][-1]
        restart = run_spmd(m, lambda c: sim.restart(c, last), nprocs=3)
        rebuilt = RankState.collect(restart.results)
        assert hierarchies_equivalent(rebuilt, sim.hierarchy)

    def test_run_requires_hierarchy(self):
        config = EnzoConfig(problem="AMR16")
        sim = EnzoSimulation(config=config, strategy=registry.create("mpi-io"))
        m = make_machine(1)
        from repro.sim import RankFailedError

        with pytest.raises(RankFailedError):
            run_spmd(m, lambda c: sim.run(c), nprocs=1)

    def test_compute_time_charged_per_cycle(self):
        sim = make_sim()
        m = make_machine(2)
        res = run_spmd(m, lambda c: (sim.run(c), c.clock)[1], nprocs=2)
        assert all(t > 0 for t in res.results)

    def test_refinement_grows_hierarchy(self):
        sim = make_sim(ncycles=1, max_level=2, refine_threshold=1.5)
        before = len(sim.hierarchy)
        m = make_machine(2)
        run_spmd(m, lambda c: sim.run(c, base="g"), nprocs=2)
        assert len(sim.hierarchy) >= before


class TestResume:
    def test_resume_continues_from_checkpoint(self):
        sim = make_sim(ncycles=2)
        m = make_machine(3)
        res = run_spmd(m, lambda c: sim.run(c, base="a"), nprocs=3)
        last = res.results[0]["dumps"][-1]
        grids_before = len(sim.hierarchy)

        # A fresh simulation object resumes from the dump on a new machine
        # sharing the same file system.
        sim2 = make_sim(ncycles=1)
        sim2.hierarchy = None
        m2 = make_machine(3, fs=m.fs)
        res2 = run_spmd(
            m2, lambda c: sim2.resume(c, last, base="b"), nprocs=3
        )
        summary = res2.results[0]
        assert summary["dumps"] == ["b.cycle0001"]
        assert m2.fs.exists("b.cycle0001")
        # The resumed run started from the dumped state (same or more grids
        # after one more refinement step).
        assert summary["grids"] >= 1
        assert len(sim2.read_stats) == 3

    def test_resumed_state_matches_original(self):
        """Resume with zero extra cycles reproduces the dumped hierarchy."""
        from repro.enzo import hierarchies_equivalent

        sim = make_sim(ncycles=1)
        m = make_machine(2)
        res = run_spmd(m, lambda c: sim.run(c, base="x"), nprocs=2)
        last = res.results[0]["dumps"][-1]

        sim2 = make_sim(ncycles=0)
        sim2.hierarchy = None
        m2 = make_machine(2, fs=m.fs)
        run_spmd(m2, lambda c: sim2.resume(c, last, base="y"), nprocs=2)
        assert hierarchies_equivalent(sim2.hierarchy, sim.hierarchy)
