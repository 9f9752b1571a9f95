"""The ENZO cosmology simulation driver (paper Figure 2).

Flow: read/construct the initial grids, then repeat { evolve the hierarchy
one cycle, adapt the mesh, rebalance, periodically dump a checkpoint }.
Restart resumes from a checkpoint.

Execution model: the solver state is *replicated* -- every rank observes the
same global hierarchy (rank 0 mutates it at synchronised points, all ranks
charge compute time for their own cells), while I/O runs on genuinely
distributed :class:`~repro.enzo.state.RankState` views.  This keeps the
physics deterministic and the memory footprint flat while making every byte
of the I/O traffic real.  The substitution is documented in DESIGN.md: the
paper's effects live entirely in the I/O and communication layers, which
are fully simulated.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field

from ..amr.hierarchy import GridHierarchy
from ..amr.initial_conditions import make_initial_conditions
from ..amr.refinement import refine_hierarchy
from ..amr.solver import evolve_hierarchy
from ..mpi import collectives as coll
from ..mpi.comm import Comm
from ..scenarios import Scenario
from ..scenarios import registry as scenario_registry
from .io_base import IOStats, IOStrategy
from .plotfile import write_plotfile
from .state import RankState

__all__ = ["EnzoConfig", "EnzoSimulation"]

#: Solver time step per cycle (simulation units).
_DT = 0.1


@dataclass
class EnzoConfig:
    """Simulation parameters.

    ``problem`` is a scenario name (resolved through the scenario
    registry) or a :class:`~repro.scenarios.Scenario` object, e.g. one
    loaded from a parameter file.  The cadence fields model Enzo/Nyx's
    two output streams: full restartable checkpoints every
    ``dump_every`` cycles, lightweight plot files every ``plot_every``
    cycles (either 0 = stream off), plus redshift-triggered checkpoints.
    """

    problem: str | Scenario = "AMR64"
    ncycles: int = 3
    dump_every: int = 1
    particles_per_cell: float = 0.25
    seed: int = 0
    pre_refine: int = 1
    max_level: int = 2
    refine_threshold: float = 1.8
    #: double-buffered write-behind: post dump *k* asynchronously and let
    #: cycle *k+1* compute while it drains (needs an async-capable
    #: strategy, e.g. the ``mpi-io-async`` composition; synchronous
    #: strategies dump inline regardless)
    overlap: bool = False
    #: plot-file stream cadence (0 = off) and its field subset.
    plot_every: int = 0
    plot_fields: tuple[str, ...] = ("density",)
    #: redshift-triggered checkpoint dumps (require a redshift range).
    output_redshifts: tuple[float, ...] = ()
    initial_redshift: float = 0.0
    final_redshift: float = 0.0

    @classmethod
    def from_scenario(cls, scenario: Scenario, **overrides) -> "EnzoConfig":
        """An :class:`EnzoConfig` running a scenario's workload + cadence."""
        kwargs = dict(
            problem=scenario,
            ncycles=scenario.ncycles,
            dump_every=scenario.checkpoint_every,
            particles_per_cell=scenario.particles_per_cell,
            seed=scenario.seed,
            pre_refine=scenario.pre_refine,
            max_level=scenario.max_level,
            refine_threshold=scenario.refine_threshold,
            plot_every=scenario.plot_every,
            plot_fields=scenario.plot_fields,
            output_redshifts=scenario.output_redshifts,
            initial_redshift=scenario.initial_redshift,
            final_redshift=scenario.final_redshift,
        )
        kwargs.update(overrides)
        return cls(**kwargs)

    def scenario(self) -> Scenario:
        """The scenario behind ``problem`` (registry lookup for names)."""
        if isinstance(self.problem, Scenario):
            return self.problem
        return scenario_registry.get(str(self.problem))

    @property
    def root_dims(self) -> tuple[int, int, int]:
        # Unknown names raise ScenarioError (a ValueError) with the same
        # "choose from ..." message the CLI's --scenario path prints.
        return tuple(self.scenario().root_dims)

    def redshift_schedule(self) -> list[float]:
        """Redshift at the end of each cycle, log(1+z)-linear in cycle.

        Real cosmology codes step the expansion factor; the I/O model
        only needs a monotone z(cycle) so redshift-triggered dumps fire
        at deterministic cycles.
        """
        z0, z1 = self.initial_redshift, self.final_redshift
        n = self.ncycles
        out = []
        for c in range(1, n + 1):
            frac = c / n
            lz = math.log1p(z0) * (1.0 - frac) + math.log1p(z1) * frac
            out.append(math.expm1(lz))
        return out


@dataclass
class EnzoSimulation:
    """Drives one rank through the simulation flow.

    The hierarchy object is shared between ranks (replicated state); only
    rank 0 mutates it, inside barrier-fenced sections.
    """

    config: EnzoConfig
    strategy: IOStrategy
    hierarchy: GridHierarchy | None = None
    write_stats: list[IOStats] = field(default_factory=list)
    read_stats: list[IOStats] = field(default_factory=list)

    # -- setup ------------------------------------------------------------

    @staticmethod
    def build_initial_hierarchy(config: EnzoConfig) -> GridHierarchy:
        """Construct the initial grids (host-side; deterministic).

        Numeric knobs (seed, thresholds, pre-refine depth) come from the
        config -- historically so, and ``from_scenario`` copies them over
        -- while the scenario contributes its structural extensions
        (nested grids, must-refine regions, deep zoom levels), which are
        empty for the built-in ``AMR*`` sizes.
        """
        scenario = config.scenario()
        return make_initial_conditions(
            config.root_dims,
            particles_per_cell=config.particles_per_cell,
            seed=config.seed,
            pre_refine=config.pre_refine,
            refine_threshold=config.refine_threshold,
            nested_grids=scenario.nested_grids,
            must_refine=scenario.must_refine,
            deep_levels=scenario.deep_levels,
        )

    # -- the main loop ------------------------------------------------------------

    def run(self, comm: Comm, base: str = "dump") -> dict:
        """Run ``ncycles`` evolution cycles with periodic checkpoint dumps.

        Returns a per-rank summary dict (same on every rank up to timing).
        """
        cfg = self.config
        if self.hierarchy is None:
            raise ValueError("assign a hierarchy before run() (replicated state)")
        state = RankState.from_hierarchy(self.hierarchy, comm.rank, comm.size)
        dumps = []
        plot_dumps = []
        redshift_dumps = []
        my_stats = []  # this rank's dump stats (self.write_stats is shared)
        plot_stats = []
        overlap = cfg.overlap and self.strategy.aio is not None
        pending = None  # at most one in-flight dump (double buffering)
        z_schedule = (
            cfg.redshift_schedule() if cfg.output_redshifts else []
        )
        z_emitted: set[int] = set()
        for cycle in range(1, cfg.ncycles + 1):
            self._evolve_step(comm, state)
            # Mesh adaptation + rebalancing: structure may change, so the
            # per-rank views are rebuilt from the (replicated) hierarchy.
            state = RankState.from_hierarchy(
                self.hierarchy, comm.rank, comm.size
            )
            if cfg.dump_every > 0 and cycle % cfg.dump_every == 0:
                path = f"{base}.cycle{cycle:04d}"
                if pending is not None:
                    # Commit dump k-1 (drain + manifest) before posting k.
                    stats = pending.complete()
                    my_stats.append(stats)
                    self.write_stats.append(stats)
                if overlap:
                    pending = self.strategy.write_checkpoint_async(
                        comm, state, path
                    )
                else:
                    stats = self.strategy.write_checkpoint(comm, state, path)
                    my_stats.append(stats)
                    self.write_stats.append(stats)
                dumps.append(path)
            if cfg.plot_every > 0 and cycle % cfg.plot_every == 0:
                path = f"{base}.plt{cycle:04d}"
                plot_stats.append(write_plotfile(
                    comm, state, path, fields=cfg.plot_fields, cycle=cycle
                ))
                plot_dumps.append(path)
            if z_schedule:
                z_now = z_schedule[cycle - 1]
                for k, z_target in enumerate(cfg.output_redshifts):
                    if k in z_emitted or z_now > z_target:
                        continue
                    path = f"{base}.rd{k:04d}"
                    stats = self.strategy.write_checkpoint(comm, state, path)
                    my_stats.append(stats)
                    self.write_stats.append(stats)
                    redshift_dumps.append(path)
                    z_emitted.add(k)
        if pending is not None:
            stats = pending.complete()
            my_stats.append(stats)
            self.write_stats.append(stats)
        return {
            "dumps": dumps,
            "cycles": cfg.ncycles,
            "grids": len(self.hierarchy),
            "max_level": self.hierarchy.max_level,
            "write_time": sum(s.elapsed for s in my_stats),
            "write_stats": my_stats,
            "plot_dumps": plot_dumps,
            "redshift_dumps": redshift_dumps,
            "plot_time": sum(s.elapsed for s in plot_stats),
            "plot_bytes": sum(s.bytes_moved for s in plot_stats),
            "ckpt_bytes": sum(s.bytes_moved for s in my_stats),
        }

    def restart(self, comm: Comm, path: str) -> RankState:
        """Restart-read a checkpoint; records timing in ``read_stats``."""
        state, stats = self.strategy.read_checkpoint(comm, path)
        self.read_stats.append(stats)
        return state

    def resume(self, comm: Comm, path: str, base: str = "resumed") -> dict:
        """Restart from ``path`` and continue evolving (the full restart
        scenario: read the checkpoint, rebuild the replicated hierarchy,
        then run the remaining cycles with dumps).

        The rebuild gathers every rank's pieces to rank 0 (real
        communication over the machine model) and installs the collected
        hierarchy as the shared replicated state.
        """
        state = self.restart(comm, path)
        gathered = coll.gather(comm, state, root=0)
        if comm.rank == 0:
            self.hierarchy = RankState.collect(gathered)
        coll.barrier(comm)  # hierarchy now installed for every rank
        return self.run(comm, base=base)

    # -- internals ---------------------------------------------------------------

    def _evolve_step(self, comm: Comm, state: RankState) -> None:
        cfg = self.config
        coll.barrier(comm)
        if comm.rank == 0:
            evolve_hierarchy(self.hierarchy, _DT)
            refine_hierarchy(
                self.hierarchy,
                overdensity_threshold=cfg.refine_threshold,
                max_level=cfg.max_level,
            )
        # Every rank pays for its own cells (parallel compute model).
        comm.compute(
            comm.machine.compute_time(state.my_cells() * 2000.0)
        )
        coll.barrier(comm)
