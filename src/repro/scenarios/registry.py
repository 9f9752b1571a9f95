"""Declarative scenario registry (mirrors ``repro.iostack.registry``).

Every workload the benchmarks can build lives here under a stable name:
the five hard-coded ``AMR*`` problem sizes (now ordinary built-in
scenarios whose defaults reproduce the old builders bit-for-bit) plus the
gated parameter-file scenarios.  The two gated file-dialect scenarios are
normalized *through their parsers at import time* -- the embedded
parameter text below is the source of truth, so the parsers themselves
are on the import path of every benchmark that uses them.

API shape is the iostack one: :func:`register` (duplicate names rejected),
:func:`get` (unknown names raise :class:`ScenarioError` with a
"choose from ..." message the CLI maps to exit 2), :func:`names`,
:func:`scenarios`, :func:`unregister`.
"""

from __future__ import annotations

from dataclasses import replace

from .enzo_dialect import normalize_enzo, parse_enzo
from .model import Scenario, ScenarioError
from .nyx_dialect import normalize_nyx, parse_nyx

__all__ = [
    "get",
    "names",
    "register",
    "scenarios",
    "unregister",
]

_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Register a scenario under its name; duplicates are rejected."""
    scenario.validate()
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister(name: str) -> None:
    """Remove a registered scenario (tests use this to stay hermetic)."""
    _REGISTRY.pop(name, None)


def names() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def scenarios() -> tuple[Scenario, ...]:
    """All registered scenarios, in name order."""
    return tuple(_REGISTRY[n] for n in names())


def get(name: str) -> Scenario:
    """Look up a scenario by name.

    Raises :class:`ScenarioError` (a ``ValueError``) with a
    "choose from ..." message, so the library and the CLI reject unknown
    workloads identically.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; choose from {list(names())}"
        ) from None


# ---------------------------------------------------------------------------
# Built-in scenarios.
# ---------------------------------------------------------------------------

#: The paper's five problem sizes.  Field defaults on :class:`Scenario`
#: replicate the historical ``build_workload`` arguments exactly, which is
#: what keeps every pre-scenario regression digest byte-identical.
for _edge in (16, 32, 64, 128, 256):
    register(Scenario(
        name=f"AMR{_edge}",
        description=f"paper problem size: {_edge}^3 root grid",
        root_dims=(_edge, _edge, _edge),
    ))


#: FOGGIE-style zoom-in (SNIPPETS.md section 1, scaled to gate size): two
#: static nested initial grids, a central must-refine region, and a deep
#: chain of zoom levels onto the densest spot.  Checkpoint-only cadence.
FOGGIE_NESTED_PARAMS = """\
# foggie-nested: deep nested zoom-in hierarchy (gate-sized FOGGIE analogue)
ProblemType                = 30      // cosmology simulation
TopGridRank                = 3
TopGridDimensions          = 32 32 32
MaximumRefinementLevel     = 5
CosmologySimulationNumberOfInitialGrids  = 3
CosmologySimulationGridDimension[1]      = 16 16 16
CosmologySimulationGridLeftEdge[1]       = 0.25 0.25 0.25
CosmologySimulationGridRightEdge[1]      = 0.5 0.5 0.5
CosmologySimulationGridLevel[1]          = 1
CosmologySimulationGridDimension[2]      = 16 16 16
CosmologySimulationGridLeftEdge[2]       = 0.3125 0.3125 0.3125
CosmologySimulationGridRightEdge[2]      = 0.4375 0.4375 0.4375
CosmologySimulationGridLevel[2]          = 2
MustRefineParticlesCreateParticles = 3
MustRefineParticlesRefineToLevel   = 2
dtDataDump 	 = 10
StopCycle        = 3
"""

register(replace(
    normalize_enzo(parse_enzo(FOGGIE_NESTED_PARAMS), name="foggie-nested"),
    description="deep nested zoom-in hierarchy (FOGGIE-style)",
    deep_levels=3,
))


#: Nyx-style mixed cadence (SNIPPETS.md section 3, scaled to gate size):
#: plot files every cycle, checkpoints every other cycle, a max_grid_size
#: cap, and redshift-triggered analysis dumps.
NYX_PLOTFILE_PARAMS = """\
# nyx-plotfile: mixed plot/checkpoint cadence (gate-sized Nyx analogue)
amr.max_level                       = 1
amr.max_grid_size                   = 16
amr.n_cell                          = 32 32 32
max_step                            = 4
nyx.initial_z                       = 200.0
nyx.final_z                         = 1.0
amr.plot_files_output               = 1
amr.plot_int                        = 1
amr.plot_vars                       = density temperature
amr.checkpoint_files_output         = 1
amr.check_int                       = 2
nyx.analysis_z_values               = 7.0
"""

register(replace(
    normalize_nyx(parse_nyx(NYX_PLOTFILE_PARAMS), name="nyx-plotfile"),
    description="mixed plot-file vs checkpoint cadence (Nyx-style)",
))


#: FLASH-X-motivated Lagrangian-particle-heavy restart: 8x the default
#: particle load shifts checkpoint payload from fields toward the ten
#: particle arrays, which is what stresses the restart read phase.
register(Scenario(
    name="flashx-particles",
    description="Lagrangian-particle-heavy restart (FLASH-X-style)",
    root_dims=(32, 32, 32),
    particles_per_cell=2.0,
    ncycles=3,
    checkpoint_every=1,
))
