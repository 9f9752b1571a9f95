"""The canonical :class:`Scenario` model every workload dialect normalizes to.

A scenario is the *shape* of one AMR cosmology workload: root-grid
dimensionality, nested initial grids, must-refine particle regions,
refinement constraints (``max_level``, ``max_grid_size``), and the output
cadence split into its two streams -- periodic checkpoints (restartable,
full state) and periodic plot files (lightweight, a field subset, no
particles) -- plus redshift-triggered dumps.

Scenarios are frozen and fully hashable (every collection field is a
tuple), so they compare and hash by value and travel anywhere a
``problem: str`` used to go.  Validation failures raise
:class:`ScenarioError` (a :class:`ValueError`), which the CLI maps to
exit 2 -- malformed parameter files are usage errors, never crashes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..amr.fields import BARYON_FIELDS

__all__ = [
    "MIN_GRID_SIZE",
    "MustRefineRegion",
    "NestedGridSpec",
    "Scenario",
    "ScenarioError",
]

#: Smallest sensible ``max_grid_size``: a grid edge below this produces
#: sub-stripe write requests on every file system the repo models (the
#: narrowest stripe-ish unit is the 4 KiB scda block = 8^3 cells of one
#: field), so parsers must reject it loudly instead of building a workload
#: whose I/O the model cannot say anything meaningful about.
MIN_GRID_SIZE = 8


class ScenarioError(ValueError):
    """A parameter file or scenario definition that cannot be normalized."""


@dataclass(frozen=True)
class NestedGridSpec:
    """One static nested initial grid (Enzo ``CosmologySimulationGrid*``)."""

    level: int
    dims: tuple[int, int, int]
    left_edge: tuple[float, float, float]
    right_edge: tuple[float, float, float]


@dataclass(frozen=True)
class MustRefineRegion:
    """A region forced to refine to ``level`` (must-refine particles)."""

    level: int
    left_edge: tuple[float, float, float]
    right_edge: tuple[float, float, float]


@dataclass(frozen=True)
class Scenario:
    """One canonical workload description (any dialect normalizes to this).

    The defaults reproduce the hard-coded ``AMR*`` problem sizes exactly:
    a built-in ``Scenario(name="AMR32", root_dims=(32, 32, 32))`` builds
    byte-identical hierarchies to the pre-scenario workload builders,
    which is what keeps every pinned regression digest stable.
    """

    name: str
    root_dims: tuple[int, int, int]
    description: str = ""
    #: which parser produced this ("enzo", "nyx", or "builtin").
    source_dialect: str = "builtin"

    # -- hierarchy shape ---------------------------------------------------
    max_level: int = 4
    #: largest subgrid edge the refiner may create (0 = model default).
    max_grid_size: int = 0
    particles_per_cell: float = 0.25
    seed: int = 0
    pre_refine: int = 1
    refine_threshold: float = 2.2
    init_refine_threshold: float = 2.6
    nested_grids: tuple[NestedGridSpec, ...] = ()
    must_refine: tuple[MustRefineRegion, ...] = ()
    #: deep-hierarchy mode: chain this many extra levels of small nested
    #: grids onto the densest spot (FOGGIE-style zoom hierarchies).
    deep_levels: int = 0

    # -- output cadence ----------------------------------------------------
    ncycles: int = 3
    #: checkpoint stream: dump the full restartable state every N cycles
    #: (0 disables the stream).
    checkpoint_every: int = 1
    #: plot-file stream: lightweight field-subset dump every N cycles
    #: (0 disables the stream).
    plot_every: int = 0
    plot_fields: tuple[str, ...] = ("density",)
    #: redshift-triggered full dumps (Enzo ``CosmologyOutputRedshift[n]``,
    #: Nyx ``analysis_z_values``); requires a redshift range below.
    output_redshifts: tuple[float, ...] = ()
    initial_redshift: float = 0.0
    final_redshift: float = 0.0

    def __str__(self) -> str:
        return self.name

    # -- validation --------------------------------------------------------

    def validate(self) -> "Scenario":
        """Check internal consistency; raises :class:`ScenarioError`."""
        if not self.name:
            raise ScenarioError("scenario needs a name")
        if len(self.root_dims) != 3 or any(
            not isinstance(d, int) or d < MIN_GRID_SIZE for d in self.root_dims
        ):
            raise ScenarioError(
                f"{self.name}: root dims must be three integers >= "
                f"{MIN_GRID_SIZE}, got {self.root_dims!r}"
            )
        if self.max_grid_size and self.max_grid_size < MIN_GRID_SIZE:
            raise ScenarioError(
                f"{self.name}: max_grid_size {self.max_grid_size} is below "
                f"the stripe-ish minimum {MIN_GRID_SIZE} (sub-stripe grids "
                "make every write request degenerate)"
            )
        if self.max_level < 0 or self.pre_refine < 0 or self.deep_levels < 0:
            raise ScenarioError(
                f"{self.name}: max_level/pre_refine/deep_levels must be >= 0"
            )
        # NaN passes every range check below; a non-finite threshold
        # refines nothing and a non-finite density crashes in the builder.
        for field in ("particles_per_cell", "refine_threshold",
                      "init_refine_threshold"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ScenarioError(
                    f"{self.name}: {field} must be finite, got {value!r}"
                )
        if self.particles_per_cell < 0:
            raise ScenarioError(
                f"{self.name}: particles_per_cell must be >= 0"
            )
        if self.ncycles < 1:
            raise ScenarioError(f"{self.name}: ncycles must be >= 1")
        if self.checkpoint_every < 0 or self.plot_every < 0:
            raise ScenarioError(
                f"{self.name}: dump cadences must be >= 0 (0 = stream off)"
            )
        unknown = [f for f in self.plot_fields if f not in BARYON_FIELDS]
        if unknown:
            raise ScenarioError(
                f"{self.name}: unknown plot field(s) {', '.join(unknown)} "
                f"(choose from {', '.join(BARYON_FIELDS)})"
            )
        if self.output_redshifts and not (
            self.initial_redshift > self.final_redshift
        ):
            raise ScenarioError(
                f"{self.name}: redshift-triggered dumps need "
                "initial_redshift > final_redshift"
            )
        for spec in self.nested_grids:
            self._validate_nested(spec)
        for region in self.must_refine:
            if region.level < 1:
                raise ScenarioError(
                    f"{self.name}: must-refine level must be >= 1"
                )
            self._validate_box(region.left_edge, region.right_edge,
                               "must-refine region")
        return self

    def _validate_box(self, left, right, what: str) -> None:
        if len(left) != 3 or len(right) != 3:
            raise ScenarioError(f"{self.name}: {what} edges must be 3-vectors")
        for lo, hi in zip(left, right):
            if not (0.0 <= lo < hi <= 1.0):
                raise ScenarioError(
                    f"{self.name}: {what} [{left}..{right}] must lie inside "
                    "the unit cube with left < right"
                )

    def _validate_nested(self, spec: NestedGridSpec) -> None:
        if spec.level < 1:
            raise ScenarioError(
                f"{self.name}: nested grid levels start at 1 (the root is 0)"
            )
        self._validate_box(spec.left_edge, spec.right_edge, "nested grid")
        if len(spec.dims) != 3 or any(
            not isinstance(d, int) or d < 1 for d in spec.dims
        ):
            raise ScenarioError(
                f"{self.name}: nested grid dims must be three positive "
                f"integers, got {spec.dims!r}"
            )
        # dims must be consistent with the declared extent: a level-L grid
        # has cell width root_width / 2^L, so extent * root_dim * 2^L must
        # equal dims (within float tolerance of the edge coordinates).
        for axis in range(3):
            span = spec.right_edge[axis] - spec.left_edge[axis]
            expect = span * self.root_dims[axis] * (2 ** spec.level)
            if abs(expect - spec.dims[axis]) > 0.5:
                raise ScenarioError(
                    f"{self.name}: nested grid dims {spec.dims} disagree "
                    f"with its edges (axis {axis}: extent {span:g} at level "
                    f"{spec.level} implies {expect:g} cells)"
                )

    # -- derived scenarios -------------------------------------------------

    def downscaled(self, factor: int) -> "Scenario":
        """The same scenario at ``1/factor`` linear resolution.

        Geometry (nested grids, must-refine regions) is preserved in domain
        units; only cell counts shrink.  Root axes never drop below
        :data:`MIN_GRID_SIZE`.  This is how the verbatim 256^3 example
        parameter files run end-to-end in seconds instead of hours.
        """
        if factor <= 1:
            return self
        dims = tuple(
            max(MIN_GRID_SIZE, d // factor) for d in self.root_dims
        )
        scale = dims[0] / self.root_dims[0]
        nested = tuple(
            replace(
                s,
                dims=tuple(max(2, round(d * scale)) for d in s.dims),
            )
            for s in self.nested_grids
        )
        mgs = self.max_grid_size
        if mgs:
            mgs = max(MIN_GRID_SIZE, mgs // factor)
        return replace(
            self,
            name=f"{self.name}/{factor}",
            root_dims=dims,
            nested_grids=nested,
            max_grid_size=mgs,
        ).validate()

    def capped(self, max_axis: int = 32) -> "Scenario":
        """Downscale until no root axis exceeds ``max_axis`` (lint builds)."""
        factor = 1
        while max(self.root_dims) // factor > max_axis:
            factor *= 2
        return self.downscaled(factor)
