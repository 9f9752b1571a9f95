"""Toy hydrodynamics/N-body evolution.

The study needs the *I/O behaviour* of an evolving AMR hierarchy, not
astrophysical accuracy: data must change every cycle, stay clustered so
refinement remains non-trivial, and cost a defensible amount of compute
time.  The solver therefore does a cheap but real update:

* baryon fields: explicit diffusion plus a drift toward the local
  dark-matter density (a caricature of gravitational infall);
* particles: kick toward the densest cell in their grid (monopole
  gravity), drift, periodic wrap at the domain boundary;
* particles are re-homed to the finest grid containing them afterwards;
* compute time is charged per cell-update through the machine model, at
  :data:`FLOPS_PER_CELL` (the Enzo driver charges each rank for its cells).

Deterministic: no randomness after initial conditions.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .hierarchy import GridHierarchy
from .particles import ParticleSet

__all__ = ["evolve_grid", "evolve_hierarchy", "FLOPS_PER_CELL"]

#: Time step of one evolution cycle (code units).
DT = 0.1

#: Rough per-cell-per-step cost of a PPM-like hydro sweep (paper-era codes
#: quoted ~1-10 kflop/cell/step); used to charge compute time.
FLOPS_PER_CELL = 2000.0


def evolve_grid(grid: Grid, dt: float) -> None:
    """One explicit update of a grid's fields and particles (in place)."""
    rho = grid.fields["density"]
    # Six-point Laplacian with periodic wrap (cheap vectorised diffusion).
    lap = -6.0 * rho
    for axis in range(3):
        lap += np.roll(rho, 1, axis=axis) + np.roll(rho, -1, axis=axis)
    dm = grid.fields["dark_matter_density"]
    rho_new = rho + dt * (0.05 * lap + 0.02 * (dm / 5.0 - rho))
    np.clip(rho_new, 0.01, None, out=rho_new)
    grid.fields["density"] = rho_new
    grid.fields["temperature"] = 1e4 * rho_new ** (2.0 / 3.0)
    grid.fields["internal_energy"] = 1.5 * grid.fields["temperature"]
    grid.fields["total_energy"] = grid.fields["internal_energy"] + 0.1
    for axis, name in enumerate(("velocity_x", "velocity_y", "velocity_z")):
        grid.fields[name] = 0.9 * grid.fields[name] - 0.1 * np.gradient(
            rho_new, axis=axis
        )

    p = grid.particles
    if len(p):
        # Monopole kick toward the grid's densest cell.
        peak = np.unravel_index(np.argmax(rho_new), rho_new.shape)
        target = grid.left_edge + (np.array(peak) + 0.5) * grid.cell_width
        delta = target - p.positions
        dist2 = (delta**2).sum(axis=1, keepdims=True) + 1e-4
        p.velocities += dt * 0.1 * delta / dist2
        p.positions += dt * p.velocities
        np.mod(p.positions, 1.0, out=p.positions)  # periodic domain
        p.attributes[:, 0] += dt  # ages accumulate: attribute data changes


def _rehome_particles(hierarchy: GridHierarchy) -> None:
    """Move every particle to the finest grid containing its position."""
    everything = ParticleSet.concat(
        [g.particles for g in hierarchy.grids()]
    )
    for g in hierarchy.grids():
        g.particles = ParticleSet()
    if len(everything) == 0:
        return
    # Deepest-first so fine grids claim their particles before coarse ones.
    remaining = everything
    for grid in sorted(hierarchy.grids(), key=lambda g: -g.level):
        if len(remaining) == 0:
            break
        mask = grid.contains_points(remaining.positions)
        if mask.any():
            grid.particles = ParticleSet.concat(
                [grid.particles, remaining.select(mask)]
            )
            remaining = remaining.select(~mask)
    if len(remaining):
        # Positions exactly on the upper domain boundary wrap to the root.
        root = hierarchy.root
        root.particles = ParticleSet.concat([root.particles, remaining])


def evolve_hierarchy(hierarchy: GridHierarchy) -> None:
    """Advance every grid one step of :data:`DT` and re-home particles."""
    for grid in hierarchy.grids():
        evolve_grid(grid, DT)
    _rehome_particles(hierarchy)
