"""Particle data: the 1-D arrays of one grid.

The paper: "particle ID, particle positions, particle velocities, particle
mass, and other particle attributes" -- a structure-of-arrays partitioned
*irregularly* (by which grid sub-domain each particle's position falls in).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ParticleSet", "PARTICLE_ARRAYS", "N_ATTRIBUTES"]

N_ATTRIBUTES = 2  # e.g. creation time + metallicity in ENZO star particles

#: Canonical access order (the paper's fixed array order metadata).
PARTICLE_ARRAYS = (
    "particle_id",
    "position_x",
    "position_y",
    "position_z",
    "velocity_x",
    "velocity_y",
    "velocity_z",
    "mass",
    "attribute_0",
    "attribute_1",
)


class ParticleSet:
    """A structure-of-arrays particle container."""

    def __init__(
        self,
        ids: np.ndarray | None = None,
        positions: np.ndarray | None = None,
        velocities: np.ndarray | None = None,
        mass: np.ndarray | None = None,
        attributes: np.ndarray | None = None,
    ):
        self.ids = (
            np.asarray(ids, dtype=np.int64) if ids is not None
            else np.empty(0, dtype=np.int64)
        )
        n = len(self.ids)
        self.positions = (
            np.asarray(positions, dtype=np.float64)
            if positions is not None
            else np.zeros((n, 3))
        )
        self.velocities = (
            np.asarray(velocities, dtype=np.float64)
            if velocities is not None
            else np.zeros((n, 3))
        )
        self.mass = (
            np.asarray(mass, dtype=np.float64) if mass is not None else np.zeros(n)
        )
        self.attributes = (
            np.asarray(attributes, dtype=np.float64)
            if attributes is not None
            else np.zeros((n, N_ATTRIBUTES))
        )
        self._validate()

    def _validate(self) -> None:
        n = len(self.ids)
        if self.positions.shape != (n, 3):
            raise ValueError(f"positions shape {self.positions.shape} != ({n}, 3)")
        if self.velocities.shape != (n, 3):
            raise ValueError(f"velocities shape {self.velocities.shape} != ({n}, 3)")
        if self.mass.shape != (n,):
            raise ValueError(f"mass shape {self.mass.shape} != ({n},)")
        if self.attributes.shape != (n, N_ATTRIBUTES):
            raise ValueError(
                f"attributes shape {self.attributes.shape} != ({n}, {N_ATTRIBUTES})"
            )

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def nbytes(self) -> int:
        return (
            self.ids.nbytes
            + self.positions.nbytes
            + self.velocities.nbytes
            + self.mass.nbytes
            + self.attributes.nbytes
        )

    # -- array-of-arrays view (the I/O layer's unit of access) -------------

    def array(self, name: str) -> np.ndarray:
        """The named 1-D array, in the canonical PARTICLE_ARRAYS naming."""
        if name == "particle_id":
            return self.ids
        if name.startswith("position_"):
            return self.positions[:, "xyz".index(name[-1])]
        if name.startswith("velocity_"):
            return self.velocities[:, "xyz".index(name[-1])]
        if name == "mass":
            return self.mass
        if name.startswith("attribute_"):
            return self.attributes[:, int(name.split("_")[1])]
        raise KeyError(name)

    @classmethod
    def empty(cls, n: int) -> "ParticleSet":
        """``n`` particles with unset arrays, for a reader to fill array by
        array through :meth:`array`."""
        return cls(
            np.empty(n, dtype=np.int64), np.empty((n, 3)), np.empty((n, 3)),
            np.empty(n), np.empty((n, N_ATTRIBUTES)),
        )

    # -- manipulation -----------------------------------------------------------

    def select(self, mask_or_index) -> "ParticleSet":
        """Subset by boolean mask or index array."""
        return ParticleSet(
            self.ids[mask_or_index],
            self.positions[mask_or_index],
            self.velocities[mask_or_index],
            self.mass[mask_or_index],
            self.attributes[mask_or_index],
        )

    def sort_by_id(self) -> "ParticleSet":
        """Return a copy ordered by particle ID."""
        order = np.argsort(self.ids, kind="stable")
        return self.select(order)

    @classmethod
    def concat(cls, parts: list["ParticleSet"]) -> "ParticleSet":
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            return cls()
        return cls(
            np.concatenate([p.ids for p in parts]),
            np.concatenate([p.positions for p in parts]),
            np.concatenate([p.velocities for p in parts]),
            np.concatenate([p.mass for p in parts]),
            np.concatenate([p.attributes for p in parts]),
        )

    def copy(self) -> "ParticleSet":
        return ParticleSet(
            self.ids.copy(),
            self.positions.copy(),
            self.velocities.copy(),
            self.mass.copy(),
            self.attributes.copy(),
        )

    def equal(self, other: "ParticleSet") -> bool:
        """Bit-exact equality, order-sensitive."""
        return (
            np.array_equal(self.ids, other.ids)
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.velocities, other.velocities)
            and np.array_equal(self.mass, other.mass)
            and np.array_equal(self.attributes, other.attributes)
        )

    def equal_as_sets(self, other: "ParticleSet") -> bool:
        """Equality up to particle order (compare sorted by ID)."""
        if len(self) != len(other):
            return False
        return self.sort_by_id().equal(other.sort_by_id())
