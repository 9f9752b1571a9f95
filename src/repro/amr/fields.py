"""Baryon fields: the 3-D arrays every ENZO grid carries.

The paper names them explicitly: "density, energy, velocity X, velocity Y,
velocity Z, temperature, dark matter, etc." -- each a 3-D array uniformly
sampling the grid's domain.  :class:`FieldSet` is an ordered mapping of
field name to array; the fixed order matters because the paper's metadata
analysis ("the access order of arrays") exploits it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["BARYON_FIELDS", "FIELD_DTYPE", "FieldSet"]

#: Fixed access order used by all I/O strategies (the paper's metadata).
BARYON_FIELDS = (
    "density",
    "total_energy",
    "velocity_x",
    "velocity_y",
    "velocity_z",
    "temperature",
    "dark_matter_density",
    "internal_energy",
)

FIELD_DTYPE = np.dtype(np.float64)


class FieldSet:
    """The baryon-field arrays of one grid, in canonical order.

    A field nobody assigned reads as zeros, but its array is only allocated
    when first read: copies, partition extracts and restart shells assign
    every field, and never touch the zeros they would replace.
    """

    def __init__(self, dims: tuple[int, int, int], names=BARYON_FIELDS):
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"bad grid dims {dims}")
        self.names = tuple(names)
        self._data = dict.fromkeys(self.names)

    def __getitem__(self, name: str) -> np.ndarray:
        array = self._data[name]
        if array is None:
            array = self._data[name] = np.zeros(self.dims, dtype=FIELD_DTYPE)
        return array

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self._data:
            raise KeyError(f"unknown field {name!r}")
        value = np.asarray(value, dtype=FIELD_DTYPE)
        if value.shape != self.dims:
            raise ValueError(f"field shape {value.shape} != dims {self.dims}")
        self._data[name] = value

    def __getstate__(self) -> dict:
        # Pickles (and so costs on the wire) as it did when every field was
        # allocated up front.
        return {
            "dims": self.dims,
            "names": self.names,
            "_data": dict(self.items()),
        }

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    @property
    def nbytes(self) -> int:
        """Total bytes across all fields."""
        return len(self.names) * int(np.prod(self.dims)) * FIELD_DTYPE.itemsize

    def items(self):
        """(name, array) pairs in canonical order."""
        return ((n, self[n]) for n in self.names)

    def copy(self) -> "FieldSet":
        out = FieldSet(self.dims, self.names)
        for n, array in self._data.items():
            if array is not None:
                out._data[n] = array.copy()
        return out

    def allclose(self, other: "FieldSet", **kw) -> bool:
        return self.names == other.names and all(
            np.allclose(self[n], other[n], **kw) for n in self.names
        )

    def equal(self, other: "FieldSet") -> bool:
        """Bit-exact equality (used by checkpoint round-trip tests)."""
        return self.names == other.names and all(
            np.array_equal(self[n], other[n]) for n in self.names
        )
