"""Uniform rectangular meshes on a bounded box with per-axis boundary handling.

Conventions
-----------
* Cell multi-indices map to flat indices with axis 0 varying fastest:
  ``flat = m[0] + n[0]*(m[1] + n[1]*m[2])``.
* Every cell has measure ``prod(h)``; every face is normal to an axis and
  has measure ``prod(h) / h[axis]``.
* A face is a ``(cell_a, cell_b)`` pair: ``cell_a`` is the lower cell along
  the face's axis, ``cell_b`` the upper one, and ``-1`` stands for the
  outside of the box.  A periodic wrap face has the last cell of the axis
  as ``cell_a`` and the first as ``cell_b``.
* Faces are enumerated once each, grouped by axis in increasing axis order;
  ``EdgeTable.offsets[a]:offsets[a + 1]`` is the block of axis ``a``.
  Within an axis: interior faces in flat order of the lower cell, then
  periodic wrap faces, then (Dirichlet axes only) boundary faces on the low
  side, ``(-1, cell)``, followed by the high side, ``(cell, -1)``.
* Periodic axes identify opposite box faces.  Neumann axes carry no boundary
  faces at all (zero normal flux).  Dirichlet axes keep their boundary faces
  so mass can flow out of the box; nothing flows in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

PERIODIC = "periodic"
NEUMANN = "neumann"
DIRICHLET = "dirichlet"

_BC_KINDS = (PERIODIC, NEUMANN, DIRICHLET)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box ``[lower[i], upper[i])`` in 1 to 3 dimensions."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lower = tuple(float(x) for x in self.lower)
        upper = tuple(float(x) for x in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise ValueError("lower and upper must have the same length")
        if not 1 <= len(lower) <= 3:
            raise ValueError(f"dimension {len(lower)} not supported (need 1..3)")
        for lo, up in zip(lower, upper):
            if not (np.isfinite(lo) and np.isfinite(up)) or not lo < up:
                raise ValueError(f"degenerate box: [{lo}, {up}]")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return float(np.prod(np.subtract(self.upper, self.lower)))


@dataclass(frozen=True)
class EdgeTable:
    """All mesh faces as (lower, upper) cell pairs, grouped by axis."""

    cell_a: np.ndarray      # (ne,) int64, lower cell; -1 outside the box
    cell_b: np.ndarray      # (ne,) int64, upper cell; -1 outside the box
    offsets: tuple[int, ...]  # (d + 1,) faces of axis a: offsets[a]:offsets[a + 1]

    def __len__(self) -> int:
        return int(self.cell_a.shape[0])

    @property
    def interior(self) -> np.ndarray:
        """Mask of faces shared by two cells (includes periodic wraps)."""
        return (self.cell_a >= 0) & (self.cell_b >= 0)


class Grid:
    """Uniform axis-aligned mesh; immutable after construction.

    Attributes
    ----------
    domain : BoxDomain
    n : tuple of cells per axis (each >= 2)
    bc : tuple of boundary kinds per axis
    h : tuple of cell side lengths
    ncells : total cell count
    cell_volume : measure of every cell
    edges : the face table, an :class:`EdgeTable`
    cell_midpoints : (ncells, d) read-only array of cell centres, flat order
    """

    def __init__(self, domain: BoxDomain, n: Sequence[int], bc: Sequence[str]):
        n = tuple(int(k) for k in n)
        bc = tuple(str(b).lower() for b in bc)
        if len(n) != domain.d:
            raise ValueError(f"n has length {len(n)}, domain has dimension {domain.d}")
        if len(bc) != domain.d:
            raise ValueError(f"bc has length {len(bc)}, domain has dimension {domain.d}")
        for k in n:
            if k < 2:
                raise ValueError(f"need at least 2 cells per axis, got {k}")
        for b in bc:
            if b not in _BC_KINDS:
                raise ValueError(f"unknown boundary kind {b!r}")
        self.domain = domain
        self.n = n
        self.bc = bc
        self.h = tuple(
            (up - lo) / k for lo, up, k in zip(domain.lower, domain.upper, n)
        )
        self.ncells = int(np.prod(n))
        self.cell_volume = float(np.prod(self.h))
        self.edges = _build_edge_table(n, bc)
        multi = np.unravel_index(np.arange(self.ncells), n, order="F")
        self.cell_midpoints = np.stack(
            [self.centres(a)[m] for a, m in enumerate(multi)], axis=1)
        self.cell_midpoints.flags.writeable = False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.domain == other.domain
            and self.n == other.n
            and self.bc == other.bc
        )

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, bc={self.bc}, domain=[{self.domain.lower}, {self.domain.upper}])"

    def face_sums(self, at_a: np.ndarray, at_b: np.ndarray) -> np.ndarray:
        """Sum ``at_a`` into each face's ``cell_a`` and ``at_b`` into its ``cell_b``."""
        out = np.zeros(self.ncells + 1)  # index -1, the outside, is the last slot
        np.add.at(out, self.edges.cell_a, at_a)
        np.add.at(out, self.edges.cell_b, at_b)
        return out[:-1]

    def centres(self, axis: int) -> np.ndarray:
        """Cell centres along ``axis``, lowest first."""
        return self.domain.lower[axis] + (np.arange(self.n[axis]) + 0.5) * self.h[axis]


def build_grid(domain: BoxDomain, n: Sequence[int], bc: Sequence[str]) -> Grid:
    """Construct a uniform mesh over ``domain`` with ``n[i]`` cells per axis."""
    return Grid(domain, n, bc)


def _build_edge_table(n, bc) -> EdgeTable:
    idx = np.arange(int(np.prod(n)), dtype=np.int64)
    cell_a, cell_b, offsets = [], [], [0]
    stride = 1  # flat distance between neighbours along axis a
    for a, na in enumerate(n):
        ma = idx // stride % na
        first, last = idx[ma == 0], idx[ma == na - 1]
        inner = idx[ma < na - 1]
        cell_a.append(inner)
        cell_b.append(inner + stride)
        if bc[a] == PERIODIC:
            cell_a.append(last)
            cell_b.append(first)
        elif bc[a] == DIRICHLET:
            cell_a += [np.full_like(first, -1), last]
            cell_b += [first, np.full_like(last, -1)]
        offsets.append(sum(c.shape[0] for c in cell_a))
        stride *= na

    table = EdgeTable(
        cell_a=np.concatenate(cell_a),
        cell_b=np.concatenate(cell_b),
        offsets=tuple(offsets),
    )
    table.cell_a.flags.writeable = False
    table.cell_b.flags.writeable = False
    return table
