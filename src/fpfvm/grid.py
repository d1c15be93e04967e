"""Uniform rectangular meshes on a bounded box with per-axis boundary handling.

Conventions
-----------
* Cell multi-indices map to flat indices with axis 0 varying fastest:
  ``flat = m[0] + n[0]*(m[1] + n[1]*m[2])``.
* Every cell has measure ``prod(h)``; every face is normal to an axis and
  has measure ``prod(h) / h[axis]``.  These, the widths ``h`` and the box
  volume are normal floats, or the grid is rejected.
* A face is a ``(cell_a, cell_b)`` pair: ``cell_a`` is the lower cell along
  the face's axis, ``cell_b`` the upper one, and ``-1`` stands for the
  outside of the box.  A periodic wrap face has the last cell of the axis
  as ``cell_a`` and the first as ``cell_b``.
* Faces are enumerated once each, grouped by axis in increasing axis order;
  ``Grid.face_offsets[a]:face_offsets[a + 1]`` is the block of axis ``a``.
  Within an axis: interior faces in flat order of the lower cell, then
  periodic wrap faces, then (Dirichlet axes only) boundary faces on the low
  side, ``(-1, cell)``, followed by the high side, ``(cell, -1)``.
* Along ``axis`` the flat cell data is the C-order cube
  ``(prod(n[axis+1:]), n[axis], prod(n[:axis]))``.
  :meth:`Grid.face_blocks` is the one statement of the face order: it yields
  every face block with its axis, its cube, the pair of slices of the cube's
  middle axis that give its lower and upper cells, and its slice of the flat
  face arrays, so face data is read and written through cube slices, not
  index arithmetic.  The face table ``Grid.edges`` (int32 cell pairs) is
  built on first access; no set-up layer reads it.
* Every point set (cell centres, face points, Gauss nodes) is the tensor grid
  of per-axis coordinate vectors, and every function evaluated on one (a
  velocity field, a pdf, a log-likelihood) gets its open :func:`mesh`; a grid
  holds no per-cell array.
* Periodic axes identify opposite box faces.  Neumann axes carry no boundary
  faces at all (zero normal flux).  Dirichlet axes keep their boundary faces
  so mass can flow out of the box; nothing flows in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

PERIODIC = "periodic"
NEUMANN = "neumann"
DIRICHLET = "dirichlet"

_BC_KINDS = (PERIODIC, NEUMANN, DIRICHLET)
_MAX_CELLS = 2**31 - 1  # int32 cell indices


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
        return math.prod(up - lo for lo, up in zip(self.lower, self.upper))


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """All mesh faces as (lower, upper) cell pairs, in the grid's face order."""

    cell_a: np.ndarray  # (ne,) int32, lower cell; -1 outside the box
    cell_b: np.ndarray  # (ne,) int32, upper cell; -1 outside the box

    def __len__(self) -> int:
        return int(self.cell_a.shape[0])


def _check_cells(n: Sequence[int]) -> None:
    """Raise unless every axis has at least 2 cells and the cell count fits
    int32 cell indices."""
    for k in n:
        if k < 2:
            raise ValueError(f"need at least 2 cells per axis, got {k}")
    if math.prod(n) > _MAX_CELLS:
        raise ValueError(f"{math.prod(n)} cells exceed the limit of {_MAX_CELLS} "
                         "(int32 cell indices)")


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
    face_offsets : (d + 1,) faces of axis a: face_offsets[a]:face_offsets[a + 1]
    edges : the face table, an :class:`EdgeTable`, built on first access
    """

    def __init__(self, domain: BoxDomain, n: Sequence[int], bc: Sequence[str]):
        n = tuple(int(k) for k in n)
        bc = tuple(str(b).lower() for b in bc)
        if len(n) != domain.d:
            raise ValueError(f"n has length {len(n)}, domain has dimension {domain.d}")
        if len(bc) != domain.d:
            raise ValueError(f"bc has length {len(bc)}, domain has dimension {domain.d}")
        _check_cells(n)
        for b in bc:
            if b not in _BC_KINDS:
                raise ValueError(f"unknown boundary kind {b!r}")
        self.domain = domain
        self.n = n
        self.bc = bc
        self.h = tuple(
            (up - lo) / k for lo, up, k in zip(domain.lower, domain.upper, n)
        )
        self.ncells = math.prod(n)
        self.cell_volume = vol = math.prod(self.h)
        # every measure the fluxes and masses divide by or scale with is a
        # normal float: widths first, so no face measure divides by zero
        tiny = np.finfo(float).tiny
        if not (all(tiny <= m < math.inf for m in (*self.h, vol, domain.volume))
                and all(tiny <= vol / w < math.inf for w in self.h)):
            raise ValueError(f"cell widths {self.h} put a cell, face or box measure "
                             "outside the normal float range")
        stops = {a: faces.stop for a, *_, faces in self.face_blocks()}
        self.face_offsets = (0, *stops.values())  # each axis's last block ends it

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.domain == other.domain
            and self.n == other.n
            and self.bc == other.bc
        )

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, bc={self.bc}, domain=[{self.domain.lower}, {self.domain.upper}])"

    @functools.cached_property
    def edges(self) -> EdgeTable:
        return _build_edge_table(self)

    def centres(self, axis: int) -> np.ndarray:
        """Cell centres along ``axis``, lowest first."""
        return self.domain.lower[axis] + (np.arange(self.n[axis]) + 0.5) * self.h[axis]

    def face_blocks(self) -> Iterator[tuple[int, tuple[int, int, int],
                                            slice | None, slice | None, slice]]:
        """Yield every face block in table order as ``(axis, cube, lower, upper,
        faces)``: ``lower`` and ``upper`` slice the middle axis of the C-order
        ``cube`` ``(high, n[axis], low)`` of cell data (``None`` is the outside),
        and ``faces`` slices the flat face arrays to the block's faces, one per
        cell of the sliced cube in its C order."""
        start = 0
        for axis, na in enumerate(self.n):
            high, low = math.prod(self.n[axis + 1:]), math.prod(self.n[:axis])
            blocks = [(slice(None, -1), slice(1, None), na - 1)]  # interior
            if self.bc[axis] == PERIODIC:
                blocks.append((slice(-1, None), slice(None, 1), 1))  # last cell to first
            elif self.bc[axis] == DIRICHLET:
                blocks += [(None, slice(None, 1), 1), (slice(-1, None), None, 1)]
            for lower, upper, k in blocks:
                size = high * k * low
                yield axis, (high, na, low), lower, upper, slice(start, start + size)
                start += size


def mesh(coords: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The open mesh of ``coords``: ``coords[a]`` as a view of length
    ``len(coords[a])`` on axis ``d - 1 - a`` and 1 on the others, so the arrays
    broadcast to the tensor grid in C order with axis 0 fastest, the flat
    order of cells and faces."""
    d = len(coords)
    return tuple(np.reshape(c, (1,) * (d - 1 - a) + (-1,) + (1,) * a)
                 for a, c in enumerate(coords))


def build_grid(domain: BoxDomain, n: Sequence[int], bc: Sequence[str]) -> Grid:
    """Construct a uniform mesh over ``domain`` with ``n[i]`` cells per axis."""
    return Grid(domain, n, bc)


def _build_edge_table(grid: Grid) -> EdgeTable:
    cell_a = np.empty(grid.face_offsets[-1], dtype=np.int32)
    cell_b = np.empty(grid.face_offsets[-1], dtype=np.int32)
    cells = np.arange(grid.ncells, dtype=np.int32)
    for _, (high, na, low), lower, upper, faces in grid.face_blocks():
        cube = cells.reshape(high, na, low)
        for out, sl in ((cell_a, lower), (cell_b, upper)):
            out[faces].reshape(high, -1, low)[...] = -1 if sl is None else cube[:, sl]
    cell_a.flags.writeable = False
    cell_b.flags.writeable = False
    return EdgeTable(cell_a=cell_a, cell_b=cell_b)
