"""Velocity fields and face fluxes.

A field evaluates vectorized: an ``(m, d)`` array of points yields an
``(m, d)`` array of velocities (and a single ``(d,)`` point a ``(d,)``
velocity).  Face fluxes are the integrals of the velocity component along
each face's axis over the face, stored once per face in the order of
``grid.edges``.  A flux is positive when mass flows toward +axis, from the
face's lower cell ``cell_a`` into its upper cell ``cell_b``; the two sides
see opposite signs by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid


@dataclass(frozen=True)
class VelocityField:
    """Evaluable vector field of dimension ``dim``."""

    func: Callable[[np.ndarray], np.ndarray]
    dim: int
    name: str = "custom"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.func(x)


@dataclass(frozen=True)
class EdgeFluxes:
    """Per-face flux, aligned with ``grid.edges``.

    One signed value is stored per face, positive toward +axis (out of the
    lower cell ``cell_a``, into the upper cell ``cell_b``), so the
    antisymmetry of opposing fluxes is structural.  On a low-side Dirichlet
    face (``cell_a == -1``) a positive flux enters the box.
    """

    values: np.ndarray
    quadrature: str
    grid: Grid


def pendulum_field(g_over_l: float = 1.0) -> VelocityField:
    """Planar pendulum in (angle, angular velocity) coordinates.

    v(x) = (x2, -(g/l) sin x1), divergence free.
    """
    if not g_over_l > 0:
        raise ValueError("g_over_l must be positive")
    g = float(g_over_l)

    def func(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 1], -g * np.sin(x[..., 0])], axis=-1)

    return VelocityField(func=func, dim=2, name="pendulum")


def rotation_field() -> VelocityField:
    """Rigid rotation v(x) = (-x2, x1)."""

    def func(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)

    return VelocityField(func=func, dim=2, name="rotation")


def constant_field(c) -> VelocityField:
    """Spatially constant field v(x) = c."""
    c = np.asarray(c, dtype=float).ravel()
    if c.size == 0:
        raise ValueError("constant field needs at least one component")
    cc = c.copy()
    cc.flags.writeable = False

    def func(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(cc, x.shape).copy()

    return VelocityField(func=func, dim=int(c.size), name="constant")


def field_from_name(name: str) -> VelocityField:
    """Build a named field: ``pendulum[:g_over_l]``, ``constant:c1,c2,...``,
    or ``rotation``."""
    name = name.strip()
    if name == "pendulum":
        return pendulum_field()
    if name.startswith("pendulum:"):
        return pendulum_field(float(name.split(":", 1)[1]))
    if name == "rotation":
        return rotation_field()
    if name.startswith("constant:"):
        parts = name.split(":", 1)[1].split(",")
        return constant_field([float(p) for p in parts])
    raise ValueError(f"unknown field {name!r}")


def _parse_quadrature(tag: str) -> tuple[str, int]:
    tag = str(tag).strip().lower()
    if tag == "midpoint":
        return "midpoint", 1
    m = re.fullmatch(r"gauss(\d+)", tag)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise ValueError("gauss order must be >= 1")
        return "gauss", k
    raise ValueError(f"unknown quadrature {tag!r} (use 'midpoint' or 'gauss<k>')")


def tensor_rule(quadrature: str, centres: np.ndarray, h, axes):
    """Yield ``(weight, points)`` of the averaged tensor Gauss-Legendre rule
    over ``axes`` of the boxes of sides ``h`` centred at ``centres``; the
    weights sum to 1 and one ``points`` buffer is rewritten per node."""
    _, k = _parse_quadrature(quadrature)  # midpoint is the 1-point rule
    nodes, weights = np.polynomial.legendre.leggauss(k)
    weights = weights / 2.0
    pts = centres.copy()
    for combo in np.ndindex(*(k,) * len(axes)):
        w = 1.0
        for j, ax in zip(combo, axes):
            pts[:, ax] = centres[:, ax] + 0.5 * h[ax] * nodes[j]
            w *= weights[j]
        yield w, pts


def compute_fluxes(field: VelocityField, grid: Grid,
                   quadrature: str = "midpoint") -> EdgeFluxes:
    """Integrate the velocity component along each face's axis over the face.

    ``gauss<k>`` uses a k-point tensor Gauss-Legendre rule over the face;
    ``midpoint`` is the 1-point rule, evaluating at face midpoints.  In 1D
    faces are points and all rules coincide.
    """
    if field.dim != grid.domain.d:
        raise ValueError(
            f"field dimension {field.dim} != grid dimension {grid.domain.d}")
    kind, k = _parse_quadrature(quadrature)
    t = grid.edges
    d = grid.domain.d
    flux = np.empty(len(t))
    for a in range(d):
        sel = slice(t.offsets[a], t.offsets[a + 1])
        # face midpoint: half a cell above the lower cell's centre, or half a
        # cell below the upper cell's centre where the lower side is outside
        outside = t.cell_a[sel] < 0
        mids = np.take(grid.cell_midpoints,
                       np.where(outside, t.cell_b[sel], t.cell_a[sel]), axis=0)
        half = 0.5 * grid.h[a]
        mids[:, a] += np.where(outside, -half, half)
        acc = np.zeros(mids.shape[0])
        for w, pts in tensor_rule(quadrature, mids, grid.h,
                                  [j for j in range(d) if j != a]):
            acc += w * np.asarray(field(pts), dtype=float)[:, a]
        flux[sel] = (grid.cell_volume / grid.h[a]) * acc

    if not np.all(np.isfinite(flux)):
        raise ValueError("velocity field produced non-finite flux values")
    flux.flags.writeable = False
    tag = "midpoint" if kind == "midpoint" else f"gauss{k}"
    return EdgeFluxes(values=flux, quadrature=tag, grid=grid)


def discrete_divergence(fluxes: EdgeFluxes, grid: Grid) -> np.ndarray:
    """Per-cell sum of outward face fluxes.

    Zero (to rounding) wherever the discrete fluxes of a divergence-free
    field balance; nonzero next to Neumann walls that truncate a field with
    nonzero normal component there.
    """
    if fluxes.grid != grid:
        raise ValueError("fluxes were computed on a different grid")
    t = grid.edges
    f = fluxes.values
    div = np.zeros(grid.ncells + 1)  # index -1, the outside, is the last slot
    np.add.at(div, t.cell_a, f)
    np.add.at(div, t.cell_b, -f)
    return div[:-1]
