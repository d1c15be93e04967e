"""Velocity fields and face fluxes.

A field evaluates vectorized: an ``(m, d)`` array of points yields an
``(m, d)`` array of velocities (and a single ``(d,)`` point a ``(d,)``
velocity).  Face fluxes are the integrals of the normal velocity component
over each face, stored once per face with the orientation of the face's
``cell_a`` side; the opposite side sees the negated value by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid


@dataclass(frozen=True)
class VelocityField:
    """Evaluable vector field with CFL/diagnostic metadata.

    ``divergence_free`` is a declared property, never inferred.
    ``sup_norm_bound`` is an optional Euclidean sup-norm estimate used for
    coarse step-size heuristics only.
    """

    func: Callable[[np.ndarray], np.ndarray]
    dim: int
    divergence_free: bool = False
    sup_norm_bound: float | None = None
    name: str = "custom"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.func(x)


@dataclass(frozen=True)
class EdgeFluxes:
    """Per-face normal flux, aligned with ``grid.edges``.

    One signed value is stored per face (from the ``cell_a`` side), so the
    antisymmetry of opposing fluxes is structural.
    """

    values: np.ndarray
    quadrature: str
    grid: Grid


def pendulum_field(g_over_l: float = 1.0) -> VelocityField:
    """Planar pendulum in (angle, angular velocity) coordinates.

    v(x) = (x2, -(g/l) sin x1).  Divergence free; the sup-norm bound is
    taken over the standard box [-pi, pi)^2.
    """
    if not g_over_l > 0:
        raise ValueError("g_over_l must be positive")
    g = float(g_over_l)

    def func(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 1], -g * np.sin(x[..., 0])], axis=-1)

    return VelocityField(
        func=func,
        dim=2,
        divergence_free=True,
        sup_norm_bound=float(np.hypot(np.pi, g)),
        name="pendulum",
    )


def rotation_field() -> VelocityField:
    """Rigid rotation v(x) = (-x2, x1)."""

    def func(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 1], x[..., 0]], axis=-1)

    return VelocityField(func=func, dim=2, divergence_free=True, name="rotation")


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

    return VelocityField(
        func=func,
        dim=int(c.size),
        divergence_free=True,
        sup_norm_bound=float(np.linalg.norm(c)),
        name="constant",
    )


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


def sup_norm_on_grid(field: VelocityField, grid: Grid) -> float:
    """Declared sup-norm bound, or 1.1 times the max speed at cell centers."""
    if field.sup_norm_bound is not None:
        return field.sup_norm_bound
    v = np.asarray(field(grid.cell_midpoints), dtype=float)
    return 1.1 * float(np.sqrt((v * v).sum(axis=1)).max())


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


def compute_fluxes(field: VelocityField, grid: Grid,
                   quadrature: str = "midpoint") -> EdgeFluxes:
    """Integrate the normal velocity component over every face.

    ``gauss<k>`` uses a k-point tensor Gauss-Legendre rule over the face;
    ``midpoint`` is the 1-point rule, evaluating at face midpoints.  In 1D
    faces are points and all rules coincide.
    """
    if field.dim != grid.domain.d:
        raise ValueError(
            f"field dimension {field.dim} != grid dimension {grid.domain.d}")
    kind, k = _parse_quadrature(quadrature)
    nodes, weights = np.polynomial.legendre.leggauss(k)
    weights = weights / 2.0  # averaged rule: weights sum to 1
    t = grid.edges
    d = grid.domain.d
    flux = np.empty(len(t))
    bounds = np.searchsorted(t.axis, np.arange(d + 1))  # faces grouped by axis
    for a in range(d):
        sel = slice(bounds[a], bounds[a + 1])
        # face midpoint: the cell_a centre moved half a cell along the normal
        mids = np.take(grid.cell_midpoints, t.cell_a[sel], axis=0)
        mids[:, a] += 0.5 * grid.h[a] * t.normal[sel]
        trans = [j for j in range(d) if j != a]
        acc = np.zeros(mids.shape[0])
        pts = mids.copy()  # every rule node rewrites all transverse columns
        for combo in np.ndindex(*(k,) * len(trans)):
            w = 1.0
            for j, ax in zip(combo, trans):
                pts[:, ax] = mids[:, ax] + 0.5 * grid.h[ax] * nodes[j]
                w *= weights[j]
            acc += w * np.asarray(field(pts), dtype=float)[:, a]
        flux[sel] = t.normal[sel] * t.measure[sel] * acc

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
    div = np.zeros(grid.ncells)
    np.add.at(div, t.cell_a, f)
    interior = t.interior
    np.add.at(div, t.cell_b[interior], -f[interior])
    return div
