"""Cell-averaged densities: projection, norms, moments, marginals, file I/O.

Values are per-cell averages (probability per unit volume) stored flat in
canonical cell order; the mass of a density is ``sum(values) * cell_volume``.
Scalar functions passed to :func:`project` and :func:`expectation` follow the
same vectorized contract as velocity fields: ``(m, d)`` points in, ``(m,)``
values out (a scalar return is broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PERIODIC, BoxDomain, Grid, build_grid
from .velocity import _parse_quadrature


class ZeroMass(ValueError):
    """Raised when a density with no mass is asked to be normalized."""


@dataclass(frozen=True)
class Density:
    """Piecewise-constant density on a grid; immutable snapshot."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.shape != (self.grid.ncells,):
            raise ValueError(
                f"values shape {v.shape} does not match grid with {self.grid.ncells} cells")
        if not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_volume)


def _eval_scalar(f, points: np.ndarray) -> np.ndarray:
    out = np.asarray(f(points), dtype=float)
    if out.ndim == 0:
        out = np.full(points.shape[0], float(out))
    if out.shape != (points.shape[0],):
        raise ValueError(
            f"scalar function returned shape {out.shape}, expected ({points.shape[0]},)")
    return out


def project(pdf, grid: Grid, quadrature: str = "midpoint") -> Density:
    """Cell averages of an analytic pdf.

    Not normalized: truncating a pdf to the box may lose mass, and that loss
    is part of the approximation being measured.  Raises on negative or
    non-finite cell averages.
    """
    _, k = _parse_quadrature(quadrature)  # midpoint is the 1-point rule
    nodes, weights = np.polynomial.legendre.leggauss(k)
    weights = weights / 2.0
    mids = grid.cell_midpoints
    vals = np.zeros(grid.ncells)
    pts = np.empty_like(mids)  # every rule node rewrites all columns
    for combo in np.ndindex(*(k,) * grid.domain.d):
        w = 1.0
        for ax, j in enumerate(combo):
            pts[:, ax] = mids[:, ax] + 0.5 * grid.h[ax] * nodes[j]
            w *= weights[j]
        vals += w * _eval_scalar(pdf, pts)
    if not np.all(np.isfinite(vals)):
        raise ValueError("pdf produced non-finite cell averages")
    if np.any(vals < 0):
        raise ValueError("pdf produced negative cell averages")
    return Density(vals, grid)


def uniform_density(grid: Grid) -> Density:
    """The uniform probability density on the grid's box."""
    return Density(np.full(grid.ncells, 1.0 / grid.domain.volume), grid)


def gaussian_pdf(mean, cov):
    """Multivariate normal pdf as a vectorized callable.

    ``cov`` may be a scalar (isotropic), a length-d vector (diagonal), or a
    full (d, d) matrix; it must be symmetric positive definite.
    """
    mean = np.asarray(mean, dtype=float).ravel()
    d = mean.size
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = np.eye(d) * float(cov)
    elif cov.ndim == 1:
        if cov.size == 1:
            cov = np.eye(d) * float(cov[0])
        else:
            cov = np.diag(cov)
    if cov.shape != (d, d):
        raise ValueError(f"covariance shape {cov.shape} does not match mean of size {d}")
    if not (np.all(np.isfinite(cov)) and np.array_equal(cov, cov.T)
            and np.linalg.eigvalsh(cov).min() > 0):
        raise ValueError(f"covariance {cov.tolist()} is not symmetric positive definite")
    prec = np.linalg.inv(cov)
    norm = 1.0 / np.sqrt(((2.0 * np.pi) ** d) * np.linalg.det(cov))

    def pdf(x):
        x = np.asarray(x, dtype=float)
        dx = x - mean
        q = np.einsum("...i,ij,...j->...", dx, prec, dx)
        return norm * np.exp(-0.5 * q)

    return pdf


def normalize(density: Density) -> Density:
    """Scale to unit mass; raises :class:`ZeroMass` on mass <= 0."""
    m = density.mass
    if not m > 0:
        raise ZeroMass(f"density mass {m} is not positive")
    return Density(density.values / m, density.grid)


def refine(density: Density, fine: Grid) -> Density:
    """Exact piecewise-constant prolongation onto an integer refinement."""
    coarse = density.grid
    if fine.domain != coarse.domain:
        raise ValueError("grids cover different boxes")
    ratios = []
    for nf, nc in zip(fine.n, coarse.n):
        if nf % nc != 0:
            raise ValueError(
                f"fine counts {fine.n} are not an integer refinement of {coarse.n}")
        ratios.append(nf // nc)
    arr = density.values.reshape(coarse.n, order="F")
    for ax, r in enumerate(ratios):
        if r > 1:
            arr = np.repeat(arr, r, axis=ax)
    return Density(arr.ravel(order="F"), fine)


def l1_distance(a: Density, b: Density) -> float:
    """L1 distance; grids may differ by an integer refinement.

    The coarser density is prolonged exactly before comparison, so the
    result is the true L1 distance between the two piecewise-constant
    functions.
    """
    if a.grid.ncells > b.grid.ncells:
        a, b = b, a
    a = refine(a, b.grid)
    return float(np.abs(a.values - b.values).sum() * b.grid.cell_volume)


def expectation(density: Density, g) -> float:
    """E[g] with g evaluated at cell midpoints.

    Consistent with piecewise-constant densities (O(h^2) quadrature).  The
    density is assumed to carry unit mass; no normalization is applied.
    """
    vals = _eval_scalar(g, density.grid.cell_midpoints)
    if not np.all(np.isfinite(vals)):
        raise ValueError("g produced non-finite values at cell midpoints")
    return float((density.values * vals).sum() * density.grid.cell_volume)


@dataclass(frozen=True)
class Moments:
    mean: np.ndarray
    covariance: np.ndarray


def moments(density: Density) -> Moments:
    """Mean and covariance of a unit-mass density.

    Both are exact for the piecewise-constant function itself: the mean uses
    midpoints (exact for linear integrands) and the covariance includes the
    within-cell uniform variance h^2/12 on the diagonal.  Built from one- and
    two-axis marginal sums, so the cost is O(ncells) with no (ncells, d)
    temporaries.
    """
    grid = density.grid
    d = grid.domain.d
    arr = density.values.reshape(grid.n, order="F")
    cv = grid.cell_volume
    mids = [_axis_grid(grid, a).cell_midpoints[:, 0] for a in range(d)]
    mean = np.empty(d)
    second = np.empty((d, d))
    for a in range(d):
        p = _sum_except(arr, (a,)) * cv  # slab masses along axis a
        mean[a] = p @ mids[a]
        second[a, a] = p @ (mids[a] * mids[a]) + (grid.h[a] ** 2 / 12.0) * p.sum()
        for b in range(a + 1, d):
            second[a, b] = second[b, a] = (
                mids[a] @ _sum_except(arr, (a, b)) @ mids[b]) * cv
    return Moments(mean=mean, covariance=second - np.outer(mean, mean))


def _sum_except(arr: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Sum over every axis not in ``keep``; ``arr`` itself when none remain."""
    others = tuple(j for j in range(arr.ndim) if j not in keep)
    return arr.sum(axis=others) if others else arr


def _axis_grid(grid: Grid, axis: int) -> Grid:
    """The 1D grid of one axis, built once per parent grid and axis."""
    sub = grid._axis_grids.get(axis)
    if sub is None:
        sub = grid._axis_grids[axis] = build_grid(
            BoxDomain((grid.domain.lower[axis],), (grid.domain.upper[axis],)),
            (grid.n[axis],),
            (grid.bc[axis],),
        )
    return sub


def marginal(density: Density, axis: int) -> Density:
    """Integrate out all axes except ``axis``; mass is preserved."""
    grid = density.grid
    d = grid.domain.d
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for dimension {d}")
    arr = density.values.reshape(grid.n, order="F")
    scale = 1.0
    for j in range(d):
        if j != axis:
            scale *= grid.h[j]
    return Density(_sum_except(arr, (axis,)) * scale, _axis_grid(grid, axis))


def count_modes(density: Density, min_prominence: float) -> int:
    """Number of modes of a 1D density by topographic prominence.

    Exact plateaus are merged first (a uniform density has one mode).  A
    local maximum counts as a mode when it rises at least
    ``min_prominence * max(values)`` above the highest saddle separating it
    from strictly higher terrain; the global maximum is measured against the
    global minimum.  On a periodic axis the ring is cut at its global
    minimum, so a bump straddling the seam is one mode.  ``min_prominence``
    must lie in ``[0, 1]``.
    """
    if density.grid.domain.d != 1:
        raise ValueError("count_modes expects a 1D density")
    if not 0.0 <= min_prominence <= 1.0:
        raise ValueError(f"min_prominence must lie in [0, 1], got {min_prominence}")
    v = density.values
    gmax = float(v.max())
    if not gmax > 0:
        return 0
    if density.grid.bc[0] == PERIODIC:
        i = int(v.argmin())
        v = np.concatenate((v[i:], v[:i]))
    c = v[np.concatenate(([True], v[1:] != v[:-1]))]
    if c.size == 1:
        return 1
    # Walls of +inf behind the global minimum on both ends: every peak then
    # has strictly higher terrain on each side, and a side that reaches it
    # only at a wall gets the global minimum as its saddle, which never
    # beats a real saddle on the other side.
    cmin = c.min()
    e = np.concatenate(([np.inf, cmin], c, [cmin, np.inf]))
    pk = np.flatnonzero((c > e[1:-3]) & (c > e[3:-1]))[:, None] + 2  # strict maxima
    top = e[pk]
    idx = np.arange(e.size)
    higher = e > top
    before = idx < pk
    # one row per peak: nearest higher point on each side, lowest point between
    left = np.where(higher & before, idx, -1).max(axis=1, keepdims=True)
    right = np.where(higher & ~before, idx, e.size).min(axis=1, keepdims=True)
    low = np.where((idx > left) & (idx < right), e, np.inf)
    saddle = np.maximum(np.where(before, low, top).min(axis=1, keepdims=True),
                        np.where(before, top, low).min(axis=1, keepdims=True))
    return int(np.count_nonzero(top - saddle >= min_prominence * gmax))


def save_density(density: Density, path, t: float = 0.0) -> None:
    """Write a density snapshot as CSV with a geometry header.

    Values carry 17 significant digits, so reading the file back reproduces
    them exactly.
    """
    grid = density.grid
    dom = grid.domain
    lines = [
        f"# d={dom.d}",
        "# n=" + ",".join(str(k) for k in grid.n),
        "# domain=" + ";".join(
            f"{lo:.17g},{up:.17g}" for lo, up in zip(dom.lower, dom.upper)),
        f"# t={t:.17g}",
    ]
    # Python floats format faster than numpy scalars, to the same text
    lines.extend(f"{x:.17g}" for x in density.values.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_density(path, bc=None) -> tuple[Density, float]:
    """Read a density snapshot written by :func:`save_density`.

    The file stores geometry but not boundary kinds; pass ``bc`` to set them
    (default: Neumann on every axis).  Returns the density and its time tag.
    """
    header = {}
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                header[key.strip()] = val.strip()
            else:
                values.append(float(line))
    try:
        d = int(header["d"])
        n = tuple(int(k) for k in header["n"].split(","))
        bounds = [tuple(float(x) for x in part.split(","))
                  for part in header["domain"].split(";")]
        t = float(header.get("t", "0"))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed density file {path}: {exc}") from exc
    if len(n) != d or len(bounds) != d:
        raise ValueError(f"inconsistent header in density file {path}")
    if bc is None:
        bc = ("neumann",) * d
    grid = build_grid(
        BoxDomain(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds)), n, bc)
    return Density(np.asarray(values), grid), t
