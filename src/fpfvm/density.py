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
from .velocity import tensor_rule


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
    vals = np.zeros(grid.ncells)
    for w, pts in tensor_rule(quadrature, grid.cell_midpoints, grid.h,
                              range(grid.domain.d)):
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
    mean = np.empty(d)
    cov = np.empty((d, d))
    for a in range(d):
        mean[a], cov[a, a] = _axis_moments(_sum_except(arr, (a,)), grid, a)
    mids = [_axis_centres(grid, a) for a in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            cov[a, b] = cov[b, a] = (
                (mids[a] @ _sum_except(arr, (a, b)) @ mids[b]) * grid.cell_volume
                - mean[a] * mean[b])
    return Moments(mean=mean, covariance=cov)


def _axis_moments(sums: np.ndarray, grid: Grid, axis: int):
    """Mean and variance along ``axis`` of densities given by slab sums.

    ``sums`` is ``(..., n_axis)``: cell values summed over every other axis,
    one profile per leading index.  The variance includes the within-cell
    h^2/12.
    """
    x = _axis_centres(grid, axis)
    p = sums * grid.cell_volume  # slab masses
    # a stack of (1, n) @ (n, 1) products is one dot per profile, rounded as
    # for a single profile; (k, n) @ (n,) would round differently
    rows = p[..., None, :]
    mean = (rows @ x[:, None])[..., 0, 0]
    second = ((rows @ (x * x)[:, None])[..., 0, 0]
              + (grid.h[axis] ** 2 / 12.0) * p.sum(axis=-1))
    return mean, second - mean * mean


def _axis_centres(grid: Grid, axis: int) -> np.ndarray:
    """Cell centres along ``axis``, computed as ``Grid.cell_midpoints`` does."""
    return grid.domain.lower[axis] + (np.arange(grid.n[axis]) + 0.5) * grid.h[axis]


def _sum_except(arr: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Sum over every axis not in ``keep``; ``arr`` itself when none remain."""
    others = tuple(j for j in range(arr.ndim) if j not in keep)
    return arr.sum(axis=others) if others else arr


def _slab_width(grid: Grid, axis: int) -> float:
    """Product of the cell widths of every axis but ``axis``."""
    scale = 1.0
    for j, h in enumerate(grid.h):
        if j != axis:
            scale *= h
    return scale


def marginal(density: Density, axis: int) -> Density:
    """Integrate out all axes except ``axis``; mass is preserved."""
    grid = density.grid
    d = grid.domain.d
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} out of range for dimension {d}")
    arr = density.values.reshape(grid.n, order="F")
    return Density(_sum_except(arr, (axis,)) * _slab_width(grid, axis),
                   build_grid(BoxDomain((grid.domain.lower[axis],),
                                        (grid.domain.upper[axis],)),
                              (grid.n[axis],), (grid.bc[axis],)))


def _slab_diagnostics(sums: list[np.ndarray], grid: Grid, min_prominence: float):
    """Means, stds and axis-0 mode counts of ``k`` densities on ``grid``.

    ``sums[a]`` is ``(k, n_a)``: each density's values summed over every axis
    but ``a``.  Row ``i`` of the results equals :func:`moments` (mean and
    square root of the covariance diagonal) and
    ``count_modes(marginal(density_i, 0), min_prominence)``, with the numpy
    calls paid once for all ``k``.  ``min_prominence`` is not checked here.
    """
    k = sums[0].shape[0]
    mean = np.empty((k, len(sums)))
    var = np.empty((k, len(sums)))
    for a, s in enumerate(sums):
        mean[:, a], var[:, a] = _axis_moments(s, grid, a)
    modes = _count_modes_rows(sums[0] * _slab_width(grid, 0), grid.bc[0] == PERIODIC,
                              min_prominence)
    return mean, np.sqrt(np.clip(var, 0.0, None)), modes


def _check_prominence(min_prominence: float) -> None:
    if not 0.0 <= min_prominence <= 1.0:
        raise ValueError(f"min_prominence must lie in [0, 1], got {min_prominence}")


def count_modes(density: Density, min_prominence: float) -> int:
    """Number of modes of a 1D density by topographic prominence.

    Exact plateaus count as one point (a uniform density has one mode).  A
    local maximum counts as a mode when it rises at least
    ``min_prominence * max(values)`` above the highest saddle separating it
    from strictly higher terrain; the global maximum is measured against the
    global minimum.  On a periodic axis the ring is cut at its global
    minimum, so a bump straddling the seam is one mode.  ``min_prominence``
    must lie in ``[0, 1]``.
    """
    if density.grid.domain.d != 1:
        raise ValueError("count_modes expects a 1D density")
    _check_prominence(min_prominence)
    return int(_count_modes_rows(density.values[None, :], density.grid.bc[0] == PERIODIC,
                                 min_prominence)[0])


_SADDLE_CELLS = 1 << 18  # bounds the per-peak temporaries to 2 MB of float64


def _count_modes_rows(rows: np.ndarray, periodic: bool,
                      min_prominence: float) -> np.ndarray:
    """Mode counts of each row of a ``(k, n)`` stack of 1D profiles."""
    k, n = rows.shape
    gmax = rows.max(axis=1)
    if periodic:  # cut each ring at its own global minimum
        rows = np.take_along_axis(rows, (np.arange(n) + rows.argmin(axis=1)[:, None]) % n,
                                  axis=1)
    vmin = rows.min(axis=1, keepdims=True)
    # Walls of +inf behind the global minimum on both ends: every peak then
    # has strictly higher terrain on each side, and a side that reaches it
    # only at a wall gets the global minimum as its saddle, which never
    # beats a real saddle on the other side.
    wall = np.full((k, 1), np.inf)
    e = np.concatenate((wall, vmin, rows, vmin, wall), axis=1)
    idx = np.arange(e.shape[1])
    # first index after each point where the height changes (the walls bound it)
    changes = np.where(e[:, 1:] != e[:, :-1], idx[1:], idx.size)
    nxt = np.minimum.accumulate(changes[:, ::-1], axis=1)[:, ::-1]
    # a peak is the first point of a plateau that is higher than the point
    # before it and than the first different point after it
    mid = e[:, 2:-2]
    after = np.take_along_axis(e, nxt[:, 2:-1], axis=1)
    rowi, col = np.nonzero((mid > e[:, 1:-3]) & (mid > after))
    counts = np.zeros(k, dtype=np.int64)
    # one row per peak, in passes of at most _SADDLE_CELLS cells: a rough
    # profile has about n/3 peaks, so all of a block's peaks at once would
    # take O(k n^2) memory
    per_pass = max(1, _SADDLE_CELLS // idx.size)
    for start in range(0, rowi.size, per_pass):
        r = rowi[start:start + per_pass]
        pk = col[start:start + per_pass, None] + 2
        ep = e[r]
        top = np.take_along_axis(ep, pk, axis=1)
        higher = ep > top
        before = idx < pk
        # nearest higher point on each side, lowest point between
        left = np.where(higher & before, idx, -1).max(axis=1, keepdims=True)
        right = np.where(higher & ~before, idx, idx.size).min(axis=1, keepdims=True)
        low = np.where((idx > left) & (idx < right), ep, np.inf)
        saddle = np.maximum(np.where(before, low, top).min(axis=1, keepdims=True),
                            np.where(before, top, low).min(axis=1, keepdims=True))
        prominent = (top - saddle)[:, 0] >= min_prominence * gmax[r]
        counts += np.bincount(r[prominent], minlength=k)
    counts[vmin[:, 0] == gmax] = 1  # one plateau: one mode
    counts[~(gmax > 0)] = 0
    return counts


def save_density(density: Density, path, t: float = 0.0) -> None:
    """Write a density snapshot as CSV with a geometry header.

    Values carry 17 significant digits, so reading the file back reproduces
    them exactly.
    """
    grid = density.grid
    dom = grid.domain
    header = [
        f"# d={dom.d}",
        "# n=" + ",".join(str(k) for k in grid.n),
        "# domain=" + ";".join(
            f"{lo:.17g},{up:.17g}" for lo, up in zip(dom.lower, dom.upper)),
        f"# t={t:.17g}",
    ]
    # one format call over Python floats: no per-value string objects
    values = tuple(density.values.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n" + "%.17g\n" * len(values) % values)


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
