"""Cell-averaged densities: projection, norms, moments, marginals, file I/O.

Values are per-cell averages (probability per unit volume) stored flat in
canonical cell order; the mass of a density is ``sum(values) * cell_volume``.
A pdf passed to :func:`project` takes coordinates, as a velocity field's
``func`` does: a tuple of ``d`` float arrays that broadcast together (the open
:func:`~fpfvm.grid.mesh` of the cells' quadrature nodes), and returns values
broadcastable to their shape (a scalar is broadcast).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import PERIODIC, BoxDomain, Grid, build_grid, mesh
from .velocity import tensor_rule


@dataclass(frozen=True, eq=False)
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


def project(pdf, grid: Grid, quadrature: str = "midpoint") -> Density:
    """Cell averages of an analytic pdf, by ``quadrature`` around the ``centres``.

    ``pdf`` is called once per node on the node's open mesh; its values,
    broadcast, are summed into the C-order cube ``grid.n[::-1]`` of cells.
    Not normalized: truncating a pdf to the box may lose mass, and that loss
    is part of the approximation being measured.  Raises on a result that
    does not broadcast to the cube, and on negative or non-finite cell
    averages.
    """
    cube = np.zeros(grid.n[::-1])
    axes = range(grid.domain.d)
    for w, coords in tensor_rule(quadrature, [grid.centres(a) for a in axes], grid.h, axes):
        cube += w * np.asarray(pdf(mesh(coords)), dtype=float)
    vals = cube.reshape(-1)
    if not np.all(np.isfinite(vals)):
        raise ValueError("pdf produced non-finite cell averages")
    if np.any(vals < 0):
        raise ValueError("pdf produced negative cell averages")
    return Density(vals, grid)


def uniform_density(grid: Grid) -> Density:
    """The uniform probability density on the grid's box."""
    return Density(np.full(grid.ncells, 1.0 / grid.domain.volume), grid)


def gaussian_pdf(mean, cov):
    """Multivariate normal pdf as a callable on coordinates.

    The pdf takes a tuple of ``d`` coordinate arrays that broadcast together
    and returns the density at their broadcast shape.  ``cov`` may be a
    scalar (isotropic), a length-d vector (diagonal), or a full (d, d)
    matrix; it must be symmetric positive definite, with a normalizing
    constant that is finite and positive in floating point.
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
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        norm = 1.0 / np.sqrt(((2.0 * np.pi) ** d) * np.linalg.det(cov))
    if not 0 < norm < np.inf:
        raise ValueError(f"covariance {cov.tolist()} has a determinant outside the float range")

    def pdf(xs):
        if len(xs) != d:
            raise ValueError(f"pdf of dimension {d} called on {len(xs)} coordinates")
        dx = [x - m for x, m in zip(xs, mean)]
        # this order of the quadratic form rounds as an einsum over points does
        q = 0.0
        for i in range(d):
            for j in range(d):
                q = q + (dx[i] * prec[i, j]) * dx[j]
        return norm * np.exp(-0.5 * q)

    return pdf


def normalize(density: Density) -> Density:
    """Scale to unit mass; raises ``ValueError`` on mass <= 0."""
    m = density.mass
    if not m > 0:
        raise ValueError(f"density mass {m} is not positive")
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


@dataclass(frozen=True, eq=False)
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
    mids = [grid.centres(a) for a in range(d)]
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
    x = grid.centres(axis)
    p = sums * grid.cell_volume  # slab masses
    # a stack of (1, n) @ (n, 1) products is one dot per profile, rounded as
    # for a single profile; (k, n) @ (n,) would round differently
    rows = p[..., None, :]
    mean = (rows @ x[:, None])[..., 0, 0]
    second = ((rows @ (x * x)[:, None])[..., 0, 0]
              + (grid.h[axis] ** 2 / 12.0) * p.sum(axis=-1))
    return mean, second - mean * mean


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


_CHUNK = 1 << 13  # values formatted at once: about 1.2 MB of temporaries
_P0 = -292  # p = 16 - floor(log10|x|) spans -292..340 over nonzero finite doubles
# s = |x| * 10**p is rounded twice, the table entry and the product, each by
# at most half a long-double ulp (eps / 2 relative), so below 1e17 it is off
# by less than 1e17 * eps: 0.0108 for x86-64's 64-bit mantissa.  One percent
# more covers reading s - rint(s) as a double.  Where long double is double
# the margin exceeds 0.5, and every value falls back to "%.17g".
_MARGIN = 1.01e17 * float(np.finfo(np.longdouble).eps)
_DIGIT = np.arange(17, dtype=np.uint8)[:, None]
_PAD = 32  # a blank byte: never part of a line, dropped at the end
# Source rows of a chunk: 0-16 the 17 digits (blank past the last one kept),
# 17 "-", 18 the point after digit `point` (blank when no digit follows),
# 19 ".", 20 "0", 21 "e", 22 the exponent's sign, 23-25 its digits, 26 "\n",
# 27 blank.  _TAIL fills rows 17 on.
_TAIL = np.frombuffer(b"-..0e+000\n ", dtype=np.uint8)[:, None]


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The formatter's tables, built at its first call, so that importing
    the package allocates nothing for them: ``10**p`` in long double for
    ``p`` from ``_P0`` to 340, parsed from ``"1e{p}"``, which the C
    library's ``strtold`` rounds to nearest; the four digits of 0..9999 as
    text, one uint32 each; and the source row of each byte of a line, one
    map per sign (0, 1) and form (0-20 fixed with the first digit at
    ``10**(form - 4)``, 21 and 22 exponent form with two and three exponent
    digits)."""
    pow10 = np.array([f"1e{p}" for p in range(_P0, 341)], dtype=np.longdouble)
    quads = np.frombuffer(("%04d" * 10_000 % tuple(range(10_000))).encode("ascii"), np.uint32)
    maps = np.full((2, 23, 25), 27, dtype=np.intp)
    for form in range(23):
        e = form - 4
        if form > 20:
            cols = [0, 18, *range(1, 17), 21, 22, *range(23 + (form == 21), 26)]
        elif e >= 0:
            cols = [*range(e + 1), 18, *range(e + 1, 17)]
        else:
            cols = [20, 19, *[20] * (-e - 1), *range(17)]
        for neg in (0, 1):
            line = [17] * neg + cols + [26]
            maps[neg, form, :len(line)] = line
    return pow10, quads, maps.reshape(46, 25)


def _scale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each ``|x|`` rounded to 17 significant digits, as an integer ``r`` in
    ``(1e16, 1e17)`` and the decimal exponent of its first digit, and
    whether ``r`` is exact.

    ``|x|`` is scaled by ``10**p`` to ``s``, which is within the margin of
    the exact scaled value, so ``rint(s)`` is that value's correct rounding
    unless ``s`` lies within the margin of a tie, or ``rint(s)`` leaves
    ``(1e16, 1e17)`` (``log10`` misplaced the first digit).  Those values,
    zeros, infinities and nans are not exact.
    """
    a = np.abs(x)
    special = ~(np.isfinite(a) & (a > 0))
    a[special] = 1.0
    p = 16 - np.floor(np.log10(a)).astype(np.int16)
    with np.errstate(over="ignore", invalid="ignore"):  # inf powers if long double is double
        s = a.astype(np.longdouble) * _tables()[0][p - _P0]
        r = np.rint(s)
        s -= r
        digits = r.astype(np.int64)
    ok = (np.abs(s.astype(float)) < 0.5 - _MARGIN) & ~special
    ok &= (digits > 10**16) & (digits < 10**17)
    digits[~ok] = 10**16
    return digits, 16 - p, ok


def _digit_rows(digits: np.ndarray) -> np.ndarray:
    """The 17 digits of each integer of ``digits`` as text, one row per digit."""
    quads = np.empty((5, digits.size), dtype=np.int16)  # four-digit groups, then one digit
    for i in range(4, 0, -1):
        digits, quads[i] = np.divmod(digits, 10**4)
    quads[0] = digits
    return _tables()[1][quads].view(np.uint8).reshape(5, -1, 4).transpose(0, 2, 1).reshape(20, -1)[3:]


def _format_chunk(x: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.17g\\n" * len(x) % tuple(x)``, as a uint8 array:
    each line laid out by the column map of its sign and form, and each
    value :func:`_scale` cannot round exactly formatted by ``%`` itself."""
    n = x.size
    digits, e, ok = _scale(x)
    src = np.empty((28, n), dtype=np.uint8)
    src[:17] = _digit_rows(digits)
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, e, 0)
    keep = np.maximum(np.max((src[:17] != 48) * _DIGIT, axis=0) + 1, point + 1)
    np.putmask(src[:17], _DIGIT >= keep.astype(np.uint8), _PAD)
    src[17:] = _TAIL
    src[18, keep == point + 1] = _PAD
    ae = np.abs(e)
    src[22] = np.where(e < 0, 45, 43)
    src[23], src[24], src[25] = ae // 100 + 48, ae // 10 % 10 + 48, ae % 10 + 48
    key = np.signbit(x) * 23 + np.where(fixed, e + 4, np.where(ae < 100, 21, 22))
    maps, out = _tables()[2], np.empty((25, n), dtype=np.uint8)
    for k in np.flatnonzero(np.bincount(key, minlength=46)):
        np.copyto(out, src[maps[k]], where=key == k)
    lines = out.T.copy()  # one line per row
    bad = np.flatnonzero(~ok)  # "%.17g" takes at most 24 bytes
    text = ("%-24.17g\n" * bad.size % tuple(x[bad].tolist())).encode("ascii")
    lines[bad] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 25)
    return lines[lines != _PAD]


def format_values(values: np.ndarray):
    """Yield the ``%.17g`` line of each value (17 significant digits, so
    reading them back reproduces every value), as one uint8 array per
    ``_CHUNK`` values."""
    values = np.asarray(values, dtype=float)
    for start in range(0, values.size, _CHUNK):
        yield _format_chunk(values[start:start + _CHUNK])


def save_density(density: Density, path, t: float = 0.0) -> None:
    """Write a density snapshot as CSV: dimension, cells, box, boundary kinds
    and time, one ``#`` line each, then :func:`format_values`' lines."""
    dom = density.grid.domain
    header = [
        f"# d={dom.d}",
        "# n=" + ",".join(str(k) for k in density.grid.n),
        "# domain=" + ";".join(
            f"{lo:.17g},{up:.17g}" for lo, up in zip(dom.lower, dom.upper)),
        "# bc=" + ",".join(density.grid.bc),
        f"# t={t:.17g}",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.writelines(format_values(density.values))


def load_density(path) -> tuple[Density, float]:
    """Read a density snapshot written by :func:`save_density`: the density,
    on the grid its header names, and its time tag.  A header without one of
    the five lines, ``# bc=`` and ``# t=`` included, is malformed."""
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
        bounds = [(float(lo), float(up)) for lo, up in
                  (part.split(",") for part in header["domain"].split(";"))]
        bc = header["bc"].split(",")
        t = float(header["t"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed density file {path}: {exc}") from exc
    if len(n) != d or len(bounds) != d:
        raise ValueError(f"inconsistent header in density file {path}")
    grid = build_grid(BoxDomain(*zip(*bounds)), n, bc)
    return Density(np.asarray(values), grid), t
