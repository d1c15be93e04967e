"""Sparse stochastic transition operators from upwind face fluxes.

The operator acts on cell *mass* vectors m_K = |K| p_K from the left,
``m' = m S``: row K of S sends the fraction ``dt * (v_KL)_+ / |K|`` of K's
mass to each downwind neighbour L and keeps the rest on the diagonal.  Under
the step-size condition ``dt * sum_L (v_KL)_+ <= |K|`` every entry is
nonnegative and (without Dirichlet outflow) every row sums to one, so S is a
stochastic matrix and one application performs one conservative, positivity
preserving upwind step of the continuity equation.

A :class:`TransitionOperator` stores a single CSR matrix, the left-action
form ``S^T`` (row L gathers the mass that flows into cell L), so a step is
one CSR mat-vec ``m' = S^T m``.  ``op.matrix`` is the zero-copy ``S`` view
of that same matrix.  :func:`assemble` writes its CSR arrays straight from
the face blocks of the grid, in row order and at their final size, so no
triplets, face table or second copy of the matrix exist while it runs.
:func:`step` is that mat-vec on a mass vector and the only step path.
:func:`evolve` converts a :class:`Density` to mass once, takes the
:func:`step_count` of its time in steps and converts back once; that count,
the nearest whole number of steps, is also the filter's and ``choose_dt``'s.

On an operator of at least ``_SPLIT_ROWS`` rows, in a process allowed more
than one CPU, :func:`step` computes the rows in two halves at once: the
calling thread the lower half, and one daemon helper thread, started on the
first such step, the upper half.  The caller hands the upper half over with
one lock and waits on a second for the helper to finish it.  Both run scipy's
CSR kernel, which releases the GIL, over the unchanged matrix arrays into one
output, so every row is summed exactly as ``op._left @ m`` sums it and the
result is bit-identical.  An exception in the helper's half is re-raised by
the caller.  A caller whose own half raises, or whose wait is interrupted,
drops the helper, and so does a forked child; the next split starts a new one.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sparse
from scipy.sparse._sparsetools import csr_matvec  # the kernel of ``csr @ vector``

from .density import Density
from .grid import Grid
from .velocity import EdgeFluxes

_CFL_SLACK = 1e-12  # relative slack so dt == dt_max assembles cleanly
_MARKOV_TOL = 1e-12  # entry and row-sum tolerance of verify_markov
_WRITE_CHUNK = 1 << 16  # faces or rows per write pass of assemble
# smallest operator whose step is split over two threads; below it (the
# N=200 filter's 40,000 rows) the hand-off costs more than half a mat-vec saves
_SPLIT_ROWS = 1 << 16
_split_lock = threading.Lock()  # held by the one thread inside a split step
_EXPORT_ROWS = 1 << 13  # matrix rows per write of export_operator


class CflViolation(ValueError):
    """The requested time step would make a diagonal entry negative."""


@dataclass(frozen=True)
class CflReport:
    """Largest admissible time step for safety factor ``xi``."""

    dt_max: float
    xi: float
    binding_cell: int | None


@dataclass(frozen=True)
class MarkovReport:
    min_entry: float
    max_row_sum_err: float
    is_markov: bool


class TransitionOperator:
    """One-step transition matrix; immutable after assembly.

    ``left`` is ``S^T`` in CSR form with sorted indices, the row-gather form
    of the left action ``m -> m S``.
    """

    def __init__(self, dt: float, left: sparse.csr_matrix, grid: Grid,
                 mass_conserving: bool):
        self.dt = float(dt)
        self._left = left
        self.grid = grid
        self.mass_conserving = bool(mass_conserving)

    @property
    def matrix(self) -> sparse.csc_matrix:
        """The transition matrix ``S`` (rows are donors), a view of ``left``."""
        return self._left.T

    def __repr__(self) -> str:
        return (f"TransitionOperator(cells={self.grid.ncells}, dt={self.dt}, "
                f"nnz={self.matrix.nnz}, mass_conserving={self.mass_conserving})")


def max_stable_dt(fluxes: EdgeFluxes, xi: float) -> CflReport:
    """Largest dt with ``dt * outflow_K <= (1 - xi) |K|`` for every cell.

    Returns an infinite dt (and no binding cell) when nothing flows.
    """
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"xi must lie in [0, 1), got {xi}")
    binding = int(np.argmax(fluxes.outflow))
    peak = fluxes.outflow[binding]
    if peak <= 0.0:
        return CflReport(dt_max=np.inf, xi=float(xi), binding_cell=None)
    return CflReport(
        dt_max=(1.0 - xi) * fluxes.grid.cell_volume / peak,
        xi=float(xi),
        binding_cell=binding,
    )


def step_count(t: float, dt: float, name: str = "t") -> int:
    """The whole number of steps of ``dt`` nearest ``t``, ties to even; raises
    ``ValueError`` naming ``name`` unless ``t >= 0`` and ``t / dt`` is finite."""
    if not 0 <= t / dt < np.inf:
        raise ValueError(f"{name}={t} is negative or takes a non-finite number of steps of {dt}")
    return round(t / dt)


def choose_dt(report: CflReport, h_max: float, dt_over_h: float | None,
              span: float | None = None) -> float:
    """The step ``dt_over_h * h_max``, or with ``dt_over_h=None`` the report's
    stable step (1.0 where nothing flows); with a ``span``, ``span`` over its
    :func:`step_count`, or over one more if that would exceed the CFL slack."""
    if dt_over_h is None:
        dt = report.dt_max if np.isfinite(report.dt_max) else 1.0
    elif 0 < dt_over_h < np.inf:
        dt = float(dt_over_h) * h_max
    else:
        raise ValueError(f"dt_over_h must be positive and finite, got {dt_over_h}")
    if span is None:
        return dt
    k = max(1, step_count(span, dt, "span"))
    return span / (k + 1 if span / k > dt * (1.0 + _CFL_SLACK) else k)


def assemble(fluxes: EdgeFluxes, dt: float) -> TransitionOperator:
    """Build the upwind transition matrix for time step ``dt`` on ``fluxes.grid``.

    A step that would produce a negative diagonal raises :class:`CflViolation`.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    grid = fluxes.grid
    nc = grid.ncells
    vol = grid.cell_volume
    outflow = fluxes.outflow
    if dt * outflow.max() / vol > 1.0 + _CFL_SLACK:
        load = dt * outflow / vol
        binding = int(np.argmax(load))
        raise CflViolation(
            f"dt={dt} violates the step-size bound at cell {binding}: "
            f"dt * outflow / |K| = {load[binding]:.6g} > 1")
    slots, leaks = _inflow_slots(grid, fluxes.values)
    slots[0] = None  # the diagonal
    slots = sorted(slots.items())  # by column offset: each row in column order

    # int32, as scipy picks it, unless the entries could pass int32 indices
    idx = sparse.get_index_dtype(maxval=nc + len(fluxes.values))
    indptr = np.zeros(nc + 1, dtype=idx)
    counts = indptr[1:]
    counts += 1  # the diagonal
    for _, slot in slots:
        if slot is not None:
            (high, na, low), rows, sources = slot
            present = np.zeros(len(sources[0][0]), dtype=bool)
            for f, sign in sources:
                present |= f > 0.0 if sign > 0 else f < 0.0
            counts.reshape(high, na, low)[:, rows, :] += present.reshape(high, -1, low)
    np.cumsum(indptr, out=indptr)

    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1])
    at = indptr[:-1].astype(np.intp)  # where each row's next entry goes
    for offset, slot in slots:
        if slot is None:
            _write_diagonal(outflow, dt, vol, at, indices, data)
        else:
            _write_inflow(slot, offset, dt, vol, at, indices, data)
    left = sparse.csr_matrix((data, indices, indptr), shape=(nc, nc))
    return TransitionOperator(dt=dt, left=left, grid=grid, mass_conserving=not leaks)


def _inflow_slots(grid: Grid, flux: np.ndarray) -> tuple[dict, bool]:
    """The off-diagonal entries of the left-action matrix, by column offset.

    Along axis ``a`` (cube ``(high, na, low)``, so neighbours are ``low``
    apart) each face block with both sides in the box feeds two slots: where
    ``f > 0`` the upper cells gather from the lower ones, where ``f < 0`` the
    reverse.  A slot is ``(cube, rows, sources)``: ``rows`` slices the cube's
    middle axis to the receiving cells and each source ``(f, sign)`` is a
    face block with one face per receiving cell, in C order, feeding an entry
    where ``sign * f > 0``.  The two faces of a 2-cell periodic axis share an
    offset and so a slot.  Also returns whether any Dirichlet face lets mass
    out of the box: up through a high face, down through a low one.
    """
    slots: dict = {}
    leaks = False
    for _, cube, lower, upper, faces in grid.face_blocks():
        f = flux[faces]
        if lower is None or upper is None:
            leaks = leaks or bool(np.any(f < 0.0 if lower is None else f > 0.0))
            continue
        _, na, low = cube
        lower, upper = range(na)[lower], range(na)[upper]
        for sign, rows, donors in ((1.0, upper, lower), (-1.0, lower, upper)):
            slot = slots.setdefault((donors.start - rows.start) * low,
                                    (cube, slice(rows.start, rows.stop), []))
            slot[2].append((f, sign))
    return slots, leaks


def _write_diagonal(outflow, dt, vol, at, indices, data) -> None:
    """Write every row's diagonal ``1 - dt * outflow / |K|``, clamped to 0
    within the CFL slack, at the row's next free place."""
    for r0 in range(0, len(at), _WRITE_CHUNK):
        r1 = min(r0 + _WRITE_CHUNK, len(at))
        diag = np.multiply(dt, outflow[r0:r1])
        diag /= vol
        np.subtract(1.0, diag, out=diag)
        diag[(diag < 0.0) & (diag >= -_CFL_SLACK)] = 0.0
        place = at[r0:r1]
        indices[place] = np.arange(r0, r1)
        data[place] = diag
        place += 1


def _write_inflow(slot, offset, dt, vol, at, indices, data) -> None:
    """Write the entries ``|f| * dt / |K|`` of one slot at their rows' next
    free places; where two faces feed one entry, their values are summed."""
    (high, na, low), rows, sources = slot
    span = (rows.stop - rows.start) * low  # faces per layer of the cube
    gap = na * low - span  # cells of a layer this slot skips
    size = len(sources[0][0])
    for j0 in range(0, size, _WRITE_CHUNK):
        j1 = min(j0 + _WRITE_CHUNK, size)
        take = np.zeros(j1 - j0, dtype=bool)
        for f, sign in sources:
            take |= f[j0:j1] > 0.0 if sign > 0 else f[j0:j1] < 0.0
        j = np.flatnonzero(take)
        vals = np.zeros(len(j))
        for f, sign in sources:
            v = sign * f[j0:j1][j]
            fed = v > 0.0
            v *= dt
            v /= vol
            np.add(vals, v, out=vals, where=fed)
        j += j0
        j += j // span * gap + rows.start * low  # face to receiving row
        place = at[j]
        indices[place] = j + offset
        data[place] = vals
        at[j] = place + 1


class _Helper:
    """A daemon thread that computes the upper rows of one split step at a
    time: the caller sets ``args`` and releases ``start``; the thread runs the
    kernel, keeps any exception in ``error`` and releases ``done``."""

    def __init__(self):
        self.start, self.done = threading.Lock(), threading.Lock()
        self.start.acquire()
        self.done.acquire()
        self.args: tuple = ()
        self.error: BaseException | None = None
        threading.Thread(target=self._serve, name="fpfvm-step", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.start.acquire()
            try:
                csr_matvec(*self.args)
                self.error = None
            except BaseException as exc:  # re-raised by the waiting caller
                self.error = exc
            self.args = ()  # hold no step's arrays between steps
            self.done.release()


@functools.cache
def _helper() -> _Helper | None:
    """The process's helper, started on first use; None with one CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return _Helper() if cpus > 1 else None


if hasattr(os, "register_at_fork"):
    # a forked child inherits the cached helper but not its thread
    os.register_at_fork(after_in_child=_helper.cache_clear)


def _split_step(left: sparse.csr_matrix, m: np.ndarray, helper: _Helper) -> np.ndarray:
    n = left.shape[0]
    half = n // 2
    out = np.zeros(n)
    try:
        # the upper rows keep their absolute offsets into indices and data
        helper.args = (n - half, n, left.indptr[half:], left.indices, left.data,
                       m, out[half:])
        helper.start.release()
        csr_matvec(half, n, left.indptr, left.indices, left.data, m, out)
        helper.done.acquire()
    except BaseException:
        # the helper may yet signal this step: the next split starts a new one
        _helper.cache_clear()
        raise
    if helper.error is not None:
        raise helper.error
    return out


def step(op: TransitionOperator, m: np.ndarray) -> np.ndarray:
    """Advance a cell mass vector one time step, ``m' = m S``: one CSR mat-vec.

    An operator of at least ``_SPLIT_ROWS`` rows hands the upper half of its
    rows to the helper thread, computes the lower half and waits for the
    helper; the result is bit-identical to ``op._left @ m``, and an exception
    in either half reaches the caller.  A forked child starts a helper of its
    own.  The step is ``op._left @ m`` itself with one CPU, below the gate,
    for any ``m`` other than a C-contiguous float64 vector of the operator's
    length (so scipy raises for a wrong length), and while another thread is
    inside a split step.
    """
    left = op._left
    n = left.shape[0]
    if (n < _SPLIT_ROWS or type(m) is not np.ndarray or m.dtype != np.float64
            or m.shape != (n,) or not m.flags.c_contiguous):
        return left @ m
    if not _split_lock.acquire(blocking=False):
        return left @ m
    try:
        helper = _helper()
        return left @ m if helper is None else _split_step(left, m, helper)
    finally:
        _split_lock.release()


def evolve(op: TransitionOperator, density: Density, t: float) -> Density:
    """Apply ``step_count(t, dt)`` :func:`step` calls to the density's mass
    vector: ``t`` snaps to the nearest step, as a filter snaps its times."""
    if density.grid != op.grid:
        raise ValueError("density and operator live on different grids")
    k = step_count(t, op.dt)
    vol = op.grid.cell_volume
    m = density.values * vol
    for _ in range(k):
        m = step(op, m)
    return Density(m / vol, op.grid)


def verify_markov(op: TransitionOperator) -> MarkovReport:
    """Check entries >= -tol and row sums within tol of one, tol = 1e-12; with
    Dirichlet outflow (not mass conserving), row sums at most 1 + tol, the
    excess reported."""
    left = op._left
    data = left.data
    min_entry = float(data.min()) if data.size else 1.0
    # rows of S are the columns of the stored left-action matrix; the
    # transposed mat-vec adds each column's entries in storage order
    excess = left.T @ np.ones(left.shape[0])
    excess -= 1.0
    if op.mass_conserving:
        np.abs(excess, out=excess)
    err = max(float(excess.max()), 0.0)
    return MarkovReport(
        min_entry=min_entry,
        max_row_sum_err=err,
        is_markov=bool(min_entry >= -_MARKOV_TOL and err <= _MARKOV_TOL),
    )


def export_operator(op: TransitionOperator, path) -> None:
    """Write the matrix as sorted ``row col value`` triplets (debug aid), a
    block of ``_EXPORT_ROWS`` rows at a time."""
    S = op.matrix.tocsr()
    with open(path, "w") as fh:
        fh.write(f"# cells={op.grid.ncells} dt={op.dt:.17g}\n")
        for r0 in range(0, S.shape[0], _EXPORT_ROWS):
            ptr = S.indptr[r0:r0 + _EXPORT_ROWS + 1]
            rows = np.repeat(np.arange(r0, r0 + len(ptr) - 1), np.diff(ptr))
            block = slice(ptr[0], ptr[-1])
            triplets = zip(rows.tolist(), S.indices[block].tolist(), S.data[block].tolist())
            fh.write("%d %d %.17g\n" * len(rows) % tuple(chain.from_iterable(triplets)))
