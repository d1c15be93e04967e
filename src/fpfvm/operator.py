"""Sparse stochastic transition operators from upwind face fluxes.

The operator acts on cell *mass* vectors m_K = |K| p_K from the left,
``m' = m S``: row K of S sends the fraction ``dt * (v_KL)_+ / |K|`` of K's
mass to each downwind neighbour L and keeps the rest on the diagonal.  Under
the step-size condition ``dt * sum_L (v_KL)_+ <= |K|`` every entry is
nonnegative and (without Dirichlet outflow) every row sums to one, so S is a
stochastic matrix and one application performs one conservative, positivity
preserving upwind step of the continuity equation.

A :class:`TransitionOperator` holds the CSR arrays ``indptr``, ``indices``
and ``data`` of the left-action form ``S^T`` (row L gathers the mass that
flows into cell L); ``op.matrix`` builds the zero-copy scipy ``S`` view of
them on each access.  :func:`assemble` writes the arrays straight from the
face blocks of the grid, at their final size, so no triplets, face table or
second matrix copy exist while it runs.  ``indptr`` is its own write cursor:
it first holds each row's end, and each slab of whole last-axis layers is
written slot by slot in descending column offset, each entry just below its
row's end, which it then lowers; after a slab's last slot its rows' entries
are their starts.  :func:`step`, the only step path, is one ``csr_matvec``
call on them, ``m' = S^T m``, into a zeroed output.
:func:`evolve` converts a :class:`Density` to mass once, takes the
:func:`step_count` (also the filter's and ``choose_dt``'s) of its time in
steps and converts back in place, so it holds two mass vectors at a time.

The kernels come from scipy's compiled ``_sparsetools`` extension,
loaded from its file by :func:`_load_sparsetools`, so importing this module
does not import ``scipy.sparse`` (0.2 s and about 20 MB); only ``op.matrix``
imports it, on first use.  :func:`export_operator` transposes the arrays with
the same module's ``csr_tocsc``.

On an operator of at least ``_SPLIT_ROWS`` rows, in a process allowed more
than one CPU, :func:`step` and the write pass of :func:`assemble` work on
two halves of the rows at once (:func:`_split`), cut at :func:`_layer_cut`,
a whole layer of the grid's last axis: the calling thread the lower half,
and one daemon helper thread, started on the first such split, the upper
half.  Neither calls user code.  The caller puts the upper half on the
helper's queue and takes from a second what the helper puts back: None, or
the exception of its half, which the caller re-raises.  A step's output is
not zeroed before the hand-off: each thread zeroes its own half just before
its kernel call, which releases the GIL and sums each row over the
unchanged arrays as one call sums it.  An assembly counts every row's
entries on the calling thread; after the ``cumsum`` each thread writes its
own rows in slabs of half the size, moving only their ``indptr`` cursors,
and reads their faces through :func:`_rows_part`, the one statement of
which faces of a face block feed which rows and the one place a face block
is cut.  No row is written by both threads, so every result is
bit-identical to the one-thread one.  A caller whose own half raises, or
whose wait is interrupted, drops the helper, and so does a forked child;
the next split starts a new one.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .density import Density
from .grid import Grid
from .velocity import EdgeFluxes

_CFL_SLACK = 1e-12  # relative slack so dt == dt_max assembles cleanly
_MARKOV_TOL = 1e-12  # entry and row-sum tolerance of verify_markov
_WRITE_CHUNK = 1 << 16  # rows per write slab of a one-thread assemble
_EXPORT_ROWS = 1 << 13  # rows per write of export_operator, columns per call of verify_markov
# smallest operator whose step and assembly write pass are split over two
# threads; below it (the N=200 filter's 40,000 rows) the hand-off costs more
# than half a mat-vec saves
_SPLIT_ROWS = 1 << 16
_split_lock = threading.Lock()  # held by the one thread inside a split


def _sparsetools_path() -> str | None:
    """The file of scipy's compiled ``scipy.sparse._sparsetools``, found
    without importing ``scipy.sparse``; None where it is not there."""
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_sparsetools():
    """scipy's compiled sparse kernels (``csr_matvec``, ``csc_matvec`` and
    ``csr_tocsc``), loaded from their file so that ``scipy.sparse``'s
    ``__init__`` never runs.  The module is taken out of ``sys.modules``
    again, so a later ``import scipy.sparse`` imports it as it always does,
    from the interpreter's cache of initialised extensions.  Where scipy is
    already imported or the file is not found, this is
    ``scipy.sparse._sparsetools``."""
    name = "scipy.sparse._sparsetools"
    path = _sparsetools_path()
    if name in sys.modules or path is None:
        from scipy.sparse import _sparsetools
        return _sparsetools
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    if sys.modules.get(name) is module:  # put there by a single-phase init
        del sys.modules[name]
    return module


_sparsetools = _load_sparsetools()
csc_matvec, csr_matvec = _sparsetools.csc_matvec, _sparsetools.csr_matvec  # csc/csr @ vector


def _layer_cut(grid) -> int:
    """The split's one gate and one cut: the cells of the lower half of the
    last axis's layers on ``grid``; 0 (no split) below ``_SPLIT_ROWS`` cells."""
    layer = grid.ncells // grid.n[-1]
    return grid.n[-1] // 2 * layer if grid.ncells >= _SPLIT_ROWS else 0


def _rows_part(cube, rows: slice, r0: int, r1: int):
    """The part of a face block (one face per cell of ``cube[:, rows, :]`` in
    C order, ``cube`` the ``(high, na, low)`` of its axis) whose rows, the
    cells ``rows`` picks, lie in ``[r0, r1)``, both whole layers of the
    grid's last axis (a thread's half, or a slab of it), as ``(base, cube,
    rows, part)``: ``part`` slices the first two axes of the block's faces,
    viewed as ``(high, len(rows), low)``, to the part's, and face ``j`` of
    the part in C order belongs to row ``base + j + j // span * gap +
    rows.start * low``, with ``span`` the part's faces per layer of the
    cube and ``gap`` the cells of a layer it skips.  Along an axis below the
    last, the part is whole layers of the cube; along the last axis (one
    layer) it cuts the cube's middle axis."""
    high, na, low = cube
    start, stop, _ = rows.indices(na)
    if r0 % (na * low) == 0 and r1 % (na * low) == 0:
        h0, h1 = r0 // (na * low), r1 // (na * low)
        return r0, (h1 - h0, na, low), slice(start, stop), (slice(h0, h1), slice(None))
    lo = max(start, r0 // low)
    hi = max(lo, min(stop, r1 // low))
    return 0, cube, slice(lo, hi), (slice(None), slice(lo - start, hi - start))


def _block_part(block, part):
    """The fluxes of a face block, ``block``, on ``part``, slices of its
    leading axes; an axis of extent 1, along which they do not vary, keeps
    its one value, to broadcast over the part's rows (none included)."""
    return block[tuple(s if n > 1 else slice(None) for s, n in zip(part, block.shape))]


class _Helper:
    """A daemon thread that runs the upper half of one split at a time: it
    takes a ``(fn, *args)`` from ``calls`` and puts what :func:`_run`
    returns for it on ``results``."""

    def __init__(self):
        import queue  # only a process that splits pays for it

        self.calls, self.results = queue.SimpleQueue(), queue.SimpleQueue()
        threading.Thread(target=self._serve, name="fpfvm-helper", daemon=True).start()

    def _serve(self) -> None:
        while True:
            # no local names: a frame parked on ``get`` keeps no arrays
            self.results.put(_run(self.calls.get()))


def _run(call: tuple) -> BaseException | None:
    """``fn(*args)`` of ``call``, a ``(fn, *args)``; None, or the exception
    it raised, which the waiting caller re-raises."""
    try:
        call[0](*call[1:])
    except BaseException as exc:
        return exc
    return None


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


def _split(lower: tuple, upper: tuple) -> bool:
    """Put ``upper`` on the helper's queue, run ``lower`` on this thread,
    each a ``(fn, *args)``, and return True once the helper has answered.
    Return False, having run neither, with one CPU or while another thread
    is inside a split.  An exception in either half reaches the caller."""
    if not _split_lock.acquire(blocking=False):
        return False
    try:
        helper = _helper()
        if helper is None:
            return False
        try:
            helper.calls.put(upper)
            lower[0](*lower[1:])
            error = helper.results.get()
        except BaseException:
            # the helper may yet answer this split: the next one starts a new one
            _helper.cache_clear()
            raise
        if error is not None:
            raise error
        return True
    finally:
        _split_lock.release()


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

    ``indptr``, ``indices`` and ``data`` are ``S^T`` in CSR form with sorted
    indices, the row-gather form of the left action ``m -> m S``.  Arrays
    that the compiled kernels would read out of bounds raise ``ValueError``:
    ``indptr`` must start at 0 and never decrease, and every index must lie
    in ``[0, ncells)``.
    """

    def __init__(self, dt: float, indptr, indices, data, grid: Grid, mass_conserving: bool):
        n = grid.ncells
        if (len(indptr) != n + 1 or not len(indices) == len(data) >= indptr[-1]
                or indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1])
                or len(indices) and not 0 <= indices.min() <= indices.max() < n):
            raise ValueError("indptr, indices and data are not a CSR matrix of the grid's cells")
        self.dt = float(dt)
        self.indptr, self.indices, self.data = indptr, indices, data
        self.grid = grid
        self.mass_conserving = bool(mass_conserving)

    @property
    def matrix(self):
        """The transition matrix ``S`` (rows are donors), a new zero-copy
        ``scipy.sparse.csc_matrix`` view of the arrays; the one place the
        library imports ``scipy.sparse``."""
        import scipy.sparse as sparse

        return sparse.csc_matrix((self.data, self.indices, self.indptr), (self.grid.ncells,) * 2)

    def __repr__(self) -> str:
        return (f"TransitionOperator(cells={self.grid.ncells}, dt={self.dt}, "
                f"nnz={len(self.data)}, mass_conserving={self.mass_conserving})")


def max_stable_dt(fluxes: EdgeFluxes, xi: float) -> CflReport:
    """Largest dt with ``dt * outflow_K <= (1 - xi) |K|`` for every cell.

    Returns an infinite dt and no binding cell when nothing flows, or when
    the outflow is so small (subnormal) that the bound overflows.
    """
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"xi must lie in [0, 1), got {xi}")
    # np.argmax would copy the read-only outflow; the first peak of a bool
    # mask costs one byte per cell
    peak = float(fluxes.outflow.max())
    binding = int(np.argmax(fluxes.outflow == peak))
    # a subnormal peak overflows to inf, without a warning, and binds nothing
    dt_max = (1.0 - xi) * fluxes.grid.cell_volume / peak if peak > 0.0 else np.inf
    return CflReport(dt_max=dt_max, xi=float(xi),
                     binding_cell=binding if dt_max < np.inf else None)


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

    A step that would produce a negative diagonal raises :class:`CflViolation`
    naming :func:`max_stable_dt`'s binding cell.  This thread counts the
    rows' entries; they are written in slabs of whole last-axis layers
    (:func:`_write_rows`), by two threads on an operator of at least
    ``_SPLIT_ROWS`` rows, cut at :func:`_layer_cut`, to the one-thread bits.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    grid = fluxes.grid
    nc = grid.ncells
    vol = grid.cell_volume
    outflow = fluxes.outflow
    if dt * outflow.max() / vol > 1.0 + _CFL_SLACK:
        cell = max_stable_dt(fluxes, 0.0).binding_cell
        raise CflViolation(
            f"dt={dt} violates the step-size bound at cell {cell}: "
            f"dt * outflow / |K| = {dt * outflow[cell] / vol:.6g} > 1")
    slots, leaks = _inflow_slots(grid, fluxes.blocks)

    # int32, as scipy picks it, unless the entries could pass int32 indices
    idx = np.int32 if nc + grid.face_offsets[-1] <= np.iinfo(np.int32).max else np.int64
    indptr = np.empty(nc + 1, dtype=idx)
    ends = indptr[:-1]  # each row's count, then the end of its entries
    ends.fill(1)  # the diagonal
    for (high, na, low), rows, sources in slots.values():
        # each source's mask stays at its block's shape, broadcast into the rows
        present = functools.reduce(np.logical_or, [_fed(f, sign) for f, sign in sources])
        ends.reshape(high, na, low)[:, rows, :] += present
    np.cumsum(ends, out=ends)
    indptr[-1] = indptr[-2]
    slots[0] = None  # the diagonal
    slots = sorted(slots.items())  # by column offset: each row in column order
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1])
    write = (nc // grid.n[-1], slots, outflow, dt, vol, ends, indices, data)
    cut = _layer_cut(grid)
    if not (cut and _split((_write_rows, 0, cut, *write), (_write_rows, cut, nc, *write))):
        _write_rows(0, nc, *write)
    return TransitionOperator(dt, indptr, indices, data, grid, mass_conserving=not leaks)


def _inflow_slots(grid: Grid, blocks) -> tuple[dict, bool]:
    """The off-diagonal entries of the left-action matrix, by column offset.

    Along axis ``a`` (cube ``(high, na, low)``, so neighbours are ``low``
    apart) each face block with both sides in the box feeds two slots: where
    ``f > 0`` the upper cells gather from the lower ones, where ``f < 0`` the
    reverse.  A slot is ``(cube, rows, sources)``: ``rows`` slices the cube's
    middle axis to the receiving cells and each source ``(f, sign)`` is a
    face block's fluxes (see :class:`~fpfvm.velocity.EdgeFluxes`), one face
    per receiving cell, feeding an entry where ``sign * f > 0``.  The two
    faces of a 2-cell periodic axis share an offset and so a slot.  Also
    returns whether any Dirichlet face lets mass out of the box: up through a
    high face, down through a low one.
    """
    slots: dict = {}
    leaks = False
    for (_, cube, lower, upper, _), f in zip(grid.face_blocks(), blocks):
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


def _fed(f: np.ndarray, sign: float) -> np.ndarray:
    """Where the face fluxes ``f`` of a slot's source feed an entry."""
    return f > 0.0 if sign > 0 else f < 0.0


def _write_rows(r0: int, r1: int, layer: int, slots, outflow, dt, vol, ends, indices,
                data) -> None:
    """Write the entries of rows ``[r0, r1)``, whole layers of ``layer``
    cells of the last axis, a slab of layers at a time: at most
    ``_WRITE_CHUNK`` rows, half that on a thread that writes part of the
    rows, so two threads hold one slab's temporaries, or one layer where a
    layer is larger.  Within a slab, slot by slot in descending column
    offset, so each row fills back to front: once the lowest offset is
    written, every ``ends[row]`` has come down to the row's start."""
    chunk = _WRITE_CHUNK if r1 - r0 == len(ends) else _WRITE_CHUNK // 2
    slab = max(chunk // layer, 1) * layer
    for s0 in range(r0, r1, slab):
        s1 = min(s0 + slab, r1)
        for offset, slot in reversed(slots):
            if slot is None:
                _write_diagonal(s0, s1, outflow, dt, vol, ends, indices, data)
            else:
                cube, rows, sources = slot
                _write_inflow(_rows_part(cube, rows, s0, s1), sources, offset,
                              dt, vol, ends, indices, data)


def _write_diagonal(r0, r1, outflow, dt, vol, ends, indices, data) -> None:
    """Write the diagonal ``1 - dt * outflow / |K|`` of rows ``[r0, r1)``,
    clamped to 0 within the CFL slack, just below the rows' ``ends``, and
    lower ``ends``."""
    diag = np.multiply(dt, outflow[r0:r1])
    diag /= vol
    np.subtract(1.0, diag, out=diag)
    diag[(diag < 0.0) & (diag >= -_CFL_SLACK)] = 0.0
    place = ends[r0:r1]
    place -= 1
    indices[place] = np.arange(r0, r1)
    data[place] = diag


def _write_inflow(part, sources, offset, dt, vol, ends, indices, data) -> None:
    """Write the entries ``|f| * dt / |K|`` of one slot's part (see
    :func:`_rows_part`) just below their rows' ``ends``, and lower ``ends``,
    each source broadcast to the part's faces; where two faces feed one entry
    (a 2-cell periodic axis), their values are summed."""
    base, (high, na, low), rows, part = part
    span = (rows.stop - rows.start) * low  # faces per layer of the cube
    gap = na * low - span  # cells of a layer this slot skips
    shape = (high, rows.stop - rows.start, low)
    faces = [(np.broadcast_to(_block_part(f, part), shape), sign) for f, sign in sources]
    if len(faces) == 1:
        ((f, sign),) = faces
        fed = _fed(f, sign)
        j = np.flatnonzero(fed)
        vals = f[fed]
        vals *= sign * dt  # |f| * dt, as (sign * f) * dt rounds
        vals /= vol
    else:
        take = np.zeros(shape, dtype=bool)
        for f, sign in faces:
            take |= _fed(f, sign)
        j = np.flatnonzero(take)
        vals = np.zeros(len(j))
        for f, sign in faces:
            v = sign * f[take]
            fed = v > 0.0
            v *= dt
            v /= vol
            np.add(vals, v, out=vals, where=fed)
    if high > 1:  # a face past a layer of the cube skips its other cells
        j += j // span * gap
    j += rows.start * low + base  # face to receiving row
    place = ends[j]
    place -= 1
    indices[place] = j + offset
    data[place] = vals
    ends[j] = place


def _zeroed_matvec(n_row, n_col, indptr, indices, data, m, out) -> None:
    """``out = 0``, then the ``csr_matvec`` of ``n_row`` rows into it."""
    out.fill(0.0)
    csr_matvec(n_row, n_col, indptr, indices, data, m, out)


def step(op: TransitionOperator, m: np.ndarray) -> np.ndarray:
    """Advance a cell mass vector one time step, ``m' = m S``: one CSR mat-vec,
    bit-identical to scipy's ``op.matrix.T @ m``.

    ``m`` becomes a C-contiguous float64 vector once; a wrong length raises
    ``ValueError``.  An operator of at least ``_SPLIT_ROWS`` rows, cut at
    :func:`_layer_cut`, hands its upper rows to the helper thread, computes
    the lower ones and waits for the helper; an exception in either half
    reaches the caller.  With one CPU, below the gate or while another
    thread is inside a split, one kernel call computes every row.
    """
    n = op.grid.ncells
    m = np.asarray(m, dtype=np.float64, order="C")
    if m.shape != (n,):
        raise ValueError(f"mass vector of shape {m.shape} does not fit {n} cells")
    cut = _layer_cut(op.grid)
    if cut:
        out = np.empty(n)  # zeroed by each thread that sums into it
        # the upper rows keep their absolute offsets into indices and data
        if not _split(
                (_zeroed_matvec, cut, n, op.indptr, op.indices, op.data, m, out[:cut]),
                (_zeroed_matvec, n - cut, n, op.indptr[cut:], op.indices, op.data, m,
                 out[cut:])):
            _zeroed_matvec(n, n, op.indptr, op.indices, op.data, m, out)
        return out
    out = np.zeros(n)
    csr_matvec(n, n, op.indptr, op.indices, op.data, m, out)
    return out


def evolve(op: TransitionOperator, density: Density, t: float) -> Density:
    """Apply ``step_count(t, dt)`` :func:`step` calls to the density's mass
    vector: ``t`` snaps to the nearest step, as a filter snaps its times.  The
    mass is divided back in place, so two mass vectors are held at a time."""
    if density.grid != op.grid:
        raise ValueError("density and operator live on different grids")
    k = step_count(t, op.dt)
    vol = op.grid.cell_volume
    m = density.values * vol
    for _ in range(k):
        m = step(op, m)
    m /= vol
    return Density(m, op.grid)


def verify_markov(op: TransitionOperator) -> MarkovReport:
    """Check entries >= -tol and row sums within tol of one, tol = 1e-12; with
    Dirichlet outflow (not mass conserving), row sums at most 1 + tol, the
    excess reported.  The row sums are scipy's ``op.matrix @ ones``, summed in
    the same order, by ``csc_matvec`` calls on blocks of ``_EXPORT_ROWS``
    columns against one short vector of ones."""
    min_entry = float(op.data.min()) if op.data.size else 1.0
    # rows of S are the columns of the stored left-action arrays; the CSC
    # kernel adds each column's entries in storage order, and the blocks
    # take the columns in order, so each sum adds its terms as one call does
    n = op.grid.ncells
    sums = np.zeros(n)
    ones = np.ones(min(n, _EXPORT_ROWS))
    for j0 in range(0, n, _EXPORT_ROWS):
        ptr = op.indptr[j0:j0 + _EXPORT_ROWS + 1]
        csc_matvec(n, len(ptr) - 1, ptr, op.indices, op.data, ones, sums)
    # s - 1 rounds monotonically and 1 - s as its negation, so these are the
    # largest s - 1 and |s - 1| over the rows
    above = float(sums.max()) - 1.0
    err = max(above, 1.0 - float(sums.min()), 0.0) if op.mass_conserving else max(above, 0.0)
    return MarkovReport(
        min_entry=min_entry,
        max_row_sum_err=err,
        is_markov=bool(min_entry >= -_MARKOV_TOL and err <= _MARKOV_TOL),
    )


def export_operator(op: TransitionOperator, path) -> None:
    """Write the matrix as sorted ``row col value`` triplets (debug aid), a
    block of ``_EXPORT_ROWS`` rows at a time.  The rows of ``S`` are the
    transpose of the stored arrays, made by scipy's ``csr_tocsc`` kernel."""
    n = op.grid.ncells
    indptr, indices, data = map(np.empty_like, (op.indptr, op.indices, op.data))
    _sparsetools.csr_tocsc(n, n, op.indptr, op.indices, op.data, indptr, indices, data)
    with open(path, "w") as fh:
        fh.write(f"# cells={n} dt={op.dt:.17g}\n")
        for r0 in range(0, n, _EXPORT_ROWS):
            ptr = indptr[r0:r0 + _EXPORT_ROWS + 1]
            rows = np.repeat(np.arange(r0, r0 + len(ptr) - 1), np.diff(ptr))
            block = slice(ptr[0], ptr[-1])
            triplets = zip(rows.tolist(), indices[block].tolist(), data[block].tolist())
            fh.write("%d %d %.17g\n" * len(rows) % tuple(chain.from_iterable(triplets)))
