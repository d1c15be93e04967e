"""Work on the two halves of a large grid's cells at once.

On a grid or operator of at least ``_SPLIT_ROWS`` cells, in a process allowed
more than one CPU, :func:`~fpfvm.operator.step`, :func:`~fpfvm.operator.assemble`
and the upwind outflow of :func:`~fpfvm.velocity.compute_fluxes` work on two
halves at once (:func:`_split`): the calling thread the lower half, and one
daemon helper thread, started on the first such split, the upper half.  None
of them calls user code, so a velocity field, pdf or likelihood only ever
runs on the calling thread.  The caller hands
the upper half over with one lock and waits on a second for the helper to
finish it.  The set-up layers cut the cells at :func:`_layer_cut`, a whole
layer of the last axis, and each thread reads and writes the faces of its
own cells through :func:`_rows_part`, the one statement of which faces of a
face block feed which rows and the one place a face block is cut (the
assembly also writes each half in slabs of whole layers through it); a step
cuts its rows in the middle.  No cell is written by both threads and each
sums its terms in the one-thread order, so every result is bit-identical to
the one-thread one.
An exception in the helper's half is re-raised by the caller.  A caller
whose own half raises, or whose wait is interrupted, drops the helper, and
so does a forked child; the next split starts a new one.
"""

from __future__ import annotations

import functools
import os
import threading

# smallest grid whose step and set-up are split over two threads; below it
# (the N=200 filter's 40,000 rows) the hand-off costs more than half a
# mat-vec saves
_SPLIT_ROWS = 1 << 16
_split_lock = threading.Lock()  # held by the one thread inside a split


def _layer_cut(grid) -> int:
    """The cells of the lower half of the last axis's layers, where the set-up
    of ``grid`` is split; 0 (no cut) below ``_SPLIT_ROWS`` cells."""
    layer = grid.ncells // grid.n[-1]
    return grid.n[-1] // 2 * layer if grid.ncells >= _SPLIT_ROWS else 0


def _by_halves(cut: int, n: int, fn, *args) -> None:
    """``fn(r0, r1, *args)`` on the rows ``[0, cut)`` on this thread and
    ``[cut, n)`` on the helper (:func:`_split`), or on all ``n`` rows on this
    thread where there is no ``cut`` or no split."""
    if not (cut and _split((fn, 0, cut, *args), (fn, cut, n, *args))):
        fn(0, n, *args)


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
    """A daemon thread that runs the upper half of one split at a time: the
    caller sets ``call`` to ``(fn, *args)`` and releases ``start``; the
    thread runs ``fn(*args)``, keeps any exception in ``error`` and releases
    ``done``."""

    def __init__(self):
        self.start, self.done = threading.Lock(), threading.Lock()
        self.start.acquire()
        self.done.acquire()
        self.call: tuple = ()
        self.error: BaseException | None = None
        threading.Thread(target=self._serve, name="fpfvm-helper", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.start.acquire()
            try:
                # no local names: a frame parked on ``start`` keeps no arrays
                self.call[0](*self.call[1:])
                self.error = None
            except BaseException as exc:  # re-raised by the waiting caller
                self.error = exc
            self.call = ()  # hold no split's arrays between splits
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


def _split(lower: tuple, upper: tuple) -> bool:
    """Run ``upper`` on the helper and ``lower`` on this thread, each a
    ``(fn, *args)``, and return True once both are done.  Return False,
    having run neither, with one CPU or while another thread is inside a
    split.  An exception in either half reaches the caller."""
    if not _split_lock.acquire(blocking=False):
        return False
    try:
        helper = _helper()
        if helper is None:
            return False
        try:
            helper.call = upper
            helper.start.release()
            lower[0](*lower[1:])
            helper.done.acquire()
        except BaseException:
            # the helper may yet signal this split: the next one starts a new one
            _helper.cache_clear()
            raise
        error, helper.error = helper.error, None  # keeps no failed split's arrays
        if error is not None:
            raise error
        return True
    finally:
        _split_lock.release()
