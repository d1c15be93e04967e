"""Reference builders the tests compare the library against.

The point path: the ``(m, d)`` points of a tensor grid (:func:`lattice`), the
cell centres as such points, a field, pdf or log-likelihood called on points
(on their coordinate columns), and the Gaussian pdf and Bayes update computed on
points; the library evaluates every such function on the open mesh of
per-axis coordinate vectors instead.

The set-up layers work on the face table ``grid.edges``: the face fluxes from
the field evaluated at ``(m, d)`` face points gathered through the table,
node by node, and with direct scatters the
per-cell face sums and upwind outflow as two ``np.add.at`` passes, the
transition matrix as one set of ``(row, col, value)`` triplets summed by
scipy's COO-to-CSR conversion, and the row sums of ``verify_markov`` as a
``bincount`` over the column indices.  The library builds the same arrays
from cube slices of the face blocks, without the table.
"""

import math

import numpy as np
import scipy.sparse as sparse

from fpfvm.grid import mesh
from fpfvm.operator import (
    _CFL_SLACK,
    _MARKOV_TOL,
    CflViolation,
    MarkovReport,
    TransitionOperator,
)


def lattice(coords):
    """The ``(m, d)`` points of the tensor grid of ``coords``, axis 0 fastest:
    the columns are the :func:`~fpfvm.grid.mesh` broadcast and flattened."""
    open_mesh = mesh(coords)
    pts = np.empty((*np.broadcast_shapes(*(c.shape for c in open_mesh)), len(coords)))
    for a, c in enumerate(open_mesh):
        pts[..., a] = c
    return pts.reshape(-1, len(coords))


def cell_midpoints(grid):
    """The ``(ncells, d)`` cell centres in flat order."""
    return lattice([grid.centres(a) for a in range(grid.domain.d)])


def field_at(field, pts):
    """The ``(..., d)`` velocities of ``field`` at the ``(..., d)`` points
    ``pts``: its ``func`` called on their coordinate columns."""
    pts = np.asarray(pts, dtype=float)
    v = np.empty(pts.shape)
    for a, comp in enumerate(field.func(tuple(pts.T))):
        v.T[a] = comp
    return v


def point_gaussian_pdf(mean, cov):
    """The normal pdf of ``mean`` and the ``(d, d)`` matrix ``cov`` on ``(m, d)``
    points, its quadratic form one ``einsum``."""
    mean = np.asarray(mean, dtype=float)
    prec = np.linalg.inv(cov)
    norm = 1.0 / np.sqrt(((2.0 * np.pi) ** mean.size) * np.linalg.det(cov))

    def pdf(x):
        dx = x - mean
        return norm * np.exp(-0.5 * np.einsum("...i,ij,...j->...", dx, prec, dx))

    return pdf


def point_bayes_update(values, grid, log_likelihood, z, log_evidence):
    """``bayes_update`` with ``log_likelihood`` called on the ``(ncells,)``
    coordinate columns of the cell centres."""
    ll = np.asarray(log_likelihood(z, tuple(cell_midpoints(grid).T)), dtype=float)
    mx = ll.max()
    unnorm = values * np.exp(ll - mx)
    scaled = unnorm.sum() * grid.cell_volume
    return unnorm / scaled, log_evidence + mx + float(np.log(scaled))


def flat_fluxes(fluxes):
    """The flux of every face in the grid's face order: each of
    ``fluxes.blocks`` broadcast to its block's cube and flattened."""
    grid = fluxes.grid
    out = np.empty(grid.face_offsets[-1])
    for (_, (high, _, low), _, _, faces), block in zip(grid.face_blocks(), fluxes.blocks):
        out[faces].reshape(high, -1, low)[...] = block
    return out


def face_sums(grid, at_a, at_b):
    """Sum ``at_a`` into each face's ``cell_a`` and ``at_b`` into its ``cell_b``."""
    t = grid.edges
    out = np.zeros(grid.ncells + 1)  # index -1, the outside, is the last slot
    np.add.at(out, t.cell_a, at_a)
    np.add.at(out, t.cell_b, at_b)
    return out[:-1]


def upwind_outflow(grid, flux):
    """Per-cell ``sum_L (v_KL)_+`` of the face fluxes ``flux``."""
    return face_sums(grid, np.maximum(flux, 0.0), np.maximum(-flux, 0.0))


def face_points(grid, quadrature):
    """Yield ``(axis, faces, weight, points)`` for every face block and node of
    ``quadrature``, node by node in ``np.ndindex`` order within each block:
    the ``(m, d)`` points are the centre of each face's cell inside the box
    moved half a cell along the face's axis, and moved ``0.5 * h * node``
    along the face's other axes."""
    t = grid.edges
    d = grid.domain.d
    axes = np.repeat(np.arange(d), np.diff(grid.face_offsets))
    outside = t.cell_a < 0
    mids = cell_midpoints(grid)[np.where(outside, t.cell_b, t.cell_a)]
    mids[np.arange(len(t)), axes] += np.where(outside, -0.5, 0.5) * np.asarray(grid.h)[axes]
    k = 1 if quadrature == "midpoint" else int(quadrature[5:])
    nodes, weights = ((0.0,), (2.0,)) if k == 1 else np.polynomial.legendre.leggauss(k)
    for axis, _, _, _, faces in grid.face_blocks():
        others = [j for j in range(d) if j != axis]
        for combo in np.ndindex(*(k,) * len(others)):
            pts = mids[faces].copy()
            for j, ax in zip(combo, others):
                pts[:, ax] = mids[faces, ax] + 0.5 * grid.h[ax] * nodes[j]
            yield axis, faces, math.prod((weights[j] / 2.0 for j in combo), start=1.0), pts


def point_fluxes(field, grid, quadrature):
    """Face fluxes and upwind outflow with ``field`` called on the ``(m, d)``
    points of :func:`face_points`."""
    flux = np.zeros(grid.face_offsets[-1])
    for axis, faces, w, pts in face_points(grid, quadrature):
        flux[faces] += w * field_at(field, pts)[:, axis]
    flux *= grid.cell_volume / np.repeat(grid.h, np.diff(grid.face_offsets))
    return flux, upwind_outflow(grid, flux)


def triplet_assemble(fluxes, dt):
    """The upwind transition operator from left-action triplets: the
    diagonal, then the faces with ``f > 0``, then those with ``f < 0``."""
    grid = fluxes.grid
    t = grid.edges
    f = flat_fluxes(fluxes)
    nc = grid.ncells
    vol = grid.cell_volume
    leaks = np.any((f > 0.0) & (t.cell_b < 0)) or np.any((f < 0.0) & (t.cell_a < 0))
    load = dt * fluxes.outflow / vol
    binding = int(np.argmax(load))
    if load[binding] > 1.0 + _CFL_SLACK:
        raise CflViolation(f"dt={dt} violates the step-size bound at cell {binding}")
    diag = 1.0 - load
    diag[(diag < 0.0) & (diag >= -_CFL_SLACK)] = 0.0
    interior = (t.cell_a >= 0) & (t.cell_b >= 0)
    pos = interior & (f > 0.0)  # donor cell_a -> cell_b
    neg = interior & (f < 0.0)  # donor cell_b -> cell_a
    cells = np.arange(nc, dtype=np.int32)
    rows = np.concatenate([cells, t.cell_b[pos], t.cell_a[neg]])
    cols = np.concatenate([cells, t.cell_a[pos], t.cell_b[neg]])
    vals = np.concatenate([diag, f[pos] * dt / vol, -f[neg] * dt / vol])
    left = sparse.coo_matrix((vals, (rows, cols)), shape=(nc, nc)).tocsr()
    return TransitionOperator(dt, left.indptr, left.indices, left.data, grid,
                              mass_conserving=not leaks)


def bincount_markov(op):
    """``verify_markov``'s report with the row sums of ``S`` from ``bincount``."""
    min_entry = float(op.data.min()) if op.data.size else 1.0
    excess = np.bincount(op.indices, weights=op.data, minlength=op.grid.ncells) - 1.0
    if op.mass_conserving:
        excess = np.abs(excess)
    err = max(float(excess.max()), 0.0)
    return MarkovReport(min_entry=min_entry, max_row_sum_err=err,
                        is_markov=bool(min_entry >= -_MARKOV_TOL and err <= _MARKOV_TOL))
