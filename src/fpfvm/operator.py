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
of that same matrix.  Densities are converted to mass vectors at the module
boundary; all evolution is a deterministic sequence of sparse matrix-vector
products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .density import Density
from .grid import Grid
from .velocity import EdgeFluxes

_CFL_SLACK = 1e-12  # relative slack so dt == dt_max assembles cleanly


class CflViolation(ValueError):
    """The requested time step would make a diagonal entry negative."""

    def __init__(self, msg: str, binding_cell: int | None = None):
        super().__init__(msg)
        self.binding_cell = binding_cell


class NoConvergence(RuntimeError):
    """Power iteration did not settle within the iteration budget."""


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


def _cell_outflow(fluxes: EdgeFluxes, grid: Grid) -> np.ndarray:
    t = grid.edges
    f = fluxes.values
    out = np.zeros(grid.ncells + 1)  # index -1, the outside, is the last slot
    np.add.at(out, t.cell_a, np.maximum(f, 0.0))
    np.add.at(out, t.cell_b, np.maximum(-f, 0.0))
    return out[:-1]


def max_stable_dt(fluxes: EdgeFluxes, grid: Grid, xi: float) -> CflReport:
    """Largest dt with ``dt * outflow_K <= (1 - xi) |K|`` for every cell.

    Returns an infinite dt (and no binding cell) when nothing flows.
    """
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"xi must lie in [0, 1), got {xi}")
    outflow = _cell_outflow(fluxes, grid)
    peak = outflow.max() if outflow.size else 0.0
    if peak <= 0.0:
        return CflReport(dt_max=np.inf, xi=float(xi), binding_cell=None)
    binding = int(np.argmax(outflow))
    return CflReport(
        dt_max=(1.0 - xi) * grid.cell_volume / peak,
        xi=float(xi),
        binding_cell=binding,
    )


def assemble(fluxes: EdgeFluxes, grid: Grid, dt: float,
             check_cfl: bool = True) -> TransitionOperator:
    """Build the upwind transition matrix for time step ``dt``.

    With ``check_cfl`` (the default) a step that would produce a negative
    diagonal raises :class:`CflViolation`; disabling the check is for
    negative tests of the positivity property only.
    """
    if fluxes.grid != grid:
        raise ValueError("fluxes were computed on a different grid")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    t = grid.edges
    f = fluxes.values
    nc = grid.ncells
    vol = grid.cell_volume

    outflow = _cell_outflow(fluxes, grid)
    load = dt * outflow / vol
    if check_cfl and np.any(load > 1.0 + _CFL_SLACK):
        binding = int(np.argmax(load))
        raise CflViolation(
            f"dt={dt} violates the step-size bound at cell {binding}: "
            f"dt * outflow / |K| = {load[binding]:.6g} > 1",
            binding_cell=binding,
        )
    diag = 1.0 - load
    tiny = (diag < 0.0) & (diag >= -_CFL_SLACK)
    diag[tiny] = 0.0

    interior = t.interior
    pos = interior & (f > 0.0)   # donor cell_a -> cell_b
    neg = interior & (f < 0.0)   # donor cell_b -> cell_a
    # left-action triplets: row = receiving cell, column = donor cell
    rows = np.concatenate([np.arange(nc), t.cell_b[pos], t.cell_a[neg]])
    cols = np.concatenate([np.arange(nc), t.cell_a[pos], t.cell_b[neg]])
    vals = np.concatenate([diag, dt * f[pos] / vol, dt * (-f[neg]) / vol])
    left = sparse.coo_matrix((vals, (rows, cols)), shape=(nc, nc)).tocsr()
    left.sum_duplicates()
    left.sort_indices()

    # outflow through a Dirichlet face: up through a high face, down through a low one
    leaks = np.any((f > 0.0) & (t.cell_b < 0)) or np.any((f < 0.0) & (t.cell_a < 0))
    return TransitionOperator(
        dt=dt, left=left, grid=grid, mass_conserving=not bool(leaks),
    )


def step(op: TransitionOperator, density: Density) -> Density:
    """Advance one time step: m' = m S on the mass vector."""
    if density.grid != op.grid:
        raise ValueError("density and operator live on different grids")
    m = density.values * op.grid.cell_volume
    m2 = op._left @ m
    return Density(m2 / op.grid.cell_volume, op.grid)


def evolve(op: TransitionOperator, density: Density, t: float) -> Density:
    """Apply ``floor(t / dt)`` steps (piecewise-constant in time).

    Times within a relative 1e-9 below a step boundary snap up, so callers
    that compute t as a float multiple of dt get the intended step count.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    k = int(np.floor(t / op.dt + 1e-9))
    out = density
    for _ in range(k):
        out = step(op, out)
    return out


def verify_markov(op: TransitionOperator, tol: float = 1e-12) -> MarkovReport:
    """Check stochasticity: entries >= -tol, row sums within tol of one."""
    left = op._left
    data = left.data
    min_entry = float(data.min()) if data.size else 1.0
    # rows of S are the columns of the stored left-action matrix
    row_sums = np.bincount(left.indices, weights=data, minlength=left.shape[1])
    err = float(np.abs(row_sums - 1.0).max())
    return MarkovReport(
        min_entry=min_entry,
        max_row_sum_err=err,
        is_markov=bool(min_entry >= -tol and err <= tol),
    )


def stationary(op: TransitionOperator, tol: float = 1e-10,
               max_iter: int = 10000) -> Density:
    """Leading left fixed vector by power iteration from the uniform density.

    Stops when successive iterates differ by less than ``tol`` in L1; raises
    :class:`NoConvergence` otherwise (periodic or reducible chains may never
    settle).  Requires a mass-conserving operator.
    """
    if not op.mass_conserving:
        raise ValueError("stationary distribution needs a mass-conserving operator")
    nc = op.grid.ncells
    m = np.full(nc, 1.0 / nc)
    for _ in range(max_iter):
        m2 = op._left @ m
        if np.abs(m2 - m).sum() < tol:
            dens = m2 / (m2.sum() * op.grid.cell_volume)
            return Density(dens, op.grid)
        m = m2
    raise NoConvergence(f"power iteration did not converge in {max_iter} iterations")


def export_operator(op: TransitionOperator, path) -> None:
    """Write the matrix as sorted ``row col value`` triplets (debug aid)."""
    S = op.matrix.tocsr()
    with open(path, "w") as fh:
        fh.write(f"# cells={op.grid.ncells} dt={op.dt:.17g}\n")
        indptr, indices, data = S.indptr, S.indices, S.data
        for i in range(S.shape[0]):
            for k in range(indptr[i], indptr[i + 1]):
                fh.write(f"{i} {indices[k]} {data[k]:.17g}\n")
