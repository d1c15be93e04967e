"""Allocation budgets of the set-up layers and the matrix export on the N=200 pendulum.

``tracemalloc`` sees every numpy allocation, so each peak below is
deterministic: it counts the arrays a call keeps plus the temporaries it
holds at its worst moment.  The budgets leave room for a few float working
arrays per layer, not for index temporaries the size of the face table, nor
for a second copy of the matrix.  No set-up layer builds the face table.
"""

import tracemalloc

import numpy as np
import pytest

from fpfvm import BoxDomain, build_grid
from fpfvm.cli import main
from fpfvm.operator import assemble, export_operator, max_stable_dt, verify_markov
from fpfvm.velocity import compute_fluxes, pendulum_field

N = 200
DOMAIN = BoxDomain((-np.pi, -np.pi), (np.pi, np.pi))
BC = ("periodic", "neumann")


def _traced(fn, *args):
    """``fn(*args)`` and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def fluxes():
    return compute_fluxes(pendulum_field(), build_grid(DOMAIN, (N, N), BC))


def test_build_grid_allocates_only_what_it_keeps():
    grid, peak = _traced(build_grid, DOMAIN, (N, N), BC)
    assert "edges" not in vars(grid)  # only the cell midpoints: no face table yet
    assert peak <= 1.05 * grid.cell_midpoints.nbytes


def test_compute_fluxes_peak(fluxes):
    out, peak = _traced(compute_fluxes, pendulum_field(), fluxes.grid)
    assert peak <= 2.9 * (out.values.nbytes + out.outflow.nbytes)


def test_assemble_peak(fluxes):
    dt = max_stable_dt(fluxes, 0.3).dt_max
    op, peak = _traced(assemble, fluxes, dt)
    left = op._left
    assert peak <= 1.95 * (left.data.nbytes + left.indices.nbytes + left.indptr.nbytes)


def test_verify_markov_peak(fluxes):
    op = assemble(fluxes, max_stable_dt(fluxes, 0.3).dt_max)
    _, peak = _traced(verify_markov, op)
    assert peak <= 2.1 * 8 * op.grid.ncells  # the row sums and a vector of ones


def test_export_operator_peak(fluxes, tmp_path):
    op = assemble(fluxes, max_stable_dt(fluxes, 0.3).dt_max)
    _, peak = _traced(export_operator, op, tmp_path / "operator.txt")
    assert peak <= 8e6  # a block of rows as text, not every triplet at once


def test_operator_command_builds_no_face_table(tmp_path, monkeypatch, capsys):
    def no_table(grid):
        raise AssertionError("the face table was built")

    monkeypatch.setattr("fpfvm.grid._build_edge_table", no_table)
    for bc in ("periodic,neumann", "periodic,periodic", "dirichlet,dirichlet"):
        assert main(["operator", "--n", "16,16", "--bc", bc, "--out", str(tmp_path)]) == 0
