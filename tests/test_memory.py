"""Allocation budgets of the set-up layers, the matrix export and ``evolve`` on
the N=200 pendulum (``evolve`` also at N=256, where a step splits), and of the
flux build (also of a field whose fluxes take passes), the CFL
bound, the assembly (split over two threads, and on one) and the row sums
at N=800.

``tracemalloc`` sees every numpy allocation, so each peak below is
deterministic: it counts the arrays a call keeps plus the temporaries it
holds at its worst moment.  The budgets leave room for a few float working
arrays per layer, not for index temporaries the size of the face table, nor
for a second copy of the matrix.  No set-up layer builds the face table.
The prior's projection and the Bayes update call their pdf and likelihood on
the open mesh of the cell centres, so neither builds ``(ncells, d)`` points.
"""

import tracemalloc

import numpy as np
import pytest

from fpfvm import BoxDomain, VelocityField, build_grid, gaussian_pdf, normalize, project
from fpfvm.cli import main
from fpfvm.filtering import bayes_update, gaussian_abs_position_model
from fpfvm.operator import assemble, evolve, export_operator, max_stable_dt, verify_markov
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
    assert "edges" not in vars(grid)  # no face table yet
    # a few Python objects (2.1 KB measured at N=200 and at N=800), against
    # the 320 KB of one per-cell float array
    assert peak <= 2560


def _output_bytes(fluxes):
    """The bytes ``compute_fluxes`` returns: its face blocks and the outflow."""
    return sum(b.nbytes for b in fluxes.blocks) + fluxes.outflow.nbytes


def _fluxes_peak(n, quadrature, field=None):
    """``compute_fluxes``' peak on the N x N pendulum, or on ``field``, over
    the bytes it returns.

    The first Gauss rule of a process imports ``numpy.polynomial`` for its
    nodes and keeps 0.7 MB of module objects for the process's life; a call
    on a small grid takes that import out of the traced one."""
    field = field or pendulum_field()
    compute_fluxes(field, build_grid(DOMAIN, (4, 4), BC), quadrature)
    out, peak = _traced(compute_fluxes, field, build_grid(DOMAIN, (n, n), BC), quadrature)
    return peak / _output_bytes(out)


def test_compute_fluxes_peak():
    """The field sees each face block's coordinate vectors and the pendulum's
    fluxes keep the shape of its components, three blocks of N values, so
    the output is little more than the outflow and no working array has one
    value per face: 1.62-1.63 times the output measured under each rule at
    N=200, the rest numpy's iteration buffers (3 x 8192 floats) for the
    outflow's broadcast adds, summed in one pass on the calling thread.  That
    is 0.53 MB; the flat fluxes of one value per face peaked at 1.13 MB."""
    for quadrature in ("midpoint", "gauss2", "gauss3"):
        assert _fluxes_peak(N, quadrature) <= 1.7, quadrature


@pytest.mark.parametrize("quadrature", ["midpoint", "gauss2"])
def test_compute_fluxes_peak_in_chunks(quadrature):
    """At N=800 the pendulum's fluxes are 2,400 values and the outflow 640k:
    1.04 times the output measured under each rule, the outflow summed in one
    pass on the calling thread, whose one set of iteration buffers is the
    rest (1.05-1.08 with a second set on a helper thread; the flat fluxes
    read 1.05 times three times the bytes)."""
    assert _fluxes_peak(800, quadrature) <= 1.06


def _non_separable(xs):
    return np.sin(xs[0] + xs[1]), np.cos(xs[0] - xs[1])


@pytest.mark.parametrize("quadrature", ["midpoint", "gauss2"])
def test_compute_fluxes_peak_of_a_non_separable_field(quadrature):
    """Components that read every coordinate keep one flux per face, summed
    into each block in passes of at most 2**16 faces, so the working arrays
    stay a fraction of the output: 1.05-1.06 times it measured at N=800
    (1.33 and 1.67 times with one pass per block)."""
    field = VelocityField(_non_separable, 2)
    assert _fluxes_peak(800, quadrature, field) <= 1.1


@pytest.mark.parametrize("quadrature", ["midpoint", "gauss2"])
def test_project_peak(quadrature):
    """The pdf runs on each node's open mesh and its values are summed into the
    cube of cells, so no ``(ncells, d)`` points are built: 4.04 times the
    output measured under each rule at N=200 (8.03 on the points)."""
    pdf = gaussian_pdf((0.0, 0.0), 0.64)
    project(pdf, build_grid(DOMAIN, (4, 4), BC), quadrature)  # imports the rule's nodes
    out, peak = _traced(project, pdf, build_grid(DOMAIN, (N, N), BC), quadrature)
    assert peak <= 4.2 * out.values.nbytes


def test_bayes_update_peak():
    """The likelihood runs on the open mesh of the cell centres (the
    pendulum's reads 200 angles), and the values are weighted as the cube of
    cells: 2.01 times the output measured at N=200 (4.00 on the points)."""
    grid = build_grid(DOMAIN, (N, N), BC)
    values = normalize(project(gaussian_pdf((0.0, 0.0), 0.64), grid)).values
    (post, _), peak = _traced(bayes_update, values, grid,
                              gaussian_abs_position_model(0.1), 0.5, 0.0)
    assert peak <= 2.2 * post.nbytes


@pytest.fixture(scope="module")
def fluxes800():
    return compute_fluxes(pendulum_field(), build_grid(DOMAIN, (800, 800), BC))


def test_pendulum_fluxes_hold_a_value_per_coordinate(fluxes800):
    """The pendulum's x2 and -sin x1 each read one coordinate, so each of its
    three face blocks holds 800 values: 2,400 in all, for 1,279,200 faces."""
    grid = fluxes800.grid
    assert [b.size for b in fluxes800.blocks] == [800, 800, 800]
    assert grid.face_offsets[-1] == 1_279_200


@pytest.mark.parametrize("quadrature, calls", [("midpoint", 4), ("gauss2", 8)])
def test_pendulum_fluxes_take_a_pass_per_kept_chunk(quadrature, calls):
    """After its first pass a block takes passes of at most 2**16 of the
    values it keeps, not of its faces: the interior axis-0 block (x2 along
    799 faces per row) takes a pass of 82 rows and one of the other 718, and
    the wrap and axis-1 blocks one each, so the field runs once per node on
    four passes (12 passes with later passes of 2**16 faces)."""
    field = pendulum_field()
    seen = []
    counted = VelocityField(lambda xs: seen.append(1) or field.func(xs), 2)
    compute_fluxes(counted, build_grid(DOMAIN, (800, 800), BC), quadrature)
    assert len(seen) == calls


def test_max_stable_dt_peak(fluxes800):
    """The first peak of the read-only outflow is found through a bool mask,
    one byte per cell, not through ``np.argmax``'s copy of it (8 bytes per
    cell); 1.0008 bytes per cell measured, the rest a few Python objects."""
    report, peak = _traced(max_stable_dt, fluxes800, 0.3)
    assert report.binding_cell == np.argmax(fluxes800.outflow)
    assert peak <= 1.01 * fluxes800.grid.ncells


def _assemble_peak(fluxes):
    """``assemble``'s peak over the bytes of the CSR arrays it returns."""
    op, peak = _traced(assemble, fluxes, max_stable_dt(fluxes, 0.3).dt_max)
    return peak / (op.data.nbytes + op.indices.nbytes + op.indptr.nbytes)


def test_assemble_peak(fluxes, fluxes800):
    """``indptr`` is the write cursor of its own rows, so past the CSR arrays
    only one write slab's temporaries are live: 1.47 times at N=200 and
    1.08 at N=800 measured, where two threads each write slabs of half the
    size (1.23 with two full-size passes); an int64 cursor array beside it
    reads 1.79 and 1.33."""
    assert _assemble_peak(fluxes) <= 1.65
    assert _assemble_peak(fluxes800) <= 1.15


def test_assemble_peak_on_one_thread(fluxes800, monkeypatch):
    """Without a helper the N=800 build writes every row on one thread, in
    full-size slabs, within the same budget: 1.08 times measured."""
    monkeypatch.setattr("fpfvm.operator._helper", lambda: None)
    assert _assemble_peak(fluxes800) <= 1.15


def test_verify_markov_peak(fluxes, fluxes800):
    """The row sums and one vector of ones, of ``_EXPORT_ROWS`` values, for
    all the blocks of columns: 1.205 times the row sums measured at N=200
    and 1.013 at N=800 (2.00 with a full-length vector of ones)."""
    for fx, budget in ((fluxes, 1.25), (fluxes800, 1.05)):
        op = assemble(fx, max_stable_dt(fx, 0.3).dt_max)
        _, peak = _traced(verify_markov, op)
        assert peak <= budget * 8 * op.grid.ncells


@pytest.mark.parametrize("n", [N, 256])
def test_evolve_holds_two_mass_vectors(n):
    """The stepped mass is divided back in place, so the loop holds a step's
    input and output and the exit the mass and the result's copy: 2.13 times
    the mass vector's bytes measured over 20 steps at N=200 (one thread) and
    at N=256 (a split step), against 3.13 with ``m / vol`` beside them."""
    grid = build_grid(DOMAIN, (n, n), BC)
    prior = normalize(project(gaussian_pdf((0.0, 0.0), 0.64), grid))
    fx = compute_fluxes(pendulum_field(), grid)
    op = assemble(fx, max_stable_dt(fx, 0.3).dt_max)
    evolve(op, prior, op.dt)  # a split step's helper starts outside the trace
    _, peak = _traced(evolve, op, prior, 20 * op.dt)
    assert peak <= 2.2 * prior.values.nbytes


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

