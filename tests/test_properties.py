"""Property tests of the assembled operator and the filter diagnostics.

Operator examples draw a 1-3D box, per-axis boundary kinds, a field (constant
in any dimension; rotation or pendulum in 2D) and a step ``dt <= dt_max``,
then check the paper's invariants: the per-cell upwind outflow
``fluxes.outflow`` (read-only, its argmax the binding cell of the step
bound) equal to the face scatter of the flux parts, nonnegative entries,
stochastic rows
without Dirichlet outflow and substochastic ones with it (both accepted by
``verify_markov``), a canonical CSR matrix (also where both faces of a
2-cell periodic axis join the same cells), conserved mass, positivity,
``evolve`` agreeing bit for bit with repeated ``step`` on the mass vector
(and rejecting a time whose step count overflows), ``evolve`` and a filter
run without observations both taking the ``step_count`` of a time between
two steps (ties included) in steps, and, with a Dirichlet
axis, the mass a step loses equal to the upwind outflow through the
boundary faces.  On random signed face fluxes (exact zeros of both signs
included, every boundary mix, 2-cell periodic axes drawn often, each face
block at a random reduced shape) the outflow, the CSR arrays
and flags of ``assemble`` and the report of ``verify_markov`` equal, bit for
bit, those of the face-table reference builders in ``reference_builders``.
With the split gate lowered to one row, ``step`` splits every operator's
rows between the caller and a helper thread (one started for the test on
one CPU), and its result equals scipy's ``op.matrix.T @ m`` bit for bit; so
does ``assemble`` (in passes of any size), whose CSR arrays and flag equal
the one-thread build's bit for bit.  ``compute_fluxes`` splits nothing: it
calls the field and sums the outflow on the calling thread only, and its
values and outflow, in quadrature passes of any size, equal the one-pass
ones and the face-table reference's, in 1-3D under every boundary mix and
rule, on linear fields whose fluxes take both signs; a non-finite flux in
the upper layers, or a field that raises, fails only its call.  The row-sum
error of ``verify_markov`` equals that of three full passes over the row
sums.

Diagnostic examples check ``moments`` and ``count_modes`` against the direct
formulas they replace, kept here as reference implementations, that the
cell centres ``moments`` uses along an axis are the cell midpoints of that
axis's 1D grid bit for bit, that ``gaussian_pdf`` and ``project`` on the
coordinate mesh and ``bayes_update`` equal, bit for bit, their point-path
references (an ``einsum`` quadratic form on ``(m, d)`` points, and the
likelihood on the columns of the cell midpoints), or where the update
raises ``ZeroEvidence``, that the point path has no likelihood-weighted mass
either, that the mode count on a
periodic axis does not depend on where the ring is cut, and that the batched
counter the filter uses on a block of profiles gives each row the
reference's count.
"""

import contextlib
import functools
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpfvm import (
    BoxDomain,
    Density,
    ObservationSequence,
    ZeroEvidence,
    assemble,
    bayes_update,
    build_grid,
    compute_fluxes,
    constant_field,
    count_modes,
    evolve,
    gaussian_abs_position_model,
    gaussian_pdf,
    max_stable_dt,
    moments,
    pendulum_field,
    project,
    rotation_field,
    run_filter,
    step,
    step_count,
    verify_markov,
)
from fpfvm import density as density_module
from fpfvm import filtering as filtering_module
from fpfvm import operator as operator_module
from fpfvm import velocity as velocity_module
from fpfvm.operator import TransitionOperator
from fpfvm.grid import mesh
from fpfvm.velocity import EdgeFluxes, VelocityField, _upwind_outflow, tensor_rule
from fpfvm.density import _count_modes_rows
from reference_builders import (
    bincount_markov,
    cell_midpoints,
    flat_fluxes,
    lattice,
    point_bayes_update,
    point_fluxes,
    point_gaussian_pdf,
    triplet_assemble,
    upwind_outflow,
)

BCS = ("periodic", "neumann", "dirichlet")
MAX_CELLS = {1: 24, 2: 10, 3: 5}


@st.composite
def flux_operators(draw, dirichlet=False):
    """(fluxes, operator); ``dirichlet`` makes at least one axis Dirichlet."""
    d = draw(st.integers(1, 3))
    n = tuple(draw(st.lists(st.integers(2, MAX_CELLS[d]), min_size=d, max_size=d)))
    bc = list(draw(st.lists(st.sampled_from(BCS), min_size=d, max_size=d)))
    if dirichlet:
        bc[draw(st.integers(0, d - 1))] = "dirichlet"
    kinds = ["constant"] + (["rotation", "pendulum"] if d == 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "pendulum":
        lower, upper = (-np.pi, -np.pi), (np.pi, np.pi)
        field = pendulum_field()
    else:
        lower = tuple(draw(st.lists(st.floats(-3.0, 0.0), min_size=d, max_size=d)))
        widths = draw(st.lists(st.floats(0.5, 4.0), min_size=d, max_size=d))
        upper = tuple(lo + w for lo, w in zip(lower, widths))
        if kind == "rotation":
            field = rotation_field()
        else:
            comps = draw(st.lists(st.floats(-3.0, 3.0, allow_subnormal=False),
                                  min_size=d, max_size=d))
            field = constant_field(comps)
    grid = build_grid(BoxDomain(lower, upper), n, bc)
    fluxes = compute_fluxes(field, grid, draw(st.sampled_from(["midpoint", "gauss2"])))
    dt_max = max_stable_dt(fluxes, 0.0).dt_max
    frac = draw(st.floats(0.01, 1.0))
    dt = frac * dt_max if np.isfinite(dt_max) else frac
    return fluxes, assemble(fluxes, dt)


def operators():
    return flux_operators().map(lambda pair: pair[1])


def _two_cell_ring():
    """A 2-cell periodic axis whose two faces both carry mass from cell 1 to
    cell 0: the assembly sees two triplets for one matrix entry."""
    grid = build_grid(BoxDomain((-1.0,), (1.0,)), (2,), ("periodic",))
    field = VelocityField(lambda xs: (xs[0] - 0.5,), dim=1)
    fluxes = compute_fluxes(field, grid)
    return fluxes, assemble(fluxes, 0.5)


def _random_density(grid, seed):
    vals = np.random.default_rng(seed).random(grid.ncells)
    return Density(vals / (vals.sum() * grid.cell_volume), grid)


@settings(max_examples=60, deadline=None)
@given(pair=flux_operators())
@example(pair=_two_cell_ring())
def test_entries_nonnegative_rows_stochastic(pair):
    fluxes, op = pair
    # the one outflow pass behind both the step bound and the diagonal
    f, outflow = flat_fluxes(fluxes), fluxes.outflow
    assert np.array_equal(outflow, upwind_outflow(op.grid, f))
    assert not outflow.flags.writeable
    binding = int(np.argmax(outflow)) if outflow.max() > 0.0 else None
    assert max_stable_dt(fluxes, 0.0).binding_cell == binding
    S = op.matrix
    assert S.has_canonical_format  # sorted indices, duplicates summed
    assert S.data.min() >= 0.0
    row_sums = np.asarray(S.sum(axis=1)).ravel()
    if "dirichlet" in op.grid.bc:
        assert row_sums.max() <= 1.0 + 1e-12  # outflow only: substochastic
    else:
        assert np.abs(row_sums - 1.0).max() <= 1e-12
    assert verify_markov(op).is_markov


@st.composite
def random_fluxes(draw):
    """EdgeFluxes of random signed values, exact zeros of both signs
    included, on a 1-3D grid with any boundary mix; 2-cell axes are drawn
    often.  Each face block keeps extent 1 on a random choice of the groups
    of its cube ``(high, k, low)``, as the fluxes of a component that does
    not vary along them do."""
    d = draw(st.integers(1, 3))
    sizes = st.one_of(st.just(2), st.integers(2, MAX_CELLS[d]))
    n = tuple(draw(st.lists(sizes, min_size=d, max_size=d)))
    bc = draw(st.lists(st.sampled_from(BCS), min_size=d, max_size=d))
    grid = build_grid(BoxDomain((0.0,) * d, (1.0,) * d), n, bc)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.floats(0.0, 0.5))
    blocks = []
    for _, (high, _, low), _, _, faces in grid.face_blocks():
        full = (high, (faces.stop - faces.start) // (high * low), low)
        block = rng.standard_normal([k if draw(st.booleans()) else 1 for k in full])
        block[rng.random(block.shape) < zeros] = 0.0
        block[(block == 0.0) & (rng.random(block.shape) < 0.5)] = -0.0
        blocks.append(block)
    return EdgeFluxes(blocks=tuple(blocks), quadrature="midpoint", grid=grid,
                      outflow=_upwind_outflow(grid, blocks))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(fluxes=random_fluxes(), frac=st.sampled_from([1.0, 0.5, 0.01]))
@example(fluxes=_two_cell_ring()[0], frac=1.0)
def test_setup_matches_face_table_references(fluxes, frac):
    grid, f = fluxes.grid, flat_fluxes(fluxes)
    # a reduced block's parts are added broadcast, +0.0 and -0.0 included:
    # the bits of the masked scatter over the faces
    assert _same_bits(fluxes.outflow, upwind_outflow(grid, f))
    dt_max = max_stable_dt(fluxes, 0.0).dt_max
    dt = frac * dt_max if np.isfinite(dt_max) else frac
    op, ref = assemble(fluxes, dt), triplet_assemble(fluxes, dt)
    for name in ("indptr", "indices", "data"):
        assert _same_bits(getattr(op, name), getattr(ref, name))
    assert op.matrix.has_canonical_format == ref.matrix.has_canonical_format
    assert op.mass_conserving == ref.mass_conserving
    assert verify_markov(op) == bincount_markov(ref)


@settings(max_examples=60, deadline=None)
@given(op=operators(), seed=st.integers(0, 2**32 - 1))
def test_mass_and_positivity_over_20_steps(op, seed):
    m = _random_density(op.grid, seed).values * op.grid.cell_volume
    out = m
    for _ in range(20):
        prev = out.sum()
        out = step(op, out)
        assert out.min() >= 0.0
        if op.mass_conserving:
            assert abs(out.sum() - m.sum()) <= 1e-12
        else:
            assert out.sum() <= prev + 1e-12


@settings(max_examples=60, deadline=None)
@given(op=operators(), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 20))
def test_evolve_matches_repeated_step(op, seed, k):
    d = _random_density(op.grid, seed)
    if not np.isfinite(k * op.dt):  # a near-zero field allows a huge dt_max
        with pytest.raises(ValueError):
            evolve(op, d, k * op.dt)
        return
    vol = op.grid.cell_volume
    m = d.values * vol
    for _ in range(k):
        m = step(op, m)
    assert np.array_equal(evolve(op, d, k * op.dt).values, m / vol)


@settings(max_examples=60, deadline=None)
@given(op=operators(), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 20),
       f=st.one_of(st.just(0.5), st.floats(0.0, 1.0, exclude_max=True)))
def test_evolve_and_filter_take_step_count_steps(op, seed, k, f):
    t = (k + f) * op.dt
    if not np.isfinite(t / op.dt):  # a near-zero field allows a huge dt_max
        return
    n = step_count(t, op.dt)
    assert n in (k, k + 1) and abs(n - t / op.dt) <= 0.5
    d = _random_density(op.grid, seed)
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        for module in (operator_module, filtering_module):
            mp.setattr(module, "step", lambda op, m: calls.append(1) or step(op, m))
        evolve(op, d, t)
        assert len(calls) == n
        calls.clear()
        state = run_filter(d, op, gaussian_abs_position_model(0.1),
                           ObservationSequence((), ()), t_end=t)
        assert len(calls) == n
    assert len(state.history.time) == 1 + n and state.time == n * op.dt


@settings(max_examples=60, deadline=None)
@given(pair=flux_operators(dirichlet=True), seed=st.integers(0, 2**32 - 1))
def test_dirichlet_loss_is_upwind_boundary_outflow(pair, seed):
    fluxes, op = pair
    t, f = op.grid.edges, flat_fluxes(fluxes)
    d = _random_density(op.grid, seed)
    p = d.values
    # flux is positive toward +axis: out through (c, -1) faces when f > 0,
    # out through (-1, c) faces when f < 0, from the cell inside the box
    high, low = t.cell_b < 0, t.cell_a < 0
    outflow = (np.maximum(f[high], 0.0) @ p[t.cell_a[high]]
               + np.maximum(-f[low], 0.0) @ p[t.cell_b[low]])
    m = p * op.grid.cell_volume
    lost = m.sum() - step(op, m).sum()
    assert abs(lost - op.dt * outflow) <= 1e-12
    assert op.mass_conserving == (outflow == 0.0)  # p > 0 in every cell


@contextlib.contextmanager
def _split_every_call():
    """Split the rows of every step and assembly, whatever the CPU count;
    yields the list of what each split returned (True where it ran)."""
    splits = []
    split = operator_module._split

    def counted(lower, upper):
        splits.append(split(lower, upper))
        return splits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operator_module, "_SPLIT_ROWS", 1)
        mp.setattr(operator_module, "_split", counted)
        if operator_module._helper() is None:  # on one CPU the module starts none
            mp.setattr(operator_module, "_helper", _one_helper)
        yield splits


@functools.cache
def _one_helper():
    return operator_module._Helper()


@settings(max_examples=60, deadline=None)
@given(op=operators(), seed=st.integers(0, 2**32 - 1))
def test_split_step_is_bit_identical(op, seed):
    rng = np.random.default_rng(seed)
    # cells without mass leave rows that sum to exactly zero
    m = rng.random(op.grid.ncells) * (rng.random(op.grid.ncells) < 0.5)
    with _split_every_call() as splits:
        out = step(op, m)
    assert splits == [True]  # the split path ran
    assert np.array_equal(out, op.matrix.T @ m)


@st.composite
def linear_setups(draw):
    """``(field, grid, quadrature)``: a linear field ``c + A x`` on a 1-3D box
    around the origin, under any boundary mix (2-cell axes drawn often) and
    rule, so most draws take both signs."""
    d = draw(st.integers(1, 3))
    sizes = st.one_of(st.just(2), st.integers(2, MAX_CELLS[d]))
    n = tuple(draw(st.lists(sizes, min_size=d, max_size=d)))
    bc = draw(st.lists(st.sampled_from(BCS), min_size=d, max_size=d))
    coef = st.floats(-3.0, 3.0, allow_subnormal=False)
    c = draw(st.lists(coef, min_size=d, max_size=d))
    a = draw(st.lists(st.lists(coef, min_size=d, max_size=d), min_size=d, max_size=d))
    field = VelocityField(
        lambda xs: tuple(c[i] + sum(a[i][j] * xs[j] for j in range(d)) for i in range(d)), d)
    grid = build_grid(BoxDomain((-1.0,) * d, (1.0,) * d), n, bc)
    return field, grid, draw(st.sampled_from(["midpoint", "gauss2", "gauss3"]))


def linear_fluxes():
    return linear_setups().map(lambda setup: compute_fluxes(*setup))


@settings(max_examples=80, deadline=None)
@given(fluxes=st.one_of(linear_fluxes(), random_fluxes()), frac=st.floats(0.01, 1.0),
       chunk=st.sampled_from([2, 5, 40, 1 << 16]))
def test_split_assembly_is_bit_identical(fluxes, frac, chunk):
    """The calling thread counts every row, and each thread writes its own
    rows, in slabs of whole last-axis layers and at most half of
    ``_WRITE_CHUNK`` rows (drawn small, so slabs of one layer or of several
    end inside each half), also from face blocks of extent 1 along some
    groups, where a thread's part of a block may have no rows."""
    dt_max = max_stable_dt(fluxes, 0.0).dt_max
    dt = frac * dt_max if np.isfinite(dt_max) else frac
    want = assemble(fluxes, dt)  # below the gate: one thread
    with _split_every_call() as splits, pytest.MonkeyPatch.context() as mp:
        mp.setattr(operator_module, "_WRITE_CHUNK", chunk)
        op = assemble(fluxes, dt)
    assert splits == [True]  # the write pass only
    for name in ("indptr", "indices", "data"):
        assert _same_bits(getattr(op, name), getattr(want, name))
    assert op.mass_conserving == want.mass_conserving


@settings(max_examples=80, deadline=None)
@given(setup=linear_setups(), chunk=st.sampled_from([1, 5, 1 << 16]),
       last=st.sampled_from(BCS))
def test_chunked_fluxes_are_bit_identical(setup, chunk, last):
    """The quadrature runs on the calling thread in passes of
    ``_FLUX_CHUNK`` faces (drawn small, so passes end inside a face block),
    and the outflow in one pass there, even with the split gate lowered to
    one row: the values and the outflow equal the one-pass ones and the
    face-table reference's, bit for bit, also along the wrap faces of a
    periodic last axis."""
    field, grid, quadrature = setup
    grid = build_grid(grid.domain, grid.n, grid.bc[:-1] + (last,))
    want = compute_fluxes(field, grid, quadrature)  # one pass per face block
    with _split_every_call() as splits, pytest.MonkeyPatch.context() as mp:
        mp.setattr(velocity_module, "_FLUX_CHUNK", chunk)
        got = compute_fluxes(field, grid, quadrature)
    assert splits == []  # nothing in compute_fluxes splits
    flux, outflow = point_fluxes(field, grid, quadrature)
    assert all(_same_bits(a, b) for a, b in zip(got.blocks, want.blocks))
    assert _same_bits(got.outflow, want.outflow)
    assert _same_bits(flat_fluxes(got), flux) and _same_bits(got.outflow, outflow)


def test_fluxes_call_the_field_on_the_calling_thread_only():
    """Above the split gate, with the split forced, ``compute_fluxes`` calls
    the field and sums the outflow on the calling thread only, so a ``func``
    need not be thread-safe, and both equal the face-table reference's bit
    for bit."""
    grid = build_grid(BoxDomain((-1.0, -1.0), (1.0, 1.0)), (257, 256), ("neumann", "periodic"))
    assert grid.ncells > operator_module._SPLIT_ROWS
    rotation = rotation_field()
    threads = set()

    def recording(xs):
        threads.add(threading.current_thread())
        return rotation.func(xs)

    field = VelocityField(recording, 2)
    with _split_every_call() as splits:
        got = compute_fluxes(field, grid, "gauss2")
    assert threads == {threading.current_thread()}
    assert splits == []  # the outflow is one pass on this thread
    flux, outflow = point_fluxes(rotation, grid, "gauss2")
    assert _same_bits(flat_fluxes(got), flux) and _same_bits(got.outflow, outflow)


def test_fluxes_raise_on_non_finite_upper_layers():
    """A field that is not finite only in the upper layers of the last axis
    fails the whole call, with the split forced, before any outflow."""
    grid = build_grid(BoxDomain((-1.0, -1.0), (1.0, 1.0)), (8, 10), ("periodic", "periodic"))
    threads = set()

    def upper_nan(xs):
        bad = xs[1] > 0.5
        if np.any(bad):
            threads.add(threading.current_thread())
        return np.where(bad, np.nan, 1.0), np.where(bad, np.nan, -1.0)

    field = VelocityField(upper_nan, 2)
    with _split_every_call() as splits, pytest.raises(ValueError, match="non-finite"):
        compute_fluxes(field, grid, "gauss2")
    assert threads == {threading.current_thread()}
    assert splits == []  # nothing in compute_fluxes splits


def test_a_raising_field_fails_its_fluxes_only():
    """A field that raises fails that call of ``compute_fluxes``, and the
    next call, with the split forced, is the unforced one bit for bit and
    splits nothing."""
    grid = build_grid(BoxDomain((-1.0, -1.0), (1.0, 1.0)), (9, 12), ("dirichlet", "periodic"))
    field = rotation_field()
    want = compute_fluxes(field, grid, "gauss3")
    raised = []

    def raise_once(xs):
        if not raised:
            raised.append(True)
            raise RuntimeError("in the field")
        return field.func(xs)

    with _split_every_call() as splits:
        with pytest.raises(RuntimeError, match="in the field"):
            compute_fluxes(VelocityField(raise_once, 2), grid, "gauss3")
        got = compute_fluxes(VelocityField(raise_once, 2), grid, "gauss3")
    assert splits == []
    assert all(_same_bits(a, b) for a, b in zip(got.blocks, want.blocks))
    assert _same_bits(got.outflow, want.outflow)


def _three_pass_row_sum_error(op):
    """``verify_markov``'s row-sum error as three full passes over the sums
    (``s - 1``, its absolute value, the maximum) compute it."""
    n = op.grid.ncells
    excess = np.zeros(n)
    operator_module.csc_matvec(n, n, op.indptr, op.indices, op.data, np.ones(n), excess)
    excess -= 1.0
    if op.mass_conserving:
        np.abs(excess, out=excess)
    return max(float(excess.max()), 0.0)


@settings(max_examples=80, deadline=None)
@given(fluxes=random_fluxes(), frac=st.sampled_from([1.0, 0.5, 0.01]),
       seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 1e-15, 1e-3]),
       block=st.sampled_from([1, 3, 1 << 13]))
def test_row_sum_error_is_the_three_pass_formula(fluxes, frac, seed, noise, block):
    """The maximum and minimum of the row sums give, bit for bit, the error
    of the three passes over the sums of one full ``csc_matvec`` call, on
    conserving and Dirichlet operators, also with entries scaled so that
    the row sums stray both ways, whatever the blocks of columns
    ``verify_markov`` sums them in (drawn small, so most operators take
    several)."""
    dt_max = max_stable_dt(fluxes, 0.0).dt_max
    op = assemble(fluxes, frac * dt_max if np.isfinite(dt_max) else frac)
    rng = np.random.default_rng(seed)
    data = op.data * (1.0 + noise * rng.standard_normal(len(op.data)))
    op = TransitionOperator(op.dt, op.indptr, op.indices, data, op.grid, op.mass_conserving)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operator_module, "_EXPORT_ROWS", block)
        assert verify_markov(op).max_row_sum_err == _three_pass_row_sum_error(op)


def _moments_reference(density):
    """Mean and covariance from (ncells, d) cell midpoints."""
    grid = density.grid
    mid = cell_midpoints(grid)
    w = density.values * grid.cell_volume
    mean = w @ mid
    second = (mid * w[:, None]).T @ mid
    second = 0.5 * (second + second.T)
    for i in range(grid.domain.d):
        second[i, i] += (grid.h[i] ** 2 / 12.0) * w.sum()
    cov = second - np.outer(mean, mean)
    return mean, 0.5 * (cov + cov.T)


@st.composite
def densities(draw):
    d = draw(st.integers(1, 3))
    n = tuple(draw(st.lists(st.integers(2, MAX_CELLS[d]), min_size=d, max_size=d)))
    lower = tuple(draw(st.lists(st.floats(-3.0, 0.0), min_size=d, max_size=d)))
    widths = draw(st.lists(st.floats(0.5, 4.0), min_size=d, max_size=d))
    grid = build_grid(BoxDomain(lower, tuple(lo + w for lo, w in zip(lower, widths))),
                      n, ("neumann",) * d)
    vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(grid.ncells)
    vals[vals < draw(st.floats(0.0, 0.9))] = 0.0  # sparse supports too
    vals[0] += 1.0  # never all zero
    return Density(vals / (vals.sum() * grid.cell_volume), grid)


@settings(max_examples=200, deadline=None)
@given(dens=densities())
def test_moments_match_midpoint_formula(dens):
    mean, cov = _moments_reference(dens)
    got = moments(dens)
    # |x| <= 4 on every box drawn, so second moments are at most 16
    assert np.abs(got.mean - mean).max() <= 1e-12 * 4
    assert np.abs(got.covariance - cov).max() <= 1e-12 * 16
    assert np.array_equal(got.covariance, got.covariance.T)


@settings(max_examples=100, deadline=None)
@given(dens=densities())
def test_moment_centres_are_axis_grid_midpoints(dens):
    g = dens.grid
    mids = cell_midpoints(g)
    multi = np.unravel_index(np.arange(g.ncells), g.n, order="F")
    for a in range(g.domain.d):
        line = build_grid(BoxDomain((g.domain.lower[a],), (g.domain.upper[a],)),
                          (g.n[a],), (g.bc[a],))
        assert np.array_equal(g.centres(a), cell_midpoints(line)[:, 0])
        # flat cell i sits at the centres of its multi-index (axis 0 fastest)
        assert np.array_equal(mids[:, a], g.centres(a)[multi[a]])


@st.composite
def covariances(draw, d):
    """``(cov, matrix)``: an isotropic scalar, a diagonal vector or a full SPD
    matrix as ``gaussian_pdf`` takes it, and the ``(d, d)`` matrix it stands for."""
    kind = draw(st.sampled_from(["isotropic", "diagonal", "full"]))
    if kind == "isotropic":
        c = draw(st.floats(0.05, 4.0))
        return c, np.eye(d) * c
    if kind == "diagonal":
        c = np.array(draw(st.lists(st.floats(0.05, 4.0), min_size=d, max_size=d)))
        return c, np.diag(c)
    a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (d, d))
    m = a @ a.T + draw(st.floats(0.05, 1.0)) * np.eye(d)
    cov = 0.5 * (m + m.T)  # symmetric bit for bit
    return cov, cov


@settings(max_examples=150, deadline=None)
@given(dens=densities(), data=st.data())
def test_mesh_evaluation_equals_the_point_path(dens, data):
    """The pdf on the mesh of the cell centres, its projection under each rule
    and the Bayes update of the density equal their point-path references bit
    for bit, for 1-3D Gaussians of every covariance kind and likelihoods that
    read one coordinate or all of them."""
    grid = dens.grid
    d = grid.domain.d
    axes = range(d)
    mean = [data.draw(st.floats(lo, up)) for lo, up in zip(grid.domain.lower, grid.domain.upper)]
    cov, matrix = data.draw(covariances(d))
    pdf, reference = gaussian_pdf(mean, cov), point_gaussian_pdf(mean, matrix)
    centres = [grid.centres(a) for a in axes]
    assert np.asarray(pdf(mesh(centres))).tobytes() == reference(cell_midpoints(grid)).tobytes()
    for quadrature in ("midpoint", "gauss2"):
        expected = np.zeros(grid.ncells)
        for w, coords in tensor_rule(quadrature, centres, grid.h, axes):
            expected += w * reference(lattice(coords))
        assert project(pdf, grid, quadrature).values.tobytes() == expected.tobytes()

    weights = data.draw(st.lists(st.floats(0.1, 3.0), min_size=d, max_size=d))
    models = [gaussian_abs_position_model(data.draw(st.floats(0.05, 2.0))),
              lambda z, xs: sum(-w * (x - z) ** 2 for w, x in zip(weights, xs))]
    z = data.draw(st.floats(-1.0, 1.0))
    for model in models:
        _assert_bayes_update_is_the_point_path(dens.values, grid, model, z)


def _assert_bayes_update_is_the_point_path(values, grid, model, z):
    """``bayes_update`` equals the point path bit for bit, or where it raises
    ``ZeroEvidence``, the point path's likelihood-weighted mass, computed
    without dividing by it, is not positive either."""
    try:
        post, log_ev = bayes_update(values, grid, model, z, 0.5)
    except ZeroEvidence:
        ll = np.asarray(model(z, tuple(cell_midpoints(grid).T)), dtype=float)
        assert not (values * np.exp(ll - ll.max())).sum() > 0.0
        return
    ref_post, ref_log_ev = point_bayes_update(values, grid, model, z, 0.5)
    assert post.tobytes() == ref_post.tobytes() and log_ev == ref_log_ev


def test_zero_evidence_draw_is_rejected_on_both_paths():
    """A draw on which all likelihood-weighted mass underflows: the mass sits
    where ``|x_1|`` is 2.5, and at ``sigma = 0.0625`` its likelihood of
    ``z = -1`` is ``exp(-768)`` times the grid's largest."""
    grid = build_grid(BoxDomain((-3.0, 0.0, 0.0), (-1.0, 1.0, 1.0)), (2, 2, 2), ("neumann",) * 3)
    values = np.zeros(grid.ncells)
    values[[0, 2]] = 1.0 / (2 * grid.cell_volume)
    with pytest.raises(ZeroEvidence):
        bayes_update(values, grid, gaussian_abs_position_model(0.0625), -1.0, 0.5)
    _assert_bayes_update_is_the_point_path(values, grid, gaussian_abs_position_model(0.0625), -1.0)


def _count_modes_reference(values, min_prominence):
    """The saddle walk: from each strict local maximum, step outward to the
    nearest strictly higher point on each side, tracking the lowest value."""
    v = np.asarray(values, dtype=float)
    gmax = float(v.max())
    if not gmax > 0:
        return 0
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    c = v[keep]
    if c.size == 1:
        return 1
    last = c.size - 1
    count = 0
    for i in range(c.size):
        if (i > 0 and c[i] <= c[i - 1]) or (i < last and c[i] <= c[i + 1]):
            continue  # not a strict local maximum
        saddles = []
        for stepdir, stop in ((-1, -1), (+1, c.size)):
            lo = c[i]
            j = i + stepdir
            while j != stop:
                lo = min(lo, c[j])
                if c[j] > c[i]:
                    saddles.append(lo)
                    break
                j += stepdir
            else:
                saddles.append(None)  # ran off the end: no higher terrain
        if all(s is None for s in saddles):
            prominence = c[i] - float(c.min())
        else:
            prominence = c[i] - max(s for s in saddles if s is not None)
        if prominence >= min_prominence * gmax:
            count += 1
    return count


# small integer levels give plateaus and ties; floats give generic terrain
profiles = st.one_of(
    st.lists(st.integers(0, 4).map(float), min_size=2, max_size=40),
    st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=2, max_size=40),
)
prominences = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))


def _line(values, bc):
    grid = build_grid(BoxDomain((0.0,), (1.0,)), (len(values),), (bc,))
    return Density(np.asarray(values, dtype=float), grid)


@settings(max_examples=500, deadline=None)
@given(values=profiles, min_prominence=prominences,
       bc=st.sampled_from(["neumann", "dirichlet"]))
def test_count_modes_matches_saddle_walk(values, min_prominence, bc):
    assert (count_modes(_line(values, bc), min_prominence)
            == _count_modes_reference(values, min_prominence))


@settings(max_examples=300, deadline=None)
@given(values=profiles, min_prominence=prominences, shift=st.integers(0, 39))
def test_count_modes_periodic_ignores_the_cut(values, min_prominence, shift):
    base = count_modes(_line(values, "periodic"), min_prominence)
    assert count_modes(_line(np.roll(values, shift), "periodic"), min_prominence) == base
    # cutting the ring at its global minimum leaves a line with the same count
    cut = np.roll(values, -int(np.argmin(values)))
    assert base == _count_modes_reference(cut, min_prominence)


@st.composite
def profile_stacks(draw):
    """A (k, n) stack of profiles: plateaus and ties, generic, zero, uniform."""
    n = draw(st.integers(2, 40))
    row = st.one_of(
        st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=n, max_size=n),
        st.sampled_from([0.0, 0.5]).map(lambda c: [c] * n),
    )
    return np.array(draw(st.lists(row, min_size=1, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(rows=profile_stacks(), min_prominence=prominences, periodic=st.booleans())
def test_batched_mode_counts_match_saddle_walk(rows, min_prominence, periodic):
    counts = _count_modes_rows(rows, periodic, min_prominence)
    assert counts.shape == (len(rows),)
    for row, count in zip(rows, counts):
        if periodic:  # a ring is cut at its global minimum
            row = np.roll(row, -int(np.argmin(row)))
        assert count == _count_modes_reference(row, min_prominence)


@pytest.mark.parametrize("saddle_cells", [64, 200, 1 << 18])
def test_batched_mode_counts_in_passes(monkeypatch, saddle_cells):
    # rough profiles have about n/3 peaks each; small pass sizes split the
    # block's peaks into passes of 1 and 5 peaks
    monkeypatch.setattr(density_module, "_SADDLE_CELLS", saddle_cells)
    rng = np.random.default_rng(5)
    rows = np.vstack([rng.random((20, 30)), rng.integers(0, 4, (20, 30)).astype(float)])
    for periodic in (False, True):
        counts = _count_modes_rows(rows, periodic, 0.1)
        for row, count in zip(rows, counts):
            if periodic:
                row = np.roll(row, -int(np.argmin(row)))
            assert count == _count_modes_reference(row, 0.1)
