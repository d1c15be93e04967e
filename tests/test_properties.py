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
boundary faces.  On random signed face fluxes (exact zeros included, every
boundary mix, 2-cell periodic axes drawn often) the outflow, the CSR arrays
and flags of ``assemble`` and the report of ``verify_markov`` equal, bit for
bit, those of the face-table reference builders in ``reference_builders``.
With the split gate lowered to one row, ``step`` splits every
operator's rows between the caller and a helper thread (one started for the
test on one CPU), and its result equals ``op._left @ m`` bit for bit.

Diagnostic examples check ``moments`` and ``count_modes`` against the direct
formulas they replace, kept here as reference implementations, that the
cell centres ``moments`` uses along an axis are the cell midpoints of that
axis's 1D grid bit for bit, that the mode count on a periodic axis does not
depend on where the ring is cut, and that the batched counter the filter
uses on a block of profiles gives each row the reference's count.
"""

import contextlib
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpfvm import (
    BoxDomain,
    Density,
    ObservationSequence,
    assemble,
    build_grid,
    compute_fluxes,
    constant_field,
    count_modes,
    evolve,
    gaussian_abs_position_model,
    max_stable_dt,
    moments,
    pendulum_field,
    rotation_field,
    run_filter,
    step,
    step_count,
    verify_markov,
)
from fpfvm import density as density_module
from fpfvm import filtering as filtering_module
from fpfvm import operator as operator_module
from fpfvm.velocity import EdgeFluxes, VelocityField, _upwind_outflow
from fpfvm.density import _count_modes_rows
from reference_builders import bincount_markov, triplet_assemble, upwind_outflow

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
    field = VelocityField(lambda x: np.asarray(x, dtype=float) - 0.5, dim=1)
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
    f, outflow = fluxes.values, fluxes.outflow
    assert np.array_equal(outflow, upwind_outflow(op.grid, f))
    assert not outflow.flags.writeable
    binding = int(np.argmax(outflow)) if outflow.max() > 0.0 else None
    assert max_stable_dt(fluxes, 0.0).binding_cell == binding
    assert op._left.has_canonical_format  # sorted indices, duplicates summed
    S = op.matrix
    assert S.data.min() >= 0.0
    row_sums = np.asarray(S.sum(axis=1)).ravel()
    if "dirichlet" in op.grid.bc:
        assert row_sums.max() <= 1.0 + 1e-12  # outflow only: substochastic
    else:
        assert np.abs(row_sums - 1.0).max() <= 1e-12
    assert verify_markov(op).is_markov


@st.composite
def random_fluxes(draw):
    """EdgeFluxes of random signed values, exact zeros included, on a 1-3D
    grid with any boundary mix; 2-cell axes are drawn often."""
    d = draw(st.integers(1, 3))
    sizes = st.one_of(st.just(2), st.integers(2, MAX_CELLS[d]))
    n = tuple(draw(st.lists(sizes, min_size=d, max_size=d)))
    bc = draw(st.lists(st.sampled_from(BCS), min_size=d, max_size=d))
    grid = build_grid(BoxDomain((0.0,) * d, (1.0,) * d), n, bc)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flux = rng.standard_normal(grid.face_offsets[-1])
    flux[rng.random(flux.shape) < draw(st.floats(0.0, 0.5))] = 0.0
    return EdgeFluxes(values=flux, quadrature="midpoint", grid=grid,
                      outflow=_upwind_outflow(grid, flux))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(fluxes=random_fluxes(), frac=st.sampled_from([1.0, 0.5, 0.01]))
@example(fluxes=_two_cell_ring()[0], frac=1.0)
def test_setup_matches_face_table_references(fluxes, frac):
    grid, f = fluxes.grid, fluxes.values
    assert _same_bits(fluxes.outflow, upwind_outflow(grid, f))
    dt_max = max_stable_dt(fluxes, 0.0).dt_max
    dt = frac * dt_max if np.isfinite(dt_max) else frac
    op, ref = assemble(fluxes, dt), triplet_assemble(fluxes, dt)
    for name in ("indptr", "indices", "data"):
        assert _same_bits(getattr(op._left, name), getattr(ref._left, name))
    assert op._left.has_canonical_format == ref._left.has_canonical_format
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
    t, f = op.grid.edges, fluxes.values
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
def _split_every_step():
    """Split the rows of every operator, whatever the CPU count; yields the
    list of split steps taken."""
    splits = []
    split_step = operator_module._split_step

    def counted(*args):
        splits.append(args)
        return split_step(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operator_module, "_SPLIT_ROWS", 1)
        mp.setattr(operator_module, "_split_step", counted)
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
    with _split_every_step() as splits:
        out = step(op, m)
    assert len(splits) == 1  # the split path ran
    assert np.array_equal(out, op._left @ m)


def _moments_reference(density):
    """Mean and covariance from (ncells, d) cell midpoints."""
    grid = density.grid
    mid = grid.cell_midpoints
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
    stride = 1
    for a in range(g.domain.d):
        line = build_grid(BoxDomain((g.domain.lower[a],), (g.domain.upper[a],)),
                          (g.n[a],), (g.bc[a],))
        assert np.array_equal(g.centres(a), line.cell_midpoints[:, 0])
        # the cells (0, .., m, .., 0) of the full grid sit at flat index m * stride
        assert np.array_equal(g.centres(a), g.cell_midpoints[::stride, a][:g.n[a]])
        stride *= g.n[a]


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
