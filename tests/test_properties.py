"""Property tests of the assembled operator over random grids, fields and steps.

Each example draws a 1-3D box, per-axis boundary kinds, a field (constant in
any dimension; rotation or pendulum in 2D) and a step ``dt <= dt_max``, then
checks the paper's invariants: nonnegative entries, stochastic rows without
Dirichlet outflow, conserved mass, positivity, and ``evolve`` agreeing bit for
bit with repeated ``step``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fpfvm import (
    BoxDomain,
    Density,
    assemble,
    build_grid,
    compute_fluxes,
    constant_field,
    evolve,
    max_stable_dt,
    pendulum_field,
    rotation_field,
    step,
)

BCS = ("periodic", "neumann", "dirichlet")
MAX_CELLS = {1: 24, 2: 10, 3: 5}


@st.composite
def operators(draw):
    d = draw(st.integers(1, 3))
    n = tuple(draw(st.lists(st.integers(2, MAX_CELLS[d]), min_size=d, max_size=d)))
    bc = tuple(draw(st.lists(st.sampled_from(BCS), min_size=d, max_size=d)))
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
    dt_max = max_stable_dt(fluxes, grid, 0.0).dt_max
    frac = draw(st.floats(0.01, 1.0))
    dt = frac * dt_max if np.isfinite(dt_max) else frac
    return assemble(fluxes, grid, dt)


def _random_density(grid, seed):
    vals = np.random.default_rng(seed).random(grid.ncells)
    return Density(vals / (vals.sum() * grid.cell_volume), grid)


@settings(max_examples=60, deadline=None)
@given(op=operators())
def test_entries_nonnegative_rows_stochastic(op):
    S = op.matrix
    assert S.data.min() >= 0.0
    row_sums = np.asarray(S.sum(axis=1)).ravel()
    if "dirichlet" in op.grid.bc:
        assert row_sums.max() <= 1.0 + 1e-12  # outflow only: substochastic
    else:
        assert np.abs(row_sums - 1.0).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(op=operators(), seed=st.integers(0, 2**32 - 1))
def test_mass_and_positivity_over_20_steps(op, seed):
    d = _random_density(op.grid, seed)
    out = d
    for _ in range(20):
        prev = out.mass
        out = step(op, out)
        assert out.values.min() >= 0.0
        if op.mass_conserving:
            assert abs(out.mass - d.mass) <= 1e-12
        else:
            assert out.mass <= prev + 1e-12


@settings(max_examples=60, deadline=None)
@given(op=operators(), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 20))
def test_evolve_matches_repeated_step(op, seed, k):
    d = _random_density(op.grid, seed)
    b = d
    for _ in range(k):
        b = step(op, b)
    assert np.array_equal(evolve(op, d, k * op.dt).values, b.values)
