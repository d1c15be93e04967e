import numpy as np
import pytest
import scipy.sparse as sparse

from fpfvm import (
    BoxDomain,
    CflViolation,
    Density,
    NoConvergence,
    ObservationSequence,
    TransitionOperator,
    VelocityField,
    assemble,
    build_grid,
    compute_fluxes,
    constant_field,
    evolve,
    export_operator,
    gaussian_abs_position_model,
    gaussian_pdf,
    max_stable_dt,
    normalize,
    pendulum_field,
    project,
    run_filter,
    stationary,
    step,
    uniform_density,
    verify_markov,
)

PI = np.pi


def _ring(n=8, c=1.0):
    g = build_grid(BoxDomain((0.0,), (1.0,)), (n,), ("periodic",))
    fx = compute_fluxes(constant_field([c]), g)
    return g, fx


def _pendulum_op(n=50, bc=("periodic", "neumann")):
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (n, n), bc)
    fx = compute_fluxes(pendulum_field(), g)
    dt = g.h[0] / (2 * PI + 1)
    return g, fx, assemble(fx, g, dt)


def _circulant(n, nu):
    expected = np.zeros((n, n))
    for i in range(n):
        expected[i, i] = 1.0 - nu
        expected[i, (i + 1) % n] = nu
    return expected


def test_circulant_oracle():
    # hand-derived one-step matrix for constant rightward advection
    n, nu, c = 8, 0.5, 1.0
    g, fx = _ring(n, c)
    dt = nu * g.h[0] / c
    op = assemble(fx, g, dt)
    assert np.abs(op.matrix.toarray() - _circulant(n, nu)).max() <= 1e-15


def test_zero_field_is_identity():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (3, 3), ("periodic", "neumann"))
    fx = compute_fluxes(constant_field([0.0, 0.0]), g)
    op = assemble(fx, g, 123.0)
    assert np.array_equal(op.matrix.toarray(), np.eye(9))
    m = np.random.default_rng(0).random(9)
    assert np.array_equal(step(op, m), m)


def test_operator_stores_one_matrix():
    g, fx, op = _pendulum_op(n=10)
    stored = [v for v in vars(op).values() if sparse.issparse(v)]
    assert len(stored) == 1
    S = op.matrix  # a view of the stored matrix, not a copy
    assert np.shares_memory(S.data, stored[0].data)
    assert S.shape == (g.ncells, g.ncells) and S.nnz == stored[0].nnz
    # step is m' = m S on a mass vector, with op.matrix as S
    m = np.random.default_rng(3).random(g.ncells)
    assert np.abs(step(op, m) - m @ S.toarray()).max() <= 1e-15


def test_max_stable_dt():
    g, fx = _ring(4, c=2.0)
    xi = 0.25
    rep = max_stable_dt(fx, g, xi)
    assert rep.dt_max == pytest.approx((1 - xi) * g.h[0] / 2.0, rel=1e-14)
    assert rep.binding_cell is not None

    gz = build_grid(BoxDomain((0.0,), (1.0,)), (4,), ("periodic",))
    fz = compute_fluxes(constant_field([0.0]), gz)
    repz = max_stable_dt(fz, gz, 0.0)
    assert repz.dt_max == np.inf and repz.binding_cell is None

    with pytest.raises(ValueError):
        max_stable_dt(fx, g, 1.0)
    with pytest.raises(ValueError):
        max_stable_dt(fx, g, -0.1)


def test_pendulum_cfl_bound():
    g, fx, _ = _pendulum_op()
    xi = PI / (2 * PI + 1)
    rep = max_stable_dt(fx, g, xi)
    # the analytic outflow bound (pi+1)h is conservative, so the realized
    # dt_max is at least (1-xi) h / (pi+1)
    assert rep.dt_max >= (1 - xi) * g.h[0] / (PI + 1)


def test_assemble_rejects_cfl_violation():
    g, fx = _ring(4)
    dt_max = max_stable_dt(fx, g, 0.0).dt_max
    with pytest.raises(CflViolation) as exc:
        assemble(fx, g, 1.5 * dt_max)
    assert exc.value.binding_cell is not None
    op = assemble(fx, g, 1.5 * dt_max, check_cfl=False)  # negative diagonal kept
    assert op.matrix.diagonal().min() < 0
    with pytest.raises(ValueError):
        assemble(fx, g, 0.0)


def test_dt_equal_dt_max_assembles():
    g, fx = _ring(8, c=3.0)
    dt = max_stable_dt(fx, g, 0.0).dt_max  # nu = 1 exactly
    op = assemble(fx, g, dt)
    assert op.matrix.data.min() >= 0.0


def test_step_cyclic_shift_at_unit_courant():
    n, c = 8, 1.0
    g, fx = _ring(n, c)
    op = assemble(fx, g, g.h[0] / c)  # nu = 1: pure shift
    m = np.arange(1.0, n + 1)
    assert np.array_equal(step(op, m), np.roll(m, 1))


def test_point_mass_split_matches_fluxes():
    g, fx, op = _pendulum_op(n=10)
    cell = np.ravel_multi_index((3, 7), g.n, order="F")
    m = np.zeros(g.ncells)
    m[cell] = 1.0
    out = step(op, m)
    # every downwind neighbour receives dt (v_KL)+ / |K| of the mass
    t = g.edges
    as_a = (t.cell_a == cell) & t.interior
    as_b = t.cell_b == cell
    assert as_a.sum() + as_b.sum() == 4
    others = np.concatenate([t.cell_b[as_a], t.cell_a[as_b]])
    outward = np.concatenate([fx.values[as_a], -fx.values[as_b]])
    expected = np.zeros(g.ncells)
    stay = 1.0
    for nb, f in zip(others, outward):
        if f > 0:
            frac = op.dt * f / g.cell_volume
            expected[nb] += frac
            stay -= frac
    expected[cell] += stay
    assert np.abs(out - expected).max() <= 1e-15


def test_evolve_step_counts():
    g, fx = _ring(8)
    op = assemble(fx, g, 0.01)
    d = Density(np.random.default_rng(1).random(8), g)
    assert np.array_equal(evolve(op, d, 0.005).values, d.values)  # t < dt
    m = d.values * g.cell_volume
    three = step(op, step(op, step(op, m)))
    assert np.array_equal(evolve(op, d, 3 * 0.01).values, three / g.cell_volume)
    for t in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            evolve(op, d, t)


def test_evolve_rejects_a_time_that_overflows():
    # a near-zero field allows a step near the float maximum, so 4 * dt is inf
    g = build_grid(BoxDomain((0.0,), (2.0,)), (2,), ("periodic",))
    fx = compute_fluxes(constant_field([np.finfo(float).tiny]), g)
    op = assemble(fx, g, max_stable_dt(fx, g, 0.0).dt_max)
    assert 4.4e307 < op.dt < 4.5e307
    d = Density(np.array([0.25, 0.75]), g)
    with pytest.raises(ValueError, match="finite"):
        evolve(op, d, 4 * op.dt)
    m = d.values * g.cell_volume
    three = step(op, step(op, step(op, m)))
    assert np.array_equal(evolve(op, d, 3 * op.dt).values, three / g.cell_volume)


def test_evolve_semigroup_bit_identical():
    g, fx, op = _pendulum_op(n=12)
    d = normalize(project(gaussian_pdf((0.0, 0.0), 0.64), g))
    k = 4
    a = evolve(op, d, 2 * k * op.dt)
    b = d.values * g.cell_volume
    for _ in range(2 * k):
        b = step(op, b)
    assert np.array_equal(a.values, b / g.cell_volume)


def test_verify_markov():
    gz = build_grid(BoxDomain((0.0,), (1.0,)), (4,), ("periodic",))
    fz = compute_fluxes(constant_field([0.0]), gz)
    ident = assemble(fz, gz, 1.0)
    rep = verify_markov(ident)
    assert rep.is_markov and rep.min_entry == 1.0 and rep.max_row_sum_err == 0.0

    _, _, op = _pendulum_op()
    rep = verify_markov(op, tol=1e-12)
    assert rep.is_markov
    assert rep.min_entry >= 0.0
    assert rep.max_row_sum_err <= 1e-12


def test_verify_markov_counterexample():
    g, fx, _ = _pendulum_op(n=20)
    dt_max = max_stable_dt(fx, g, 0.0).dt_max
    bad = assemble(fx, g, 2 * dt_max, check_cfl=False)
    rep = verify_markov(bad)
    assert rep.min_entry < 0.0
    assert not rep.is_markov
    # a substochastic (Dirichlet) operator still fails on a negative entry
    # or on a row sum above one
    g = build_grid(BoxDomain((0.0,), (1.0,)), (8,), ("dirichlet",))
    fx = compute_fluxes(constant_field([1.0]), g)
    dt_max = max_stable_dt(fx, g, 0.0).dt_max
    rep = verify_markov(assemble(fx, g, 2 * dt_max, check_cfl=False))
    assert rep.min_entry < 0.0 and not rep.is_markov
    op = assemble(fx, g, 0.5 * dt_max)
    over = TransitionOperator(op.dt, op._left * 1.01, g, mass_conserving=False)
    rep = verify_markov(over)
    assert rep.max_row_sum_err == pytest.approx(0.01, rel=1e-12)
    assert not rep.is_markov


def test_mass_conservation_without_cfl():
    # conservation is structural: it holds for any dt, stable or not
    # (few steps only: unstable modes grow and the mass sum loses digits
    # to cancellation once cell values reach ~1e10)
    g, fx, _ = _pendulum_op(n=16)
    dt_max = max_stable_dt(fx, g, 0.0).dt_max
    op = assemble(fx, g, 3.0 * dt_max, check_cfl=False)
    m = np.random.default_rng(2).random(g.ncells)
    out = m
    for _ in range(6):
        out = step(op, out)
    assert out.sum() == pytest.approx(m.sum(), rel=1e-12)


def test_positivity_under_cfl():
    g, fx, op = _pendulum_op(n=16)
    out = np.random.default_rng(4).random(g.ncells)
    for _ in range(50):
        out = step(op, out)
        assert out.min() >= 0.0


def test_step_linearity():
    g, fx, op = _pendulum_op(n=12)
    rng = np.random.default_rng(6)
    f = rng.random(g.ncells)
    h = rng.random(g.ncells)
    lhs = step(op, 0.7 * f + 1.3 * h)
    rhs = 0.7 * step(op, f) + 1.3 * step(op, h)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_uniform_stationary_divergence_free():
    # exact flux balance: the uniform density is a fixed point
    for field, bc in ((pendulum_field(), ("periodic", "periodic")),):
        g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (20, 20), bc)
        fx = compute_fluxes(field, g)
        op = assemble(fx, g, g.h[0] / (2 * PI + 1))
        u = uniform_density(g).values * g.cell_volume
        assert np.abs(step(op, u) - u).sum() <= 1e-12


def test_stationary_uniform_cases():
    gz = build_grid(BoxDomain((0.0,), (1.0,)), (4,), ("periodic",))
    fz = compute_fluxes(constant_field([0.0]), gz)
    ident = assemble(fz, gz, 1.0)
    pi_dens = stationary(ident)  # returns the uniform start immediately
    assert np.allclose(pi_dens.values, 1.0, rtol=1e-14)

    g, fx = _ring(8, c=2.0)
    op = assemble(fx, g, 0.3 * g.h[0] / 2.0)
    pi_dens = stationary(op)
    assert np.allclose(pi_dens.values, 1.0, rtol=1e-10)
    assert pi_dens.mass == pytest.approx(1.0, abs=1e-13)


def test_stationary_nonuniform_and_no_convergence():
    # varying periodic speed: stationary mass ~ 1/speed, reachable by iteration
    g = build_grid(BoxDomain((0.0,), (1.0,)), (16,), ("periodic",))

    def func(x):
        x = np.asarray(x, dtype=float)
        return (1.5 + np.sin(2 * PI * x[..., 0]))[..., None]

    field = VelocityField(func=func, dim=1)
    fx = compute_fluxes(field, g)
    dt = max_stable_dt(fx, g, 0.5).dt_max
    op = assemble(fx, g, dt)
    with pytest.raises(NoConvergence):
        stationary(op, tol=1e-12, max_iter=1)
    pi_dens = stationary(op, tol=1e-13, max_iter=200000)
    m = pi_dens.values * g.cell_volume
    res = np.abs(step(op, m) - m).sum()
    assert res <= 1e-12


def test_dirichlet_outflow_loses_mass():
    g = build_grid(BoxDomain((0.0,), (1.0,)), (8,), ("dirichlet",))
    fx = compute_fluxes(constant_field([1.0]), g)
    op = assemble(fx, g, 0.5 * g.h[0])
    assert not op.mass_conserving
    # substochastic last row: checked as row sums <= 1
    rep = verify_markov(op)
    assert rep.is_markov and rep.max_row_sum_err == 0.0
    m = uniform_density(g).values * g.cell_volume
    out = step(op, m)
    assert out.sum() < m.sum()
    assert out.min() >= 0.0
    with pytest.raises(ValueError):
        stationary(op)
    # no inflow through the upstream wall: first cell only drains
    assert out[0] == pytest.approx((1 - 0.5) * m[0], rel=1e-14)


def test_export_operator(tmp_path):
    n, nu = 4, 0.25
    g, fx = _ring(n)
    op = assemble(fx, g, nu * g.h[0])
    path = tmp_path / "op.txt"
    export_operator(op, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == f"# cells=4 dt={op.dt:.17g}"
    triplets = [line.split() for line in lines[1:]]
    assert [(int(r), int(c)) for r, c, _ in triplets] == sorted(
        (int(r), int(c)) for r, c, _ in triplets)
    dense = np.zeros((n, n))
    for r, c, v in triplets:
        dense[int(r), int(c)] = float(v)
    assert np.abs(dense - _circulant(n, nu)).max() <= 1e-15


def test_grid_mismatch_errors():
    g, fx, op = _pendulum_op(n=10)
    other = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (12, 12), ("periodic", "neumann"))
    d = uniform_density(other)
    with pytest.raises(ValueError):
        step(op, d.values * other.cell_volume)
    with pytest.raises(ValueError):
        evolve(op, d, 0.0)
    with pytest.raises(ValueError, match="different grids"):
        run_filter(d, op, gaussian_abs_position_model(0.1), ObservationSequence((), ()),
                   t_end=op.dt)
    with pytest.raises(ValueError):
        assemble(fx, other, 0.001)
