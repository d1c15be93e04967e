import numpy as np
import pytest

from fpfvm import (
    BoxDomain,
    ObservationModel,
    ObservationSequence,
    ZeroEvidence,
    assemble,
    bayes_update,
    build_grid,
    compute_fluxes,
    constant_field,
    gaussian_abs_position_model,
    gaussian_pdf,
    initial_state,
    normalize,
    pendulum_field,
    predict,
    project,
    read_observations,
    rotation_field,
    run_filter,
    simulate_truth,
    synthesize_observations,
    uniform_density,
    write_observations,
    write_run_report,
)

PI = np.pi


def _pendulum_setup(n=24):
    dom = BoxDomain((-PI, -PI), (PI, PI))
    g = build_grid(dom, (n, n), ("periodic", "neumann"))
    fx = compute_fluxes(pendulum_field(), g)
    op = assemble(fx, g, g.h[0] / (2 * PI + 1))
    prior = normalize(project(gaussian_pdf((0.0, 0.0), 0.64), g))
    return dom, g, op, prior


def _zero_op(g):
    d = g.domain.d
    fx = compute_fluxes(constant_field([0.0] * d), g)
    return assemble(fx, g, 0.05)


def test_observation_sequence_validation():
    ObservationSequence((1.0, 2.0), (0.1, 0.2))
    with pytest.raises(ValueError):
        ObservationSequence((2.0, 1.0), (0.1, 0.2))
    with pytest.raises(ValueError):
        ObservationSequence((0.0, 1.0), (0.1, 0.2))
    with pytest.raises(ValueError):
        ObservationSequence((1.0,), (0.1, 0.2))


def test_gaussian_abs_model():
    sigma = 0.1
    model = gaussian_abs_position_model(sigma)
    x = np.array([[0.6, 1.0]])
    peak = model.log_likelihood(0.6, x)[0]
    assert peak == pytest.approx(-np.log(sigma * np.sqrt(2 * PI)), rel=1e-14)
    # half a sigma off costs exactly 1/2 above the normalizer
    val = model.log_likelihood(0.5, x)[0]
    assert peak - val == pytest.approx(0.5, rel=1e-12)
    # sign of x1 is invisible
    xs = np.array([[0.37, -1.2], [-0.37, -1.2]])
    ll = model.log_likelihood(0.9, xs)
    assert ll[0] == ll[1]
    with pytest.raises(ValueError):
        gaussian_abs_position_model(0.0)


def test_bayes_update_constant_likelihood():
    _, g, _, prior = _pendulum_setup(8)
    state = initial_state(prior)
    c = 2.5
    model = ObservationModel(lambda z, x: np.full(len(x), np.log(c)))
    new = bayes_update(state, model, 0.0)
    assert np.abs(new.posterior.values - prior.values).max() <= 1e-14 * prior.values.max()
    assert new.log_evidence == pytest.approx(np.log(c), abs=1e-12)


def test_bayes_update_indicator_oracle():
    # 2x2 uniform prior on the unit box; keep the left half plane
    g = build_grid(BoxDomain((0, 0), (1, 1)), (2, 2), ("neumann", "neumann"))
    state = initial_state(uniform_density(g))

    def log_ind(z, x):
        return np.where(np.asarray(x)[..., 0] < 0.5, 0.0, -np.inf)

    new = bayes_update(state, ObservationModel(log_ind), 0.0)
    # evidence is the prior mass of the half, posterior its renormalization
    assert new.log_evidence == pytest.approx(np.log(0.5), abs=1e-14)
    left = np.ravel_multi_index(([0, 0], [0, 1]), g.n, order="F")
    assert np.allclose(new.posterior.values[left], 2.0, rtol=1e-14)
    right = np.ravel_multi_index(([1, 1], [0, 1]), g.n, order="F")
    assert np.all(new.posterior.values[right] == 0.0)
    assert new.posterior.mass == pytest.approx(1.0, abs=1e-13)


def test_bayes_update_zero_evidence():
    _, g, _, prior = _pendulum_setup(6)
    state = initial_state(prior)
    impossible = ObservationModel(lambda z, x: np.full(len(x), -np.inf))
    with pytest.raises(ZeroEvidence):
        bayes_update(state, impossible, 1.0)


def test_predict_basics():
    _, g, op, prior = _pendulum_setup(12)
    state = initial_state(prior)
    same = predict(state, op, 0.0)
    assert same is state
    moved = predict(state, op, 10 * op.dt)
    assert moved.time == pytest.approx(10 * op.dt, rel=1e-12)
    assert len(moved.history) == 11  # initial record plus one per step
    assert moved.posterior.mass == pytest.approx(1.0, abs=1e-12)
    assert moved.posterior.values.min() >= 0.0
    with pytest.raises(ValueError):
        predict(moved, op, 0.0)


def test_predict_identity_operator():
    g = build_grid(BoxDomain((-1, -1), (1, 1)), (6, 6), ("neumann", "neumann"))
    op = _zero_op(g)
    prior = uniform_density(g)
    state = predict(initial_state(prior), op, 40 * op.dt)
    assert np.array_equal(state.posterior.values, prior.values)


def test_run_filter_no_observations():
    _, g, op, prior = _pendulum_setup(12)
    state = run_filter(prior, op, gaussian_abs_position_model(0.1),
                       ObservationSequence((), ()), t_end=20 * op.dt)
    assert state.log_evidence == 0.0
    assert state.time == pytest.approx(20 * op.dt, rel=1e-12)
    assert state.posterior.mass == pytest.approx(1.0, abs=1e-11)


def test_run_filter_symmetry_and_means():
    dom, g, op, prior = _pendulum_setup(24)
    times = [k * 2 * PI / 7 for k in range(1, 4)]
    truth = simulate_truth(pendulum_field(), (0.2 * PI, 0.0), times, domain=dom,
                           bc=g.bc)
    obs = synthesize_observations(times, truth, 0.1, seed=3)
    state = run_filter(prior, op, gaussian_abs_position_model(0.1), obs,
                       t_end=PI, snapshot_times=(PI / 2,))
    # the field is odd and the likelihood even in x1: cell-level point
    # symmetry of the prior survives prediction and update
    final = state.posterior.values
    assert np.abs(final - final[::-1]).max() <= 1e-10
    for t, dens in state.snapshots:
        assert np.abs(dens.values - dens.values[::-1]).max() <= 1e-10
    for rec in state.history:
        assert abs(rec.mean[0]) <= 2 * g.h[0]
        assert abs(rec.mean[1]) <= 2 * g.h[1]
    assert state.posterior.mass == pytest.approx(1.0, abs=1e-10)


def test_run_filter_sign_flip_invariance():
    # observations built from the mirrored trajectory are identical, so the
    # whole run is: |x1| erases the sign
    times = [0.5, 1.0, 1.5]
    truth = simulate_truth(pendulum_field(), (0.2 * PI, 0.0), times)
    flipped = -truth
    a = synthesize_observations(times, truth, 0.1, seed=12)
    b = synthesize_observations(times, flipped, 0.1, seed=12)
    assert a == b


def test_run_filter_validation():
    _, g, op, prior = _pendulum_setup(8)
    model = gaussian_abs_position_model(0.1)
    with pytest.raises(ValueError):
        run_filter(prior, op, model, ObservationSequence((5.0,), (0.1,)), t_end=1.0)
    with pytest.raises(ValueError):
        run_filter(prior, op, model, ObservationSequence((), ()), t_end=1.0,
                   snapshot_times=(2.0,))
    unnormalized = project(gaussian_pdf((0.0, 0.0), 0.64), g)
    with pytest.raises(ValueError):
        run_filter(unnormalized, op, model, ObservationSequence((), ()), t_end=1.0)


def test_run_filter_history_and_snaps():
    _, g, op, prior = _pendulum_setup(10)
    times = (7.3 * op.dt,)  # deliberately off the step lattice
    obs = ObservationSequence(times, (0.3,))
    state = run_filter(prior, op, gaussian_abs_position_model(0.2), obs,
                       t_end=10 * op.dt, snapshot_times=(0.0,))
    kinds = [s.kind for s in state.snap_log]
    assert kinds == ["observation", "snapshot", "t_end"]
    snap = state.snap_log[0]
    assert snap.used == pytest.approx(7 * op.dt, rel=1e-12)
    assert snap.dist == pytest.approx(0.3 * op.dt, rel=1e-9)
    # observation inserts a second record at the same time (the jump)
    ts = [r.time for r in state.history]
    assert ts.count(pytest.approx(7 * op.dt)) == 2
    assert state.snapshots[0][0] == 0.0


def test_simulate_truth_constant_and_rotation():
    still = simulate_truth(constant_field([0.0, 0.0]), (0.3, -0.2), [0.0, 1.0, 2.0])
    assert np.allclose(still, [[0.3, -0.2]] * 3, atol=1e-15)
    quarter = simulate_truth(rotation_field(), (1.0, 0.0), [PI / 2])
    assert np.abs(quarter[0] - np.array([0.0, 1.0])).max() <= 1e-9
    with pytest.raises(ValueError):
        simulate_truth(rotation_field(), (1.0, 0.0), [1.0, 0.5])


def test_simulate_truth_energy_conservation():
    times = np.linspace(0.1, 2 * PI, 30)
    states = simulate_truth(pendulum_field(), (0.2 * PI, 0.0), times)
    energy = states[:, 1] ** 2 / 2 - np.cos(states[:, 0])
    e0 = -np.cos(0.2 * PI)
    assert np.abs(energy - e0).max() <= 1e-8


def test_simulate_truth_wraps_periodic_axes():
    dom = BoxDomain((-PI, -PI), (PI, PI))
    g = build_grid(dom, (4, 4), ("periodic", "neumann"))
    # constant drift in x1 passes the seam; reported values stay in the box
    states = simulate_truth(constant_field([1.0, 0.0]), (3.0, 0.0), [1.0],
                            domain=dom, bc=g.bc)
    assert -PI <= states[0, 0] < PI
    assert states[0, 0] == pytest.approx(4.0 - 2 * PI, rel=1e-12)


def test_synthesize_observations():
    times = [0.5, 1.0]
    states = np.array([[0.4, 0.0], [-0.3, 0.1]])
    tiny = synthesize_observations(times, states, 1e-15, seed=5)
    assert np.abs(np.asarray(tiny.values) - [0.4, 0.3]).max() <= 1e-12
    a = synthesize_observations(times, states, 0.1, seed=5)
    b = synthesize_observations(times, states, 0.1, seed=5)
    assert a == b
    c = synthesize_observations(times, states, 0.1, seed=6)
    assert a != c


def test_synthesized_noise_scale():
    n = 10_000
    times = np.arange(1, n + 1, dtype=float)
    states = np.zeros((n, 2))
    obs = synthesize_observations(times, states, 0.1, seed=123)
    std = np.std(np.asarray(obs.values))
    assert abs(std - 0.1) <= 0.005  # within 5 percent


def test_observation_file_roundtrip(tmp_path):
    obs = ObservationSequence((0.5, 1.25), (0.123456789, -0.4))
    path = tmp_path / "obs.csv"
    write_observations(obs, path)
    back = read_observations(path)
    assert back == obs


def test_run_report_columns(tmp_path):
    _, g, op, prior = _pendulum_setup(8)
    state = run_filter(prior, op, gaussian_abs_position_model(0.1),
                       ObservationSequence((3 * op.dt,), (0.2,)), t_end=5 * op.dt)
    path = tmp_path / "report.csv"
    write_run_report(state, path)
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "t,mean_1,mean_2,std_1,std_2,mode_count_axis1,log_evidence"
    assert len(lines) - 1 == len(state.history)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[-1]) == 0.0
