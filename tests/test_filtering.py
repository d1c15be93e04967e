import numpy as np
import pytest

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
    marginal,
    max_stable_dt,
    moments,
    normalize,
    pendulum_field,
    predict,
    project,
    read_observations,
    rotation_field,
    run_filter,
    simulate_truth,
    step,
    synthesize_observations,
    uniform_density,
    write_observations,
    write_run_report,
)
from fpfvm.filtering import _BLOCK

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
    for times in ((1.0, np.inf), (np.nan,)):
        with pytest.raises(ValueError, match="finite"):
            ObservationSequence(times, (0.1,) * len(times))


def test_gaussian_abs_model():
    sigma = 0.1
    model = gaussian_abs_position_model(sigma)
    x = np.array([[0.6, 1.0]])
    peak = model(0.6, x)[0]
    assert peak == pytest.approx(-np.log(sigma * np.sqrt(2 * PI)), rel=1e-14)
    # half a sigma off costs exactly 1/2 above the normalizer
    val = model(0.5, x)[0]
    assert peak - val == pytest.approx(0.5, rel=1e-12)
    # sign of x1 is invisible
    xs = np.array([[0.37, -1.2], [-0.37, -1.2]])
    ll = model(0.9, xs)
    assert ll[0] == ll[1]
    with pytest.raises(ValueError):
        gaussian_abs_position_model(0.0)


def test_bayes_update_constant_likelihood():
    _, g, _, prior = _pendulum_setup(8)
    c = 2.5
    post, log_ev = bayes_update(prior.values, g, lambda z, x: np.full(len(x), np.log(c)),
                                0.0, 0.0)
    assert np.abs(post - prior.values).max() <= 1e-14 * prior.values.max()
    assert log_ev == pytest.approx(np.log(c), abs=1e-12)


def test_bayes_update_indicator_oracle():
    # 2x2 uniform prior on the unit box; keep the left half plane
    g = build_grid(BoxDomain((0, 0), (1, 1)), (2, 2), ("neumann", "neumann"))

    def log_ind(z, x):
        return np.where(np.asarray(x)[..., 0] < 0.5, 0.0, -np.inf)

    post, log_ev = bayes_update(uniform_density(g).values, g, log_ind, 0.0, 0.0)
    # evidence is the prior mass of the half, posterior its renormalization
    assert log_ev == pytest.approx(np.log(0.5), abs=1e-14)
    left = np.ravel_multi_index(([0, 0], [0, 1]), g.n, order="F")
    assert np.allclose(post[left], 2.0, rtol=1e-14)
    right = np.ravel_multi_index(([1, 1], [0, 1]), g.n, order="F")
    assert np.all(post[right] == 0.0)
    assert post.sum() * g.cell_volume == pytest.approx(1.0, abs=1e-13)


def test_bayes_update_zero_evidence():
    _, g, _, prior = _pendulum_setup(6)
    with pytest.raises(ZeroEvidence):
        bayes_update(prior.values, g, lambda z, x: np.full(len(x), -np.inf), 1.0, 0.0)


def test_predict_basics():
    _, g, op, prior = _pendulum_setup(12)
    vol = g.cell_volume
    # exactly one step of the mass
    one = predict(prior.values, op)
    assert np.array_equal(one, step(op, prior.values * vol) / vol)
    moved = prior.values
    for _ in range(10):
        moved = predict(moved, op)
    assert moved.sum() * vol == pytest.approx(1.0, abs=1e-12)
    assert moved.min() >= 0.0


def test_predict_identity_operator():
    g = build_grid(BoxDomain((-1, -1), (1, 1)), (6, 6), ("neumann", "neumann"))
    op = _zero_op(g)
    prior = uniform_density(g)
    values = prior.values
    for _ in range(40):
        values = predict(values, op)
    assert np.array_equal(values, prior.values)


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
    assert np.abs(state.history.mean[:, 0]).max() <= 2 * g.h[0]
    assert np.abs(state.history.mean[:, 1]).max() <= 2 * g.h[1]
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
    for t_end in (-1.0, np.inf, np.nan, 1e308):  # 1e308 / dt overflows
        with pytest.raises(ValueError, match="t_end"):
            run_filter(prior, op, model, ObservationSequence((), ()), t_end=t_end)
    with pytest.raises(ValueError, match="snapshot"):
        run_filter(prior, op, model, ObservationSequence((), ()), t_end=1.0,
                   snapshot_times=(np.nan,))
    with pytest.raises(ValueError, match="min_prominence"):
        run_filter(prior, op, model, ObservationSequence((), ()), t_end=1.0,
                   min_prominence=float("nan"))


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
    # observation inserts a second row at the same time (the jump)
    assert np.count_nonzero(state.history.time == 7 * op.dt) == 2
    assert state.snapshots[0][0] == 0.0


def test_run_filter_history_on_the_step_lattice():
    _, g, op, prior = _pendulum_setup(10)
    dt = op.dt
    # both observations snap to step 7, the end to step 12
    obs = ObservationSequence((6.8 * dt, 7.3 * dt, 9.6 * dt), (0.3, 0.5, 0.4))
    state = run_filter(prior, op, gaussian_abs_position_model(0.2), obs,
                       t_end=11.7 * dt)
    h = state.history
    k_end = 12
    assert len(h.time) == 1 + k_end + len(obs)
    # one row per step, plus one per update at its snapped step
    expected = sorted([k * dt for k in range(k_end + 1)] + [7 * dt, 7 * dt, 10 * dt])
    assert h.time.tolist() == expected
    assert h.mode_count.dtype == np.int64
    # each update row sits at its snap record's time and moves the evidence
    update_rows = np.flatnonzero(np.diff(h.time) == 0) + 1
    used = [s.used for s in state.snap_log if s.kind == "observation"]
    assert h.time[update_rows].tolist() == used
    assert np.all(h.log_evidence[update_rows] != h.log_evidence[update_rows - 1])
    assert np.count_nonzero(h.time == 7 * dt) == 3
    t_end_snap = state.snap_log[-1]
    assert t_end_snap.kind == "t_end"
    assert state.time == t_end_snap.used == h.time[-1]
    assert state.log_evidence == h.log_evidence[-1]


def test_run_filter_snapshot_at_observation_is_post_update():
    _, g, op, prior = _pendulum_setup(10)
    model = gaussian_abs_position_model(0.2)
    obs = ObservationSequence((5 * op.dt,), (0.4,))
    late = run_filter(prior, op, model, obs, t_end=9 * op.dt,
                      snapshot_times=(5 * op.dt,))
    # a run that ends at the observation step ends on its update
    at = run_filter(prior, op, model, obs, t_end=5 * op.dt)
    none = run_filter(prior, op, model, ObservationSequence((), ()), t_end=5 * op.dt)
    t, snap = late.snapshots[0]
    assert t == 5 * op.dt
    assert np.array_equal(snap.values, at.posterior.values)
    assert not np.array_equal(snap.values, none.posterior.values)


def test_run_filter_history_matches_evolve_without_observations():
    _, g, op, prior = _pendulum_setup(12)
    state = run_filter(prior, op, gaussian_abs_position_model(0.1),
                       ObservationSequence((), ()), t_end=15 * op.dt)
    h = state.history
    assert len(h.time) == 16
    # evolve carries the mass vector, so values agree to rounding only;
    # mode counts are not compared because tied peaks flip on an ulp
    for k in range(16):
        mom = moments(evolve(op, prior, k * op.dt))
        assert np.abs(h.mean[k] - mom.mean).max() <= 1e-12
        assert np.abs(h.std[k] - np.sqrt(np.diag(mom.covariance))).max() <= 1e-12
    assert np.all(h.log_evidence == 0.0)


def _per_row_history(prior, op, log_likelihood, k_obs, z, k_end, min_prominence):
    """The per-row diagnostics loop ``run_filter`` replaced, as the reference:
    ``predict``, then ``moments`` and ``count_modes(marginal(...))`` of a
    ``Density`` after every step and the one update."""
    grid = op.grid
    means, stds, modes = [], [], []

    def record(values):
        dens = Density(values, grid)
        mom = moments(dens)
        means.append(mom.mean)
        stds.append(np.sqrt(np.clip(np.diag(mom.covariance), 0.0, None)))
        modes.append(count_modes(marginal(dens, 0), min_prominence))

    values = prior.values
    record(values)
    for k in range(1, k_end + 1):
        values = predict(values, op)
        record(values)
        if k == k_obs:
            values, _ = bayes_update(values, grid, log_likelihood, z, 0.0)
            record(values)
    return np.array(means), np.array(stds), np.array(modes)


@pytest.mark.parametrize("extra", [0, 37])
@pytest.mark.parametrize("n,drift", [
    ((40,), (1.0,)),
    ((24, 5), (1.0, 0.3)),
    ((16, 4, 3), (1.0, 0.3, -0.2)),
])
def test_run_filter_blocks_match_per_row_diagnostics(n, drift, extra):
    # two bumps ride a constant drift around the periodic axis 0 and cross
    # its seam many times, so every row's ring is cut somewhere else
    d = len(n)
    grid = build_grid(BoxDomain((-PI,) * d, (PI,) * d), n,
                      ("periodic",) + ("neumann",) * (d - 1))
    fluxes = compute_fluxes(constant_field(drift), grid)
    op = assemble(fluxes, grid, 0.97 * max_stable_dt(fluxes, grid, 0.0).dt_max)
    bumps = [gaussian_pdf((c,) + (0.0,) * (d - 1), 0.3) for c in (-1.5, 1.0)]
    prior = normalize(project(lambda x: bumps[0](x) + 0.6 * bumps[1](x), grid))
    model = gaussian_abs_position_model(0.5)
    # 2 * _BLOCK rows, or two full blocks and a partial one
    k_end = 2 * _BLOCK - 2 + extra
    k_obs = _BLOCK + 3
    obs = ObservationSequence(((k_obs + 0.1) * op.dt,), (0.8,))
    state = run_filter(prior, op, model, obs, t_end=k_end * op.dt)
    h = state.history
    mean, std, modes = _per_row_history(prior, op, model, k_obs, 0.8, k_end, 0.1)
    assert len(h.time) == len(modes) == k_end + 2
    assert np.abs(h.mean - mean).max() <= 1e-12
    assert np.abs(h.std - std).max() <= 1e-12
    assert np.array_equal(h.mode_count, modes)
    assert set(modes.tolist()) >= {1, 2}  # the counts vary along the run


def test_simulate_truth_constant_and_rotation():
    still = simulate_truth(constant_field([0.0, 0.0]), (0.3, -0.2), [0.0, 1.0, 2.0])
    assert np.allclose(still, [[0.3, -0.2]] * 3, atol=1e-15)
    quarter = simulate_truth(rotation_field(), (1.0, 0.0), [PI / 2])
    assert np.abs(quarter[0] - np.array([0.0, 1.0])).max() <= 1e-9
    with pytest.raises(ValueError):
        simulate_truth(rotation_field(), (1.0, 0.0), [1.0, 0.5])
    with pytest.raises(ValueError, match="finite"):
        simulate_truth(rotation_field(), (1.0, 0.0), [1.0, np.inf])


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
    assert len(lines) - 1 == len(state.history.time)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[-1]) == 0.0
