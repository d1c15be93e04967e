import weakref

import numpy as np
import pytest

from fpfvm import (
    BoxDomain,
    bench,
    constant_field,
    convergence_study,
    format_convergence_table,
    gaussian_pdf,
    l1_distance,
    pendulum_field,
    project,
    run_level,
    write_convergence_csv,
)
from fpfvm.grid import build_grid

PI = np.pi

DOM = BoxDomain((-PI, -PI), (PI, PI))
BC = ("periodic", "neumann")
XI = PI / (2 * PI + 1)
DT_OVER_H = 1 / (2 * PI + 1)
PDF = gaussian_pdf((0.6 * PI, 0.0), 0.64)


def test_zero_field_isolates_projection_error():
    field = constant_field([0.0, 0.0])
    rows = convergence_study(field, DOM, BC, PDF, 0.5, (8, 16, 32), xi=0.0)
    # S = I, so differences are pure projection differences, and they shrink
    for r, n in zip(rows, (8, 16)):
        ga = build_grid(DOM, (n, n), BC)
        gb = build_grid(DOM, (2 * n, 2 * n), BC)
        direct = l1_distance(project(PDF, ga), project(PDF, gb))
        assert r.l1_diff == pytest.approx(direct, rel=1e-13)
    assert rows[1].l1_diff < rows[0].l1_diff


def test_level_validation():
    field = pendulum_field()
    with pytest.raises(ValueError):
        convergence_study(field, DOM, BC, PDF, 0.1, (10,), xi=XI)
    with pytest.raises(ValueError):
        convergence_study(field, DOM, BC, PDF, 0.1, (10, 15), xi=XI)
    with pytest.raises(ValueError):
        convergence_study(field, DOM, BC, PDF, 0.1, (20, 10), xi=XI)
    with pytest.raises(ValueError):
        convergence_study(field, DOM, BC, PDF, 0.1, (10, 30), xi=XI)
    with pytest.raises(ValueError):
        run_level(field, DOM, BC, PDF, -1.0, 10, xi=XI)
    for dt_over_h in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt_over_h"):
            run_level(field, DOM, BC, PDF, 0.01, 8, xi=XI, dt_over_h=dt_over_h)


def test_effective_order_arrangement():
    rows = convergence_study(pendulum_field(), DOM, BC, PDF, PI / 4,
                             (10, 20, 40, 80), xi=XI, dt_over_h=DT_OVER_H)
    assert len(rows) == 3
    assert rows[0].effective_order is None
    for prev, cur in zip(rows, rows[1:]):
        assert cur.effective_order == pytest.approx(
            -np.log2(cur.l1_diff / prev.l1_diff), rel=1e-12)
        assert cur.l1_diff > 0


def test_levels_stay_markov_clean():
    # every evolved level keeps unit mass and nonnegative values
    for n in (10, 20):
        dens = run_level(pendulum_field(), DOM, BC, PDF, PI / 4, n, XI,
                         dt_over_h=DT_OVER_H, normalize_prior=True)
        assert dens.mass == pytest.approx(1.0, abs=1e-10)
        assert dens.values.min() >= 0.0


def test_time_error_subdominant():
    # halving dt (same h) moves the inter-level difference far less than the
    # difference itself
    base = convergence_study(pendulum_field(), DOM, BC, PDF, PI / 4, (20, 40),
                             xi=XI, dt_over_h=DT_OVER_H)[0].l1_diff
    halved = convergence_study(pendulum_field(), DOM, BC, PDF, PI / 4, (20, 40),
                               xi=XI, dt_over_h=DT_OVER_H / 2)[0].l1_diff
    assert abs(base - halved) < 0.5 * base


def test_writers(tmp_path):
    rows = convergence_study(constant_field([0.0, 0.0]), DOM, BC, PDF, 0.0,
                             (8, 16, 32), xi=0.0)
    path = tmp_path / "conv.csv"
    write_convergence_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,l1_diff,effective_order"
    assert len(lines) == 3
    assert lines[1].endswith(",")  # first row has no order
    table = format_convergence_table(rows)
    assert "8" in table and "16" in table


def test_the_fluxes_are_gone_before_the_steps(monkeypatch):
    """A level's fluxes and outflow are set-up only: ``run_level`` lets them
    go once the operator is assembled, before its first step."""
    refs, alive = [], []

    def compute_fluxes(*args):
        fluxes = bench_compute_fluxes(*args)
        refs.append(weakref.ref(fluxes))
        return fluxes

    def evolve(*args):
        alive.append(refs[-1]() is not None)
        return bench_evolve(*args)

    bench_compute_fluxes, bench_evolve = bench.compute_fluxes, bench.evolve
    monkeypatch.setattr(bench, "compute_fluxes", compute_fluxes)
    monkeypatch.setattr(bench, "evolve", evolve)
    run_level(pendulum_field(), DOM, BC, PDF, 0.5, 16, XI, DT_OVER_H)
    assert alive == [False]


def test_a_level_past_the_step_bound_is_rejected(monkeypatch):
    """A level may take ``_MAX_STEPS`` steps, and one more raises, naming
    ``t_final``, before it is stepped."""
    dt = 1 / 32  # a stable N=16 step
    steps = []
    monkeypatch.setattr(bench, "_MAX_STEPS", 8)
    monkeypatch.setattr(bench, "evolve", lambda op, dens, t: steps.append(t / op.dt) or dens)
    run_level(pendulum_field(), DOM, BC, PDF, 8 * dt, 16, XI, dt / (2 * PI / 16))
    assert steps == [8.0]
    with pytest.raises(ValueError, match=r"^t_final=0\.28125 takes 9 steps"):
        run_level(pendulum_field(), DOM, BC, PDF, 9 * dt, 16, XI, dt / (2 * PI / 16))
    assert steps == [8.0]
