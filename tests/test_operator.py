import functools
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse

import fpfvm

from fpfvm import (
    BoxDomain,
    CflReport,
    CflViolation,
    Density,
    ObservationSequence,
    TransitionOperator,
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
    step,
    uniform_density,
    verify_markov,
)
from fpfvm import operator as operator_module
from fpfvm.operator import choose_dt

PI = np.pi


def _overstepped(op, c):
    """The operator for step ``c * op.dt``, past the CFL bound for large c:
    the entries are linear in dt, so S(c dt)^T = I + c (S(dt)^T - I)."""
    eye = sparse.identity(op.grid.ncells, format="csr")
    return TransitionOperator(c * op.dt, (eye + c * (op._left - eye)).tocsr(),
                              op.grid, op.mass_conserving)


def _ring(n=8, c=1.0):
    g = build_grid(BoxDomain((0.0,), (1.0,)), (n,), ("periodic",))
    fx = compute_fluxes(constant_field([c]), g)
    return g, fx


def _pendulum_op(n=50, bc=("periodic", "neumann")):
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (n, n), bc)
    fx = compute_fluxes(pendulum_field(), g)
    dt = g.h[0] / (2 * PI + 1)
    return g, fx, assemble(fx, dt)


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
    op = assemble(fx, dt)
    assert np.abs(op.matrix.toarray() - _circulant(n, nu)).max() <= 1e-15


def test_zero_field_is_identity():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (3, 3), ("periodic", "neumann"))
    fx = compute_fluxes(constant_field([0.0, 0.0]), g)
    op = assemble(fx, 123.0)
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
    rep = max_stable_dt(fx, xi)
    assert rep.dt_max == pytest.approx((1 - xi) * g.h[0] / 2.0, rel=1e-14)
    assert rep.binding_cell is not None

    gz = build_grid(BoxDomain((0.0,), (1.0,)), (4,), ("periodic",))
    fz = compute_fluxes(constant_field([0.0]), gz)
    repz = max_stable_dt(fz, 0.0)
    assert repz.dt_max == np.inf and repz.binding_cell is None

    with pytest.raises(ValueError):
        max_stable_dt(fx, 1.0)
    with pytest.raises(ValueError):
        max_stable_dt(fx, -0.1)


def test_choose_dt_is_the_one_step_rule():
    flowing = CflReport(dt_max=0.3, xi=0.0, binding_cell=0)
    still = CflReport(dt_max=np.inf, xi=0.0, binding_cell=None)
    assert choose_dt(flowing, 0.5, None) == 0.3
    assert choose_dt(still, 0.5, None) == 1.0  # nothing flows
    assert choose_dt(still, 0.5, 0.2) == 0.2 * 0.5
    # a span shortens the base step to a whole number of steps
    assert choose_dt(flowing, 0.5, None, span=1.0) == 0.25
    assert choose_dt(still, 0.5, None, span=PI) == PI / 4
    assert choose_dt(still, 0.5, None, span=0.5) == 0.5
    for bad in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt_over_h must be positive and finite"):
            choose_dt(flowing, 0.5, bad)
    with pytest.raises(ValueError, match="non-finite number of steps"):
        choose_dt(CflReport(dt_max=1e-300, xi=0.0, binding_cell=0), 0.5, None, span=1e300)


def test_choose_dt_lengthens_a_step_only_within_the_cfl_slack():
    """A span just past a whole number of stable steps takes one step more:
    stretching ten steps to cover it would exceed the slack of ``assemble``."""
    _, fx, _ = _pendulum_op()
    report = max_stable_dt(fx, 0.0)
    span = 10 * report.dt_max * (1 + 1e-10)
    dt = choose_dt(report, 1.0, None, span=span)
    assert verify_markov(assemble(fx, dt)).is_markov  # CflViolation if stretched
    assert dt == span / 11


def test_pendulum_cfl_bound():
    g, fx, _ = _pendulum_op()
    xi = PI / (2 * PI + 1)
    rep = max_stable_dt(fx, xi)
    # the analytic outflow bound (pi+1)h is conservative, so the realized
    # dt_max is at least (1-xi) h / (pi+1)
    assert rep.dt_max >= (1 - xi) * g.h[0] / (PI + 1)


def test_assemble_rejects_cfl_violation():
    _, fx = _ring(4)
    dt_max = max_stable_dt(fx, 0.0).dt_max
    with pytest.raises(CflViolation, match=r"at cell \d+"):
        assemble(fx, 1.5 * dt_max)
    with pytest.raises(ValueError):
        assemble(fx, 0.0)


def test_assemble_rejects_an_infinite_step():
    # with no flow the CFL bound is infinite, so only the step check stops it
    g = build_grid(BoxDomain((0.0,), (1.0,)), (4,), ("periodic",))
    fz = compute_fluxes(constant_field([0.0]), g)
    for dt in (np.inf, np.nan, -1.0):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            assemble(fz, dt)


def test_dt_equal_dt_max_assembles():
    _, fx = _ring(8, c=3.0)
    dt = max_stable_dt(fx, 0.0).dt_max  # nu = 1 exactly
    op = assemble(fx, dt)
    assert op.matrix.data.min() >= 0.0


def test_step_cyclic_shift_at_unit_courant():
    n, c = 8, 1.0
    g, fx = _ring(n, c)
    op = assemble(fx, g.h[0] / c)  # nu = 1: pure shift
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
    as_a = (t.cell_a == cell) & (t.cell_b >= 0)
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
    op = assemble(fx, 0.01)
    d = Density(np.random.default_rng(1).random(8), g)
    assert np.array_equal(evolve(op, d, 0.005).values, d.values)  # t < dt
    m = d.values * g.cell_volume
    three = step(op, step(op, step(op, m)))
    assert np.array_equal(evolve(op, d, 3 * 0.01).values, three / g.cell_volume)
    # a time snaps to the nearest step, a tie to the even one
    one, two = step(op, m), step(op, step(op, m))
    assert np.array_equal(evolve(op, d, 0.006).values, one / g.cell_volume)
    assert np.array_equal(evolve(op, d, 0.025).values, two / g.cell_volume)
    for t in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            evolve(op, d, t)


def test_evolve_rejects_a_time_that_overflows():
    # a near-zero field allows a step near the float maximum, so 4 * dt is inf
    g = build_grid(BoxDomain((0.0,), (2.0,)), (2,), ("periodic",))
    fx = compute_fluxes(constant_field([np.finfo(float).tiny]), g)
    op = assemble(fx, max_stable_dt(fx, 0.0).dt_max)
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
    ident = assemble(fz, 1.0)
    rep = verify_markov(ident)
    assert rep.is_markov and rep.min_entry == 1.0 and rep.max_row_sum_err == 0.0

    _, _, op = _pendulum_op()
    rep = verify_markov(op)
    assert rep.is_markov
    assert rep.min_entry >= 0.0
    assert rep.max_row_sum_err <= 1e-12


def test_verify_markov_counterexample():
    g, fx, _ = _pendulum_op(n=20)
    dt_max = max_stable_dt(fx, 0.0).dt_max
    bad = _overstepped(assemble(fx, dt_max), 2)
    rep = verify_markov(bad)
    assert rep.min_entry < 0.0
    assert not rep.is_markov
    # a substochastic (Dirichlet) operator still fails on a negative entry
    # or on a row sum above one
    g = build_grid(BoxDomain((0.0,), (1.0,)), (8,), ("dirichlet",))
    fx = compute_fluxes(constant_field([1.0]), g)
    dt_max = max_stable_dt(fx, 0.0).dt_max
    rep = verify_markov(_overstepped(assemble(fx, dt_max), 2))
    assert rep.min_entry < 0.0 and not rep.is_markov
    op = assemble(fx, 0.5 * dt_max)
    over = TransitionOperator(op.dt, op._left * 1.01, g, mass_conserving=False)
    rep = verify_markov(over)
    assert rep.max_row_sum_err == pytest.approx(0.01, rel=1e-12)
    assert not rep.is_markov


def test_mass_conservation_without_cfl():
    # conservation is structural: it holds for any dt, stable or not
    # (few steps only: unstable modes grow and the mass sum loses digits
    # to cancellation once cell values reach ~1e10)
    g, fx, _ = _pendulum_op(n=16)
    dt_max = max_stable_dt(fx, 0.0).dt_max
    op = _overstepped(assemble(fx, dt_max), 3.0)
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
        op = assemble(fx, g.h[0] / (2 * PI + 1))
        u = uniform_density(g).values * g.cell_volume
        assert np.abs(step(op, u) - u).sum() <= 1e-12


def test_dirichlet_outflow_loses_mass():
    g = build_grid(BoxDomain((0.0,), (1.0,)), (8,), ("dirichlet",))
    fx = compute_fluxes(constant_field([1.0]), g)
    op = assemble(fx, 0.5 * g.h[0])
    assert not op.mass_conserving
    # substochastic last row: checked as row sums <= 1
    rep = verify_markov(op)
    assert rep.is_markov and rep.max_row_sum_err == 0.0
    m = uniform_density(g).values * g.cell_volume
    out = step(op, m)
    assert out.sum() < m.sum()
    assert out.min() >= 0.0
    # no inflow through the upstream wall: first cell only drains
    assert out[0] == pytest.approx((1 - 0.5) * m[0], rel=1e-14)


def test_export_operator(tmp_path):
    n, nu = 4, 0.25
    g, fx = _ring(n)
    op = assemble(fx, nu * g.h[0])
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
    _, _, op = _pendulum_op(n=10)
    other = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (12, 12), ("periodic", "neumann"))
    d = uniform_density(other)
    with pytest.raises(ValueError):
        step(op, d.values * other.cell_volume)
    with pytest.raises(ValueError):
        evolve(op, d, 0.0)
    with pytest.raises(ValueError, match="different grids"):
        run_filter(d, op, gaussian_abs_position_model(0.1), ObservationSequence((), ()),
                   t_end=op.dt)


# --- the two-thread step of large operators ---------------------------------

GATE_N = 256  # a pendulum operator of GATE_N**2 = 65,536 rows, at the gate


@pytest.fixture(scope="module")
def gate_op():
    assert GATE_N ** 2 == operator_module._SPLIT_ROWS
    return _pendulum_op(n=GATE_N)[2]


def _within(seconds, fn, *args):
    """``fn(*args)`` on a daemon thread; fail if it has not returned in time."""
    result = []

    def run():
        try:
            result.append(("value", fn(*args)))
        except BaseException as exc:
            result.append(("error", exc))

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{fn.__name__} did not return in {seconds} s"
    kind, value = result[0]
    if kind == "error":
        raise value
    return value


def test_evolve_at_the_gate_matches_repeated_mat_vecs(gate_op):
    op = gate_op
    d = normalize(project(gaussian_pdf((0.6 * PI, 0.0), 0.32), op.grid))
    vol = op.grid.cell_volume
    m = d.values * vol
    for _ in range(12):
        m = op._left @ m
    assert np.array_equal(evolve(op, d, 12 * op.dt).values, m / vol)


def test_unsplittable_vectors_step_as_the_mat_vec_does(gate_op):
    op = gate_op
    n = op.grid.ncells
    m = np.random.default_rng(3).random(2 * n)
    with pytest.raises(ValueError):
        _within(30, step, op, m[:n - 1])  # scipy's error for a wrong length
    for v in (m[:n].astype(np.float32), m[::2]):  # float32, strided
        out = _within(30, step, op, v)
        assert out.dtype == np.float64
        assert np.array_equal(out, op._left @ v)
    # the helper survives: a splittable vector still steps
    assert np.array_equal(_within(30, step, op, m[:n]), op._left @ m[:n])


def test_concurrent_steps_are_bit_identical(gate_op):
    """More stepping threads than cores, switching often: one splits while
    the others step alone, and every result is the plain mat-vec's."""
    op = gate_op
    workers = 3
    starts = [np.random.default_rng(seed).random(op.grid.ncells)
              for seed in range(workers)]
    expected = []
    for m in starts:
        for _ in range(10):
            m = op._left @ m
        expected.append(m)
    results = [None] * workers
    barrier = threading.Barrier(workers)

    def run(i):
        m = starts[i]
        barrier.wait()
        for _ in range(10):
            m = step(op, m)
        results[i] = m

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_a_raising_half_fails_its_step_only(gate_op, where, monkeypatch):
    """An exception in either half of a split step reaches the caller, and
    the next step returns and is bit-identical.  The helper is slow, so a
    completion signal of the failed step, read as the next one's, would
    return rows not yet written."""
    op = gate_op
    m = np.random.default_rng(5).random(op.grid.ncells)
    kernel = operator_module.csr_matvec
    raised = []

    def raise_once(*args):
        on_helper = threading.current_thread().name == "fpfvm-step"
        if on_helper:
            time.sleep(0.1)
        if not raised and on_helper == (where == "helper"):
            raised.append(where)
            raise RuntimeError(f"in the {where}'s half")
        kernel(*args)

    # a helper of the test's own, started on one CPU too
    monkeypatch.setattr(operator_module, "_helper", functools.cache(operator_module._Helper))
    monkeypatch.setattr(operator_module, "csr_matvec", raise_once)
    with pytest.raises(RuntimeError, match=f"in the {where}'s half"):
        _within(30, step, op, m)
    assert np.array_equal(_within(30, step, op, m), op._left @ m)


def _probe(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout's fpfvm."""
    src = str(Path(fpfvm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


_HELPER_PROBE = """
import os, sys, threading
import numpy as np
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from fpfvm import BoxDomain, assemble, build_grid, compute_fluxes, pendulum_field, step
g = build_grid(BoxDomain((-np.pi, -np.pi), (np.pi, np.pi)), (256, 256),
               ("periodic", "neumann"))
fx = compute_fluxes(pendulum_field(), g)
op = assemble(fx, g.h[0] / (2 * np.pi + 1))
m = np.random.default_rng(0).random(g.ncells)
for _ in range(3):
    assert np.array_equal(step(op, m), op._left @ m)
print(threading.active_count(), len(os.sched_getaffinity(0)))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
@pytest.mark.parametrize("cpus", ["one", "inherited"])
def test_helper_threads_per_process(cpus):
    """One CPU starts no helper, more start exactly one, and a process whose
    helper is waiting still exits."""
    proc = _probe(_HELPER_PROBE, cpus)
    assert proc.returncode == 0, proc.stderr
    threads, allowed = map(int, proc.stdout.split())
    assert threads == (2 if allowed > 1 else 1)
    if cpus == "one":
        assert allowed == 1


_FORK_PROBE = """
import os, threading, time, traceback, warnings
import numpy as np
from fpfvm import BoxDomain, assemble, build_grid, compute_fluxes, pendulum_field, step
from fpfvm import operator
if len(os.sched_getaffinity(0)) == 1:  # start the helper on the one core too
    os.sched_getaffinity = lambda pid: {0, 1}
g = build_grid(BoxDomain((-np.pi, -np.pi), (np.pi, np.pi)), (256, 256),
               ("periodic", "neumann"))
fx = compute_fluxes(pendulum_field(), g)
op = assemble(fx, g.h[0] / (2 * np.pi + 1))
m = np.random.default_rng(0).random(g.ncells)
assert np.array_equal(step(op, m), op._left @ m)
assert operator._helper() is not None and threading.active_count() == 2
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
    pid = os.fork()
if pid == 0:
    code = 1
    try:
        for _ in range(3):
            want = op._left @ m
            m = step(op, m)
            assert np.array_equal(m, want)
        code = 0 if threading.active_count() == 2 else 3  # a helper of its own
    except BaseException:
        traceback.print_exc()
    os._exit(code)
deadline = time.monotonic() + 30
while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
    if time.monotonic() > deadline:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise SystemExit("the child did not finish its steps in 30 s")
    time.sleep(0.01)
raise SystemExit(os.waitstatus_to_exitcode(done[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="no fork or no CPU affinity call")
def test_forked_child_steps_with_a_helper_of_its_own():
    """A child forked after the helper started inherits the helper but not
    its thread; its split steps start a new helper and stay bit-identical."""
    proc = _probe(_FORK_PROBE)
    assert proc.returncode == 0, proc.stderr
