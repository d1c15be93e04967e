import numpy as np
import pytest

from fpfvm import (
    BoxDomain,
    Density,
    ZeroMass,
    build_grid,
    count_modes,
    expectation,
    gaussian_pdf,
    l1_distance,
    load_density,
    marginal,
    moments,
    normalize,
    project,
    refine,
    save_density,
    uniform_density,
)

PI = np.pi


def _grid2(n=8, lo=(-PI, -PI), hi=(PI, PI), bc=("periodic", "neumann")):
    return build_grid(BoxDomain(lo, hi), (n, n), bc)


def test_project_constant_pdf():
    g = _grid2()
    vol = g.domain.volume
    d = project(lambda x: 1.0 / vol, g)
    assert np.allclose(d.values, 1.0 / vol, rtol=1e-15)
    assert d.mass == pytest.approx(1.0, abs=1e-14)


def test_project_midpoint_samples_midpoints():
    g = _grid2(4)
    pdf = gaussian_pdf((0.6 * PI, 0.0), 0.64)
    d = project(pdf, g)
    # midpoint is the 1-point Gauss rule: node 0, weight 1, bit for bit
    assert np.array_equal(d.values, pdf(g.cell_midpoints))
    assert np.array_equal(d.values, project(pdf, g, "gauss1").values)
    assert d.mass < 1.0  # truncation to the box loses mass


def test_project_gauss2_exact_for_linear():
    g = build_grid(BoxDomain((0.0,), (1.0,)), (4,), ("neumann",))
    d = project(lambda x: 2.0 * np.asarray(x)[..., 0], g, "gauss2")
    # exact cell averages of 2x are 2 * midpoint
    expected = [0.25, 0.75, 1.25, 1.75]
    assert np.abs(d.values - expected).max() <= 1e-14


def test_project_rejects_bad_pdfs():
    g = _grid2(4)
    with pytest.raises(ValueError):
        project(lambda x: -1.0, g)
    with pytest.raises(ValueError):
        project(lambda x: np.inf, g)
    # an indefinite covariance would project an upside-down Gaussian
    with pytest.raises(ValueError):
        gaussian_pdf((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        gaussian_pdf((0.0, 0.0), [[1.0, 2.0], [2.0, 1.0]])


def test_normalize():
    g = _grid2(4)
    d = Density(np.full(g.ncells, 2.0 / g.domain.volume), g)
    nd = normalize(d)
    assert nd.mass == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(nd.values, d.values / 2.0, rtol=1e-15)
    again = normalize(nd)
    assert np.abs(again.values - nd.values).max() <= 1e-15 * nd.values.max()
    with pytest.raises(ZeroMass):
        normalize(Density(np.zeros(g.ncells), g))
    truncated = project(gaussian_pdf((0.6 * PI, 0.0), 0.64), g)
    assert normalize(truncated).mass == pytest.approx(1.0, abs=1e-14)


def test_l1_distance_basics():
    g = _grid2(6)
    u = uniform_density(g)
    zero = Density(np.zeros(g.ncells), g)
    assert l1_distance(u, u) == 0.0
    assert l1_distance(u, zero) == pytest.approx(1.0, abs=1e-14)


def test_l1_metric_properties():
    g = _grid2(5)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = (Density(rng.random(g.ncells), g) for _ in range(3))
        dab = l1_distance(a, b)
        assert dab == pytest.approx(l1_distance(b, a), rel=1e-14)
        assert dab <= l1_distance(a, c) + l1_distance(c, b) + 1e-14


def test_refinement_prolongation_exact():
    coarse = _grid2(4)
    fine = _grid2(8)
    rng = np.random.default_rng(3)
    a = Density(rng.random(coarse.ncells), coarse)
    assert l1_distance(a, refine(a, fine)) == 0.0
    assert refine(a, fine).mass == pytest.approx(a.mass, rel=1e-14)


def test_l1_cross_grid_hand_value():
    dom = BoxDomain((0.0,), (1.0,))
    gc = build_grid(dom, (2,), ("neumann",))
    gf = build_grid(dom, (4,), ("neumann",))
    a = Density(np.array([1.0, 3.0]), gc)
    b = Density(np.array([1.0, 2.0, 2.0, 4.0]), gf)
    # prolonged a = (1,1,3,3); |diff| = (0,1,1,1) times cell width 1/4
    assert l1_distance(a, b) == pytest.approx(0.75, rel=1e-14)
    g3 = build_grid(dom, (3,), ("neumann",))
    with pytest.raises(ValueError):
        l1_distance(a, Density(np.ones(3), g3))
    other = build_grid(BoxDomain((0.0,), (2.0,)), (4,), ("neumann",))
    with pytest.raises(ValueError):
        l1_distance(a, Density(np.ones(4), other))


def test_expectation():
    g = _grid2(50)
    u = uniform_density(g)
    assert expectation(u, lambda x: 1.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(expectation(u, lambda x: np.asarray(x)[..., 0])) <= 1e-12
    # E[x1^2] under the uniform law on [-pi,pi)^2 is pi^2/3, midpoint error h^2/12
    e = expectation(u, lambda x: np.asarray(x)[..., 0] ** 2)
    assert e == pytest.approx(PI ** 2 / 3, abs=2e-3)
    with pytest.raises(ValueError):
        expectation(u, lambda x: np.full(len(x), np.nan))


def test_expectation_linearity():
    g = _grid2(6)
    rng = np.random.default_rng(5)
    f = Density(rng.random(g.ncells), g)
    h = Density(rng.random(g.ncells), g)
    g1 = lambda x: np.asarray(x)[..., 0]
    g2 = lambda x: np.cos(np.asarray(x)[..., 1])
    lhs = expectation(Density(2.0 * f.values + 3.0 * h.values, g), g1)
    assert lhs == pytest.approx(2 * expectation(f, g1) + 3 * expectation(h, g1), rel=1e-12)
    mix = expectation(f, lambda x: 2.0 * g1(x) + 3.0 * g2(x))
    assert mix == pytest.approx(2 * expectation(f, g1) + 3 * expectation(f, g2), rel=1e-12)


def test_moments_point_mass():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (4, 4), ("neumann", "neumann"))
    vals = np.zeros(g.ncells)
    cell = np.ravel_multi_index((1, 2), g.n, order="F")
    vals[cell] = 1.0 / g.cell_volume
    m = moments(Density(vals, g))
    assert np.allclose(m.mean, g.cell_midpoints[cell], atol=1e-15)
    h2_12 = g.h[0] ** 2 / 12.0
    assert m.covariance[0, 0] == pytest.approx(h2_12, rel=1e-12)
    assert m.covariance[1, 1] == pytest.approx(h2_12, rel=1e-12)
    assert abs(m.covariance[0, 1]) <= 1e-15


def test_moments_symmetric_bimodal():
    g = _grid2(16, bc=("neumann", "neumann"))
    pdf = lambda x: (gaussian_pdf((1.5, 0.0), 0.2)(x) + gaussian_pdf((-1.5, 0.0), 0.2)(x)) / 2
    d = normalize(project(pdf, g))
    m = moments(d)
    assert np.abs(m.mean).max() <= 1e-12
    evals = np.linalg.eigvalsh(m.covariance)
    assert evals.min() >= -1e-10


def test_moments_truncated_gaussian_prior():
    g = _grid2(32)
    d = normalize(project(gaussian_pdf((0.0, 0.0), 0.64), g))
    m = moments(d)
    assert np.abs(m.mean).max() <= 2 * g.h[0]


def test_marginal_uniform_and_mass():
    g = build_grid(BoxDomain((0, 0), (2, 3)), (4, 6), ("periodic", "neumann"))
    u = uniform_density(g)
    m0 = marginal(u, 0)
    assert m0.grid.n == (4,)
    assert np.allclose(m0.values, 0.5, rtol=1e-14)  # uniform on [0, 2]
    rng = np.random.default_rng(9)
    d = Density(rng.random(g.ncells), g)
    for ax in (0, 1):
        assert marginal(d, ax).mass == pytest.approx(d.mass, rel=1e-13)
    with pytest.raises(ValueError):
        marginal(d, 2)


def test_marginal_separates_products():
    dom = BoxDomain((0, 0), (1, 1))
    g = build_grid(dom, (8, 6), ("neumann", "neumann"))
    a = lambda x: 1.0 + np.asarray(x)[..., 0] ** 2
    b = lambda x: 1.5 - np.asarray(x)[..., 1]
    d2 = project(lambda x: a(x) * b(x), g)
    m = marginal(d2, 0)
    g1 = build_grid(BoxDomain((0.0,), (1.0,)), (8,), ("neumann",))
    d1 = project(lambda x: 1.0 + np.asarray(x)[..., 0] ** 2, g1)
    ymids = np.linspace(0, 1, 7)[:-1] + 1.0 / 12
    weight = (1.5 - ymids).sum() / 6.0
    assert np.abs(m.values - d1.values * weight).max() <= 1e-14


def test_marginal_grid_is_the_axis_grid():
    g = _grid2(6)
    d = uniform_density(g)
    for axis in (0, 1):
        a = marginal(d, axis)
        assert a.grid == build_grid(BoxDomain((-PI,), (PI,)), (6,), (g.bc[axis],))


def test_marginal_commutes_with_normalize():
    g = _grid2(6)
    rng = np.random.default_rng(13)
    d = Density(rng.random(g.ncells) + 0.1, g)
    a = marginal(normalize(d), 1)
    b = normalize(marginal(d, 1))
    assert np.abs(a.values - b.values).max() <= 1e-14 * b.values.max()


def _d1(vals):
    g = build_grid(BoxDomain((0.0,), (1.0,)), (len(vals),), ("neumann",))
    return Density(np.asarray(vals, dtype=float), g)


def test_count_modes():
    bump = _d1([0, 1, 3, 6, 3, 1, 0, 0])
    assert count_modes(bump, 0.1) == 1
    two = _d1([0, 5, 0, 0, 5, 0])
    assert count_modes(two, 0.1) == 2
    uniform = _d1([2, 2, 2, 2])
    assert count_modes(uniform, 0.1) == 1
    # ripple on a single summit is not a second mode
    ripple = _d1([0, 10, 9.5, 9.9, 0])
    assert count_modes(ripple, 0.1) == 1
    # but a deep valley separates two
    deep = _d1([0, 10, 1, 9.9, 0])
    assert count_modes(deep, 0.1) == 2
    assert count_modes(_d1([0, 0, 0]), 0.1) == 0
    monotone = _d1([5, 4, 3, 1])
    assert count_modes(monotone, 0.1) == 1
    with pytest.raises(ValueError):
        g = _grid2(4)
        count_modes(uniform_density(g), 0.1)
    for bad in (np.nan, 1.5, -0.1):
        with pytest.raises(ValueError):
            count_modes(bump, bad)


def test_count_modes_periodic_wrap():
    # one bump straddling the seam of a periodic axis is one mode
    vals = [6, 3, 1, 0, 0, 1, 3, 5]
    ring = build_grid(BoxDomain((-PI,), (PI,)), (8,), ("periodic",))
    assert count_modes(Density(vals, ring), 0.1) == 1
    assert count_modes(_d1(vals), 0.1) == 2
    # a valley at the seam still separates two bumps
    assert count_modes(Density([1, 5, 0, 0, 0, 0, 5, 1], ring), 0.1) == 2


@pytest.mark.xfail(strict=True, reason="tied peaks are each measured against the "
                   "global minimum, so an ulp decides between 2 modes and 1")
def test_count_modes_tied_peaks():
    vals = np.array([0.1, 0.5, 1.0, 0.95, 1.0, 0.5, 0.1])
    raised = vals.copy()
    raised[4] = np.nextafter(1.0, 2.0)
    assert count_modes(_d1(raised), 0.1) == count_modes(_d1(vals), 0.1)


def test_density_file_roundtrip(tmp_path):
    g = _grid2(5)
    rng = np.random.default_rng(7)
    d = Density(rng.random(g.ncells) * 1e3, g)
    path = tmp_path / "dens.csv"
    save_density(d, path, t=PI / 3)
    back, t = load_density(path, bc=g.bc)
    assert t == PI / 3
    assert back.grid == g
    assert np.array_equal(back.values, d.values)  # 17 digits round-trip exactly


def test_density_validation():
    g = _grid2(4)
    with pytest.raises(ValueError):
        Density(np.ones(3), g)
    with pytest.raises(ValueError):
        Density(np.full(g.ncells, np.nan), g)
