import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpfvm import (
    BoxDomain,
    build_grid,
    compute_fluxes,
    constant_field,
    field_from_name,
    pendulum_field,
    rotation_field,
    VelocityField,
)
from reference_builders import face_sums

PI = np.pi


def _face_axes(g):
    """(ne,) axis of every face, from the per-axis blocks of ``face_offsets``."""
    return np.repeat(np.arange(g.domain.d), np.diff(g.face_offsets))


def _face_measures(g):
    return g.cell_volume / np.asarray(g.h)[_face_axes(g)]


def _face_points(g):
    """(ne, d) face midpoints: the top of the lower cell, or the bottom of the
    upper cell where the lower side is outside the box."""
    t = g.edges
    low = t.cell_a < 0
    multi = np.stack(np.unravel_index(np.where(low, t.cell_b, t.cell_a), g.n, order="F"),
                     axis=-1)
    offset = np.full(multi.shape, 0.5)
    offset[np.arange(len(t)), _face_axes(g)] = np.where(low, 0.0, 1.0)
    return np.asarray(g.domain.lower) + (multi + offset) * np.asarray(g.h)


def _divergence(fx):
    """Per-cell sum of outward face fluxes."""
    return face_sums(fx.grid, fx.values, -fx.values)


def test_pendulum_values():
    f = pendulum_field()
    assert np.allclose(f(np.zeros(2)), [0.0, 0.0])
    assert np.allclose(f(np.array([PI / 2, 1.0])), [1.0, -1.0], atol=1e-15)
    assert np.allclose(f(np.array([-PI / 2, 2.0])), [2.0, 1.0], atol=1e-15)
    for g_over_l in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="g_over_l"):
            pendulum_field(g_over_l)


def test_field_from_name():
    assert np.allclose(field_from_name("pendulum")(np.array([PI / 2, 1.0])), [1.0, -1.0])
    assert field_from_name("pendulum:2.5")(np.array([PI / 2, 0.0]))[1] == pytest.approx(-2.5)
    c = field_from_name("constant:1,2")
    assert np.allclose(c(np.zeros(2)), [1.0, 2.0])
    r = field_from_name("rotation")
    assert np.allclose(r(np.array([1.0, 0.0])), [0.0, 1.0])
    with pytest.raises(ValueError):
        field_from_name("vortex")


def test_zero_field_fluxes():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (4, 4), ("periodic", "periodic"))
    fx = compute_fluxes(constant_field([0.0, 0.0]), g)
    assert np.all(fx.values == 0.0)
    assert np.all(_divergence(fx) == 0.0)


def test_1d_constant_advection_fluxes():
    g = build_grid(BoxDomain((0.0,), (1.0,)), (8,), ("periodic",))
    fx = compute_fluxes(constant_field([3.0]), g)
    assert np.allclose(fx.values, 3.0, rtol=1e-15)  # face measure is 1 in 1D
    assert np.allclose(_divergence(fx), 0.0, atol=1e-15)


def test_pendulum_flux_matches_midpoint_rule():
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (8, 8), ("periodic", "neumann"))
    f = pendulum_field()
    fx = compute_fluxes(f, g)
    mids = _face_points(g)
    v = f(mids)
    axes, measures = _face_axes(g), _face_measures(g)
    for k in range(len(g.edges)):
        expected = measures[k] * v[k, axes[k]]
        assert fx.values[k] == pytest.approx(expected, abs=1e-15)
    # spot check: an axis-0 face at height x2 carries flux x2 * h
    k = g.face_offsets[0]
    assert fx.values[k] == pytest.approx(mids[k][1] * g.h[1], rel=1e-13)


def _swirl(x):
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    return np.stack([np.sin(2 * x[..., (i + 1) % d] + i) * (1 + x[..., i])
                     for i in range(d)], axis=-1)


@pytest.mark.parametrize("n,bc", [
    ((9,), ("dirichlet",)),
    ((4, 3, 5), ("periodic", "neumann", "dirichlet")),
])
def test_midpoint_flux_at_face_points(n, bc):
    # 1D and 3D faces, including low-side Dirichlet faces (lower cell outside)
    g = build_grid(BoxDomain((-1.0,) * len(n), (2.0,) * len(n)), n, bc)
    fx = compute_fluxes(VelocityField(func=_swirl, dim=len(n)), g)
    v = _swirl(_face_points(g))[np.arange(len(g.edges)), _face_axes(g)]
    assert np.abs(fx.values - _face_measures(g) * v).max() <= 1e-14


@settings(max_examples=100, deadline=None)
@given(data=st.data(), quadrature=st.sampled_from(("midpoint", "gauss2", "gauss3")))
def test_face_points_equal_the_gather_through_the_face_table(data, quadrature):
    """The points ``compute_fluxes`` evaluates are, bit for bit, the centre of
    each face's cell inside the box moved half a cell along the face's axis,
    and for each quadrature node moved ``0.5 * h * node`` along the face's
    other axes, node by node in ``np.ndindex`` order within each face block."""
    d = data.draw(st.integers(1, 3))
    n = tuple(data.draw(st.lists(st.integers(2, 6), min_size=d, max_size=d)))
    bc = tuple(data.draw(st.lists(st.sampled_from(("periodic", "neumann", "dirichlet")),
                                  min_size=d, max_size=d)))
    g = build_grid(BoxDomain((-1.0,) * d, (2.0,) * d), n, bc)
    seen = []

    def record(x):
        seen.append(x.copy())
        return np.zeros_like(x)

    compute_fluxes(VelocityField(func=record, dim=d), g, quadrature)
    t, axes = g.edges, _face_axes(g)
    outside = t.cell_a < 0
    ref = g.cell_midpoints[np.where(outside, t.cell_b, t.cell_a)]
    ref[np.arange(len(t)), axes] += np.where(outside, -0.5, 0.5) * np.asarray(g.h)[axes]
    k = 1 if quadrature == "midpoint" else int(quadrature[5:])
    nodes = [0.0] if k == 1 else np.polynomial.legendre.leggauss(k)[0]
    expected = []
    for axis, _, _, _, faces in g.face_blocks():
        others = [j for j in range(d) if j != axis]
        for combo in np.ndindex(*(k,) * len(others)):
            pts = ref[faces].copy()
            for j, ax in zip(combo, others):
                pts[:, ax] = ref[faces, ax] + 0.5 * g.h[ax] * nodes[j]
            expected.append(pts)
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert np.array_equal(got, want)


def test_gauss_agrees_with_midpoint_for_affine_fields():
    def affine(x):
        x = np.asarray(x, dtype=float)
        return np.stack([0.3 + 1.7 * x[..., 1], -0.2 + 0.9 * x[..., 0]], axis=-1)

    field = VelocityField(func=affine, dim=2)
    g = build_grid(BoxDomain((-1, -1), (1, 1)), (5, 7), ("dirichlet", "periodic"))
    a = compute_fluxes(field, g, "midpoint").values
    b = compute_fluxes(field, g, "gauss2").values
    scale = np.abs(a).max()
    assert np.abs(a - b).max() <= 1e-13 * scale


def test_gauss_beats_midpoint_on_curved_flux():
    # axis-1 faces of the pendulum integrate -sin(x1); gauss3 is closer to exact
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (6, 6), ("periodic", "periodic"))
    f = pendulum_field()
    mid = compute_fluxes(f, g, "midpoint").values
    g3 = compute_fluxes(f, g, "gauss3").values
    sel = slice(g.face_offsets[1], g.face_offsets[2])
    # exact: integral of -sin over [x-h/2, x+h/2] = -2 sin(x) sin(h/2)
    x1 = _face_points(g)[sel, 0]
    exact = -2.0 * np.sin(x1) * np.sin(g.h[0] / 2)
    err_mid = np.abs(mid[sel] - exact).max()
    err_g3 = np.abs(g3[sel] - exact).max()
    assert err_g3 < err_mid / 100


def test_pendulum_discrete_divergence_periodic():
    # transverse dependence of each component cancels across opposing faces
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (50, 50), ("periodic", "periodic"))
    fx = compute_fluxes(pendulum_field(), g)
    div = _divergence(fx)
    assert np.abs(div).max() <= 1e-12 * g.h[0]


def test_neumann_wall_divergence_is_truncation():
    # cutting the vertical flux at the x2 walls leaves an imbalance there
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (16, 16), ("periodic", "neumann"))
    fx = compute_fluxes(pendulum_field(), g)
    div = _divergence(fx).reshape(g.n, order="F")
    assert np.abs(div[:, 1:-1]).max() <= 1e-12 * g.h[0]
    assert np.abs(div[:, [0, -1]]).max() > 0.01 * g.h[0]


def test_rotation_divergence_free_periodic():
    g = build_grid(BoxDomain((-2, -2), (2, 2)), (12, 12), ("periodic", "periodic"))
    fx = compute_fluxes(rotation_field(), g)
    assert np.abs(_divergence(fx)).max() <= 1e-13


def test_dimension_mismatch_and_nonfinite():
    g = build_grid(BoxDomain((0.0,), (1.0,)), (4,), ("periodic",))
    with pytest.raises(ValueError):
        compute_fluxes(pendulum_field(), g)
    bad = VelocityField(func=lambda x: np.full_like(np.asarray(x, float), np.nan), dim=1)
    with pytest.raises(ValueError):
        compute_fluxes(bad, g)
