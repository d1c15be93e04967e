import re

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
    flow,
    pendulum_field,
    rotation_field,
    simulate_truth,
    VelocityField,
)
from fpfvm.grid import mesh
from reference_builders import face_points, face_sums, field_at, flat_fluxes, point_fluxes

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
    f = flat_fluxes(fx)
    return face_sums(fx.grid, f, -f)


def test_pendulum_values():
    f = pendulum_field()
    assert np.allclose(field_at(f, np.zeros(2)), [0.0, 0.0])
    assert np.allclose(field_at(f, [PI / 2, 1.0]), [1.0, -1.0], atol=1e-15)
    assert np.allclose(field_at(f, [-PI / 2, 2.0]), [2.0, 1.0], atol=1e-15)
    for g_over_l in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="g_over_l"):
            pendulum_field(g_over_l)


def test_field_from_name():
    assert np.allclose(field_at(field_from_name("pendulum"), [PI / 2, 1.0]), [1.0, -1.0])
    assert field_at(field_from_name("pendulum:2.5"), [PI / 2, 0.0])[1] == pytest.approx(-2.5)
    assert np.allclose(field_at(field_from_name("constant:1,2"), np.zeros(2)), [1.0, 2.0])
    assert np.allclose(field_at(field_from_name("rotation"), [1.0, 0.0]), [0.0, 1.0])
    with pytest.raises(ValueError):
        field_from_name("vortex")


def test_zero_field_fluxes():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (4, 4), ("periodic", "periodic"))
    fx = compute_fluxes(constant_field([0.0, 0.0]), g)
    assert np.all(flat_fluxes(fx) == 0.0)
    assert np.all(_divergence(fx) == 0.0)


def test_1d_constant_advection_fluxes():
    g = build_grid(BoxDomain((0.0,), (1.0,)), (8,), ("periodic",))
    fx = compute_fluxes(constant_field([3.0]), g)
    assert np.allclose(flat_fluxes(fx), 3.0, rtol=1e-15)  # face measure is 1 in 1D
    assert np.allclose(_divergence(fx), 0.0, atol=1e-15)


def test_pendulum_flux_matches_midpoint_rule():
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (8, 8), ("periodic", "neumann"))
    f = pendulum_field()
    flux = flat_fluxes(compute_fluxes(f, g))
    mids = _face_points(g)
    v = field_at(f, mids)
    axes, measures = _face_axes(g), _face_measures(g)
    for k in range(len(g.edges)):
        expected = measures[k] * v[k, axes[k]]
        assert flux[k] == pytest.approx(expected, abs=1e-15)
    # spot check: an axis-0 face at height x2 carries flux x2 * h
    k = g.face_offsets[0]
    assert flux[k] == pytest.approx(mids[k][1] * g.h[1], rel=1e-13)


def _swirl(xs):
    """A field whose every component reads two coordinates (one in 1D)."""
    d = len(xs)
    return tuple(np.sin(2 * xs[(i + 1) % d] + i) * (1 + xs[i]) for i in range(d))


@pytest.mark.parametrize("n,bc", [
    ((9,), ("dirichlet",)),
    ((4, 3, 5), ("periodic", "neumann", "dirichlet")),
])
def test_midpoint_flux_at_face_points(n, bc):
    # 1D and 3D faces, including low-side Dirichlet faces (lower cell outside)
    g = build_grid(BoxDomain((-1.0,) * len(n), (2.0,) * len(n)), n, bc)
    field = VelocityField(func=_swirl, dim=len(n))
    fx = compute_fluxes(field, g)
    v = field_at(field, _face_points(g))[np.arange(len(g.edges)), _face_axes(g)]
    assert np.abs(flat_fluxes(fx) - _face_measures(g) * v).max() <= 1e-14


QUADRATURES = ("midpoint", "gauss2", "gauss3")


@st.composite
def boxes(draw):
    """A 1-3D grid of 2-6 cells per axis with any boundary mix."""
    d = draw(st.integers(1, 3))
    n = tuple(draw(st.lists(st.integers(2, 6), min_size=d, max_size=d)))
    bc = tuple(draw(st.lists(st.sampled_from(("periodic", "neumann", "dirichlet")),
                             min_size=d, max_size=d)))
    lower = tuple(draw(st.lists(st.floats(-4.0, 0.0), min_size=d, max_size=d)))
    widths = draw(st.lists(st.floats(0.5, 8.0), min_size=d, max_size=d))
    return build_grid(BoxDomain(lower, tuple(lo + w for lo, w in zip(lower, widths))), n, bc)


def _mesh_points(xs):
    """The ``(m, d)`` points of a coordinate tuple, broadcast and flattened in
    C order."""
    return np.stack([x.ravel() for x in np.broadcast_arrays(*xs)], axis=-1)


@settings(max_examples=100, deadline=None)
@given(g=boxes(), quadrature=st.sampled_from(QUADRATURES))
def test_face_points_equal_the_gather_through_the_face_table(g, quadrature):
    """The coordinates ``compute_fluxes`` hands the field, broadcast to points,
    are, bit for bit, the centre of each face's cell inside the box moved half
    a cell along the face's axis, and for each quadrature node moved ``0.5 * h
    * node`` along the face's other axes, node by node in ``np.ndindex`` order
    within each face block."""
    d = g.domain.d
    seen = []

    def record(xs):
        seen.append(_mesh_points(xs))
        return (0.0,) * d

    compute_fluxes(VelocityField(func=record, dim=d), g, quadrature)
    expected = [pts for *_, pts in face_points(g, quadrature)]
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=boxes(), quadrature=st.sampled_from(QUADRATURES))
def test_mesh_fluxes_equal_the_point_path(data, g, quadrature):
    """Fluxes and outflow of a field evaluated on each face block's coordinate
    mesh equal, bit for bit, those of the same field called on the ``(m, d)``
    face points of the face-table reference, whatever coordinates each
    component reads: all, some, those of one group of a block's cube
    ``(high, k, low)`` or of part of one, only the face axis's, or none (a
    0-d array or a float)."""
    d = g.domain.d
    kinds = ["constant", "swirl", "scalar", "along"]
    kinds += ["pendulum", "rotation"] if d == 2 else ["part"] if d == 3 else []
    kind = data.draw(st.sampled_from(kinds))
    if kind == "constant":
        field = constant_field(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d,
                                                  max_size=d)))
    elif kind == "swirl":
        field = VelocityField(func=_swirl, dim=d)
    elif kind == "scalar":  # a 0-d component next to array components
        field = VelocityField(lambda xs: (np.array(-0.7),) + tuple(
            np.cos(xs[i]) * xs[0] for i in range(1, len(xs))), d)
    elif kind == "along":  # each component varies along its own axis only
        field = VelocityField(lambda xs: tuple(np.sin(x) + i for i, x in enumerate(xs)), d)
    elif kind == "part":  # components that vary along part of a cube group
        field = VelocityField(lambda xs: (np.sin(xs[1]), 0.5 - xs[2], 0.3 * xs[1]), d)
    elif kind == "pendulum":
        field = pendulum_field(data.draw(st.floats(0.1, 10.0)))
    else:
        field = rotation_field()
    fx = compute_fluxes(field, g, quadrature)
    flux, outflow = point_fluxes(field, g, quadrature)
    assert flat_fluxes(fx).tobytes() == flux.tobytes()
    assert fx.outflow.tobytes() == outflow.tobytes()


@pytest.mark.parametrize("quadrature", QUADRATURES)
def test_negative_zero_velocity_gives_positive_zero_fluxes(quadrature):
    """A field that is -0.0 at every node has fluxes of +0.0, as the face-table
    reference's zeroed sums do (``0.0 + -0.0`` is ``+0.0``)."""
    g = build_grid(BoxDomain((0.0, 0.0), (1.0, 1.0)), (3, 4), ("periodic", "dirichlet"))
    field = constant_field([-0.0, -0.0])
    fx = compute_fluxes(field, g, quadrature)
    flux = flat_fluxes(fx)
    assert flux.tobytes() == point_fluxes(field, g, quadrature)[0].tobytes()
    assert not np.signbit(flux).any()


@pytest.mark.parametrize("quadrature", QUADRATURES)
def test_pendulum_field_sees_coordinate_vectors(quadrature):
    """On an N x N pendulum grid every coordinate array the field receives
    has two axes, at most one of them longer than 1, and at most N values
    (a wrap block's own axis has one): the sine runs per angle, not per
    face."""
    N = 40
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (N, N), ("periodic", "neumann"))
    pendulum = pendulum_field()
    seen = []

    def record(xs):
        assert isinstance(xs, tuple) and len(xs) == 2
        seen.extend(xs)
        return pendulum.func(xs)

    fx = compute_fluxes(VelocityField(func=record, dim=2), g, quadrature)
    assert np.array_equal(flat_fluxes(fx), flat_fluxes(compute_fluxes(pendulum, g, quadrature)))
    assert seen
    for x in seen:
        assert x.ndim == 2 and sum(k > 1 for k in x.shape) <= 1 and x.size <= N


def test_gauss_agrees_with_midpoint_for_affine_fields():
    def affine(xs):
        return 0.3 + 1.7 * xs[1], -0.2 + 0.9 * xs[0]

    field = VelocityField(func=affine, dim=2)
    g = build_grid(BoxDomain((-1, -1), (1, 1)), (5, 7), ("dirichlet", "periodic"))
    a = flat_fluxes(compute_fluxes(field, g, "midpoint"))
    b = flat_fluxes(compute_fluxes(field, g, "gauss2"))
    scale = np.abs(a).max()
    assert np.abs(a - b).max() <= 1e-13 * scale


def test_gauss_beats_midpoint_on_curved_flux():
    # axis-1 faces of the pendulum integrate -sin(x1); gauss3 is closer to exact
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (6, 6), ("periodic", "periodic"))
    f = pendulum_field()
    mid = flat_fluxes(compute_fluxes(f, g, "midpoint"))
    g3 = flat_fluxes(compute_fluxes(f, g, "gauss3"))
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
    bad = VelocityField(func=lambda xs: tuple(np.full_like(x, np.nan) for x in xs), dim=1)
    with pytest.raises(ValueError):
        compute_fluxes(bad, g)


@pytest.mark.parametrize("component, shape", [
    (lambda xs: np.ones(3), "(3,)"),
    (lambda xs: xs[0][None], "(1, 1, 4)"),
])
def test_a_component_that_does_not_fit_its_faces_names_its_shape(component, shape):
    """A component that does not broadcast to the mesh of its faces raises a
    ``ValueError`` that names the face axis and the shape it returned: a
    length-3 vector, and a component with an extra leading axis."""
    g = build_grid(BoxDomain((0.0, 0.0), (1.0, 1.0)), (5, 6), ("periodic", "neumann"))
    field = VelocityField(lambda xs: (component(xs), xs[1]), dim=2)
    with pytest.raises(ValueError, match=re.escape(f"component 0 has shape {shape}") + ".*axis 0"):
        compute_fluxes(field, g)


def test_flow_of_one_point_is_simulate_truth():
    """simulate_truth is one flow per interval: the default filter's truth,
    from (0.2 pi, 0) to k * 2 pi / 7 for k = 1..6, bit for bit."""
    times = [k * 2.0 * PI / 7.0 for k in range(1, 7)]
    field, x, t, states = pendulum_field(), (0.2 * PI, 0.0), 0.0, []
    for tk in times:
        x, t = flow(field, x, tk - t), tk
        states.append(x)
    truth = simulate_truth(field, (0.2 * PI, 0.0), times)
    assert np.array_equal(np.array(states, dtype=float), truth)


def test_flow_of_an_open_mesh_is_flow_of_each_point():
    thetas, vs = np.linspace(-3.0, 3.0, 7), np.linspace(-2.0, 2.0, 5)
    field = pendulum_field()
    moved = np.broadcast_arrays(*flow(field, mesh((thetas, vs)), 0.05))
    for j, v in enumerate(vs.tolist()):
        for i, theta in enumerate(thetas.tolist()):
            assert (moved[0][j, i], moved[1][j, i]) == flow(field, (theta, v), 0.05)


def test_flow_of_rotation_is_the_rotation():
    x, y = mesh((np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 7)))
    for t in (PI / 2, -PI / 2):
        u, w = flow(rotation_field(), (x, y), t)
        assert np.abs(u - (x * np.cos(t) - y * np.sin(t))).max() <= 1e-9
        assert np.abs(w - (x * np.sin(t) + y * np.cos(t))).max() <= 1e-9


def test_flow_forward_then_backward_returns():
    start = np.broadcast_arrays(*mesh((np.linspace(-3.0, 3.0, 13), np.linspace(-2.0, 2.0, 9))))
    field = pendulum_field()
    back = flow(field, flow(field, tuple(start), PI / 4), -PI / 4)
    for a in range(2):
        assert np.abs(back[a] - start[a]).max() <= 1e-10


def test_flow_of_no_time_calls_no_field():
    def fail(xs):
        raise AssertionError("the field was called")
    xs = (np.arange(3.0), 1.0)
    for span in (0.0, -0.0):
        assert flow(VelocityField(fail, dim=2), xs, span) is xs


@pytest.mark.parametrize("span", [1e306, -1e306, np.inf, np.nan])
def test_flow_rejects_a_non_finite_substep_count(span):
    with pytest.raises(ValueError, match="non-finite RK4 step count"):
        flow(rotation_field(), (1.0, 0.0), span)
