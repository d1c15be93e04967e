import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpfvm import BoxDomain, build_grid
from reference_builders import cell_midpoints, lattice

PI = np.pi
BCS = ("periodic", "neumann", "dirichlet")


def _interior(t):
    """Mask of faces shared by two cells (periodic wraps included)."""
    return (t.cell_a >= 0) & (t.cell_b >= 0)


def test_reference_grid_counts():
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (50, 50), ("periodic", "neumann"))
    assert g.ncells == 2500
    assert g.h == (2 * PI / 50, 2 * PI / 50)
    assert g.cell_volume == pytest.approx((2 * PI / 50) ** 2, rel=1e-15)


def _neighbours(g, cell):
    """(other cell, face index) for every face of ``cell``; -1 across a wall."""
    t = g.edges
    hits = np.nonzero((t.cell_a == cell) | (t.cell_b == cell))[0]
    return [(int(t.cell_b[k]) if t.cell_a[k] == cell else int(t.cell_a[k]), int(k))
            for k in hits]


def _axis(g, k):
    """Axis of face k: the block of ``face_offsets`` it falls in."""
    return int(np.searchsorted(g.face_offsets, k, side="right")) - 1


def _flat(g, *multi):
    """Flat index of a cell multi-index (axis 0 fastest)."""
    return int(np.ravel_multi_index(multi, g.n, order="F"))


def _multi(g, cells):
    """(len(cells), d) multi-indices of flat cell indices."""
    return np.stack(np.unravel_index(cells, g.n, order="F"), axis=-1)


def _face_coord(g, k):
    """Coordinate of face k along its axis, from the multi-index of a cell
    inside the box: the top of the lower cell, or the bottom of the upper."""
    t = g.edges
    a = _axis(g, k)
    if t.cell_a[k] >= 0:
        return g.domain.lower[a] + (_multi(g, t.cell_a[k])[a] + 1) * g.h[a]
    return g.domain.lower[a] + _multi(g, t.cell_b[k])[a] * g.h[a]


def test_1d_periodic_ring():
    g = build_grid(BoxDomain((0.0,), (1.0,)), (4,), ("periodic",))
    assert g.ncells == 4
    t = g.edges
    assert len(t) == 4
    # every face is shared by two cells; each cell appears twice
    assert _interior(t).all()
    assert g.face_offsets == (0, 4)
    assert g.cell_volume / g.h[0] == 1.0  # 0-dimensional faces carry measure one
    counts = np.bincount(t.cell_a, minlength=4) + np.bincount(t.cell_b, minlength=4)
    assert (counts == 2).all()


def test_2d_periodic_neumann_edge_count():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (2, 2), ("periodic", "neumann"))
    t = g.edges
    # 4 wrapped faces along axis 0, 2 interior faces along axis 1,
    # Neumann boundary faces dropped
    assert len(t) == 6
    assert g.face_offsets == (0, 4, 6)
    assert _interior(t).all()


def test_2d_dirichlet_edge_counts():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (2, 2), ("dirichlet", "dirichlet"))
    t = g.edges
    assert _interior(t).sum() == 4
    boundary = np.nonzero(~_interior(t))[0]
    assert boundary.size == 8
    # low-side boundary faces have the outside below them, high side above
    for k in boundary:
        a = _axis(g, k)
        lo, hi = g.domain.lower[a], g.domain.upper[a]
        coord = _face_coord(g, k)
        assert coord in (lo, hi)
        assert (t.cell_a[k] == -1) == (coord == lo)
        assert (t.cell_b[k] == -1) == (coord == hi)
        # the face point is half a cell from the centre of the cell inside
        if coord == lo:
            centre = cell_midpoints(g)[t.cell_b[k], a]
            assert centre - 0.5 * g.h[a] == pytest.approx(coord, abs=1e-15)
        else:
            centre = cell_midpoints(g)[t.cell_a[k], a]
            assert centre + 0.5 * g.h[a] == pytest.approx(coord, abs=1e-15)
    for a in range(2):
        block = slice(g.face_offsets[a], g.face_offsets[a + 1])
        assert (t.cell_a[block] == -1).sum() == 2
        assert (t.cell_b[block] == -1).sum() == 2


def test_3x3_dirichlet_face_census():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (3, 3), ("dirichlet", "dirichlet"))
    assert g.ncells == 9
    t = g.edges
    assert _interior(t).sum() == 12
    assert (~_interior(t)).sum() == 12


def test_neighbors_interior_cell():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (3, 3), ("dirichlet", "dirichlet"))
    center = _flat(g, 1, 1)
    nb = _neighbours(g, center)
    assert len(nb) == 4
    assert sorted(c for c, _ in nb) == sorted(
        [_flat(g, 0, 1), _flat(g, 2, 1), _flat(g, 1, 0), _flat(g, 1, 2)])


def test_neighbors_periodic_two_cells():
    g = build_grid(BoxDomain((0.0,), (1.0,)), (2,), ("periodic",))
    nb = _neighbours(g, 0)
    # wrap-around gives two distinct faces to the same cell
    assert [c for c, _ in nb] == [1, 1]
    assert nb[0][1] != nb[1][1]


def test_neighbors_corner_periodic_neumann():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (2, 2), ("periodic", "neumann"))
    nb = _neighbours(g, _flat(g, 0, 0))
    # two periodic-wrapped neighbours along axis 0, one interior along axis 1
    assert len(nb) == 3
    assert sorted(c for c, _ in nb) == sorted(
        [_flat(g, 0, 1), _flat(g, 1, 0), _flat(g, 1, 0)])


def test_neighbors_share_one_face():
    g = build_grid(BoxDomain((0, 0), (1, 1)), (3, 3), ("periodic", "periodic"))
    a, b = _flat(g, 0, 1), _flat(g, 1, 1)
    ea = {k for c, k in _neighbours(g, a) if c == b}
    eb = {k for c, k in _neighbours(g, b) if c == a}
    assert ea == eb and len(ea) == 1


def test_face_measure_sum_fully_periodic():
    g = build_grid(BoxDomain((0, 0), (2, 3)), (4, 6), ("periodic", "periodic"))
    t = g.edges
    measure = np.repeat([g.cell_volume / h for h in g.h], np.diff(g.face_offsets))
    per_cell = np.zeros(g.ncells)
    np.add.at(per_cell, t.cell_a, measure)
    np.add.at(per_cell, t.cell_b, measure)
    expected = 2 * sum(g.cell_volume / h for h in g.h)
    assert np.allclose(per_cell, expected, rtol=1e-14)


def test_edge_geometry():
    g = build_grid(BoxDomain((0, 0), (1, 2)), (2, 4), ("dirichlet", "periodic"))
    t = g.edges
    for k in range(len(t)):
        a = _axis(g, k)
        trans = [j for j in range(2) if j != a]
        measure = g.cell_volume / g.h[a]
        assert measure == pytest.approx(np.prod([g.h[j] for j in trans]), rel=1e-15)
        if t.cell_a[k] < 0:
            assert _multi(g, t.cell_b[k])[a] == 0
            continue
        if t.cell_b[k] < 0:
            assert _multi(g, t.cell_a[k])[a] == g.n[a] - 1
            continue
        # interior faces join cell_a to the next cell up the axis
        ma, mb = _multi(g, t.cell_a[k]), _multi(g, t.cell_b[k])
        assert mb[a] == (ma[a] + 1) % g.n[a]
        assert all(mb[j] == ma[j] for j in trans)
        centre = cell_midpoints(g)[t.cell_a[k], a]
        assert centre + 0.5 * g.h[a] == pytest.approx(
            g.domain.lower[a] + (ma[a] + 1) * g.h[a], rel=1e-15)


@pytest.mark.parametrize("n,bc", [
    ((6,), ("dirichlet",)),
    ((3, 4), ("dirichlet", "periodic")),
    ((2, 3, 4), ("neumann", "dirichlet", "dirichlet")),
])
def test_face_table_is_two_index_arrays(n, bc):
    g = build_grid(BoxDomain((0,) * len(n), (1,) * len(n)), n, bc)
    t = g.edges
    arrays = {k: v for k, v in vars(t).items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == ["cell_a", "cell_b"]
    assert all(v.dtype == np.int32 and v.shape == (len(t),) for v in arrays.values())
    # offsets partition the faces into one block per axis, in axis order
    assert len(g.face_offsets) == g.domain.d + 1
    assert g.face_offsets[0] == 0 and g.face_offsets[-1] == len(t)
    for a in range(g.domain.d):
        block = slice(g.face_offsets[a], g.face_offsets[a + 1])
        ca, cb = t.cell_a[block], t.cell_b[block]
        inside = (ca >= 0) & (cb >= 0)
        ma, mb = _multi(g, ca[inside]), _multi(g, cb[inside])
        assert np.array_equal(mb[:, a], (ma[:, a] + 1) % g.n[a])
        # Dirichlet faces: (-1, c) below the lowest cells, (c, -1) above the highest
        layer = np.prod(g.n) // g.n[a] if bc[a] == "dirichlet" else 0
        low, high = cb[ca == -1], ca[cb == -1]
        assert low.size == high.size == layer
        assert np.all(_multi(g, low)[:, a] == 0)
        assert np.all(_multi(g, high)[:, a] == g.n[a] - 1)
        assert not ((ca == -1) & (cb == -1)).any()


def _reference_edge_table(n, bc):
    """(cell_a, cell_b, offsets) by stepping multi-indices along each axis."""
    idx = np.arange(int(np.prod(n)))
    multi = np.unravel_index(idx, n, order="F")
    cell_a, cell_b, offsets = [], [], [0]
    for a, na in enumerate(n):
        ma = multi[a]
        # interior faces step +1 along a; a periodic wrap steps from na - 1 to 0
        steps = [(ma < na - 1, 1)] + ([(ma == na - 1, 1 - na)] if bc[a] == "periodic" else [])
        for sel, shift in steps:
            comps = [m[sel] for m in multi]
            comps[a] = comps[a] + shift
            cell_a.append(idx[sel])
            cell_b.append(np.ravel_multi_index(comps, n, order="F"))
        if bc[a] == "dirichlet":
            low, high = idx[ma == 0], idx[ma == na - 1]
            cell_a += [np.full(low.size, -1), high]
            cell_b += [low, np.full(high.size, -1)]
        offsets.append(sum(c.size for c in cell_a))
    return np.concatenate(cell_a), np.concatenate(cell_b), tuple(offsets)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_edge_table_matches_multi_index_enumeration(data):
    d = data.draw(st.integers(1, 3))
    n = tuple(data.draw(st.lists(st.integers(2, 7), min_size=d, max_size=d)))
    bc = tuple(data.draw(st.lists(st.sampled_from(BCS), min_size=d, max_size=d)))
    g = build_grid(BoxDomain((0.0,) * d, (1.0,) * d), n, bc)
    t = g.edges
    cell_a, cell_b, offsets = _reference_edge_table(n, bc)
    assert t.cell_a.dtype == t.cell_b.dtype == np.int32
    assert np.array_equal(t.cell_a, cell_a)
    assert np.array_equal(t.cell_b, cell_b)
    assert g.face_offsets == offsets
    # the face slices of face_blocks() tile range(face_offsets[-1]) in order,
    # axis by axis, one face per cell of each block's sliced cube
    stop, axis, ends = 0, 0, {}
    for a, (high, na, low), lower, upper, faces in g.face_blocks():
        assert a >= axis and faces.start == stop
        picked = [len(range(na)[sl]) for sl in (lower, upper) if sl is not None]
        assert len(set(picked)) == 1
        assert faces.stop - faces.start == high * picked[0] * low
        stop, axis, ends[a] = faces.stop, a, faces.stop
    assert stop == g.face_offsets[-1]
    assert ends == {a: g.face_offsets[a + 1] for a in range(d)}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lattice_row_is_the_coordinate_of_each_axis(data):
    """Row ``i`` of ``lattice(coords)``, the library's ``mesh`` broadcast and
    flattened, takes, on each axis ``a``, entry ``m[a]`` of ``coords[a]``,
    where ``m`` is the multi-index of flat cell ``i`` (axis 0 fastest)."""
    d = data.draw(st.integers(1, 3))
    coords = [np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6)))
              for _ in range(d)]
    n = tuple(len(c) for c in coords)
    pts = lattice(coords)
    assert pts.shape == (np.prod(n), d)
    for i in range(len(pts)):
        m = np.unravel_index(i, n, order="F")
        assert [pts[i, a] for a in range(d)] == [coords[a][m[a]] for a in range(d)]


@pytest.mark.parametrize("n", [(2**16, 2**15), (2**16, 2**16), (2**11,) * 3])
def test_cell_count_beyond_int32_rejected_before_allocation(n):
    dom = BoxDomain((0.0,) * len(n), (1.0,) * len(n))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int32"):
            build_grid(dom, n, ("periodic",) * len(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_validation_errors():
    with pytest.raises(ValueError):
        BoxDomain((0.0,), (0.0,))
    with pytest.raises(ValueError):
        BoxDomain((0, 0), (1,))
    with pytest.raises(ValueError):
        BoxDomain((0,) * 4, (1,) * 4)
    dom = BoxDomain((0, 0), (1, 1))
    with pytest.raises(ValueError):
        build_grid(dom, (1, 4), ("periodic", "periodic"))
    with pytest.raises(ValueError):
        build_grid(dom, (4,), ("periodic", "periodic"))
    with pytest.raises(ValueError):
        build_grid(dom, (4, 4), ("periodic",))
    with pytest.raises(ValueError):
        build_grid(dom, (4, 4), ("periodic", "reflecting"))
