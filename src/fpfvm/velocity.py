"""Velocity fields and face fluxes.

A field's ``func`` takes coordinates, not points: a tuple of ``d`` float
arrays that broadcast together (``xs[a]`` holds coordinate ``a``), and
returns ``d`` velocity components, each broadcastable to their shape.  So a
component is computed on as many values as the coordinates it reads: on the
open :func:`~fpfvm.grid.mesh` of a face block the pendulum's ``-g sin x1``
runs once per angle, not once per face.  Pdfs and log-likelihoods take
coordinates the same way, and :func:`flow` carries them along a field by RK4.
Face fluxes are the integrals of the velocity component along each face's
axis over the face, computed one face block of ``grid.face_blocks()`` at a
time, in passes of at most ``_FLUX_CHUNK`` faces (after the first, of the
values the block keeps), and kept at the shape the component has: one array
per block, shaped like the block's cube ``(high, k, low)`` with extent 1 on
each group of coordinates the component does not vary along.  The
pendulum's fluxes are three blocks of N values, not one value per face; no
set-up layer builds the face table.  A flux is positive when mass flows
toward +axis, from the face's lower cell ``cell_a`` into its upper cell
``cell_b``; the two sides see opposite signs by construction.
The quadrature and the upwind outflow run on the calling thread, so a
field's ``func`` is only ever called there and need not be thread-safe; this
module starts no thread.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import Grid, mesh

_FLUX_CHUNK = 1 << 16  # faces, or kept values, per quadrature pass of compute_fluxes


@dataclass(frozen=True)
class VelocityField:
    """Vector field of dimension ``dim``.

    ``func(xs)`` maps a tuple of ``dim`` float coordinate arrays that
    broadcast together to ``dim`` components, each broadcastable to their
    shape.
    """

    func: Callable[[tuple[np.ndarray, ...]], Sequence]
    dim: int


@dataclass(frozen=True)
class EdgeFluxes:
    """Per-face fluxes, one array per block of ``grid.face_blocks()``.

    ``blocks[b]`` is shaped like block ``b``'s cube ``(high, k, low)``, with
    extent 1 on each group the field's component does not vary along, so
    ``np.broadcast_to(blocks[b], (high, k, low))`` gives one signed value
    per face of the block, in its C order.  A flux is positive toward +axis
    (out of the lower cell ``cell_a``, into the upper cell ``cell_b``), so
    the antisymmetry of opposing fluxes is structural.  On a low-side
    Dirichlet face (``cell_a == -1``) a positive flux enters the box.
    ``outflow`` is the per-cell upwind outflow ``sum_L (v_KL)_+``, the load
    behind the step-size bound and the diagonal of the transition matrix.
    """

    blocks: tuple[np.ndarray, ...]
    quadrature: str
    grid: Grid
    outflow: np.ndarray


def pendulum_field(g_over_l: float = 1.0) -> VelocityField:
    """Planar pendulum in (angle, angular velocity) coordinates.

    v(x) = (x2, -(g/l) sin x1), divergence free.
    """
    if not 0 < g_over_l < np.inf:
        raise ValueError(f"g_over_l={g_over_l!r} must be positive and finite")
    g = float(g_over_l)
    return VelocityField(func=lambda xs: (xs[1], -g * np.sin(xs[0])), dim=2)


def rotation_field() -> VelocityField:
    """Rigid rotation v(x) = (-x2, x1)."""
    return VelocityField(func=lambda xs: (-xs[1], xs[0]), dim=2)


def constant_field(c) -> VelocityField:
    """Spatially constant field v(x) = c."""
    c = np.asarray(c, dtype=float).ravel()
    if c.size == 0:
        raise ValueError("constant field needs at least one component")
    cc = tuple(c)
    return VelocityField(func=lambda xs: cc, dim=len(cc))


def field_from_name(name: str) -> VelocityField:
    """Build a named field: ``pendulum[:g_over_l]``, ``constant:c1,c2,...``,
    or ``rotation``; any other spec, a number among them that does not parse
    included, raises ``ValueError`` naming the spec and these forms."""
    name = name.strip()
    kind, colon, args = name.partition(":")
    try:
        values = [float(v) for v in args.split(",")] if colon else []
    except ValueError:
        values = None
    if kind == "pendulum" and values is not None and len(values) <= 1:
        return pendulum_field(*values)
    if name == "rotation":
        return rotation_field()
    if kind == "constant" and values:
        return constant_field(values)
    raise ValueError(f"field {name!r} is not 'pendulum', 'pendulum:<g_over_l>', "
                     "'rotation' or 'constant:<c1>,<c2>,...'")


def flow(field: VelocityField, xs: tuple, span: float) -> tuple:
    """The coordinates ``xs`` (floats or arrays that broadcast together, as
    ``func`` takes them) carried along ``field`` for time ``span``, backward if
    negative: classical RK4 in ``ceil(|span| / 1e-3)`` equal substeps, unwrapped."""
    if span == 0:
        return xs
    if not abs(span) / 1e-3 < np.inf:
        raise ValueError(f"span {span} takes a non-finite RK4 step count")
    nsub = max(1, math.ceil(abs(span) / 1e-3 - 1e-12))
    h, func = span / nsub, field.func
    for _ in range(nsub):
        k1 = func(xs)
        k2 = func(tuple(xi + 0.5 * h * k for xi, k in zip(xs, k1)))
        k3 = func(tuple(xi + 0.5 * h * k for xi, k in zip(xs, k2)))
        k4 = func(tuple(xi + h * k for xi, k in zip(xs, k3)))
        xs = tuple(xi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + e)
                   for xi, a, b, c, e in zip(xs, k1, k2, k3, k4))
    return xs


def _parse_quadrature(tag: str) -> tuple[str, int]:
    tag = str(tag).strip().lower()
    if tag == "midpoint":
        return "midpoint", 1
    m = re.fullmatch(r"gauss(\d+)", tag)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise ValueError(f"quadrature {tag!r}: gauss order must be >= 1")
        return "gauss", k
    raise ValueError(f"unknown quadrature {tag!r} (use 'midpoint' or 'gauss<k>')")


@functools.cache
def _gauss_legendre(k: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the k-point Gauss-Legendre rule on [-1, 1], the
    midpoint rule for k = 1; worked out once per k, since ``leggauss`` takes
    about 0.1 ms of the interpreter and a flux build asks once a pass."""
    if k == 1:
        return (0.0,), (2.0,)
    nodes, weights = np.polynomial.legendre.leggauss(k)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def tensor_rule(quadrature: str, coords, h, axes):
    """Yield ``(weight, coords)`` of the averaged tensor Gauss-Legendre rule over
    ``axes`` of the boxes of sides ``h`` around the points of the per-axis
    coordinate vectors ``coords``: a node's coordinates are ``coords`` with each
    ``coords[ax]`` moved by ``0.5 * h[ax] * node``, for the caller to make a
    mesh of (:func:`~fpfvm.grid.mesh`).  The weights sum to 1; midpoint is the
    1-point rule, node 0."""
    _, k = _parse_quadrature(quadrature)  # midpoint is the 1-point rule
    nodes, weights = _gauss_legendre(k)
    for combo in np.ndindex(*(k,) * len(axes)):
        shifted = list(coords)
        for j, ax in zip(combo, axes):
            shifted[ax] = coords[ax] + 0.5 * h[ax] * nodes[j]
        yield math.prod((weights[j] / 2.0 for j in combo), start=1.0), shifted


def compute_fluxes(field: VelocityField, grid: Grid,
                   quadrature: str = "midpoint") -> EdgeFluxes:
    """Integrate the velocity component along each face's axis over the face.

    ``gauss<k>`` uses a k-point tensor Gauss-Legendre rule over the face;
    ``midpoint`` is the 1-point rule, evaluating at face midpoints.  In 1D
    faces are points and all rules coincide.  The quadrature
    (:func:`_face_fluxes`) and the upwind outflow (:func:`_upwind_outflow`)
    run on the calling thread, so ``field.func`` is called on no other.
    """
    if field.dim != grid.domain.d:
        raise ValueError(
            f"field dimension {field.dim} != grid dimension {grid.domain.d}")
    kind, k = _parse_quadrature(quadrature)
    blocks = _face_fluxes(field, grid, quadrature)
    outflow = _upwind_outflow(grid, blocks)
    outflow.flags.writeable = False
    tag = "midpoint" if kind == "midpoint" else f"gauss{k}"
    return EdgeFluxes(blocks=blocks, quadrature=tag, grid=grid, outflow=outflow)


def _face_fluxes(field: VelocityField, grid: Grid, quadrature: str) -> tuple[np.ndarray, ...]:
    """The fluxes of every block of ``grid.face_blocks()``, each at the shape
    its component has on the block's cube.

    The face midpoints have the grid's ``centres`` as coordinates, those of
    the face axis cut to a block's lower cells and moved half a cell up, or
    where the lower side is outside, to its upper cells and moved half a cell
    down.  The rule runs over whole layers of the outermost coordinate
    vector at a time (:func:`_rule_sum`).  The first pass takes at most
    ``_FLUX_CHUNK`` faces and at least two layers; its sums show which
    groups of the cube ``(high, k, low)`` the component varies along, and
    the block keeps extent 1 on the others.  Where that is the outermost
    coordinate's group, the first pass covers the whole block; otherwise the
    later passes, of at most ``_FLUX_CHUNK`` of the values the block keeps
    and at least one layer, sum into their layers of the block in place."""
    d = grid.domain.d
    centres = [grid.centres(a) for a in range(d)]
    blocks = []
    for axis, _, lower, upper, _ in grid.face_blocks():
        half = 0.5 * grid.h[axis]
        coords = list(centres)
        coords[axis] = coords[axis][upper] - half if lower is None else coords[axis][lower] + half
        shape = [len(c) for c in reversed(coords)]  # the block's mesh, outermost first
        outer = coords[-1]
        step = max(2, _FLUX_CHUNK // math.prod(shape[1:]))
        coords[-1] = outer[:step]
        first = _rule_sum(field, grid, quadrature, coords, axis)
        first = np.reshape(first, (1,) * (d - np.ndim(first)) + np.shape(first))
        # the mesh axes of the cube's groups high, k and low; a group keeps
        # its extents where the component varies along one of its axes
        groups = (range(0, d - 1 - axis), range(d - 1 - axis, d - axis), range(d - axis, d))
        shape = tuple(n if any(first.shape[i] > 1 for i in g) else 1
                      for g in groups for n in shape[g.start:g.stop])
        if first.shape == shape:  # the first pass covered the block
            block = first
        elif first.shape[0] == 1:  # not along the outermost coordinate
            block = np.empty(shape)
            block[...] = first
        else:  # later passes sized by the values the block keeps
            block = np.empty(shape)
            block[:step] = first
            later = max(1, _FLUX_CHUNK // math.prod(shape[1:]))
            for o0 in range(step, len(outer), later):
                coords[-1] = outer[o0:o0 + later]
                _rule_sum(field, grid, quadrature, coords, axis, block[o0:o0 + later])
        block = block.reshape([math.prod(shape[g.start:g.stop]) for g in groups])
        block.flags.writeable = False
        blocks.append(block)
    return tuple(blocks)


def _rule_sum(field: VelocityField, grid: Grid, quadrature: str, coords, axis: int,
              out: np.ndarray | None = None):
    """The fluxes of one pass: ``w * func(mesh(node))[axis]`` summed over the
    nodes of the rule on ``coords`` and scaled by the face measure, summed
    into ``out`` in place, or without ``out`` into a new array of the terms'
    broadcast shape (in place too, once that is the pass's faces).  A
    component that does not broadcast to the pass's faces, and a non-finite
    flux, raise ``ValueError``."""
    shape = tuple(len(c) for c in reversed(coords)) if out is None else out.shape
    axes = [j for j in range(len(coords)) if j != axis]
    acc = 0.0
    for i, (w, node) in enumerate(tensor_rule(quadrature, coords, grid.h, axes)):
        # the first node adds to 0.0, not to zeroed faces: the same bits,
        # signed zeros included, without a zeroing pass
        acc = np.add(acc if i else 0.0, _fitted(w * field.func(mesh(node))[axis], shape, axis),
                     out=out)
        if np.shape(acc) == shape:
            out = acc
    acc = np.multiply(acc, grid.cell_volume / grid.h[axis], out=out)
    if not np.isfinite(acc).all():
        raise ValueError("velocity field produced non-finite flux values")
    return acc


def _fitted(term, shape: tuple, axis: int):
    """``term``, once it is seen to broadcast to ``shape``, the faces of a
    pass along ``axis``; otherwise ``ValueError``.  A call, not a name, so
    that no component outlives the statement that sums it: a name would
    hold one through the next node's field call."""
    got = np.shape(term)
    if len(got) > len(shape) or any(a not in (1, b) for a, b in zip(got[::-1], shape[::-1])):
        raise ValueError(f"velocity component {axis} has shape {got}, which does not "
                         f"broadcast to the shape {shape} of its faces along axis {axis}")
    return term


def _upwind_outflow(grid: Grid, blocks) -> np.ndarray:
    """Per-cell ``sum_L (v_KL)_+`` of the face blocks' fluxes ``blocks``, in
    one pass on the calling thread: each face's positive part added to its
    lower cell, then each face's negative part subtracted from its upper
    cell, face block by face block through cube slices.  Every cell adds its
    terms in face order, so the sums are those of a scatter over the face
    table.  A block with one flux per face adds through a mask; a smaller one
    adds its parts broadcast, zeros included: a cell starts at +0.0 and gains
    only nonnegative terms, so adding +0.0 or -0.0 leaves its bits as they
    are."""
    out = np.zeros(grid.ncells)
    for lower_side in (True, False):
        for (_, cube, lower, upper, _), f in zip(grid.face_blocks(), blocks):
            rows = lower if lower_side else upper
            if rows is None:
                continue
            cells = out.reshape(cube)[:, rows]
            if f.shape == cells.shape:
                if lower_side:
                    np.add(cells, f, out=cells, where=f > 0.0)
                else:
                    np.subtract(cells, f, out=cells, where=f < 0.0)
            elif lower_side:
                cells += np.maximum(f, 0.0)
            else:
                cells -= np.minimum(f, 0.0)
    return out
