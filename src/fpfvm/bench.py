"""Mesh-refinement study: L1 self-convergence of the evolved density.

Each level projects the same initial pdf on an N-per-axis grid, evolves it
to a common final time in steps of :func:`operator.choose_dt`, and compares
consecutive levels after exact prolongation of the coarser result.  Effective
orders are ``-log2(diff_k / diff_{k-1})`` between consecutive differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .density import Density, l1_distance, normalize, project
from .grid import BoxDomain, _check_cells, build_grid
from .operator import assemble, choose_dt, evolve, max_stable_dt, step_count
from .velocity import VelocityField, compute_fluxes

_MAX_STEPS = 2**31 - 1  # steps of one level, the int32 limit of a grid's cells


@dataclass(frozen=True)
class ConvergenceRow:
    n: int                        # cells per axis of the coarser level
    l1_diff: float                # L1 distance to the next (doubled) level
    effective_order: float | None  # vs the previous row; None on the first


def _validate_levels(n_list: Sequence[int], d: int) -> tuple[int, ...]:
    """The levels as ints; raise unless there are at least two, each doubles
    the last, and each gives a valid ``d``-dimensional grid."""
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 2:
        raise ValueError("need at least two refinement levels")
    for a, b in zip(n_list, n_list[1:]):
        if b != 2 * a:
            raise ValueError(f"levels must double at each step; {a} -> {b} does not")
    for n in n_list:
        _check_cells((n,) * d)
    return n_list


def _orders(diffs: Sequence[float]) -> list[float | None]:
    """``-log2(diffs[i] / diffs[i - 1])`` per entry; None on the first entry
    and where either difference is zero."""
    return [None] + [float(-np.log2(b / a)) if a > 0 and b > 0 else None
                     for a, b in zip(diffs, diffs[1:])]


def run_level(field: VelocityField, domain: BoxDomain, bc: Sequence[str],
              prior_pdf, t_final: float, n: int, xi: float,
              dt_over_h: float | None = None,
              quadrature: str = "midpoint",
              normalize_prior: bool = False) -> Density:
    """Project the prior on an n-per-axis grid and evolve to ``t_final``.

    The step is :func:`choose_dt` of the CFL report for ``xi`` (computed on
    every call, so a bad ``xi`` is rejected even at ``t_final == 0``) over
    the span ``t_final``, so no endpoint ambiguity remains.  ``t_final == 0``
    returns the projected prior; a massless prior, a negative or non-finite
    ``t_final``, or one whose step count overflows or exceeds ``_MAX_STEPS``,
    raises before the first step.
    """
    if not 0 <= t_final < np.inf:
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    grid = build_grid(domain, (n,) * domain.d, bc)
    dens = project(prior_pdf, grid, quadrature)
    if normalize_prior or not dens.mass > 0:  # normalize raises on a massless prior
        dens = normalize(dens)
    fluxes = compute_fluxes(field, grid, quadrature)
    dt = choose_dt(max_stable_dt(fluxes, xi), max(grid.h), dt_over_h, t_final)
    if t_final == 0:
        return dens
    steps = step_count(t_final, dt, "t_final")
    if steps > _MAX_STEPS:
        raise ValueError(f"t_final={t_final} takes {steps} steps of {dt}, "
                         f"more than {_MAX_STEPS}")
    op = assemble(fluxes, dt)
    del fluxes  # no step reads the fluxes or the outflow
    return evolve(op, dens, t_final)


def convergence_study(field: VelocityField, domain: BoxDomain, bc: Sequence[str],
                      prior_pdf, t_final: float, n_list: Sequence[int], xi: float,
                      dt_over_h: float | None = None,
                      quadrature: str = "midpoint",
                      normalize_prior: bool = False) -> list[ConvergenceRow]:
    """Inter-level L1 differences and effective orders.

    Row i compares levels ``n_list[i]`` and ``n_list[i+1]``, so the result
    has one row fewer than ``n_list``; the first row carries no order.
    Each level is a :func:`run_level` with step rule ``dt_over_h``.
    """
    n_list = _validate_levels(n_list, domain.d)
    levels = [
        run_level(field, domain, bc, prior_pdf, t_final, n, xi,
                  dt_over_h, quadrature, normalize_prior)
        for n in n_list
    ]
    diffs = [l1_distance(a, b) for a, b in zip(levels, levels[1:])]
    return [ConvergenceRow(n=n, l1_diff=float(diff), effective_order=order)
            for n, diff, order in zip(n_list, diffs, _orders(diffs))]


def write_convergence_csv(rows: Sequence[ConvergenceRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("n,l1_diff,effective_order\n")
        for r in rows:
            order = "" if r.effective_order is None else f"{r.effective_order:.17g}"
            fh.write(f"{r.n},{r.l1_diff:.17g},{order}\n")


def format_convergence_table(rows: Sequence[ConvergenceRow]) -> str:
    """Human-readable aligned table of L1 differences and effective orders."""
    lines = [f"{'N':>6}  {'L1 diff':>12}  {'eff. order':>10}"]
    for r in rows:
        order = "-" if r.effective_order is None else f"{r.effective_order:.4f}"
        lines.append(f"{r.n:>6}  {r.l1_diff:>12.5f}  {order:>10}")
    return "\n".join(lines)
