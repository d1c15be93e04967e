"""Mesh-refinement studies: L1 self-convergence and expectation convergence.

Each level projects the same initial pdf on an N-per-axis grid, evolves it
to a common final time, and compares consecutive levels after exact
prolongation of the coarser result.  Effective orders are
``-log2(diff_k / diff_{k-1})`` between consecutive inter-level differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .density import Density, expectation, l1_distance, normalize, project
from .grid import BoxDomain, build_grid
from .operator import assemble, evolve, max_stable_dt
from .velocity import VelocityField, compute_fluxes


@dataclass(frozen=True)
class ConvergenceRow:
    n: int                        # cells per axis of the coarser level
    l1_diff: float                # L1 distance to the next (doubled) level
    effective_order: float | None  # vs the previous row; None on the first


@dataclass(frozen=True)
class ExpectationRow:
    n: int
    value: float
    diff: float | None   # |value - previous value|
    order: float | None  # -log2 of successive diff ratio


def _validate_levels(n_list: Sequence[int]) -> tuple[int, ...]:
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 2:
        raise ValueError("need at least two refinement levels")
    for a, b in zip(n_list, n_list[1:]):
        if b != 2 * a:
            raise ValueError(f"levels must double at each step; {a} -> {b} does not")
    return n_list


def _orders(diffs: Sequence[float]) -> list[float | None]:
    """``-log2(diffs[i] / diffs[i - 1])`` per entry; None on the first entry
    and where either difference is zero."""
    return [None] + [float(-np.log2(b / a)) if a > 0 and b > 0 else None
                     for a, b in zip(diffs, diffs[1:])]


def run_level(field: VelocityField, domain: BoxDomain, bc: Sequence[str],
              prior_pdf, t_final: float, n: int, xi: float,
              dt_fn: Callable[[float], float] | None = None,
              quadrature: str = "midpoint",
              normalize_prior: bool = False) -> Density:
    """Project the prior on an n-per-axis grid and evolve to ``t_final``.

    The base step is ``dt_fn(max h)`` when given, otherwise the largest
    stable step for ``xi``; it is then reduced so ``t_final`` is an exact
    multiple and no endpoint ambiguity remains.  ``t_final == 0`` returns
    the projected prior; a negative or non-finite ``t_final``, or one whose
    step count overflows, raises.
    """
    if not 0 <= t_final < np.inf:
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    grid = build_grid(domain, (n,) * domain.d, bc)
    dens = project(prior_pdf, grid, quadrature)
    if normalize_prior:
        dens = normalize(dens)
    if t_final == 0:
        return dens
    fluxes = compute_fluxes(field, grid, quadrature)
    if dt_fn is not None:
        base = float(dt_fn(max(grid.h)))
    else:
        base = max_stable_dt(fluxes, grid, xi).dt_max
    if not np.isfinite(base):
        base = t_final  # nothing flows: a single identity-like step
    steps = np.ceil(t_final / base - 1e-9)
    if not steps < np.inf:
        raise ValueError(f"t_final={t_final} takes a non-finite number of steps of {base}")
    dt = t_final / max(1, int(steps))
    op = assemble(fluxes, grid, dt)
    return evolve(op, dens, t_final)


def convergence_study(field: VelocityField, domain: BoxDomain, bc: Sequence[str],
                      prior_pdf, t_final: float, n_list: Sequence[int], xi: float,
                      dt_fn: Callable[[float], float] | None = None,
                      quadrature: str = "midpoint",
                      normalize_prior: bool = False) -> list[ConvergenceRow]:
    """Inter-level L1 differences and effective orders.

    Row i compares levels ``n_list[i]`` and ``n_list[i+1]``, so the result
    has one row fewer than ``n_list``; the first row carries no order.
    """
    n_list = _validate_levels(n_list)
    levels = [
        run_level(field, domain, bc, prior_pdf, t_final, n, xi,
                  dt_fn, quadrature, normalize_prior)
        for n in n_list
    ]
    diffs = [l1_distance(a, b) for a, b in zip(levels, levels[1:])]
    return [ConvergenceRow(n=n, l1_diff=float(diff), effective_order=order)
            for n, diff, order in zip(n_list, diffs, _orders(diffs))]


def expectation_convergence(field: VelocityField, domain: BoxDomain,
                            bc: Sequence[str], prior_pdf, t_final: float, g,
                            n_list: Sequence[int], xi: float,
                            dt_fn: Callable[[float], float] | None = None,
                            quadrature: str = "midpoint",
                            normalize_prior: bool = True) -> list[ExpectationRow]:
    """E[g] per level with successive differences and their decay orders.

    The prior is normalized per level by default so the expectations are
    taken against probability densities.
    """
    n_list = _validate_levels(n_list)
    values = []
    for n in n_list:
        dens = run_level(field, domain, bc, prior_pdf, t_final, n, xi,
                         dt_fn, quadrature, normalize_prior)
        values.append(expectation(dens, g))
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    return [ExpectationRow(n=n, value=float(val), diff=diff, order=order)
            for n, val, diff, order in zip(n_list, values, [None] + diffs,
                                           [None] + _orders(diffs))]


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
