"""Grid-based sequential Bayesian inference.

The transition operator plays the role of the prediction kernel.  One loop,
:func:`run_filter`, carries a bare array of cell values: between
observations it applies :func:`predict`, one operator step at a time, and at
each observation :func:`bayes_update` reweights the values by the likelihood
at the cell centres and renormalizes.  Evidence accumulates in log space.
Because evolution is piecewise constant in time, observation, snapshot and
end times are snapped to the nearest step index ``k`` (``step_count``, as
``evolve`` snaps); every snap is recorded, and every summary row is written
at ``t = k * dt`` into preallocated :class:`History` columns.  A row stores
only its time, its evidence and the per-axis slab sums of its values; means,
stds and mode counts are computed from the slab sums once per block of rows.
Observations are synthesized from :func:`simulate_truth`, a loop of ``flow``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

# perfbench/invoke.py wraps moments, marginal, count_modes, predict,
# bayes_update and step at this module's attributes, so those names stay here
# even where run_filter no longer calls them
from .density import (Density, _check_prominence, _slab_diagnostics, _sum_except,
                      count_modes, marginal, moments)
from .grid import PERIODIC, Grid, mesh
from .operator import TransitionOperator, step, step_count
from .velocity import VelocityField, flow

# log_likelihood(z, xs): xs is a tuple of d coordinate arrays that broadcast
# together; the values returned broadcast to their shape
LogLikelihood = Callable[[float, tuple[np.ndarray, ...]], np.ndarray]

_BLOCK = 128  # history rows whose diagnostics are computed together


class ZeroEvidence(RuntimeError):
    """All likelihood-weighted mass vanished: observation incompatible."""


@dataclass(frozen=True)
class ObservationSequence:
    """Scalar observations at strictly increasing positive times."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(z) for z in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if times and not 0 < times[0] <= times[-1] < np.inf:
            raise ValueError("observation times must be positive and finite")
        if not np.all(np.isfinite(values)):
            raise ValueError("observation values must be finite")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError(f"observation times must increase strictly ({a} !< {b})")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class History:
    """Summary columns of a filter run: one row per step and per update."""

    time: np.ndarray          # (n,)
    mean: np.ndarray          # (n, d)
    std: np.ndarray           # (n, d)
    mode_count: np.ndarray    # (n,) int64, modes of the axis-1 marginal
    log_evidence: np.ndarray  # (n,)


@dataclass(frozen=True)
class SnapRecord:
    kind: str        # "observation" | "snapshot" | "t_end"
    requested: float
    used: float
    dist: float


@dataclass(frozen=True, eq=False)
class FilterState:
    """Posterior density with time stamp, evidence, and summary history."""

    posterior: Density
    time: float
    log_evidence: float
    history: History
    snapshots: tuple[tuple[float, Density], ...]
    snap_log: tuple[SnapRecord, ...]


def predict(values: np.ndarray, op: TransitionOperator) -> np.ndarray:
    """Cell values after one :func:`step` of their mass."""
    vol = op.grid.cell_volume
    # back to values every step: an ulp of drift flips mode counts at tied peaks
    out = step(op, values * vol)
    out /= vol
    return out


def bayes_update(values: np.ndarray, grid: Grid, log_likelihood: LogLikelihood, z,
                 log_evidence: float) -> tuple[np.ndarray, float]:
    """Reweight cell values by the likelihood of ``z`` and renormalize.

    ``log_likelihood(z, xs)`` is called once, on the open mesh of the cell
    centres (see :data:`LogLikelihood`), and its values must broadcast to the
    C-order cube ``grid.n[::-1]`` of cells, as which ``values`` is weighted.
    Values of -inf (impossible states) are allowed; +inf and NaN are not.
    Returns the posterior values and the running log evidence plus this
    observation's (the prior predictive value of z, computed before
    normalization).
    """
    cube = values.reshape(grid.n[::-1])
    ll = np.asarray(log_likelihood(z, mesh([grid.centres(a) for a in range(grid.domain.d)])),
                    dtype=float)
    if np.broadcast_shapes(ll.shape, cube.shape) != cube.shape:
        raise ValueError(f"log_likelihood returned shape {ll.shape}")
    if np.any(np.isnan(ll)) or np.any(np.isposinf(ll)):
        raise ValueError("log_likelihood must not produce NaN or +inf")
    mx = ll.max()
    if mx == -np.inf:
        raise ZeroEvidence(f"likelihood of z={z} vanishes on the whole grid")
    w = np.exp(ll - mx)
    unnorm = (cube * w).reshape(-1)
    scaled = unnorm.sum() * grid.cell_volume  # = evidence * exp(-mx)
    if not scaled > 0 or not np.isfinite(scaled):
        raise ZeroEvidence(f"all likelihood-weighted mass vanished for z={z}")
    return unnorm / scaled, log_evidence + mx + float(np.log(scaled))


def gaussian_abs_position_model(sigma: float) -> LogLikelihood:
    """Log likelihood of z ~ N(|x_1|, sigma^2): magnitude seen, sign lost."""
    s = float(sigma)
    if not (s > 0 and np.finfo(float).tiny <= 2.0 * s * s < np.inf):
        raise ValueError(f"sigma={s!r} must be positive, with 2 sigma^2 a normal float")
    log_norm = float(np.log(s * np.sqrt(2.0 * np.pi)))

    def log_likelihood(z, xs):
        r = float(z) - np.abs(xs[0])
        with np.errstate(over="ignore"):  # a huge residual is -inf
            return -r * r / (2.0 * s * s) - log_norm

    return log_likelihood


def _schedule(op: TransitionOperator, obs_times: Sequence[float], t_end: float,
              snapshot_times: Sequence[float]):
    """Check a run's times against ``op.dt`` and snap them to step indices;
    returns the snap records and the observation, snapshot and end steps."""
    dt, d = op.dt, op.grid.domain.d
    step_count(t_end, dt, "t_end")  # checked before the times it bounds
    # snap rejects a negative or NaN time; a time past t_end is rejected here
    if max((*obs_times, *snapshot_times), default=0.0) > t_end + 1e-12:
        raise ValueError(f"an observation or snapshot time lies beyond t_end={t_end}")

    snap_log = []

    def snap(kind, t):
        k = step_count(t, dt, kind)
        snap_log.append(SnapRecord(kind, t, k * dt, abs(k * dt - t)))
        return k

    k_obs = [snap("observation", t) for t in obs_times]
    k_snap = [snap("snapshot", t) for t in snapshot_times]
    k_end = snap("t_end", t_end)
    if k_end < max(k_obs + k_snap, default=0):
        raise ValueError(f"t_end {t_end} snaps to step {k_end}, before an event")
    n = 1 + k_end + len(obs_times)
    if n * 8 * (3 + 2 * d) > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise ValueError(f"t_end={t_end} needs {float(n):.4g} history rows, "
                         "more than the machine's memory holds")
    return snap_log, k_obs, k_snap, k_end


def run_filter(prior: Density, op: TransitionOperator, log_likelihood: LogLikelihood,
               obs: ObservationSequence, t_end: float,
               min_prominence: float = 0.1,
               snapshot_times: Sequence[float] = ()) -> FilterState:
    """Alternate one-step predictions and Bayes updates through ``obs`` to ``t_end``.

    Observation, snapshot, and end times are snapped to the nearest step
    index ``k`` (recorded in ``snap_log``), and the run walks the events in
    order of ``k``.  A history row at ``t = k * dt`` follows every step and
    every update.  Snapshots capture the posterior at the requested times;
    when a snapshot coincides with an observation it captures the
    post-update posterior.
    """
    grid = op.grid
    if prior.grid != grid:
        raise ValueError("prior and operator live on different grids")
    _check_prominence(min_prominence)
    if abs(prior.mass - 1.0) > 1e-8:
        raise ValueError(f"prior must have unit mass, got {prior.mass}")
    if prior.values.min() < 0:
        cell = int(np.argmin(prior.values))
        raise ValueError(f"prior has a negative value at cell {cell}")
    dt = op.dt
    snap_log, k_obs, k_snap, k_end = _schedule(op, obs.times, t_end, snapshot_times)
    # kind 0 (observation) sorts before kind 1 (snapshot) at the same step
    events = [(k, 0, z) for k, z in zip(k_obs, obs.values)]
    events += [(k, 1, None) for k in k_snap]
    events.sort(key=lambda e: (e[0], e[1]))

    n, d = 1 + k_end + len(obs), grid.domain.d
    hist = History(time=np.empty(n), mean=np.empty((n, d)), std=np.empty((n, d)),
                   mode_count=np.empty(n, dtype=np.int64), log_evidence=np.empty(n))
    sums = [np.empty((_BLOCK, m)) for m in grid.n]  # slab sums of the open block

    def record(row, t, values, log_ev):
        hist.time[row], hist.log_evidence[row] = t, log_ev
        arr = values.reshape(grid.n, order="F")
        for a, buf in enumerate(sums):
            buf[row % _BLOCK] = _sum_except(arr, (a,))
        if (row + 1) % _BLOCK == 0 or row + 1 == n:
            lo, hi = row - row % _BLOCK, row + 1
            hist.mean[lo:hi], hist.std[lo:hi], hist.mode_count[lo:hi] = _slab_diagnostics(
                [buf[:hi - lo] for buf in sums], grid, min_prominence)

    record(0, 0.0, prior.values, 0.0)
    row, k, values, log_ev = 1, 0, prior.values, 0.0
    snapshots = []
    for k_event, kind, z in events + [(k_end, 2, None)]:
        while k < k_event:
            values = predict(values, op)
            k += 1
            record(row, k * dt, values, log_ev)
            row += 1
        if kind == 0:
            values, log_ev = bayes_update(values, grid, log_likelihood, z, log_ev)
            record(row, k * dt, values, log_ev)
            row += 1
        elif kind == 1:
            snapshots.append((k * dt, Density(values, grid)))
    return FilterState(posterior=Density(values, grid), time=k_end * dt,
                       log_evidence=log_ev, history=hist,
                       snapshots=tuple(snapshots), snap_log=tuple(snap_log))


def simulate_truth(field: VelocityField, x0, times: Sequence[float],
                   domain=None, bc=None) -> np.ndarray:
    """Reference trajectory: one :func:`~fpfvm.velocity.flow` per interval,
    so the requested times are hit exactly.  If ``domain`` and ``bc`` are given,
    reported states are wrapped into the box on periodic axes (the dynamics
    themselves are integrated unwrapped).
    """
    times = [float(t) for t in times]
    if (any(not 0 <= t < np.inf for t in times)
            or any(b <= a for a, b in zip(times, times[1:]))):
        raise ValueError("times must be finite, nonnegative and strictly increasing")
    x = np.asarray(x0, dtype=float)
    if x.shape != (field.dim,):
        raise ValueError(f"x0 has shape {x.shape}, field dimension is {field.dim}")
    x = tuple(x.tolist())
    out = np.empty((len(times), field.dim))
    t = 0.0
    for i, tk in enumerate(times):
        try:
            x, t = flow(field, x, tk - t), tk
        except ValueError as exc:
            raise ValueError(f"time {tk} after {t}: {exc}") from exc
        y = np.array(x, dtype=float)
        if domain is not None and bc is not None:
            for a, kind in enumerate(bc):
                if kind == PERIODIC:
                    width = domain.upper[a] - domain.lower[a]
                    y[a] = domain.lower[a] + (y[a] - domain.lower[a]) % width
        out[i] = y
    return out


def synthesize_observations(times: Sequence[float], truth_states: np.ndarray,
                            sigma: float, seed: int) -> ObservationSequence:
    """Draw z_k = |x_1(t_k)| + sigma * xi_k with a seeded generator."""
    times = tuple(float(t) for t in times)
    states = np.asarray(truth_states, dtype=float)
    if states.shape[0] != len(times):
        raise ValueError("truth_states and times disagree in length")
    if int(seed) < 0:
        raise ValueError(f"seed={seed} must be a nonnegative integer")
    rng = np.random.default_rng(int(seed))
    noise = rng.standard_normal(len(times))
    z = np.abs(states[:, 0]) + float(sigma) * noise
    return ObservationSequence(times=times, values=tuple(float(v) for v in z))


def write_observations(obs: ObservationSequence, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,z\n")
        for t, z in zip(obs.times, obs.values):
            fh.write(f"{t:.17g},{z:.17g}\n")


def read_observations(path) -> ObservationSequence:
    times, values = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("t,"):
                continue
            t, z = line.split(",")
            times.append(float(t))
            values.append(float(z))
    return ObservationSequence(times=tuple(times), values=tuple(values))


def write_run_report(state: FilterState, path) -> None:
    """One CSV row per history row: time, moments, mode count, evidence.

    Snap records are written as leading comment lines.
    """
    h = state.history
    d = h.mean.shape[1]
    cols = (["t"]
            + [f"mean_{i+1}" for i in range(d)]
            + [f"std_{i+1}" for i in range(d)]
            + ["mode_count_axis1", "log_evidence"])
    with open(path, "w") as fh:
        for s in state.snap_log:
            fh.write(f"# snapped {s.kind} requested={s.requested:.17g} "
                     f"used={s.used:.17g} dist={s.dist:.17g}\n")
        fh.write(",".join(cols) + "\n")
        rows = zip(h.time.tolist(), h.mean.tolist(), h.std.tolist(),
                   h.mode_count.tolist(), h.log_evidence.tolist())
        values = chain.from_iterable((t, *mean, *std, modes, log_ev)
                                     for t, mean, std, modes, log_ev in rows)
        fh.write(("%.17g," * (1 + 2 * d) + "%d,%.17g\n") * len(h.time)
                 % tuple(values))
