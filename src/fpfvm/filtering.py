"""Grid-based sequential Bayesian inference.

The transition operator plays the role of the prediction kernel: between
observations the posterior is evolved by whole time steps, and at each
observation the cell values are reweighted by the likelihood at cell
midpoints and renormalized.  Evidence accumulates in log space.  Because
evolution is piecewise constant in time, observation and snapshot times are
snapped to the nearest multiple of the operator step; every snap is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .density import Density, count_modes, marginal, moments
from .grid import PERIODIC
from .operator import TransitionOperator, step
from .velocity import VelocityField


class ZeroEvidence(RuntimeError):
    """All likelihood-weighted mass vanished: observation incompatible."""


@dataclass(frozen=True)
class ObservationModel:
    """Pointwise observation likelihood in log form.

    ``log_likelihood(z, x)`` is vectorized over states: ``x`` of shape
    ``(m, d)`` yields ``(m,)``.  Values of -inf (impossible states) are
    allowed; +inf and NaN are not.
    """

    log_likelihood: Callable[[float, np.ndarray], np.ndarray]
    description: str = ""


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
        if times and times[0] <= 0:
            raise ValueError("observation times must be positive")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError(f"observation times must increase strictly ({a} !< {b})")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class HistoryRecord:
    time: float
    mean: tuple[float, ...]
    std: tuple[float, ...]
    mode_count: int
    log_evidence: float


@dataclass(frozen=True)
class SnapRecord:
    kind: str        # "observation" | "snapshot" | "t_end"
    requested: float
    used: float
    dist: float


@dataclass(frozen=True)
class FilterState:
    """Posterior density with time stamp, evidence, and summary history."""

    posterior: Density
    time: float
    log_evidence: float
    history: tuple[HistoryRecord, ...]
    min_prominence: float = 0.1
    snapshots: tuple[tuple[float, Density], ...] = ()
    snap_log: tuple[SnapRecord, ...] = ()


def _record(time: float, density: Density, log_evidence: float,
            min_prominence: float) -> HistoryRecord:
    mom = moments(density)
    var = np.clip(np.diag(mom.covariance), 0.0, None)
    modes = count_modes(marginal(density, 0), min_prominence)
    return HistoryRecord(
        time=float(time),
        mean=tuple(float(x) for x in mom.mean),
        std=tuple(float(x) for x in np.sqrt(var)),
        mode_count=int(modes),
        log_evidence=float(log_evidence),
    )


def initial_state(prior: Density, min_prominence: float = 0.1) -> FilterState:
    if abs(prior.mass - 1.0) > 1e-8:
        raise ValueError(f"prior must have unit mass, got {prior.mass}")
    return FilterState(
        posterior=prior,
        time=0.0,
        log_evidence=0.0,
        history=(_record(0.0, prior, 0.0, min_prominence),),
        min_prominence=min_prominence,
    )


def predict(state: FilterState, op: TransitionOperator,
            t_target: float) -> FilterState:
    """Evolve the posterior by whole steps up to ``t_target``.

    Appends a history record after every :func:`step` of the posterior's
    mass.  The state time advances to the last step time reached
    (piecewise-constant semantics); pass targets on the step lattice to land
    exactly.
    """
    post = state.posterior
    grid = post.grid
    if grid != op.grid:
        raise ValueError("posterior and operator live on different grids")
    if t_target < state.time - 1e-12:
        raise ValueError(f"cannot predict backwards: {t_target} < {state.time}")
    nsteps = int(np.floor((t_target - state.time) / op.dt + 1e-9))
    if nsteps == 0:
        return state
    vol = grid.cell_volume
    hist = list(state.history)
    t = state.time
    for j in range(1, nsteps + 1):
        # back to values every step: an ulp of drift flips mode counts at tied peaks
        post = Density(step(op, post.values * vol) / vol, grid)
        t = state.time + j * op.dt
        hist.append(_record(t, post, state.log_evidence, state.min_prominence))
    return replace(state, posterior=post, time=t, history=tuple(hist))


def bayes_update(state: FilterState, model: ObservationModel, z) -> FilterState:
    """Reweight by the likelihood of ``z`` and renormalize.

    The evidence (prior predictive value of z) is computed before
    normalization and added to the running log evidence; a paired history
    record at the same time captures the jump in the summary statistics.
    """
    dens = state.posterior
    grid = dens.grid
    ll = np.asarray(model.log_likelihood(z, grid.cell_midpoints), dtype=float)
    if ll.shape != (grid.ncells,):
        raise ValueError(f"log_likelihood returned shape {ll.shape}")
    if np.any(np.isnan(ll)) or np.any(np.isposinf(ll)):
        raise ValueError("log_likelihood must not produce NaN or +inf")
    mx = ll.max()
    if mx == -np.inf:
        raise ZeroEvidence(f"likelihood of z={z} vanishes on the whole grid")
    w = np.exp(ll - mx)
    unnorm = dens.values * w
    scaled = unnorm.sum() * grid.cell_volume  # = evidence * exp(-mx)
    if not scaled > 0 or not np.isfinite(scaled):
        raise ZeroEvidence(f"all likelihood-weighted mass vanished for z={z}")
    log_ev = state.log_evidence + mx + float(np.log(scaled))
    post = Density(unnorm / scaled, grid)
    hist = state.history + (_record(state.time, post, log_ev, state.min_prominence),)
    return replace(state, posterior=post, log_evidence=log_ev, history=hist)


def gaussian_abs_position_model(sigma: float) -> ObservationModel:
    """Observation z ~ N(|x_1|, sigma^2): magnitude seen, sign lost."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    s = float(sigma)
    log_norm = float(np.log(s * np.sqrt(2.0 * np.pi)))

    def log_likelihood(z, x):
        x = np.asarray(x, dtype=float)
        r = float(z) - np.abs(x[..., 0])
        return -r * r / (2.0 * s * s) - log_norm

    return ObservationModel(
        log_likelihood=log_likelihood,
        description=f"gaussian |x1| observation, sigma={s}",
    )


def run_filter(prior: Density, op: TransitionOperator, model: ObservationModel,
               obs: ObservationSequence, t_end: float,
               min_prominence: float = 0.1,
               snapshot_times: Sequence[float] = ()) -> FilterState:
    """Alternate prediction and Bayes updates through ``obs`` up to ``t_end``.

    Observation, snapshot, and end times are snapped to the nearest multiple
    of the operator step (recorded in ``snap_log``).  Snapshots capture the
    posterior at the requested times; when a snapshot coincides with an
    observation it captures the post-update posterior.
    """
    state = initial_state(prior, min_prominence)
    dt = op.dt
    if len(obs) and obs.times[-1] > t_end + 1e-12:
        raise ValueError("observations extend beyond t_end")
    for s in snapshot_times:
        if s < 0 or s > t_end + 1e-12:
            raise ValueError(f"snapshot time {s} outside [0, t_end]")

    events = []
    snap_log = []
    for t, z in zip(obs.times, obs.values):
        k = int(round(t / dt))
        snap_log.append(SnapRecord("observation", t, k * dt, abs(k * dt - t)))
        events.append((k, 0, z))
    for t in snapshot_times:
        k = int(round(t / dt))
        snap_log.append(SnapRecord("snapshot", t, k * dt, abs(k * dt - t)))
        events.append((k, 1, None))
    k_end = int(round(t_end / dt))
    snap_log.append(SnapRecord("t_end", t_end, k_end * dt, abs(k_end * dt - t_end)))
    events.sort(key=lambda e: (e[0], e[1]))

    snapshots = []
    for k, kind, payload in events:
        state = predict(state, op, k * dt)
        if kind == 0:
            state = bayes_update(state, model, payload)
        else:
            snapshots.append((k * dt, state.posterior))
    state = predict(state, op, k_end * dt)
    return replace(state, snapshots=tuple(snapshots), snap_log=tuple(snap_log))


def _rk4(field: VelocityField, x: np.ndarray, h: float) -> np.ndarray:
    k1 = np.asarray(field(x), dtype=float)
    k2 = np.asarray(field(x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(field(x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(field(x + h * k3), dtype=float)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_truth(field: VelocityField, x0, times: Sequence[float],
                   max_step: float = 1e-3, domain=None, bc=None) -> np.ndarray:
    """Reference trajectory by classical fixed-step RK4.

    Each interval is subdivided so the step never exceeds ``max_step`` and
    the requested times are hit exactly.  If ``domain`` and ``bc`` are given,
    reported states are wrapped into the box on periodic axes (the dynamics
    themselves are integrated unwrapped).
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be nonnegative and strictly increasing")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (field.dim,):
        raise ValueError(f"x0 has shape {x.shape}, field dimension is {field.dim}")
    out = np.empty((len(times), field.dim))
    t = 0.0
    for i, tk in enumerate(times):
        span = tk - t
        if span > 0:
            nsub = max(1, int(np.ceil(span / max_step - 1e-12)))
            h = span / nsub
            for _ in range(nsub):
                x = _rk4(field, x, h)
            t = tk
        y = x.copy()
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
    """One CSV row per history record: time, moments, mode count, evidence.

    Snap records are written as leading comment lines.
    """
    d = state.posterior.grid.domain.d
    cols = (["t"]
            + [f"mean_{i+1}" for i in range(d)]
            + [f"std_{i+1}" for i in range(d)]
            + ["mode_count_axis1", "log_evidence"])
    with open(path, "w") as fh:
        for s in state.snap_log:
            fh.write(f"# snapped {s.kind} requested={s.requested:.17g} "
                     f"used={s.used:.17g} dist={s.dist:.17g}\n")
        fh.write(",".join(cols) + "\n")
        for r in state.history:
            row = ([f"{r.time:.17g}"]
                   + [f"{x:.17g}" for x in r.mean]
                   + [f"{x:.17g}" for x in r.std]
                   + [str(r.mode_count), f"{r.log_evidence:.17g}"])
            fh.write(",".join(row) + "\n")
