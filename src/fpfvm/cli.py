"""Command-line driver: ``fpfvm {operator,converge,filter}``.

Configuration is a flat set of ``key=value`` pairs.  Values come from
per-command defaults (the pendulum experiment), then an optional config
file (``--config``), then per-key command-line overrides (``--key value``).
Unknown keys are rejected.  Real-valued entries accept multiples of pi
("pi/4", "0.6pi", "2pi/7") alongside plain decimals.

Exit codes: 0 success, 1 verification failed (the assembled matrix has a
negative entry or a row sum off one; with Dirichlet outflow, a row sum above
one), 2 configuration error, 3 step-size (CFL) violation, 4 zero evidence.
Every library argument in a run comes from the configuration, so any
``ValueError`` the library raises is reported as a configuration error
(exit 2); the library is the one place that checks argument values.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from .bench import convergence_study, format_convergence_table, write_convergence_csv
from .density import (
    gaussian_pdf,
    load_density,
    normalize,
    project,
    save_density,
    uniform_density,
)
from .filtering import (
    ZeroEvidence,
    gaussian_abs_position_model,
    read_observations,
    run_filter,
    simulate_truth,
    synthesize_observations,
    write_observations,
    write_run_report,
)
from .grid import BoxDomain, build_grid
from .operator import (
    CflViolation,
    NoConvergence,
    assemble,
    export_operator,
    max_stable_dt,
    stationary,
    verify_markov,
)
from .velocity import _parse_quadrature, compute_fluxes, field_from_name

_PI = math.pi
_DEFAULT_XI = _PI / (2.0 * _PI + 1.0)
_DEFAULT_DT_OVER_H = 1.0 / (2.0 * _PI + 1.0)
DEFAULT_SEED = 7


class ConfigError(ValueError):
    pass


def parse_real(s: str) -> float:
    """Parse a real number, allowing pi multiples like '2pi/7' or '-pi'."""
    s = s.strip().lower()
    try:
        return float(s)
    except ValueError:
        pass
    m = re.fullmatch(r"([+-]?[\d.]*)\s*pi\s*(?:/\s*([\d.]+))?", s)
    if not m:
        raise ConfigError(f"cannot parse real value {s!r}")
    coef = m.group(1)
    if coef in ("", "+"):
        c = 1.0
    elif coef == "-":
        c = -1.0
    else:
        try:
            c = float(coef)
        except ValueError:
            raise ConfigError(f"cannot parse real value {s!r}") from None
    val = c * math.pi
    if m.group(2):
        val /= float(m.group(2))
    return val


def _parse_reals(s: str) -> tuple[float, ...]:
    return tuple(parse_real(p) for p in s.split(",") if p.strip())


def _parse_ints(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in s.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"cannot parse integer list {s!r}") from None


def _parse_domain(s: str) -> tuple[tuple[float, float], ...]:
    axes = []
    for part in s.split(","):
        if ":" not in part:
            raise ConfigError(f"domain axis {part!r} must look like 'lo:hi'")
        lo, hi = part.split(":", 1)
        axes.append((parse_real(lo), parse_real(hi)))
    return tuple(axes)


def _parse_bc(s: str) -> tuple[str, ...]:
    return tuple(p.strip().lower() for p in s.split(","))


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {s!r}")


def _parse_dt_over_h(s: str):
    if s.strip().lower() == "auto":
        return "auto"
    return parse_real(s)


def _parse_int(s: str) -> int:
    try:
        return int(s.strip())
    except ValueError:
        raise ConfigError(f"cannot parse integer {s!r}") from None


def _parse_quadrature_tag(s: str) -> str:
    tag = s.strip().lower()
    _parse_quadrature(tag)
    return tag


_PARSERS = {
    "field": str,
    "domain": _parse_domain,
    "n": _parse_ints,
    "bc": _parse_bc,
    "xi": parse_real,
    "dt_over_h": _parse_dt_over_h,
    "quadrature": _parse_quadrature_tag,
    "out": str,
    "threads": _parse_int,
    "seed": _parse_int,
    "write_stationary": _parse_bool,
    "stationary_tol": parse_real,
    "stationary_max_iter": _parse_int,
    "write_matrix": _parse_bool,
    "n_list": _parse_ints,
    "t_final": parse_real,
    "prior": str,
    "prior_mean": _parse_reals,
    "prior_cov": _parse_reals,
    "normalize_prior": _parse_bool,
    "obs": str,
    "obs_x0": _parse_reals,
    "obs_times": _parse_reals,
    "obs_sigma": parse_real,
    "t_end": parse_real,
    "snapshot_times": _parse_reals,
    "min_prominence": parse_real,
}

_COMMON = {
    "field": "pendulum",
    "domain": ((-_PI, _PI), (-_PI, _PI)),
    "bc": ("periodic", "neumann"),
    "xi": _DEFAULT_XI,
    "dt_over_h": _DEFAULT_DT_OVER_H,
    "quadrature": "midpoint",
    "out": "out",
    "threads": 1,
}


def _defaults(command: str) -> dict:
    cfg = dict(_COMMON)
    if command == "operator":
        cfg.update(
            n=(50, 50),
            write_stationary=False,
            stationary_tol=1e-10,
            stationary_max_iter=20000,
            write_matrix=False,
        )
    elif command == "converge":
        # defaults reproduce the reference table: squared-exponential width
        # 0.64 = 2 sigma^2 (variance 0.32 per axis), evaluated at t = pi
        cfg.update(
            n_list=(50, 100, 200, 400),
            t_final=_PI,
            prior="gaussian",
            prior_mean=(0.6 * _PI, 0.0),
            prior_cov=(0.32,),
            normalize_prior=False,
        )
    elif command == "filter":
        cfg.update(
            n=(200, 200),
            prior="gaussian",
            prior_mean=(0.0, 0.0),
            prior_cov=(0.64,),
            obs="synthesize",
            obs_x0=(0.2 * _PI, 0.0),
            obs_times=tuple(k * 2.0 * _PI / 7.0 for k in range(1, 7)),
            obs_sigma=0.1,
            t_end=2.0 * _PI,
            snapshot_times=(0.0, _PI / 6.0, _PI / 3.0, _PI),
            min_prominence=0.1,
            seed=DEFAULT_SEED,
        )
    else:
        raise ConfigError(f"unknown command {command!r}")
    return cfg


def _read_config_file(path) -> dict:
    out = {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    for lineno, line in enumerate(p.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_config(command: str, config_path=None, overrides=None) -> dict:
    """Defaults, then config file entries, then CLI overrides."""
    cfg = _defaults(command)
    layers = []
    if config_path:
        layers.append(_read_config_file(config_path))
    if overrides:
        layers.append(overrides)
    for layer in layers:
        for key, raw in layer.items():
            if raw is None:
                continue
            if key not in cfg:
                raise ConfigError(f"unknown key {key!r} for command {command!r}")
            try:
                cfg[key] = _PARSERS[key](raw)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return cfg


def _build_geometry(cfg):
    domain = BoxDomain(
        tuple(lo for lo, _ in cfg["domain"]),
        tuple(hi for _, hi in cfg["domain"]),
    )
    return domain, field_from_name(cfg["field"])


def _grid_from(cfg, domain):
    n = cfg["n"]
    if len(n) == 1:
        n = n * domain.d
    return build_grid(domain, n, cfg["bc"])


def _pick_dt(cfg, fluxes, grid):
    report = max_stable_dt(fluxes, grid, cfg["xi"])
    if cfg["dt_over_h"] == "auto":
        dt = report.dt_max if np.isfinite(report.dt_max) else 1.0
    else:
        dt = float(cfg["dt_over_h"]) * max(grid.h)
    return dt, report


def _prior_pdf(cfg, domain):
    kind = cfg["prior"]
    if kind == "gaussian":
        mean = cfg["prior_mean"]
        cov = cfg["prior_cov"]
        if len(mean) != domain.d:
            raise ConfigError(f"prior_mean={mean} does not match dimension {domain.d}")
        return gaussian_pdf(mean, cov if len(cov) > 1 else cov[0])
    if kind == "uniform":
        vol = domain.volume
        return lambda x: 1.0 / vol
    raise ConfigError(f"prior {kind!r} not usable here (need gaussian or uniform)")


def _prior_density(cfg, grid):
    kind = cfg["prior"]
    if kind.startswith("file:"):
        path = kind.split(":", 1)[1]
        try:
            dens, _ = load_density(path, bc=grid.bc)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load prior from {path}: {exc}") from exc
        if dens.grid != grid:
            raise ConfigError(f"prior file {path} does not match the run grid")
        if dens.values.min() < 0:
            cell = int(np.argmin(dens.values))
            raise ConfigError(f"prior file {path} has a negative value at cell {cell}")
        return normalize(dens)
    if kind == "uniform":
        return uniform_density(grid)
    return normalize(project(_prior_pdf(cfg, grid.domain), grid, cfg["quadrature"]))


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_operator(cfg) -> int:
    domain, field = _build_geometry(cfg)
    grid = _grid_from(cfg, domain)
    fluxes = compute_fluxes(field, grid, cfg["quadrature"])
    dt, report = _pick_dt(cfg, fluxes, grid)
    print(f"cfl: dt_max={report.dt_max:.17g} xi={report.xi:.17g} "
          f"binding_cell={report.binding_cell}")
    print(f"dt: {dt:.17g}")
    op = assemble(fluxes, grid, dt)
    mk = verify_markov(op, tol=1e-12)
    print(f"markov: min_entry={mk.min_entry:.17g} "
          f"max_row_sum_err={mk.max_row_sum_err:.17g} is_markov={mk.is_markov}")
    print(f"mass_conserving: {op.mass_conserving}")
    out = _outdir(cfg)
    if cfg["write_matrix"]:
        export_operator(op, out / "operator.txt")
        print(f"wrote {out / 'operator.txt'}")
    if cfg["write_stationary"]:
        try:
            pi_dens = stationary(op, tol=cfg["stationary_tol"],
                                 max_iter=cfg["stationary_max_iter"])
        except NoConvergence as exc:
            print(f"stationary: no convergence ({exc})")
        else:
            save_density(pi_dens, out / "stationary.csv")
            print(f"wrote {out / 'stationary.csv'}")
    return 0 if mk.is_markov else 1


def cmd_converge(cfg) -> int:
    domain, field = _build_geometry(cfg)
    pdf = _prior_pdf(cfg, domain)
    c = cfg["dt_over_h"]
    dt_fn = None if c == "auto" else (lambda h: float(c) * h)
    rows = convergence_study(
        field, domain, cfg["bc"], pdf, cfg["t_final"], cfg["n_list"], cfg["xi"],
        dt_fn=dt_fn, quadrature=cfg["quadrature"],
        normalize_prior=cfg["normalize_prior"],
    )
    out = _outdir(cfg)
    write_convergence_csv(rows, out / "convergence.csv")
    table = format_convergence_table(rows)
    (out / "convergence.txt").write_text(table + "\n")
    print(table)
    print(f"wrote {out / 'convergence.csv'}")
    return 0


def cmd_filter(cfg) -> int:
    domain, field = _build_geometry(cfg)
    grid = _grid_from(cfg, domain)
    fluxes = compute_fluxes(field, grid, cfg["quadrature"])
    dt, _ = _pick_dt(cfg, fluxes, grid)
    op = assemble(fluxes, grid, dt)
    prior = _prior_density(cfg, grid)

    source = cfg["obs"]
    if source == "synthesize":
        times = cfg["obs_times"]
        truth = simulate_truth(field, cfg["obs_x0"], times, domain=domain, bc=grid.bc)
        obs = synthesize_observations(times, truth, cfg["obs_sigma"], cfg["seed"])
    elif source.startswith("file:"):
        path = source.split(":", 1)[1]
        try:
            obs = read_observations(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad observation file {path}: {exc}") from exc
    else:
        raise ConfigError(f"obs must be 'synthesize' or 'file:<path>', got {source!r}")

    model = gaussian_abs_position_model(cfg["obs_sigma"])
    state = run_filter(prior, op, model, obs, cfg["t_end"],
                       min_prominence=cfg["min_prominence"],
                       snapshot_times=cfg["snapshot_times"])

    # nothing is written until the library has accepted every argument
    out = _outdir(cfg)
    if source == "synthesize":
        write_observations(obs, out / "observations.csv")
        print(f"wrote {out / 'observations.csv'}")
    write_run_report(state, out / "report.csv")
    print(f"wrote {out / 'report.csv'}")
    for i, (t, dens) in enumerate(state.snapshots):
        path = out / f"snapshot_{i:02d}.csv"
        save_density(dens, path, t=t)
        print(f"wrote {path} (t={t:.17g})")
    last = state.history[-1]
    print(f"final: t={state.time:.17g} log_evidence={state.log_evidence:.17g} "
          f"modes={last.mode_count}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fpfvm",
        description="Upwind finite-volume transition operators: verification, "
                    "convergence studies, and pendulum tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("operator", "assemble the transition matrix and verify stochasticity"),
        ("converge", "mesh-refinement study of the evolved density"),
        ("filter", "sequential inference run with synthetic or file observations"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key=value config file")
        for key in sorted(_defaults(name)):
            if key == "threads":
                p.add_argument("--threads", help="accepted for compatibility; "
                               "kernels are sequential and results do not depend on it")
            else:
                p.add_argument(f"--{key}")
    args = parser.parse_args(argv)

    overrides = {
        k: v for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }
    try:
        cfg = load_config(args.command, args.config, overrides)
        if args.command == "operator":
            return cmd_operator(cfg)
        if args.command == "converge":
            return cmd_converge(cfg)
        return cmd_filter(cfg)
    # CflViolation is a ValueError, so it must be caught first
    except CflViolation as exc:
        print(f"cfl violation: {exc}", file=sys.stderr)
        return 3
    except ZeroEvidence as exc:
        print(f"zero evidence: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
