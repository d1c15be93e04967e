"""Command-line driver: ``fpfvm {operator,converge,filter}``.

Configuration is a flat set of ``key=value`` pairs.  Values come from
per-command defaults (the pendulum experiment), then an optional config
file (``--config``), then per-key command-line overrides (``--key value`` or
``--key=value``; the value may start with ``-``).
Unknown keys are rejected, and so are abbreviations of a key.  Real-valued
entries accept multiples of pi ("pi/4", "0.6pi", "2pi/7") alongside plain
decimals.

Exit codes: 0 success, 1 verification failed (the assembled matrix has a
negative entry or a row sum off one; with Dirichlet outflow, a row sum above
one), 2 configuration error (a run that does not fit in memory, and an
``out`` that cannot be made a directory or written into, included), 3
step-size (CFL) violation, 4 zero evidence.
The parsers only turn strings into values, and :func:`load_config` names the
key of any value that does not parse.  Every library argument in a run comes
from the configuration, so any ``ValueError`` the library raises is reported
as a configuration error (exit 2); the library is the one place that checks
argument values.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from .bench import (
    _validate_levels,
    convergence_study,
    format_convergence_table,
    write_convergence_csv,
)
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
    _schedule,
    gaussian_abs_position_model,
    read_observations,
    run_filter,
    simulate_truth,
    synthesize_observations,
    write_observations,
    write_run_report,
)
from .grid import BoxDomain, _check_cells, build_grid
from .operator import (
    CflViolation,
    assemble,
    choose_dt,
    export_operator,
    max_stable_dt,
    verify_markov,
)
from .velocity import compute_fluxes, field_from_name

_PI = math.pi
_DEFAULT_XI = _PI / (2.0 * _PI + 1.0)
_DEFAULT_DT_OVER_H = 1.0 / (2.0 * _PI + 1.0)
DEFAULT_SEED = 7


def parse_real(s: str) -> float:
    """Parse a real number, allowing pi multiples like '2pi/7' or '-pi'."""
    s = s.strip().lower()
    try:
        return float(s)
    except ValueError:
        pass
    m = re.fullmatch(r"([+-]?[\d.]*)\s*pi\s*(?:/\s*([\d.]+))?", s)
    if not m:
        raise ValueError(f"cannot parse real value {s!r}")
    coef = m.group(1)
    if coef in ("", "+"):
        c = 1.0
    elif coef == "-":
        c = -1.0
    else:
        c = float(coef)
    val = c * math.pi
    if m.group(2):
        val /= float(m.group(2))
    return val


def _parse_reals(s: str) -> tuple[float, ...]:
    return tuple(parse_real(p) for p in s.split(",") if p.strip())


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in s.split(",") if p.strip())


def _parse_domain(s: str) -> tuple[tuple[float, float], ...]:
    axes = []
    for part in s.split(","):
        if ":" not in part:
            raise ValueError(f"domain axis {part!r} must look like 'lo:hi'")
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
    raise ValueError(f"cannot parse boolean {s!r}")


def _parse_dt_over_h(s: str):
    if s.strip().lower() == "auto":
        return None  # the largest stable step, as in bench.run_level
    return parse_real(s)


# Each key's parser, and its default in each command that takes it; a key
# under "*" is taken by every command with that one default.
_KEYS = {
    "field": (str, {"*": "pendulum"}),
    "domain": (_parse_domain, {"*": ((-_PI, _PI), (-_PI, _PI))}),
    "bc": (_parse_bc, {"*": ("periodic", "neumann")}),
    "xi": (parse_real, {"*": _DEFAULT_XI}),
    "dt_over_h": (_parse_dt_over_h, {"*": _DEFAULT_DT_OVER_H}),
    "quadrature": (str, {"*": "midpoint"}),
    "out": (str, {"*": "out"}),
    "n": (_parse_ints, {"operator": (50, 50), "filter": (200, 200)}),
    "write_matrix": (_parse_bool, {"operator": False}),
    # converge's defaults reproduce the reference table: squared-exponential
    # width 0.64 = 2 sigma^2 (variance 0.32 per axis), evaluated at t = pi
    "n_list": (_parse_ints, {"converge": (50, 100, 200, 400)}),
    "t_final": (parse_real, {"converge": _PI}),
    "prior": (str, {"converge": "gaussian", "filter": "gaussian"}),
    "prior_mean": (_parse_reals, {"converge": (0.6 * _PI, 0.0), "filter": (0.0, 0.0)}),
    "prior_cov": (_parse_reals, {"converge": (0.32,), "filter": (0.64,)}),
    "normalize_prior": (_parse_bool, {"converge": False}),
    "obs": (str, {"filter": "synthesize"}),
    "obs_x0": (_parse_reals, {"filter": (0.2 * _PI, 0.0)}),
    "obs_times": (_parse_reals, {"filter": tuple(k * 2.0 * _PI / 7.0 for k in range(1, 7))}),
    "obs_sigma": (parse_real, {"filter": 0.1}),
    "t_end": (parse_real, {"filter": 2.0 * _PI}),
    "snapshot_times": (_parse_reals, {"filter": (0.0, _PI / 6.0, _PI / 3.0, _PI)}),
    "min_prominence": (parse_real, {"filter": 0.1}),
    "seed": (int, {"filter": DEFAULT_SEED}),
}


def _defaults(command: str) -> dict:
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    return {key: defaults[c] for key, (_, defaults) in _KEYS.items()
            for c in ("*", command) if c in defaults}


def _read_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
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
                raise ValueError(f"unknown key {key!r} for command {command!r}")
            try:
                cfg[key] = _KEYS[key][0](raw)
            except (ValueError, ZeroDivisionError) as exc:  # parse_real('pi/0')
                raise ValueError(f"bad value for {key!r}: {exc}") from exc
    return cfg


def _build_geometry(cfg):
    domain = BoxDomain(
        tuple(lo for lo, _ in cfg["domain"]),
        tuple(hi for _, hi in cfg["domain"]),
    )
    return domain, field_from_name(cfg["field"])


def _operator_from(cfg):
    """The run's domain, field, operator and CFL report: the grid, its fluxes
    and the step that ``choose_dt`` picks and ``assemble`` accepts.  A bad
    cell count is reported under ``n``, a rejected step under ``dt_over_h``."""
    domain, field = _build_geometry(cfg)
    n = cfg["n"]
    if len(n) == 1:
        n = n * domain.d
    try:  # build_grid checks the counts too, but its errors name no key
        _check_cells(n)
    except ValueError as exc:
        raise ValueError(f"bad value for 'n': {exc}") from exc
    grid = build_grid(domain, n, cfg["bc"])
    fluxes = compute_fluxes(field, grid, cfg["quadrature"])
    report = max_stable_dt(fluxes, cfg["xi"])
    try:
        dt = choose_dt(report, max(grid.h), cfg["dt_over_h"])
        return domain, field, assemble(fluxes, dt), report
    except CflViolation:
        raise
    except ValueError as exc:
        raise ValueError(f"bad value for 'dt_over_h': {exc}") from exc


def _prior_pdf(cfg, domain):
    kind = cfg["prior"]
    if kind == "gaussian":
        mean = cfg["prior_mean"]
        cov = cfg["prior_cov"]
        if len(mean) != domain.d:
            raise ValueError(f"prior_mean={mean} does not match dimension {domain.d}")
        return gaussian_pdf(mean, cov)
    if kind == "uniform":
        vol = domain.volume
        return lambda xs: 1.0 / vol
    raise ValueError(f"prior {kind!r} not usable here (need gaussian or uniform)")


def _prior_density(cfg, grid):
    kind = cfg["prior"]
    if kind.startswith("file:"):
        path = kind.split(":", 1)[1]
        try:
            dens, _ = load_density(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load prior from {path}: {exc}") from exc
        if dens.grid != grid:
            raise ValueError(f"prior file {path} holds {dens.grid!r}, not the run's {grid!r}")
        return normalize(dens)
    if kind == "uniform":
        return uniform_density(grid)
    return normalize(project(_prior_pdf(cfg, grid.domain), grid, cfg["quadrature"]))


@contextmanager
def _outdir(cfg):
    """The ``out`` directory, made if need be, for a block that writes into
    it: an ``OSError`` of either is a bad ``out``.  The blocks print nothing,
    so a closed stdout is not blamed on ``out``."""
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as exc:
        raise ValueError(f"bad value for 'out': {exc}") from exc


def cmd_operator(cfg) -> int:
    _, _, op, report = _operator_from(cfg)
    print(f"cfl: dt_max={report.dt_max:.17g} xi={report.xi:.17g} "
          f"binding_cell={report.binding_cell}")
    print(f"dt: {op.dt:.17g}")
    mk = verify_markov(op)
    print(f"markov: min_entry={mk.min_entry:.17g} "
          f"max_row_sum_err={mk.max_row_sum_err:.17g} is_markov={mk.is_markov}")
    print(f"mass_conserving: {op.mass_conserving}")
    with _outdir(cfg) as out:
        if cfg["write_matrix"]:
            export_operator(op, out / "operator.txt")
    if cfg["write_matrix"]:
        print(f"wrote {out / 'operator.txt'}")
    return 0 if mk.is_markov else 1


def cmd_converge(cfg) -> int:
    domain, field = _build_geometry(cfg)
    try:  # the study checks the levels too, but its errors name no key
        _validate_levels(cfg["n_list"], domain.d)
    except ValueError as exc:
        raise ValueError(f"bad value for 'n_list': {exc}") from exc
    pdf = _prior_pdf(cfg, domain)
    rows = convergence_study(
        field, domain, cfg["bc"], pdf, cfg["t_final"], cfg["n_list"], cfg["xi"],
        dt_over_h=cfg["dt_over_h"], quadrature=cfg["quadrature"],
        normalize_prior=cfg["normalize_prior"],
    )
    table = format_convergence_table(rows)
    with _outdir(cfg) as out:
        write_convergence_csv(rows, out / "convergence.csv")
        (out / "convergence.txt").write_text(table + "\n")
    print(table)
    print(f"wrote {out / 'convergence.csv'}")
    return 0


def cmd_filter(cfg) -> int:
    domain, field, op, _ = _operator_from(cfg)
    prior = _prior_density(cfg, op.grid)

    # the model checks sigma before it scales the synthetic noise
    model = gaussian_abs_position_model(cfg["obs_sigma"])
    source = cfg["obs"]
    if source == "synthesize":
        times = cfg["obs_times"]
        # the truth's RK4 cost grows with the times, so check them first
        _schedule(op, times, cfg["t_end"], cfg["snapshot_times"])
        truth = simulate_truth(field, cfg["obs_x0"], times, domain=domain, bc=op.grid.bc)
        obs = synthesize_observations(times, truth, cfg["obs_sigma"], cfg["seed"])
    elif source.startswith("file:"):
        path = source.split(":", 1)[1]
        try:
            obs = read_observations(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"bad observation file {path}: {exc}") from exc
    else:
        raise ValueError(f"obs must be 'synthesize' or 'file:<path>', got {source!r}")

    state = run_filter(prior, op, model, obs, cfg["t_end"],
                       min_prominence=cfg["min_prominence"],
                       snapshot_times=cfg["snapshot_times"])
    # nothing is written until the library has accepted every argument
    with _outdir(cfg) as out:
        if source == "synthesize":
            write_observations(obs, out / "observations.csv")
        write_run_report(state, out / "report.csv")
        snaps = [(out / f"snapshot_{i:02d}.csv", t, dens)
                 for i, (t, dens) in enumerate(state.snapshots)]
        for path, t, dens in snaps:
            save_density(dens, path, t=t)
    if source == "synthesize":
        print(f"wrote {out / 'observations.csv'}")
    print(f"wrote {out / 'report.csv'}")
    for path, t, _ in snaps:
        print(f"wrote {path} (t={t:.17g})")
    print(f"final: t={state.time:.17g} log_evidence={state.log_evidence:.17g} "
          f"modes={state.history.mode_count[-1]}")
    return 0


_COMMANDS = {
    "operator": (cmd_operator, "assemble the transition matrix and verify stochasticity"),
    "converge": (cmd_converge, "mesh-refinement study of the evolved density"),
    "filter": (cmd_filter, "sequential inference run with synthetic or file observations"),
}


def main(argv=None) -> int:
    # keys match whole (no argparse prefixes), as the join below matches them
    parser = argparse.ArgumentParser(
        prog="fpfvm",
        description="Upwind finite-volume transition operators: verification, "
                    "convergence studies, and pendulum tracking.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        p.add_argument("--config", help="key=value config file")
        for key in sorted(_defaults(name)):
            p.add_argument(f"--{key}")
    # every key takes one value, so the token after a key is its value, also
    # where it starts with "-" (argparse would take it for an option)
    flags = {"--config", *(f"--{key}" for key in _KEYS)}
    joined: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in flags:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    args = parser.parse_args(joined)

    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.command, args.config, overrides)
        return _COMMANDS[args.command][0](cfg)
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
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
