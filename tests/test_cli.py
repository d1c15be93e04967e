import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpfvm
from fpfvm import (Density, assemble, convergence_study, gaussian_pdf,
                   load_density, pendulum_field, read_observations, save_density,
                   uniform_density)
from fpfvm import bench, cli
from fpfvm.cli import load_config, main, parse_real
from fpfvm.grid import BoxDomain, build_grid

PI = np.pi


def test_parse_real():
    assert parse_real("3.5") == 3.5
    assert parse_real("pi") == PI
    assert parse_real("-pi") == -PI
    assert parse_real("0.6pi") == pytest.approx(0.6 * PI, rel=1e-15)
    assert parse_real("pi/4") == pytest.approx(PI / 4, rel=1e-15)
    assert parse_real("2pi/7") == pytest.approx(2 * PI / 7, rel=1e-15)
    with pytest.raises(ValueError, match="cannot parse real value 'two'"):
        parse_real("two")


def test_load_config_layers(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nn = 10,10\nxi = 0.25\n")
    cfg = load_config("operator", cfg_file, {"xi": "0.5"})
    assert cfg["n"] == (10, 10)
    assert cfg["xi"] == 0.5
    with pytest.raises(ValueError, match="unknown key 'volume' for command 'operator'"):
        load_config("operator", None, {"volume": "3"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("obs_sigma = 0.1\n")  # filter key, not an operator key
    with pytest.raises(ValueError, match="unknown key 'obs_sigma' for command 'operator'"):
        load_config("operator", bad, None)
    for command in ("operator", "converge"):  # only filter draws random numbers
        with pytest.raises(ValueError, match=f"unknown key 'seed' for command '{command}'"):
            load_config(command, None, {"seed": "3"})


_COMMON = {"field": "pendulum", "domain": ((-PI, PI), (-PI, PI)),
           "bc": ("periodic", "neumann"), "xi": PI / (2 * PI + 1),
           "dt_over_h": 1 / (2 * PI + 1), "quadrature": "midpoint", "out": "out"}


@pytest.mark.parametrize("command, expected", [
    ("operator", dict(_COMMON, n=(50, 50), write_matrix=False)),
    ("converge", dict(_COMMON, n_list=(50, 100, 200, 400), t_final=PI, prior="gaussian",
                      prior_mean=(0.6 * PI, 0.0), prior_cov=(0.32,),
                      normalize_prior=False)),
    ("filter", dict(_COMMON, n=(200, 200), prior="gaussian", prior_mean=(0.0, 0.0),
                    prior_cov=(0.64,), obs="synthesize", obs_x0=(0.2 * PI, 0.0),
                    obs_times=tuple(k * 2 * PI / 7 for k in range(1, 7)), obs_sigma=0.1,
                    t_end=2 * PI, snapshot_times=(0.0, PI / 6, PI / 3, PI),
                    min_prominence=0.1, seed=7)),
])
def test_config_schema(capsys, command, expected):
    """Each command takes exactly these keys, with exactly these defaults,
    and each key is a flag of the command."""
    cfg = load_config(command)
    assert sorted(cfg) == sorted(expected)
    for key, value in expected.items():
        assert cfg[key] == value, key
        assert type(cfg[key]) is type(value), key
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert set(re.findall(r"--(\w+)", capsys.readouterr().out)) == {*expected, "help", "config"}


def test_operator_defaults_exit_zero(tmp_path, capsys):
    rc = main(["operator", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "is_markov=True" in out


def test_operator_dirichlet_outflow_exit_zero(tmp_path, capsys):
    # the substochastic Dirichlet matrix is the intended one, not an error
    rc = main(["operator", "--out", str(tmp_path),
               "--bc", "dirichlet,dirichlet", "--n", "20,30"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "is_markov=True" in out and "mass_conserving: False" in out


def test_fixed_step_is_checked_against_the_bound_without_the_margin(tmp_path, capsys):
    """``xi`` sets only the printed ``dt_max`` (and the ``auto`` step): a fixed
    ``dt_over_h`` step above it, within the bound without the margin, is
    assembled and verified."""
    assert main(["operator", "--out", str(tmp_path), "--field", "rotation",
                 "--quadrature", "gauss3", "--bc", "dirichlet,periodic"]) == 0
    out = capsys.readouterr().out
    assert "is_markov=True" in out
    dt_max = float(out.split("dt_max=")[1].split()[0])
    assert float(out.split("dt: ")[1].split()[0]) > dt_max


def test_operator_cfl_violation_exit_three(tmp_path):
    rc = main(["operator", "--out", str(tmp_path), "--dt_over_h", "1.0"])
    assert rc == 3


def test_dt_over_h_auto_takes_the_stable_step(tmp_path, capsys):
    assert main(["operator", "--out", str(tmp_path), "--n", "8,8",
                 "--dt_over_h", "auto"]) == 0
    out = capsys.readouterr().out
    assert out.split("dt_max=")[1].split()[0] == out.split("dt: ")[1].split()[0]
    assert main(["converge", "--out", str(tmp_path), "--n_list", "8,16",
                 "--t_final", "pi/8", "--dt_over_h", "auto"]) == 0
    prior = gaussian_pdf((0.6 * PI, 0.0), 0.32)  # the converge defaults
    rows = convergence_study(pendulum_field(), BoxDomain((-PI, -PI), (PI, PI)),
                             ("periodic", "neumann"), prior, PI / 8, (8, 16),
                             xi=PI / (2 * PI + 1), dt_over_h=None)
    row = (tmp_path / "convergence.csv").read_text().splitlines()[1]
    assert row == f"8,{rows[0].l1_diff:.17g},"


def test_operator_zero_field_stationary_uniform(tmp_path, capsys):
    """Where nothing flows the matrix is the identity, so every density (the
    uniform one too) is stationary, and ``auto`` steps with 1.0."""
    rc = main([
        "operator", "--out", str(tmp_path), "--field", "constant:0,0",
        "--n", "6,6", "--dt_over_h", "auto", "--write_matrix", "true",
    ])
    assert rc == 0
    assert "\ndt: 1\n" in capsys.readouterr().out
    header, *triplets = (tmp_path / "operator.txt").read_text().splitlines()
    assert header.startswith("# cells=36 dt=1")
    assert triplets == [f"{i} {i} 1" for i in range(36)]


def test_zero_flow_auto_step_is_the_same_in_both_commands(tmp_path, monkeypatch):
    """``operator`` and every ``converge`` level take the zero-flow step 1.0
    (``t_final = 3`` is a whole number of such steps)."""
    seen = []

    def recording(fluxes, dt):
        seen.append(dt)
        return assemble(fluxes, dt)

    monkeypatch.setattr("fpfvm.cli.assemble", recording)
    monkeypatch.setattr("fpfvm.bench.assemble", recording)
    zero = ["--field", "constant:0,0", "--dt_over_h", "auto", "--out", str(tmp_path)]
    assert main(["operator", "--n", "8,8"] + zero) == 0
    assert main(["converge", "--n_list", "8,16", "--t_final", "3"] + zero) == 0
    assert seen == [1.0, 1.0, 1.0]


def test_stationary_keys_are_gone(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("write_stationary = true\n")
    out = tmp_path / "out"
    assert main(["operator", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown key 'write_stationary'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "missing", "not utf-8", "no equals sign"])
def test_unreadable_config_exits_two_naming_it(tmp_path, capsys, kind):
    """A config path that is a directory, that does not exist, or whose text
    is not UTF-8, and a config line that is not ``key=value``, are
    configuration errors that name the file, not a traceback."""
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not utf-8":
        cfg.write_bytes(b"n = 8,8\n# \xff\n")
    elif kind == "no equals sign":
        cfg.write_text("n = 8,8\nxi 0.25\n")
    out = tmp_path / "out"
    assert main(["operator", "--n", "8,8", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:2: expected key=value" if kind == "no equals sign"
                          else f"config error: cannot read config file {cfg}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.71 GiB for an array")

    monkeypatch.setattr("fpfvm.cli.build_grid", no_memory)
    out = tmp_path / "out"
    assert main(["operator", "--n", "30000,30000", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert "6.71 GiB" in captured.err
    assert not out.exists()


def test_converge_small_run(tmp_path, capsys):
    rc = main([
        "converge", "--out", str(tmp_path),
        "--n_list", "10,20,40", "--t_final", "pi/8",
    ])
    assert rc == 0
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "n,l1_diff,effective_order"
    assert len(lines) == 3
    assert (tmp_path / "convergence.txt").exists()


def test_converge_rejects_non_doubling(tmp_path):
    rc = main(["converge", "--out", str(tmp_path), "--n_list", "10,30"])
    assert rc == 2


def test_converge_span_just_past_whole_stable_steps(tmp_path):
    """``t_final`` is ten stable N=50 steps and a hair more, so ``choose_dt``
    must add a step, not stretch ten past the step bound (exit 3)."""
    assert main(["converge", "--out", str(tmp_path), "--xi", "0",
                 "--dt_over_h", "auto", "--t_final", "0.30809285540892",
                 "--n_list", "50,100"]) == 0


def test_converge_span_past_the_step_bound_exits_two(tmp_path, capsys, monkeypatch):
    """``t_final = 1e12`` takes about 1e13 N=8 steps: the level is rejected,
    naming ``t_final``, before its first step, instead of running for days."""
    def no_steps(*args):
        raise AssertionError("a level past the step bound was stepped")

    monkeypatch.setattr(bench, "evolve", no_steps)
    rc = main(["converge", "--n_list", "8,16", "--t_final", "1e12", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: t_final=") and "steps" in err
    assert list(tmp_path.iterdir()) == []


def test_converge_t_zero_projection_only(tmp_path):
    rc = main(["converge", "--out", str(tmp_path),
               "--n_list", "8,16", "--t_final", "0"])
    assert rc == 0
    row = (tmp_path / "convergence.csv").read_text().strip().splitlines()[1]
    assert float(row.split(",")[1]) > 0


def test_filter_small_run(tmp_path, capsys):
    rc = main([
        "filter", "--out", str(tmp_path), "--n", "16,16",
        "--obs_times", "2pi/7,4pi/7", "--t_end", "pi",
        "--snapshot_times", "0,pi/2",
    ])
    assert rc == 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "observations.csv").exists()
    assert (tmp_path / "snapshot_00.csv").exists()
    assert (tmp_path / "snapshot_01.csv").exists()
    dens, t = load_density(tmp_path / "snapshot_01.csv")
    assert dens.mass == pytest.approx(1.0, abs=1e-10)
    assert t > 0


def test_filter_rejects_bad_observation_file(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    # times not increasing: the last before the first, or one repeated
    for times in ("1.0,0.3\n0.5,0.2\n", "1.0,0.3\n2.0,0.1\n2.0,0.2\n"):
        obs.write_text("t,z\n" + times)
        rc = main(["filter", "--out", str(tmp_path / "run"), "--n", "8,8",
                   "--obs", f"file:{obs}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: bad observation file {obs}: ")
    assert not (tmp_path / "run").exists()


def test_filter_rejects_non_finite_observation_value(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("t,z\n1,inf\n")
    rc = main(["filter", "--out", str(tmp_path / "run"), "--n", "8,8",
               "--obs", f"file:{obs}"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: bad observation file {obs}: ")
    assert "observation values must be finite" in err
    assert not (tmp_path / "run").exists()


def test_filter_empty_observations_pure_evolution(tmp_path):
    rc = main(["filter", "--out", str(tmp_path), "--n", "8,8",
               "--obs_times", "", "--t_end", "0.2", "--snapshot_times", "0"])
    assert rc == 0
    report = (tmp_path / "report.csv").read_text()
    rows = [ln for ln in report.splitlines() if ln and not ln.startswith("#")]
    assert all(row.split(",")[-1] == "0" for row in rows[1:])  # log evidence stays 0


def test_filter_file_prior_roundtrip(tmp_path):
    run1 = tmp_path / "a"
    rc = main(["filter", "--out", str(run1), "--n", "10,10",
               "--obs_times", "", "--t_end", "0", "--snapshot_times", "0"])
    assert rc == 0
    run2 = tmp_path / "b"
    rc = main(["filter", "--out", str(run2), "--n", "10,10",
               "--obs_times", "", "--t_end", "0", "--snapshot_times", "0",
               "--prior", f"file:{run1 / 'snapshot_00.csv'}"])
    assert rc == 0
    a, _ = load_density(run1 / "snapshot_00.csv")
    b, _ = load_density(run2 / "snapshot_00.csv")
    assert np.abs(a.values - b.values).max() <= 1e-12 * a.values.max()


def test_filter_rejects_file_prior_of_other_boundary_kinds(tmp_path, capsys):
    """A snapshot records its boundary kinds, so a prior file from a
    periodic,neumann run cannot start a periodic,periodic one."""
    run1 = tmp_path / "a"
    args = ["filter", "--n", "8,8", "--obs_times", "", "--t_end", "0", "--snapshot_times", "0"]
    assert main(args + ["--out", str(run1)]) == 0
    capsys.readouterr()
    rc = main(args + ["--out", str(tmp_path / "b"), "--bc", "periodic,periodic",
                      "--prior", f"file:{run1 / 'snapshot_00.csv'}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "holds Grid(n=(8, 8), bc=('periodic', 'neumann')," in err
    assert "not the run's Grid(n=(8, 8), bc=('periodic', 'periodic')," in err
    assert not (tmp_path / "b" / "report.csv").exists()


def test_filter_uniform_prior_is_the_first_snapshot(tmp_path):
    """``filter --prior uniform`` starts from the constant density of unit mass."""
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (6, 6), ("periodic", "neumann"))
    assert main(["filter", "--out", str(tmp_path), "--n", "6,6", "--prior", "uniform",
                 "--obs_times", "", "--t_end", "0", "--snapshot_times", "0"]) == 0
    dens, t = load_density(tmp_path / "snapshot_00.csv")
    assert t == 0 and dens.grid == g
    assert np.array_equal(dens.values, uniform_density(g).values)


def test_filter_rejects_negative_file_prior(tmp_path, capsys):
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (6, 6), ("periodic", "neumann"))
    vals = uniform_density(g).values.copy()
    vals[7] = -0.5
    prior = tmp_path / "prior.csv"
    save_density(Density(vals, g), prior)
    rc = main(["filter", "--out", str(tmp_path / "run"), "--n", "6,6",
               "--obs_times", "", "--t_end", "0", "--snapshot_times", "0",
               "--prior", f"file:{prior}"])
    assert rc == 2
    assert "negative" in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.csv").exists()


@pytest.mark.parametrize("args", [
    ["converge", "--bc", "periodic,foo", "--n_list", "4,8", "--t_final", "0.1"],
    ["converge", "--n_list", "1,2", "--t_final", "0.1"],
    ["converge", "--n_list", "0,0"],
    ["operator", "--xi", "1.5"],
    ["operator", "--n", "8,8", "--dt_over_h", "-1"],
    ["filter", "--n", "8,8", "--obs_sigma", "-1"],
    ["filter", "--n", "8,8", "--prior_mean", "100,100"],
    ["filter", "--n", "8,8", "--prior_cov", "-1"],
    ["filter", "--n", "8,8", "--min_prominence", "nan"],
    ["converge", "--n_list", "4,8", "--t_final", "-1"],
    ["converge", "--n_list", "4,8", "--t_final", "inf"],
    ["converge", "--n_list", "4,8", "--t_final", "1e308"],  # t_final / dt overflows
    ["filter", "--n", "8,8", "--t_end", "inf"],
    ["filter", "--n", "8,8", "--obs_times", "1,inf", "--t_end", "5"],
    # a history larger than the machine's memory, rejected before allocation
    ["filter", "--n", "8,8", "--t_end", "1e12"],
    ["filter", "--n", "8,8", "--t_end", "1e300"],
    # the truth's RK4 substep count overflows
    ["filter", "--n", "8,8", "--obs_times", "1,1e306", "--t_end", "1e306"],
    # t_end is checked before the truth's 1e15 RK4 substeps are run
    ["filter", "--n", "8,8", "--obs_times", "1,1e12", "--t_end", "1e12"],
    # no flow means no CFL bound, so only the step check stops an infinite dt
    ["operator", "--n", "8,8", "--field", "constant:0,0", "--dt_over_h", "inf"],
    ["filter", "--n", "8,8", "--field", "constant:0,0", "--dt_over_h", "inf"],
    ["converge", "--n_list", "8,16", "--t_final", "0.01", "--dt_over_h", "-1"],
    ["converge", "--n_list", "8,16", "--t_final", "0.01", "--dt_over_h", "0"],
    ["converge", "--n_list", "8,16", "--t_final", "0.01", "--dt_over_h", "nan"],
    ["converge", "--n_list", "8,16", "--t_final", "0.01", "--dt_over_h", "inf"],
    # an empty covariance reaches gaussian_pdf's shape check
    ["converge", "--n_list", "4,8", "--t_final", "0.1", "--prior_cov", ""],
    # converge checks xi at every level, even when no step is taken
    ["converge", "--n_list", "8,16", "--t_final", "0.1", "--xi", "1.5"],
    ["converge", "--n_list", "8,16", "--t_final", "0.1", "--xi", "nan"],
    ["converge", "--n_list", "8,16", "--t_final", "0", "--xi", "1.5"],
    # more cells than int32 indices reach, rejected before any allocation
    ["operator", "--n", "65536,65536"],
    # a prior that underflows to zero on every cell has no mass to compare
    ["converge", "--n_list", "8,16", "--prior_mean", "100,100"],
    # a prior whose normalizing constant leaves the float range: det(cov)
    # overflows, or underflows to zero, without a warning escaping
    ["converge", "--n_list", "8,16", "--prior_cov", "1e308"],
    ["filter", "--n", "8,8", "--prior_cov", "1e308"],
    ["converge", "--n_list", "8,16", "--t_final", "0.1", "--prior_cov", "1e-200"],
    # a box whose cell width rounds to zero, whose cell volume underflows,
    # whose cell width is subnormal, or whose cell volume overflows
    ["operator", "--n", "4,4", "--domain", "0:5e-324,0:1"],
    ["operator", "--n", "8,8", "--domain", "0:1e-200,0:1e-200"],
    ["operator", "--n", "8,8", "--domain", "0:1,0:1e-320"],
    ["operator", "--n", "8,8", "--domain", "0:1e300,0:1e300"],
    # a prior mean of the wrong dimension, and a prior of no known kind
    ["filter", "--n", "8,8", "--prior_mean", "0,0,0"],
    ["filter", "--n", "8,8", "--prior", "cauchy"],
    # an observation source that is neither synthesized nor a file
    ["filter", "--n", "8,8", "--obs", "stdin"],
])
def test_library_rejections_exit_two(tmp_path, capsys, args):
    rc = main(args + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, name", [
    # 2 sigma^2 underflows to zero, or to a subnormal that the residual's
    # square overflows against; or overflows to inf
    (["filter", "--obs_sigma", "1e-170"], "sigma"),
    (["filter", "--obs_sigma", "1e-154"], "sigma"),
    (["filter", "--obs_sigma", "1e200"], "sigma"),
    (["filter", "--obs_sigma", "inf"], "sigma"),
    (["operator", "--field", "pendulum:inf"], "g_over_l"),
])
def test_out_of_range_model_parameters_exit_two(tmp_path, capsys, args, name):
    rc = main(args + ["--n", "8,8", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and name in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key, value", [
    ("operator", "n", "8,x"),
    ("operator", "xi", "two"),
    ("operator", "xi", "pi/0"),  # a ZeroDivisionError, not a ValueError
    ("operator", "domain", "0"),
    ("operator", "write_matrix", "maybe"),
    ("filter", "seed", "1.5"),
    ("operator", "dt_over_h", "two"),
    ("filter", "obs_times", "1,x"),
])
def test_parse_failure_names_its_key(tmp_path, capsys, command, key, value):
    rc = main([command, f"--{key}", value, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: bad value for '{key}': ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["pendulum:abc", "constant:1,x", "constant:", "vortex"])
def test_bad_field_names_its_spec_and_the_forms(tmp_path, capsys, spec):
    rc = main(["operator", "--n", "8,8", "--field", spec, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"config error: field {spec!r} is not 'pendulum', ")
    assert "'constant:<c1>,<c2>,...'" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n_list", ["0,0", "1,2"])
def test_bad_levels_name_n_list(tmp_path, capsys, n_list):
    rc = main(["converge", "--n_list", n_list, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: bad value for 'n_list': ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, n", [
    ("operator", "0,0"), ("filter", "1,1"), ("operator", "1"), ("operator", "65536,65536"),
])
def test_bad_cell_counts_name_n(tmp_path, capsys, command, n):
    rc = main([command, "--n", n, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: bad value for 'n': ")
    assert list(tmp_path.iterdir()) == []


def test_bad_xi_is_not_reported_under_n_list(tmp_path, capsys):
    rc = main(["converge", "--n_list", "8,16", "--t_final", "0.1", "--xi", "1.5",
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: xi must lie in [0, 1)")


@pytest.mark.parametrize("tag", ["gauss0", "bogus"])
def test_bad_quadrature_names_the_key(tmp_path, capsys, tag):
    rc = main(["operator", "--n", "8,8", "--quadrature", tag, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and "quadrature" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra, code, err", [
    (["--dt_over_h", "-1"], 2, "config error: bad value for 'dt_over_h': "),
    (["--dt_over_h", "1"], 3, "cfl violation: "),
], ids=["negative_dt_over_h", "cfl_violation"])
def test_rejected_step_prints_nothing(tmp_path, capsys, extra, code, err):
    """``cfl:`` and ``dt:`` are printed only once ``assemble`` has accepted dt."""
    rc = main(["operator", "--n", "8,8", "--out", str(tmp_path)] + extra)
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert captured.err.startswith(err)


def test_exit_codes_through_a_process(tmp_path):
    """``python -m fpfvm.cli`` hands main()'s return code to the process."""
    src = str(Path(fpfvm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "fpfvm.cli", "operator", "--n", "8,8",
           "--out", str(tmp_path)]
    for extra, code, stderr in (([], 0, ""), (["--xi", "1.5"], 2, "config error:"),
                                (["--dt_over_h", "1"], 3, "cfl violation:")):
        proc = subprocess.run(cmd + extra, cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(stderr)


def test_unknown_cli_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["operator", "--out", str(tmp_path), "--bogus", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, key, value", [
    ("operator", "domain", "-pi:pi,-pi:pi"),
    ("filter", "prior_mean", "-1,0"),
    ("converge", "prior_mean", "-0.5pi,-1"),
    ("filter", "obs_x0", "-0.2,0"),
    ("operator", "xi", "-1"),
])
def test_a_value_starting_with_a_dash_is_a_value(monkeypatch, command, key, value):
    """Every key takes one value, so ``--key value`` reads the token after the
    key as its value even where it starts with ``-``, as ``--key=value`` does."""
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, (lambda cfg: seen.append(cfg) or 0, ""))
    assert main([command, f"--{key}", value]) == 0
    assert main([command, f"--{key}={value}"]) == 0
    assert seen[0] == seen[1] == load_config(command, overrides={key: value})


@pytest.mark.parametrize("args", [
    ["--dom", "-pi:pi,-pi:pi"],
    ["--dom", "0:1,0:1"],
    ["--dom=0:1,0:1"],
    ["--write_mat", "true"],
])
def test_a_key_abbreviation_is_an_unknown_flag(tmp_path, capsys, args):
    """Keys match whole, so a prefix of a key is rejected alike whether or not
    its value starts with ``-``: no abbreviation runs with a value that the
    join of a key with the token after it would not have read."""
    with pytest.raises(SystemExit) as exc:
        main(["operator", "--n", "8,8", *args, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {args[0]}" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        rc = main(["filter", "--out", str(out), "--n", "12,12",
                   "--obs_times", "2pi/7", "--t_end", "1.5",
                   "--snapshot_times", "0,1"])
        assert rc == 0
        outs.append(out)
    for name in ("report.csv", "observations.csv", "snapshot_00.csv",
                 "snapshot_01.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_default_synthesized_observations_are_pinned(tmp_path):
    """The six observations of the default filter run (seed 7), to the bit:
    reruns only compare the code with itself, so a drift in the truth's RK4
    arithmetic or in the seeded noise would pass them."""
    assert main(["filter", "--out", str(tmp_path)]) == 0
    obs = read_observations(tmp_path / "observations.csv")
    assert obs.values == (0.40463136822975815, 0.14340323364334492, 0.52048388961617698,
                          0.49950776077759984, 0.16261246664882867, 0.22619169468358524)


def test_negative_seed_exits_two_naming_it(tmp_path, capsys):
    """A negative seed is a configuration error that names the key and its
    value, not numpy's bare complaint about a generator seed."""
    rc = main(["filter", "--n", "8,8", "--obs_times", "1", "--t_end", "1",
               "--snapshot_times", "0", "--seed", "-1", "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "seed=-1" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, args, sub", [
    ("operator", ["--n", "8,8"], ""),
    ("operator", ["--n", "8,8", "--write_matrix", "true"], "sub"),
    ("converge", ["--n_list", "8,16", "--t_final", "pi/8"], ""),
    ("filter", ["--n", "8,8", "--obs_times", "1", "--t_end", "1",
                "--snapshot_times", "0"], "sub"),
])
def test_unusable_out_exits_two(tmp_path, capsys, command, args, sub):
    """An ``out`` that names a regular file, or a path through one, is a
    configuration error: exit 2, ``config error:`` naming the key, no traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker / sub if sub else blocker
    assert main([command, *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad value for 'out': ")
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("args, blocked", [
    (["filter", "--n", "8,8", "--obs_times", "1", "--t_end", "1", "--snapshot_times", "0"],
     "report.csv"),
    (["filter", "--n", "8,8", "--obs_times", "1", "--t_end", "1", "--snapshot_times", "0"],
     "snapshot_00.csv"),
    (["operator", "--n", "8,8", "--write_matrix", "true"], "operator.txt"),
    (["converge", "--n_list", "8,16", "--t_final", "0.1"], "convergence.csv"),
])
def test_an_output_file_that_cannot_be_written_exits_two(tmp_path, capsys, args, blocked):
    """A directory in place of an output file is a bad ``out``: exit 2 with
    one ``config error:`` line naming the key, not a traceback (exit 1)."""
    (tmp_path / blocked).mkdir()
    assert main([*args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad value for 'out': ") and err.count("\n") == 1
    assert blocked in err
