import numpy as np
import pytest

from fpfvm import Density, load_density, save_density, uniform_density
from fpfvm.cli import ConfigError, load_config, main, parse_real
from fpfvm.grid import BoxDomain, build_grid

PI = np.pi


def test_parse_real():
    assert parse_real("3.5") == 3.5
    assert parse_real("pi") == PI
    assert parse_real("-pi") == -PI
    assert parse_real("0.6pi") == pytest.approx(0.6 * PI, rel=1e-15)
    assert parse_real("pi/4") == pytest.approx(PI / 4, rel=1e-15)
    assert parse_real("2pi/7") == pytest.approx(2 * PI / 7, rel=1e-15)
    with pytest.raises(ConfigError):
        parse_real("two")


def test_load_config_layers(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nn = 10,10\nxi = 0.25\n")
    cfg = load_config("operator", cfg_file, {"xi": "0.5"})
    assert cfg["n"] == (10, 10)
    assert cfg["xi"] == 0.5
    with pytest.raises(ConfigError):
        load_config("operator", None, {"volume": "3"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("obs_sigma = 0.1\n")  # filter key, not an operator key
    with pytest.raises(ConfigError):
        load_config("operator", bad, None)
    for command in ("operator", "converge"):  # only filter draws random numbers
        with pytest.raises(ConfigError):
            load_config(command, None, {"seed": "3"})


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


def test_operator_cfl_violation_exit_three(tmp_path):
    rc = main(["operator", "--out", str(tmp_path), "--dt_over_h", "1.0"])
    assert rc == 3


def test_operator_zero_field_stationary_uniform(tmp_path):
    rc = main([
        "operator", "--out", str(tmp_path),
        "--field", "constant:0,0", "--n", "6,6",
        "--write_stationary", "true", "--write_matrix", "true",
    ])
    assert rc == 0
    dens, _ = load_density(tmp_path / "stationary.csv", bc=("periodic", "neumann"))
    g = build_grid(BoxDomain((-PI, -PI), (PI, PI)), (6, 6), ("periodic", "neumann"))
    assert np.allclose(dens.values, uniform_density(g).values, rtol=1e-12)
    header = (tmp_path / "operator.txt").read_text().splitlines()[0]
    assert header.startswith("# cells=36 dt=")


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
    dens, t = load_density(tmp_path / "snapshot_01.csv", bc=("periodic", "neumann"))
    assert dens.mass == pytest.approx(1.0, abs=1e-10)
    assert t > 0


def test_filter_rejects_bad_observation_file(tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text("t,z\n1.0,0.3\n0.5,0.2\n")  # times not increasing
    rc = main(["filter", "--out", str(tmp_path), "--n", "8,8",
               "--obs", f"file:{obs}"])
    assert rc == 2


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
])
def test_library_rejections_exit_two(tmp_path, capsys, args):
    rc = main(args + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "report.csv").exists()
    assert not (tmp_path / "convergence.csv").exists()
    assert not (tmp_path / "observations.csv").exists()


def test_unknown_cli_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["operator", "--out", str(tmp_path), "--bogus", "1"])
    assert exc.value.code == 2


def test_byte_identical_reruns_across_threads(tmp_path):
    outs = []
    for threads, sub in (("1", "r1"), ("4", "r2")):
        out = tmp_path / sub
        rc = main(["filter", "--out", str(out), "--n", "12,12",
                   "--obs_times", "2pi/7", "--t_end", "1.5",
                   "--snapshot_times", "0,1", "--threads", threads])
        assert rc == 0
        outs.append(out)
    for name in ("report.csv", "observations.csv", "snapshot_00.csv",
                 "snapshot_01.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
