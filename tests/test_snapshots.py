"""Snapshot files of ``fpfvm filter``, and the vectorized ``%.17g`` that
writes their values.

``fpfvm filter`` writes each snapshot after the run with ``save_density``,
in-process.  Every line of a file must hold the bytes of ``"%.17g\\n" % x``
for its value ``x``, and no command may start a process.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fpfvm
from fpfvm import Density, density, load_density, save_density
from fpfvm.cli import main
from fpfvm.density import format_values
from fpfvm.grid import BoxDomain, build_grid

RUNS = {
    "pendulum": ([], ("periodic", "neumann")),
    "box_1d": (["--domain", "0:1", "--n", "40", "--bc", "periodic",
                "--field", "constant:1", "--prior_mean", "0.5", "--prior_cov", "0.01",
                "--obs_x0", "0.3", "--obs_times", "0.25", "--t_end", "0.5",
                "--snapshot_times", "0,0.25,0.5"],
               ("periodic",)),
    "box_3d": (["--domain", "0:1,0:1,0:1", "--n", "6,7,8",
                "--bc", "periodic,neumann,dirichlet",
                "--field", "constant:1,0.5,-0.25", "--prior_mean", "0.5,0.5,0.5",
                "--prior_cov", "0.02", "--obs_x0", "0.3,0.5,0.5", "--obs_times", "0.1",
                "--t_end", "0.2", "--snapshot_times", "0,0.1,0.2"],
               ("periodic", "neumann", "dirichlet")),
}


def _lines(values) -> bytes:
    return b"".join(format_values(np.asarray(values, dtype=float)))


def _percent(values) -> bytes:
    values = tuple(float(v) for v in values)
    return ("%.17g\n" * len(values) % values).encode("ascii")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_snapshot_bytes_equal_save_density(tmp_path, name):
    """Each snapshot is what ``save_density`` writes for the density it
    holds, and its body is ``%.17g`` of the values.  The pendulum run is
    the default N=200 run, seed 7: its posteriors span four chunks each."""
    args, bc = RUNS[name]
    assert main(["filter", *args, "--out", str(tmp_path / "run")]) == 0
    snaps = sorted((tmp_path / "run").glob("snapshot_*.csv"))
    assert len(snaps) == (4 if name == "pendulum" else 3)
    for path in snaps:
        dens, t = load_density(path)
        assert dens.grid.bc == bc
        save_density(dens, tmp_path / "again.csv", t=t)
        text = path.read_bytes()
        assert (tmp_path / "again.csv").read_bytes() == text
        assert text.split(b"\n", 5)[5] == _percent(dens.values)


EDGE_VALUES = (0.0, 5e-324, 1e-300, 1 / 3, 1e300)
EDGE_LINES = "0\n4.9406564584124654e-324\n1e-300\n0.33333333333333331\n1.0000000000000001e+300\n"


def test_save_density_edge_values(tmp_path):
    grid = build_grid(BoxDomain((0.0,), (1.0,)), (len(EDGE_VALUES),), ("periodic",))
    save_density(Density(np.array(EDGE_VALUES), grid), tmp_path / "d.csv", t=1 / 3)
    text = (tmp_path / "d.csv").read_text()
    assert text == ("# d=1\n# n=5\n# domain=0,1\n# bc=periodic\n# t=0.33333333333333331\n"
                    + EDGE_LINES)


_BITS = st.integers(0, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(_BITS, min_size=1, max_size=40))
@example([0x8000000000000000])  # -0.0
@example([1, 0x800FFFFFFFFFFFFF])  # 5e-324, the largest negative subnormal
@example([0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF])  # +-1.7976931348623157e308
@example([0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000001])
def test_format_values_equals_percent_on_any_bit_pattern(bits):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _lines(x) == _percent(x)


def test_powers_of_ten_and_their_neighbours():
    """Near a power of ten ``log10`` can misplace the first digit; those
    values must fall back, not print a digit too many or too few."""
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    x = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    assert _lines(np.concatenate([x, -x])) == _percent(np.concatenate([x, -x]))


def test_near_and_exact_ties():
    """18-digit decimals ending in 5 sit next to a rounding tie of the 17th
    digit: with no margin, 6 of these 100,000 print the wrong 17th digit.
    ``j / 2**k`` whose decimal expansion has 18 digits is a tie, which
    ``%.17g`` rounds to even."""
    rng = np.random.default_rng(7)
    near = [float(f"{m}5e{e}") for m, e in zip(rng.integers(10**16, 10**17, 100_000),
                                                rng.integers(-340, 291, 100_000))]
    # j / 2**k is j * 5**k / 10**k: for odd j its digits are j * 5**k's,
    # ending in 5; j below 2**53 keeps it exact
    ties = []
    for k in range(2, 26):
        lo, hi = -(-10**17 // 5**k) | 1, min((10**18 - 1) // 5**k, 2**53 - 1)
        ties += [j / 2**k for j in range(lo, min(hi, lo + 400) + 1, 2)]
    assert len(ties) > 2000
    x = np.array(near + ties)
    assert _lines(x) == _percent(x)


def test_power_table_is_correctly_rounded():
    """Each entry of the long-double table lies within half an ulp of 10**p."""
    nmant = np.finfo(np.longdouble).nmant
    for p, v in enumerate(density._tables()[0], start=density._P0):
        num, den = v.as_integer_ratio()
        ulp = Fraction(2) ** (num.bit_length() - den.bit_length() - nmant)
        assert abs(Fraction(num, den) - Fraction(10) ** p) <= ulp / 2, p


def test_every_value_falling_back_gives_the_same_bytes(monkeypatch):
    """A margin of 0.5, as where long double is double, sends every value to
    ``%``: the bytes do not change."""
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.random(20_000) * 10.0 ** rng.integers(-30, 30, 20_000),
                        EDGE_VALUES, [-2.5, 1e16, 123.0]])
    fast = _lines(x)
    monkeypatch.setattr(density, "_MARGIN", 0.5)
    assert _lines(x) == fast == _percent(x)


def test_zero_evidence_after_a_snapshot_writes_nothing(tmp_path, capsys):
    """The observation at t=1 has zero evidence everywhere (its squared
    residual overflows), so the run exits 4 after its t=0 snapshot and
    writes nothing."""
    obs = tmp_path / "obs.csv"
    obs.write_text("t,z\n1,1e300\n")
    out = tmp_path / "run"
    rc = main(["filter", "--n", "16,16", "--obs", f"file:{obs}", "--t_end", "1",
               "--snapshot_times", "0,1", "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("zero evidence: ")
    assert not out.exists()


def _popen_forbidden(*args, **kwargs):
    raise AssertionError("this run must start no process")


@pytest.mark.parametrize("args", [
    ["filter", "--n", "8,8", "--obs_times", "1", "--t_end", "1", "--snapshot_times", ""],
    ["operator", "--n", "8,8", "--write_matrix", "true"],
    ["converge", "--n_list", "8,16", "--t_final", "pi/8"],
])
def test_runs_without_snapshots_start_no_worker(tmp_path, monkeypatch, args):
    monkeypatch.setattr(subprocess, "Popen", _popen_forbidden)
    assert main([*args, "--out", str(tmp_path)]) == 0
    assert not any(p.name.startswith("snapshot_") for p in tmp_path.iterdir())


def test_many_snapshots_one_file_each(tmp_path):
    times = ",".join(str(k / 64) for k in range(64))
    assert main(["filter", "--n", "8,8", "--obs_times", "0.5", "--t_end", "1",
                 "--snapshot_times", times, "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("snapshot_*.csv"))) == 64


def test_a_filter_run_starts_no_process(tmp_path):
    """In a fresh interpreter, a filter run that writes snapshots leaves no
    child behind and never imports ``subprocess``."""
    code = "\n".join([
        "import os, sys",
        "from fpfvm.cli import main",
        "assert main(sys.argv[1:]) == 0",
        "try:",
        "    os.waitpid(-1, os.WNOHANG)",
        "    sys.exit('a child process was started')",
        "except ChildProcessError:",
        "    sys.exit('subprocess' in sys.modules)",
    ])
    src = str(Path(fpfvm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    args = ["filter", "--n", "16,16", "--obs_times", "0.5", "--t_end", "1",
            "--snapshot_times", "0,0.5,1", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("snapshot_*.csv"))) == 3


def test_snapshot_files_are_numbered_in_time_order(tmp_path, capsys):
    """``snapshot_XX.csv`` files follow the snapped times, whatever the order
    of ``snapshot_times``; the report's ``# snapped snapshot`` lines keep the
    list's order."""
    assert main(["filter", "--n", "8,8", "--obs_times", "0.5", "--t_end", "1",
                 "--snapshot_times", "1,0", "--out", str(tmp_path)]) == 0
    snapped = [dict(kv.split("=") for kv in line.split()[3:])
               for line in (tmp_path / "report.csv").read_text().splitlines()
               if line.startswith("# snapped snapshot ")]
    assert [s["requested"] for s in snapped] == ["1", "0"]
    times = [load_density(tmp_path / f"snapshot_{i:02d}.csv")[1] for i in range(2)]
    assert times == [0.0, float(snapped[0]["used"])]
    assert (tmp_path / "snapshot_00.csv").read_text().splitlines()[4] == "# t=0"
