"""Snapshot files of ``fpfvm filter``: their bytes, and the worker process
that formats and writes them.

A filter run hands each captured snapshot to one worker interpreter, which
formats the values while the parent keeps stepping; once the run is
accepted the parent commits each file's path and header, and the worker
writes the files.  Every file must hold the bytes that ``save_density``
writes in-process, and no run may leave a process behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpfvm
from fpfvm import Density, load_density, save_density
from fpfvm.cli import main
from fpfvm.density import snapshot_header
from fpfvm.grid import BoxDomain, build_grid
from fpfvm.snapshots import SnapshotWorker

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


def _no_popen(*args, **kwargs):
    raise OSError("no process may be started here")


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_snapshot_bytes_equal_save_density(tmp_path, monkeypatch, capsys, name):
    """Every file of a run matches the run that formats in-process (no worker
    can start), and each snapshot is what ``save_density`` writes for the
    density it holds."""
    args, bc = RUNS[name]
    assert main(["filter", *args, "--out", str(tmp_path / "run")]) == 0
    stdout = capsys.readouterr().out
    monkeypatch.setattr(subprocess, "Popen", _no_popen)
    assert main(["filter", *args, "--out", str(tmp_path / "local")]) == 0
    assert capsys.readouterr().out.replace("/local/", "/run/") == stdout
    files = _files(tmp_path / "run")
    assert files == _files(tmp_path / "local")
    snaps = [f for f in files if f.startswith("snapshot_")]
    assert len(snaps) == (4 if name == "pendulum" else 3)
    for f in snaps:
        dens, t = load_density(tmp_path / "run" / f)
        assert dens.grid.bc == bc
        save_density(dens, tmp_path / "again.csv", t=t)
        assert (tmp_path / "again.csv").read_bytes() == files[f]


EDGE_VALUES = (0.0, 5e-324, 1e-300, 1 / 3, 1e300)
EDGE_LINES = "0\n4.9406564584124654e-324\n1e-300\n0.33333333333333331\n1.0000000000000001e+300\n"


def _edge_density():
    grid = build_grid(BoxDomain((0.0,), (1.0,)), (len(EDGE_VALUES),), ("periodic",))
    return Density(np.array(EDGE_VALUES), grid)


def test_save_density_edge_values(tmp_path):
    save_density(_edge_density(), tmp_path / "d.csv", t=1 / 3)
    text = (tmp_path / "d.csv").read_text()
    assert text == ("# d=1\n# n=5\n# domain=0,1\n# bc=periodic\n# t=0.33333333333333331\n"
                    + EDGE_LINES)


def _commit(worker, paths, dens):
    return worker.commit([(p, snapshot_header(dens.grid, t)) for t, p in enumerate(paths)])


def test_worker_formats_edge_values(tmp_path):
    dens = _edge_density()
    paths = [tmp_path / f"w{t}.csv" for t in range(3)]
    with SnapshotWorker() as worker:
        for t in range(3):
            worker.send(t, dens)
        assert _commit(worker, paths, dens)
    _assert_no_child()
    for t, path in enumerate(paths):
        save_density(dens, tmp_path / "d.csv", t=t)
        assert path.read_bytes() == (tmp_path / "d.csv").read_bytes()
        assert path.read_text().endswith(f"# t={t}\n" + EDGE_LINES)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def popen_calls(monkeypatch):
    """Every ``subprocess.Popen`` call of the test, which still starts its process."""
    calls = []
    real = subprocess.Popen

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", counted)
    return calls


def test_zero_evidence_after_a_snapshot_reaps_the_worker(tmp_path, capsys, popen_calls):
    """The t=0 snapshot starts the worker; the observation at t=1 has zero
    evidence everywhere (its squared residual overflows), so the run exits 4,
    writes nothing, and leaves no process behind."""
    obs = tmp_path / "obs.csv"
    obs.write_text("t,z\n1,1e300\n")
    out = tmp_path / "run"
    rc = main(["filter", "--n", "16,16", "--obs", f"file:{obs}", "--t_end", "1",
               "--snapshot_times", "0,1", "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("zero evidence: ")
    assert len(popen_calls) == 1
    assert not out.exists()
    _assert_no_child()


def test_unusable_out_reaps_the_worker(tmp_path, capsys, popen_calls):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["filter", "--n", "8,8", "--obs_times", "1", "--t_end", "1",
               "--snapshot_times", "0", "--out", str(blocker / "sub")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: bad value for 'out': ")
    assert len(popen_calls) == 1
    _assert_no_child()


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


def test_one_worker_for_many_snapshots(tmp_path, capsys, popen_calls):
    times = ",".join(str(k / 64) for k in range(64))
    assert main(["filter", "--n", "8,8", "--obs_times", "0.5", "--t_end", "1",
                 "--snapshot_times", times, "--out", str(tmp_path)]) == 0
    assert len(popen_calls) == 1
    assert len(list(tmp_path.glob("snapshot_*.csv"))) == 64
    _assert_no_child()


def test_import_starts_no_subprocess_machinery():
    """``import fpfvm.cli`` leaves ``subprocess`` for the first snapshot."""
    src = str(Path(fpfvm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, fpfvm.cli; sys.exit('subprocess' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


@pytest.mark.parametrize("when", ["during the run", "after the run"])
def test_a_lost_worker_falls_back_to_formatting_here(tmp_path, popen_calls, when):
    """A worker that dies writes nothing, and no second worker starts: the
    commit reports failure, which leaves every file to the caller."""
    dens = _edge_density()
    paths = [tmp_path / f"w{t}.csv" for t in range(3)]
    with SnapshotWorker() as worker:
        worker.send(0.0, dens)
        worker._proc.kill()
        worker._proc.wait()
        if when == "during the run":
            worker.send(1.0, dens)  # into a pipe without a reader
            worker.send(2.0, dens)
        assert not _commit(worker, paths, dens)
        assert len(popen_calls) == 1
    assert not any(p.exists() for p in paths)
    _assert_no_child()


def test_a_worker_that_fails_writing_leaves_the_files_to_the_caller(tmp_path, monkeypatch,
                                                                    capsys, popen_calls):
    """A directory in place of the second file, there only while the worker
    writes, stops the worker after the first: the commit reports failure,
    the run exits 0, every file holds the bytes of a run without a worker,
    and no process is left."""
    args = ["filter", "--n", "64,64", "--obs_times", "1", "--t_end", "1",
            "--snapshot_times", "0,0.5,1"]
    commit = SnapshotWorker.commit
    results = []

    def blocked_commit(self, files):
        blocker = Path(files[1][0])
        blocker.mkdir()
        results.append(commit(self, files))
        assert Path(files[0][0]).exists() and not Path(files[2][0]).exists()
        blocker.rmdir()
        return results[-1]

    monkeypatch.setattr(SnapshotWorker, "commit", blocked_commit)
    assert main([*args, "--out", str(tmp_path / "run")]) == 0
    stdout = capsys.readouterr().out
    assert results == [False]
    assert len(popen_calls) == 1
    _assert_no_child()
    monkeypatch.setattr(SnapshotWorker, "commit", commit)
    monkeypatch.setattr(subprocess, "Popen", _no_popen)
    assert main([*args, "--out", str(tmp_path / "local")]) == 0
    assert capsys.readouterr().out.replace("/local/", "/run/") == stdout
    assert _files(tmp_path / "run") == _files(tmp_path / "local")


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
