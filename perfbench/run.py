#!/usr/bin/env python3
"""Pendulum benchmark of the ``fpfvm`` command line.

    python3 perfbench/run.py --workload track_n200 --seed 7 --seconds 20 --trace 0

One process drives a closed loop: it starts one invocation of
``fpfvm.cli.main`` in a fresh single-threaded interpreter (``invoke.py``),
waits for it, checks every output file, and starts the next, until
``--seconds`` have passed.  ``--trace 0`` reports the end-to-end metrics as
medians over the invocations; ``--trace 1`` alternates untraced and traced
invocations and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  ``--workload all`` runs every workload in turn.

Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the JSON result; the lines before it name every metric
with its unit and record the environment.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
PI = math.pi

# Every BLAS/OpenMP pool in the invocation's interpreter is pinned to one
# thread: the kernels are sequential, and the second core stays free.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says

# Reference convergence table and its tolerances (acceptance test 6).
TABLE_DIFFS = (0.25398, 0.19553, 0.14697)
TABLE_ORDERS = (0.3855, 0.4037)
REL_TOL = 1e-12  # against this commit's outputs; absolute below 1e-12


# --- output checks: each returns a list of problems, empty when correct ----

def _read_rows(path: Path) -> list[dict]:
    """CSV rows as floats (None for an empty field), comment lines skipped."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [{k: float(v) if v else None for k, v in row.items()}
            for row in csv.DictReader(lines)]


def _close(got, ref) -> bool:
    if got is None or ref is None:
        return got is ref
    return abs(got - ref) <= REL_TOL * (abs(ref) if abs(ref) >= 1e-12 else 1.0)


def _match_reference(got: list[dict], ref: list[dict], label: str) -> list[str]:
    """Compare the reference's columns by name, so added columns pass."""
    if len(got) != len(ref):
        return [f"{label}: {len(got)} rows, reference has {len(ref)}"]
    for i, (g, r) in enumerate(zip(got, ref)):
        for col, value in r.items():
            if col not in g:
                return [f"{label}: column {col!r} missing"]
            if not _close(g[col], value):
                return [f"{label} row {i} {col}: {g[col]!r} != reference {value!r}"]
    return []


def check_track(proc, out: Path, seed: int) -> list[str]:
    problems = []
    snapshots = sorted(out.glob("snapshot_*.csv"))
    if len(snapshots) != 4:
        problems.append(f"{len(snapshots)} snapshots written, expected 4")
    for path in snapshots:
        with open(path) as fh:
            header = dict(ln[1:].strip().split("=", 1) for ln in fh if ln.startswith("#"))
        n = [int(k) for k in header["n"].split(",")]
        bounds = [[float(x) for x in ax.split(",")] for ax in header["domain"].split(";")]
        volume = math.prod((hi - lo) / k for (lo, hi), k in zip(bounds, n))
        values = np.loadtxt(path, comments="#")
        mass = float(values.sum()) * volume
        if abs(mass - 1.0) > 1e-12:
            problems.append(f"{path.name}: mass {mass!r}")
        if values.min() < 0:
            problems.append(f"{path.name}: negative cell {values.min()!r}")
    rows = _read_rows(out / "report.csv")
    near_pi = min(rows, key=lambda r: abs(r["t"] - PI))
    if near_pi["mode_count_axis1"] < 2:
        problems.append(f"{near_pi['mode_count_axis1']:g} angle modes near t=pi")
    h = 2 * PI / 200
    worst = max(max(abs(r["mean_1"]), abs(r["mean_2"])) for r in rows)
    if worst > 2 * h:
        problems.append(f"|mean| reaches {worst!r} > 2h")
    if seed == 7:
        problems += _match_reference(rows, _read_rows(REFERENCE / "report_seed7.csv"),
                                     "report.csv")
    return problems


def check_refine(proc, out: Path, seed: int) -> list[str]:
    rows = _read_rows(out / "convergence.csv")
    problems = _match_reference(rows, _read_rows(REFERENCE / "convergence.csv"),
                                "convergence.csv")
    for r, ref in zip(rows, TABLE_DIFFS):
        if abs(r["l1_diff"] - ref) > 0.10 * ref:
            problems.append(f"N={r['n']:g}: L1 diff {r['l1_diff']!r} not within 10% of {ref}")
    for r, ref in zip(rows[1:], TABLE_ORDERS):
        if r["effective_order"] is None or abs(r["effective_order"] - ref) > 0.1:
            problems.append(f"N={r['n']:g}: order {r['effective_order']!r} not within 0.1 of {ref}")
    return problems


def check_assemble(proc, out: Path, seed: int) -> list[str]:
    m = re.search(r"max_row_sum_err=(\S+) is_markov=(\w+)", proc.stdout)
    if m is None:
        return ["no markov line on stdout"]
    if m.group(2) != "True" or float(m.group(1)) > 1e-12:
        return [f"not stochastic: {m.group(0)}"]
    return []


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    cells: int                  # cells of the workload's largest grid
    check: Callable[..., list[str]]


WORKLOADS = {
    # per-step diagnostics dominate; 1457 steps of 40k cells, 6 updates
    "track_n200": Workload(("filter", "--n", "200,200"), 200 * 200, check_track),
    # no diagnostics; the N=400 level's mat-vecs dominate
    "refine_n50_400": Workload(("converge", "--n_list", "50,100,200,400"),
                               400 * 400, check_refine),
    # all set-up, no step: grid, fluxes, CFL bound, assembly, verification
    "assemble_n800": Workload(("operator", "--n", "800,800"), 800 * 800,
                              check_assemble),
}


# --- inputs and environment --------------------------------------------------

def write_observations(seed: int, path: Path) -> Path:
    """The filter CLI's synthetic observations, drawn with ``seed``.

    Seed 7 reproduces the CLI's own default run.
    """
    sys.path.insert(0, str(SRC))
    from fpfvm.filtering import simulate_truth, synthesize_observations
    from fpfvm.filtering import write_observations as write
    from fpfvm.grid import BoxDomain
    from fpfvm.velocity import pendulum_field

    times = tuple(k * 2.0 * PI / 7.0 for k in range(1, 7))
    truth = simulate_truth(pendulum_field(), (0.2 * PI, 0.0), times,
                           domain=BoxDomain((-PI, -PI), (PI, PI)),
                           bc=("periodic", "neumann"))
    write(synthesize_observations(times, truth, 0.1, seed), path)
    return path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_bytes() -> int | None:
    """Size of the highest cache level the kernel reports for cpu0."""
    best = (0, None)
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best[1]


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fpfvm").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, attempted: int, traced: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "threads": {v: "1" for v in THREAD_VARS},
        "invocations": attempted,
        "traced_invocations": traced,
    }


# --- invocations ---------------------------------------------------------------

def invoke(argv: list[str], work: Path, i: int, traced: bool, timeout: float,
           wl: Workload, seed: int) -> tuple[dict | None, list[str]]:
    out, result = work / f"out{i}", work / f"result{i}.json"
    cmd = [sys.executable, str(HERE / "invoke.py"), "--result", str(result)]
    cmd += ["--traced"] if traced else []
    cmd += ["--", *argv, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [f"no exit within {timeout:.0f} s"]
    try:
        if proc.returncode != 0:
            return None, [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        rec = json.loads(result.read_text())
        if not Path(rec["module"]).resolve().is_relative_to(SRC):
            return None, [f"imported fpfvm from {rec['module']}, not {SRC}"]
        problems = wl.check(proc, out, seed)
        if traced and rec["counts"].get("operator.step_cells", 0) != rec["cell_steps"]:
            problems.append("traced step count disagrees with the loop count")
        rec["traced"] = traced
        return rec, problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable output: {exc!r}"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
        result.unlink(missing_ok=True)


def end_to_end(records: list[dict], wl: Workload) -> dict:
    def rate(r):
        # cell-steps per second of step loop; a run without steps (assemble)
        # reports cells per second of set-up instead
        return r["cell_steps"] / r["loop_s"] if r["cell_steps"] else wl.cells / r["setup_s"]

    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "cells_per_s": statistics.median(rate(r) for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


DIAGNOSTICS = ("density.moments", "density.marginal", "density.count_modes")


def layer_values(r: dict) -> dict:
    """Per-layer metrics of one traced invocation (times in s)."""
    total, own, calls, counts = r["total_s"], r["self_s"], r["calls"], r["counts"]

    def t(name):
        return total.get(name, 0.0)

    run_filter = t("filtering.run_filter")
    diag = sum(t(n) for n in DIAGNOSTICS)
    values = {
        "grid.build_s": t("grid.build_grid"),
        "grid.build_calls": calls.get("grid.build_grid", 0),
        "grid.edge_table_bytes": counts.get("grid.edge_table_bytes", 0),
        "velocity.fluxes_s": t("velocity.compute_fluxes"),
        "velocity.flux_points": counts.get("velocity.flux_points", 0),
        "operator.cfl_s": t("operator.max_stable_dt"),
        "operator.assemble_s": t("operator.assemble"),
        "operator.verify_s": t("operator.verify_markov"),
        "operator.nnz": counts.get("operator.nnz", 0),
        "operator.matrix_bytes": counts.get("operator.matrix_bytes", 0),
        "operator.step_calls": calls.get("operator.step", 0),
        "operator.step_s": t("operator.step"),
        "operator.bytes_per_step": counts.get("operator.bytes_per_step", 0),
        "density.moments_s": t("density.moments"),
        "density.marginal_s": t("density.marginal"),
        "density.count_modes_s": t("density.count_modes"),
        "density.diag_calls": sum(calls.get(n, 0) for n in DIAGNOSTICS),
        "density.project_s": t("density.project"),
        "density.l1_distance_s": t("density.l1_distance"),
        "density.save_s": t("density.save_density"),
        "density.bytes_written": counts.get("density.bytes_written", 0),
        "filtering.run_filter_s": run_filter,
        "filtering.predict_self_s": own.get("filtering.predict", 0.0),
        "filtering.update_s": t("filtering.bayes_update"),
        "filtering.update_calls": calls.get("filtering.bayes_update", 0),
        "filtering.report_write_s": t("filtering.write_run_report"),
        "filtering.diag_share": diag / run_filter if run_filter else 0.0,
        "bench.study_s": t("bench.convergence_study"),
        "cli.self_s": own["cli.main"],
        "cli.import_s": r["import_s"],
    }
    for n in (50, 100, 200, 400):
        values[f"bench.run_level_s.n{n}"] = r["levels"].get(str(n), 0.0)
    return values


def per_layer(traced: list[dict], plain: list[dict], units: dict) -> tuple[dict, list[str]]:
    per = [layer_values(r) for r in traced]
    metrics, problems = {}, []
    for name in per[0]:
        values = [v[name] for v in per]
        if units[name] in ("count", "B"):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between invocations: {sorted(set(values))}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    samples = [us for r in traced for us in r["step_us"]]
    if len(samples) >= 2:
        q = statistics.quantiles(samples, n=100)
        metrics["operator.step_p50_us"], metrics["operator.step_p99_us"] = q[49], q[98]
    else:
        metrics["operator.step_p50_us"] = metrics["operator.step_p99_us"] = 0.0
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics, problems


def top_self_times(traced: list[dict], k: int = 6) -> list[tuple[str, float]]:
    names = {n for r in traced for n in r["self_s"]}
    med = {n: statistics.median(r["self_s"].get(n, 0.0) for r in traced) for n in names}
    med["density diagnostics (3 calls)"] = sum(med.get(n, 0.0) for n in DIAGNOSTICS)
    return sorted(med.items(), key=lambda kv: -kv[1])[:k]


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> bool:
    wl = WORKLOADS[name]
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    start = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix=f".perfbench_work-{name}-", dir=ROOT))
    records, failed, attempted = [], 0, 0
    try:
        argv = list(wl.argv)
        if name == "track_n200":
            argv += ["--obs", f"file:{write_observations(seed, work / 'obs.csv')}"]
        # compile bytecode and warm the file cache outside the timed loop
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", "import fpfvm.cli"], cwd=work, env=env,
                       capture_output=True, timeout=60)
        loop_start = time.perf_counter()
        while attempted < (2 if trace else 1) or time.perf_counter() - loop_start < seconds:
            timeout = RUN_LIMIT_S - (time.perf_counter() - start)
            if timeout <= 0:
                break
            rec, problems = invoke(argv, work, attempted, trace and attempted % 2 == 1,
                                   timeout, wl, seed)
            attempted += 1
            if problems:
                failed += 1
                print(f"{name}: invocation {attempted} failed: {'; '.join(problems)}",
                      file=sys.stderr)
            else:
                records.append(rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if not plain or (trace and not traced):
        print(f"{name}: no successful invocation to measure", file=sys.stderr)
        return False
    if trace:
        metrics, problems = per_layer(traced, plain, units)
        for p in problems:
            print(f"{name}: {p}", file=sys.stderr)
    else:
        metrics, problems = end_to_end(plain, wl), []
    expected = [m["name"] for m in spec[kind]]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {kind}")

    env = environment(seed, attempted, sum(1 for r in records if r["traced"]))
    print(f"{name}: seed={seed} invocations={attempted} failed={failed} "
          f"error_rate={failed / attempted!r}")
    for metric in expected:
        unit = units[metric]
        note = " (computed)" if unit in ("count", "B") else ""
        if metric == "operator.matrix_bytes":
            note = f" (computed; last-level cache {env['llc_bytes']} B)"
        print(f"  {metric} = {metrics[metric]!r} {unit}{note}")
    if trace:
        print(f"  largest self times ({len(traced)} traced invocations, median):")
        for span, secs in top_self_times(traced):
            print(f"    {span}: {secs!r} s")
    print("env " + json.dumps(env))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in expected},
    }))
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7,
                        help="drives the filter observations only")
    parser.add_argument("--seconds", type=int,
                        help="how long to keep starting invocations "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fpfvm" / "cli.py").is_file():
        print(f"no fpfvm source at {SRC / 'fpfvm'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = [run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
