"""Run one ``fpfvm.cli.main`` invocation and write its measurements as JSON.

    python3 perfbench/invoke.py --result R.json [--traced] -- CLI_ARGS...

``run.py`` starts this script once per invocation, in a fresh interpreter
whose ``PYTHONPATH`` holds the checkout's ``src``.  The clock starts at
``fpfvm.cli.main`` entry, after interpreter start and ``import fpfvm``.

Timing wraps functions at the module attributes their callers look them up
through (each module imports its collaborators by name).  Without
``--traced`` only the two step loops are wrapped, ``run_filter`` and
``evolve``, which each run a few times per invocation; that is enough to
split ``wall_s`` into set-up and loop time.  With ``--traced`` every public
call on the workloads' paths becomes a span, per-step calls included.  Spans
are kept in memory and written to the result file when the run ends.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import resource
import sys
import time

LOOP_SPANS = ("filtering.run_filter", "operator.evolve")


class Tracer:
    """Nested spans ``[name, start_ns, end_ns, parent, attr]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def call(self, name, fn, *args, after=None, **kwargs):
        span = [name, 0, 0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()
        if after is not None:
            span[4] = after(args, result, self.counts)
        return result

    def wrap(self, module, attr, name, after=None):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, after=after, **kwargs)

        setattr(module, attr, wrapper)


# --- after-hooks: they run outside the span and return its attribute -------

def _array_bytes(obj) -> int:
    """Bytes of every ndarray and sparse-matrix array an object holds."""
    total = 0
    for v in vars(obj).values():
        if hasattr(v, "indptr"):
            total += v.data.nbytes + v.indices.nbytes + v.indptr.nbytes
        elif hasattr(v, "nbytes") and hasattr(v, "dtype"):
            total += v.nbytes
    return total


def _after_build_grid(args, grid, counts):
    key = "grid.edge_table_bytes"
    counts[key] = max(counts.get(key, 0), _array_bytes(grid.edges))


def _after_fluxes(args, fluxes, counts):
    grid = fluxes.grid
    k = 1 if fluxes.quadrature == "midpoint" else int(fluxes.quadrature[5:])
    key = "velocity.flux_points"
    counts[key] = counts.get(key, 0) + len(grid.edges) * k ** (grid.domain.d - 1)


def _after_assemble(args, op, counts):
    cells = op.grid.ncells
    if cells >= counts.get("operator.cells", 0):
        S = op.matrix
        counts.update({
            "operator.cells": cells,
            "operator.nnz": int(S.nnz),
            "operator.matrix_bytes": _array_bytes(op),
            # one CSR product: matrix arrays read, mass vector read and written
            "operator.bytes_per_step": (S.data.nbytes + S.indices.nbytes
                                        + S.indptr.nbytes + 2 * 8 * cells),
        })


def _after_save(args, result, counts):
    key = "density.bytes_written"
    counts[key] = counts.get(key, 0) + os.path.getsize(args[1])


def _step_cells(args, result, counts):
    return args[0].grid.ncells


def _filter_cell_steps(args, state, counts):
    op = args[1]
    return op.grid.ncells * round(state.time / op.dt)


def _evolve_cell_steps(args, result, counts):
    op, _, t = args[:3]
    return op.grid.ncells * math.floor(t / op.dt + 1e-9)


def _level_n(args, dens, counts):
    return dens.grid.n[0]


# (module, attribute, span name, after-hook)
LOOPS = (
    ("fpfvm.cli", "run_filter", "filtering.run_filter", _filter_cell_steps),
    ("fpfvm.bench", "evolve", "operator.evolve", _evolve_cell_steps),
)
TRACED = (
    ("fpfvm.cli", "build_grid", "grid.build_grid", _after_build_grid),
    ("fpfvm.cli", "compute_fluxes", "velocity.compute_fluxes", _after_fluxes),
    ("fpfvm.cli", "max_stable_dt", "operator.max_stable_dt", None),
    ("fpfvm.cli", "assemble", "operator.assemble", _after_assemble),
    ("fpfvm.cli", "verify_markov", "operator.verify_markov", None),
    ("fpfvm.cli", "project", "density.project", None),
    ("fpfvm.cli", "save_density", "density.save_density", _after_save),
    ("fpfvm.cli", "write_run_report", "filtering.write_run_report", None),
    ("fpfvm.cli", "convergence_study", "bench.convergence_study", None),
    ("fpfvm.bench", "run_level", "bench.run_level", _level_n),
    ("fpfvm.bench", "build_grid", "grid.build_grid", _after_build_grid),
    ("fpfvm.bench", "project", "density.project", None),
    ("fpfvm.bench", "compute_fluxes", "velocity.compute_fluxes", _after_fluxes),
    ("fpfvm.bench", "max_stable_dt", "operator.max_stable_dt", None),
    ("fpfvm.bench", "assemble", "operator.assemble", _after_assemble),
    ("fpfvm.bench", "l1_distance", "density.l1_distance", None),
    ("fpfvm.operator", "step", "operator.step", _step_cells),
    ("fpfvm.filtering", "step", "operator.step", _step_cells),
    ("fpfvm.filtering", "predict", "filtering.predict", None),
    ("fpfvm.filtering", "bayes_update", "filtering.bayes_update", None),
    ("fpfvm.filtering", "moments", "density.moments", None),
    ("fpfvm.filtering", "marginal", "density.marginal", None),
    ("fpfvm.filtering", "count_modes", "density.count_modes", None),
    # the 1D sub-grid that marginal builds on every call
    ("fpfvm.density", "build_grid", "grid.build_grid", None),
)


def summarize(tracer: Tracer, traced: bool) -> dict:
    spans = tracer.spans
    main = spans[0]
    wall_ns = main[2] - main[1]
    loops = [s for s in spans if s[0] in LOOP_SPANS]
    loop_ns = sum(s[2] - s[1] for s in loops)
    if loops:
        # time before the first step, plus the set-up between step loops
        setup_ns = loops[0][1] - main[1] + sum(
            b[1] - a[2] for a, b in zip(loops, loops[1:]))
    else:
        setup_ns = wall_ns
    out = {
        "wall_s": wall_ns / 1e9,
        "setup_s": setup_ns / 1e9,
        "loop_s": loop_ns / 1e9,
        "cell_steps": sum(s[4] for s in loops),
    }
    if not traced:
        return out
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    total, own, calls, levels = {}, {}, {}, {}
    for s, c in zip(spans, child_ns):
        d = s[2] - s[1]
        total[s[0]] = total.get(s[0], 0) + d
        own[s[0]] = own.get(s[0], 0) + d - c
        calls[s[0]] = calls.get(s[0], 0) + 1
        if s[0] == "bench.run_level":
            levels[s[4]] = levels.get(s[4], 0) + d / 1e9
    steps = [s for s in spans if s[0] == "operator.step"]
    largest = max((s[4] for s in steps), default=0)
    tracer.counts["operator.step_cells"] = sum(s[4] for s in steps)
    out.update(
        total_s={k: v / 1e9 for k, v in total.items()},
        self_s={k: v / 1e9 for k, v in own.items()},
        calls=calls,
        levels=levels,
        counts=tracer.counts,
        step_us=[(s[2] - s[1]) / 1e3 for s in steps if s[4] == largest],
        spans=spans,
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="where to write the JSON")
    parser.add_argument("--traced", action="store_true", help="record every span")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter_ns()
    import fpfvm.cli
    import_s = (time.perf_counter_ns() - t0) / 1e9

    tracer = Tracer()
    for mod, attr, name, after in LOOPS + (TRACED if args.traced else ()):
        tracer.wrap(importlib.import_module(mod), attr, name, after)
    code = tracer.call("cli.main", fpfvm.cli.main, cli_args)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = summarize(tracer, args.traced)
    result.update(exit=code, import_s=import_s, peak_rss_mb=rss_kb * 1024 / 1e6,
                  module=fpfvm.__file__)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
