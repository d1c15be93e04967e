"""The benchmark must keep running on the library.

``perfbench/invoke.py`` times a run by replacing ``(module, attribute)``
pairs with timing wrappers; a pair that no longer resolves fails the
benchmark, so each one is checked here.  ``perfbench/run.py`` checks each
workload's outputs against its reference files, and that check is run here
too, with warnings as errors.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INVOKE = PERFBENCH / "invoke.py"


def _wrap_table():
    spec = importlib.util.spec_from_file_location("perfbench_invoke", INVOKE)
    invoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(invoke)
    return invoke.LOOPS + invoke.TRACED


@pytest.mark.parametrize("module, attr", sorted({row[:2] for row in _wrap_table()}))
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_every_workload_is_correct():
    """One short pass of every workload: each run exits 0 and each result
    line reads ``"correct": true``."""
    env = dict(os.environ, PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", "all",
                           "--seconds", "1"], cwd=PERFBENCH.parent, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert len(results) == len(spec["workloads"]), proc.stdout
    assert all(r["correct"] for r in results), proc.stdout
