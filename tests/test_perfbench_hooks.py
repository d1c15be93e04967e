"""The benchmark's wrap table names library attributes that must keep existing.

``perfbench/invoke.py`` times a run by replacing ``(module, attribute)``
pairs with timing wrappers; a pair that no longer resolves fails the
benchmark, so each one is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

INVOKE = Path(__file__).resolve().parents[1] / "perfbench" / "invoke.py"


def _wrap_table():
    spec = importlib.util.spec_from_file_location("perfbench_invoke", INVOKE)
    invoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(invoke)
    return invoke.LOOPS + invoke.TRACED


@pytest.mark.parametrize("module, attr", sorted({row[:2] for row in _wrap_table()}))
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
