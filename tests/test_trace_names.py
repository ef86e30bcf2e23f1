"""The benchmark's layer tracer (perfbench/layertrace.py) wraps functions of
the ballflow modules by name and fails a traced run if one is missing.  This
keeps a rename in src/ from breaking the benchmark unnoticed."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import layertrace  # noqa: E402


@pytest.mark.parametrize(
    "module, dotted, name", layertrace.SPANS + layertrace.TIMED + layertrace.COUNTED
)
def test_traced_name_resolves(module, dotted, name):
    raw = layertrace._resolve(importlib.import_module(f"ballflow.{module}"), dotted)[2]
    if isinstance(raw, staticmethod):
        raw = raw.__func__
    assert callable(raw), (module, dotted)
