"""The benchmark's layer tracer (perfbench/layertrace.py) wraps functions of
the ballflow modules by name and fails a traced run if one is missing.  This
keeps a rename in src/ from breaking the benchmark unnoticed."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
import layertrace  # noqa: E402


@pytest.mark.parametrize(
    "module, dotted, name", layertrace.SPANS + layertrace.TIMED + layertrace.COUNTED
)
def test_traced_name_resolves(module, dotted, name):
    raw = layertrace._resolve(importlib.import_module(f"ballflow.{module}"), dotted)[2]
    if isinstance(raw, staticmethod):
        raw = raw.__func__
    assert callable(raw), (module, dotted)


def test_the_cli_imports_every_traced_module():
    """`Tracer.install` looks each traced module up in `sys.modules` once only
    the CLI is imported, so a module that no engine module imports any more
    fails every traced job.  Checked in a fresh interpreter."""
    code = (
        "import sys\n"
        "import ballflow.cli\n"
        "import layertrace\n"
        "for module, dotted, _ in layertrace.SPANS + layertrace.TIMED + layertrace.COUNTED:\n"
        "    raw = layertrace._resolve(sys.modules[f'ballflow.{module}'], dotted)[2]\n"
        "    assert callable(getattr(raw, '__func__', raw)), (module, dotted)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
