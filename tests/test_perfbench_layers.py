"""The traced benchmark run looks up every `perfbench/trace_child.LAYERS`
function with `getattr` on `aurcase.<module>`, and `perfbench/selfcheck.py`
pins the generator, the call counts and the wrapper binding; a change in
the library that breaks either must fail here rather than break a run."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACE_CHILD = ROOT / "perfbench" / "trace_child.py"


def _layers() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(name, func) for name, funcs in module.LAYERS.items() for func in funcs]


@pytest.mark.parametrize(("module_name", "func_name"), _layers())
def test_traced_layer_function_exists(module_name, func_name):
    module = importlib.import_module(f"aurcase.{module_name}")
    assert callable(getattr(module, func_name, None)), f"aurcase.{module_name}.{func_name}"


def test_the_benchmark_selfcheck_passes():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}  # leave no files
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "selfcheck: ok\n"), done.stderr
