"""The traced benchmark run looks up every `perfbench/trace_child.LAYERS`
function with `getattr` on `aurcase.<module>`; a rename in the library
must fail here rather than break that run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def _layers() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(name, func) for name, funcs in module.LAYERS.items() for func in funcs]


@pytest.mark.parametrize(("module_name", "func_name"), _layers())
def test_traced_layer_function_exists(module_name, func_name):
    module = importlib.import_module(f"aurcase.{module_name}")
    assert callable(getattr(module, func_name, None)), f"aurcase.{module_name}.{func_name}"
