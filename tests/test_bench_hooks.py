"""The benchmark's traced run patches package functions by name.

`perfbench/tracing.py` lists them as (module, qualified name) pairs and
patches each one when `--trace 1` is on. A rename in `src/` that leaves
a target dangling would only show as a failing traced benchmark run, so
this test resolves every target the same way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing_module()


@pytest.mark.parametrize("module_name,qualname",
                         _TRACING.LAYER_TARGETS + _TRACING.ENTRY_TARGETS)
def test_trace_target_resolves(module_name, qualname):
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        cls = getattr(module, cls_name)
        assert callable(cls.__dict__[meth])  # the tracer patches the class's own attribute
    else:
        assert callable(getattr(module, qualname))
