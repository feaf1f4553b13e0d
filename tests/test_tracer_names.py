"""The benchmark tracer wraps perdom functions by name; every name must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_layers_are_module_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, name, _count, _key in spans.LAYERS:
        attr = getattr(importlib.import_module(f"perdom.{module}"), name, None)
        assert callable(attr), f"perdom.{module}.{name}"
    # the tracer keys these calls on their (ctx, index) arguments
    from perdom.semistable import is_semistable

    assert list(inspect.signature(is_semistable).parameters)[:2] == ["ctx", "index"]
