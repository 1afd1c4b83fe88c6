"""The benchmark's tracer (``perfbench/tracing.py``) times the package's
functions by name.  Each name must resolve here, so that a renamed or
deleted function fails with its name rather than inside the benchmark's
own run."""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, function) for module, function, *_ in tracing.LAYERS]


@pytest.mark.parametrize("module, function", _layers())
def test_traced_layer_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function,
                            None)), f"{module}.{function}"
