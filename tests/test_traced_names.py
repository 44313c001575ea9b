"""Every function the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` names its targets as ``module:qualname`` strings,
so renaming or deleting a traced function would otherwise surface only in
a traced benchmark run.  The module is loaded from its file and not
registered, so nothing here installs a tracer or imports ``perfbench``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_traced_layers", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_function():
    tracing = _load_tracing()
    layers = tracing.LAYERS + tracing.CHECK_LAYERS
    assert layers
    for layer in layers:
        assert layer.module.startswith("gtsingular."), layer
        target = importlib.import_module(layer.module)
        for part in layer.qualname.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"{layer.module}:{layer.qualname} is gone"
        assert inspect.isfunction(target), layer
        assert target.__module__ == layer.module, layer
