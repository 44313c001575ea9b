"""Every function the benchmark's tracer wraps still exists, and the
workloads' checks still call each one they must.

``perfbench/tracing.py`` names its targets as ``module:qualname`` strings,
so renaming or deleting a traced function, or a change that stops calling
one, would otherwise surface only in a traced benchmark run.  The module is
loaded from its file and not registered, so nothing here imports
``perfbench``; only the coverage test installs a tracer, and it uninstalls
it before it returns.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from gtsingular import verify
from gtsingular.exactalg import CLASSICAL, QUANTUM

from test_action import singular_spec_n3

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


def _traced(run):
    """A tracer that was installed while run() ran, and is uninstalled."""
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer


def _structure_checks():
    spec = singular_spec_n3(CLASSICAL)
    for check in (verify.check_defining_relations, verify.check_compatibility,
                  verify.check_gamma, verify.irreducibility_evidence):
        assert check(spec, 1)


def _relation_check():
    assert verify.check_defining_relations(singular_spec_n3(QUANTUM), 1)


def test_spec_workload_checks_call_every_layer_they_must():
    """The checks of structure-c3 (classical) and of relations-q3 (quantum)
    on the n=3 fixture at B=1, each under its own tracer, call every traced
    function that the workload must exercise.  The specs are built under
    the tracer, since building one is a traced layer too."""
    for workload, run in (("structure-c3", _structure_checks), ("relations-q3", _relation_check)):
        assert _traced(run).missing_calls(workload) == [], workload


def _appendix_check():
    assert verify.check_appendix(QUANTUM, 1, 0)


def _findim_check():
    assert verify.check_finite_dimensional([1, 0, 0, 0])


def test_appendix_and_findim_checks_call_every_layer_they_must():
    """check_appendix on one quantum sample (appendix-q) and
    check_finite_dimensional at the smallest n=4 highest weight
    (findim-q4), each under its own tracer, call every traced function
    that the workload must exercise."""
    for workload, run in (("appendix-q", _appendix_check), ("findim-q4", _findim_check)):
        assert _traced(run).missing_calls(workload) == [], workload
