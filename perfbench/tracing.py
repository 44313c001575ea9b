"""Outside-in tracing of gtsingular's layers, from the benchmark's own files.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper that
counts calls and accumulates self time (the wrapper's wall time minus the
part spent in wrapped callees).  ``action``, ``verify`` and ``gtcenter``
import these functions by name, so every reference held in a gtsingular
module or class namespace is rebound; ``unwrapped_sites`` then asks the
garbage collector for any remaining holder of an original function (a
closure, a default argument, a dispatch table) that the rebinding missed.

Spans are aggregated per function as they close rather than kept one by
one: the hot layers (``FieldElement`` arithmetic) run some hundred
thousand times in a pass.
"""

import gc
import importlib
import sys
import time
import types
from collections import defaultdict
from typing import NamedTuple

RELATIONS = "relations-q3"
APPENDIX = "appendix-q"
FINDIM = "findim-q4"
STRUCTURE = "structure-c3"
SPEC_WORKLOADS = frozenset({RELATIONS, FINDIM, STRUCTURE})


class Layer(NamedTuple):
    """One traced function: its metric prefix, where it lives, the
    end-to-end metrics a change to it should move, and the workloads that
    must call it (the coverage check) or that bypass it (where a change to
    it should move nothing)."""

    metric: str
    module: str
    qualname: str
    moves: tuple
    exercised: frozenset
    bypassed: frozenset


def _layer(metric, target, moves, exercised, bypassed):
    module, _, qualname = target.partition(":")
    return Layer(metric, "gtsingular." + module, qualname, tuple(moves),
                 frozenset(exercised), frozenset(bypassed))


VERDICT, VERDICT_RSS = ("verdict_s",), ("verdict_s", "peak_rss_mb")
ALL = frozenset({RELATIONS, APPENDIX, FINDIM, STRUCTURE})

# metric prefix, target, moves, exercised on, bypassed on.  Every spec is
# built (is_admissible) and windowed (enumerate_window) on the three spec
# workloads; check_appendix builds none.
LAYERS = (
    _layer("tableaux.enumerate_window", "tableaux:enumerate_window", VERDICT,
           SPEC_WORKLOADS, {APPENDIX}),
    _layer("tableaux.is_admissible", "tableaux:is_admissible", ("setup_s",),
           SPEC_WORKLOADS, {APPENDIX}),
    _layer("exactalg.dv_operator", "exactalg:dv_operator", VERDICT,
           {APPENDIX, RELATIONS, STRUCTURE}, {FINDIM}),
    _layer("exactalg.evaluate_at_singular", "exactalg:evaluate_at_singular", VERDICT,
           {APPENDIX, RELATIONS, STRUCTURE}, {FINDIM}),
    _layer("exactalg.fe_sum", "exactalg:fe_sum", VERDICT,
           {RELATIONS, STRUCTURE}, {APPENDIX}),
    _layer("exactalg.FieldElement.mul", "exactalg:FieldElement.__mul__", VERDICT,
           {APPENDIX, STRUCTURE}, {FINDIM}),
    _layer("exactalg.FieldElement.add", "exactalg:FieldElement.__add__", VERDICT,
           {APPENDIX, STRUCTURE}, {FINDIM}),
    _layer("exactalg.FieldElement.truediv", "exactalg:FieldElement.__truediv__", VERDICT,
           {APPENDIX, STRUCTURE}, {FINDIM}),
    _layer("exactalg.FieldElement.eq", "exactalg:FieldElement.__eq__", VERDICT,
           {APPENDIX, STRUCTURE}, {FINDIM}),
    _layer("exactalg.bracket", "exactalg:bracket", VERDICT,
           {APPENDIX, STRUCTURE}, {FINDIM}),
    _layer("exactalg.tau_swap", "exactalg:tau_swap", VERDICT,
           {APPENDIX}, {FINDIM}),
    _layer("action.act", "action:act", VERDICT_RSS,
           {RELATIONS, STRUCTURE}, {APPENDIX}),
    _layer("action.ModuleSpec._pieces", "action:ModuleSpec._pieces", VERDICT_RSS,
           {RELATIONS, STRUCTURE}, {APPENDIX}),
    _layer("action.ModuleSpec.raw_coeff", "action:ModuleSpec.raw_coeff", VERDICT,
           {RELATIONS, STRUCTURE}, {APPENDIX}),
    _layer("action.act_element", "action:act_element", VERDICT,
           {RELATIONS, STRUCTURE}, {APPENDIX}),
    _layer("action.combine", "action:combine", VERDICT,
           {RELATIONS}, {APPENDIX}),
    _layer("action.expand_normal", "action:expand_normal", VERDICT,
           {RELATIONS, STRUCTURE}, {APPENDIX}),
    _layer("action.expand_derivative", "action:expand_derivative", VERDICT,
           {RELATIONS, STRUCTURE}, {APPENDIX}),
    _layer("gtcenter.act_central", "gtcenter:act_central", VERDICT,
           {STRUCTURE}, ALL - {STRUCTURE}),
    _layer("gtcenter.gamma_evaluated", "gtcenter:gamma_evaluated", VERDICT,
           {STRUCTURE}, ALL - {STRUCTURE}),
    _layer("gtcenter.block_report", "gtcenter:block_report", VERDICT,
           {STRUCTURE}, ALL - {STRUCTURE}),
)

# The verify checks are traced for their self time only; each is exercised
# on the workloads that call it.
CHECKS = (
    ("check_defining_relations", {RELATIONS, STRUCTURE}),
    ("check_compatibility", {STRUCTURE}),
    ("check_appendix", {APPENDIX}),
    ("check_gamma", {STRUCTURE}),
    ("check_finite_dimensional", {FINDIM}),
    ("irreducibility_evidence", {STRUCTURE}),
)
CHECK_LAYERS = tuple(
    _layer("verify." + name, "verify:" + name, (), on, ALL - on) for name, on in CHECKS
)

# Metrics derived from arguments, results and cache sizes, with the
# end-to-end metric they should move and the workload that exercises them.
DERIVED = (
    # (name, unit, better, moves, exercised on)
    ("tableaux.window_vectors", "count", "higher", VERDICT, {FINDIM}),
    # vectors / (2B+1)^nfree, computed from enumerate_window's arguments,
    # not counted inside the program: hence the unit
    ("tableaux.window_yield", "computed-ratio", "higher", VERDICT, {FINDIM}),
    ("exactalg.fe_sum.parts", "count", "lower", VERDICT, {RELATIONS, STRUCTURE}),
    ("action.act.hit_ratio", "ratio", "higher", VERDICT_RSS, {RELATIONS, STRUCTURE}),
    ("action.pieces.hit_ratio", "ratio", "higher", VERDICT_RSS, {RELATIONS, STRUCTURE}),
    ("trace.overhead", "ratio", "lower", (), ALL),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out.append((layer.metric + ".calls", "count", "lower"))
        out.append((layer.metric + ".self_s", "s", "lower"))
    out += [(layer.metric + ".self_s", "s", "lower") for layer in CHECK_LAYERS]
    out += [(name, unit, better) for name, unit, better, _, _ in DERIVED]
    return out


class Tracer:
    """Counts and self times of the functions in ``LAYERS`` and
    ``CHECK_LAYERS``, collected while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._originals = {}  # metric prefix -> original function
        self._cells = set()  # ids of the wrappers' closure cells
        self._rebound = []  # (setter, key, original) to restore
        self._observe = self._observers()

    # -- wrapping --------------------------------------------------------------

    def _wrapper(self, metric, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        observe = self._observe.get(metric)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(fn, args, kwargs)
            finally:
                dt = clock() - t0
                self_s[metric] += dt - stack.pop()
                calls[metric] += 1
                if stack:
                    stack[-1] += dt

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        self._cells.update(id(c) for c in traced.__closure__)
        return traced

    def _observers(self):
        counts = self.counts

        def window(fn, args, kwargs):
            out = fn(*args, **kwargs)
            B = _arg(args, kwargs, 2, "B")
            n = _arg(args, kwargs, 1, "T").n
            counts["window_vectors"] += len(out)
            counts["window_candidates"] += (2 * B + 1) ** (n * (n - 1) // 2)
            return out

        def parts(fn, args, kwargs):
            counts["fe_sum_parts"] += len(_arg(args, kwargs, 0, "elems"))
            return fn(*args, **kwargs)

        def cached(name, index, arg, attr):
            def observe(fn, args, kwargs):
                cache = getattr(_arg(args, kwargs, index, arg), attr)
                before = len(cache)
                out = fn(*args, **kwargs)
                if len(cache) == before:
                    counts[name + "_hits"] += 1
                return out
            return observe

        return {
            "tableaux.enumerate_window": window,
            "exactalg.fe_sum": parts,
            "action.act": cached("act", 2, "spec", "_act_cache"),
            "action.ModuleSpec._pieces": cached("pieces", 0, "self", "_piece_cache"),
        }

    def install(self):
        """Wrap every traced function and rebind each reference to it held
        in a loaded gtsingular module or in a class defined there."""
        layers = LAYERS + CHECK_LAYERS
        for module in {layer.module for layer in layers}:
            importlib.import_module(module)
        namespaces = _package_namespaces()
        for layer in layers:
            original = sys.modules[layer.module]
            for part in layer.qualname.split("."):
                original = getattr(original, part)
            wrapped = self._wrapper(layer.metric, original)
            self._originals[layer.metric] = original
            for ns, setter in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        setter(key, wrapped)
                        self._rebound.append((setter, key, original))

    def uninstall(self):
        for setter, key, original in reversed(self._rebound):
            setter(key, original)
        self._rebound.clear()

    def unwrapped_sites(self):
        """Holders of an original function other than the wrappers: each is
        an import site, closure or table the rebinding missed."""
        ours = {id(self._originals), id(self._rebound)}
        ours.update(id(entry) for entry in self._rebound)
        found = []
        for metric in self._originals:  # items() would add a holder tuple
            for ref in gc.get_referrers(self._originals[metric]):
                if isinstance(ref, types.FrameType) or id(ref) in ours:
                    continue
                if isinstance(ref, types.CellType) and id(ref) in self._cells:
                    continue
                found.append(f"{metric}: held by {_describe(ref)}")
        return found

    # -- report ----------------------------------------------------------------

    def metrics(self, overhead):
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[layer.metric + ".calls"] = self.calls[layer.metric]
            out[layer.metric + ".self_s"] = self.self_s[layer.metric]
        for layer in CHECK_LAYERS:
            out[layer.metric + ".self_s"] = self.self_s[layer.metric]
        out.update({
            "tableaux.window_vectors": c["window_vectors"],
            "tableaux.window_yield": _ratio(c["window_vectors"], c["window_candidates"]),
            "exactalg.fe_sum.parts": c["fe_sum_parts"],
            "action.act.hit_ratio": _ratio(c["act_hits"], self.calls["action.act"]),
            "action.pieces.hit_ratio": _ratio(
                c["pieces_hits"], self.calls["action.ModuleSpec._pieces"]
            ),
            "trace.overhead": overhead,
        })
        return {
            name: {"value": out[name], "unit": unit}
            for name, unit, _ in per_layer_metrics()
        }

    def missing_calls(self, workload):
        """Traced functions this workload must exercise that were never
        called."""
        return [
            layer.metric
            for layer in LAYERS + CHECK_LAYERS
            if workload in layer.exercised and not self.calls[layer.metric]
        ]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ratio(num, den):
    return num / den if den else 0.0


def _package_namespaces():
    """(namespace dict, setter) for every loaded gtsingular module and every
    class defined in one."""
    out = []
    for name, module in list(sys.modules.items()):
        if name != "gtsingular" and not name.startswith("gtsingular."):
            continue
        out.append((module.__dict__, lambda k, v, m=module: setattr(m, k, v)))
        for value in list(module.__dict__.values()):
            if isinstance(value, type) and value.__module__ == name:
                out.append((value.__dict__, lambda k, v, c=value: setattr(c, k, v)))
    return out


def _describe(ref):
    if isinstance(ref, dict):
        for name, module in sys.modules.items():
            if getattr(module, "__dict__", None) is ref:
                return f"the globals of module {name}"
        return "a dict"
    return type(ref).__name__
