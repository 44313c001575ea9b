"""The module stage has one evaluation boundary.

Every generator, e_k, f_k, the weights and the central c_mk, reaches the
singular-point functional or the univariate form through
``ModuleSpec._evaluated`` alone.  This scan fails when ``action.py`` or
``gtcenter.py`` refers to one of those functions anywhere else, under its
own name or an import alias, so the pipeline cannot fork again unnoticed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gtsingular"
BOUNDARY = frozenset({"dv_operator", "evaluate_at_singular", "univariate"})
ALLOWED = ("ModuleSpec", "_evaluated")


def references_outside(source, allowed=ALLOWED):
    """(line, name) of every reference to a BOUNDARY function outside the
    method allowed = (class, method): a name read under its own name or an
    import alias, or an attribute of that name."""
    tree = ast.parse(source)
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.name in BOUNDARY:
                    alias[a.asname or a.name] = a.name
    inside = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == allowed[0]:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == allowed[1]:
                    inside.update(id(n) for n in ast.walk(fn))
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id in alias:
            found.append((node.lineno, alias[node.id]))
        elif isinstance(node, ast.Attribute) and node.attr in BOUNDARY:
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("name", ["action.py", "gtcenter.py"])
def test_module_stage_evaluates_only_at_the_boundary(name):
    assert references_outside((SRC / name).read_text()) == []


def test_scan_sees_references_outside_the_boundary():
    src = (
        "from .exactalg import dv_operator, univariate as uni\n"
        "from . import exactalg\n"
        "class ModuleSpec:\n"
        "    def _evaluated(self, f):\n"
        "        return dv_operator(f), uni(f)\n"
        "    def other(self, f):\n"
        "        return uni(f)\n"
        "def g(f):\n"
        "    return exactalg.evaluate_at_singular(f, 0), dv_operator\n"
    )
    assert references_outside(src) == [
        (7, "univariate"), (9, "dv_operator"), (9, "evaluate_at_singular"),
    ]
