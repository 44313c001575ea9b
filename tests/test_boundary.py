"""The module stage has one evaluation boundary, and exact arithmetic has
one division path.

Every generator, e_k, f_k, the weights and the central c_mk, reaches the
singular-point functionals (on elements, and on the factors of an e/f
Coefficient) through ``ModuleSpec._evaluated`` alone, on generic specs
too.  This scan fails when ``action.py`` or ``gtcenter.py`` refers to one
of those functions anywhere else, under its own name or an import alias,
so the pipeline cannot fork again unnoticed.

In ``exactalg.py`` one chain walk, ``_updiv_binomial``, is the only
exact division.  It is reached from the ``_Ring`` tables, from ``_reduce``
through ``ring.div_binomial`` and from ``_pdiv_binomial``, which packs
trivariate chains into its univariate form (``_pdiv_x_minus_y`` divides
through ``_pdiv_binomial``), and the chain cap ``_CHAIN_LIMIT`` is the
only size limit, so a second division path or a new silent give-up fails
the scan.  Likewise ``fe_sum`` is the one sum of field elements, ``a + b``
included: it alone reads the term-dict sum ``_sum``, so a second sum
fails the scan.  The singular-point functional of a ``FieldElement`` has
one body, ``_element_functional``: it alone reads the X - Y cancellation
``_cancel_xy`` and the functional of one part ``_diffval``, so a second
element body for the value or the derivative fails the scan.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gtsingular"
BOUNDARY = frozenset({"dv_operator", "evaluate_at_singular"})
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
        "from .exactalg import dv_operator, evaluate_at_singular as ev\n"
        "from . import exactalg\n"
        "class ModuleSpec:\n"
        "    def _evaluated(self, f):\n"
        "        return dv_operator(f), ev(f)\n"
        "    def other(self, f):\n"
        "        return ev(f)\n"
        "def g(f):\n"
        "    return exactalg.evaluate_at_singular(f, 0), dv_operator\n"
    )
    assert references_outside(src) == [
        (7, "evaluate_at_singular"), (9, "dv_operator"), (9, "evaluate_at_singular"),
    ]


KERNELS = frozenset({"_updiv_binomial", "div_binomial"})
KERNEL_USERS = frozenset({"_Ring", "_TRI", "_UNI", "_reduce", "_pdiv_binomial"})


def kernel_references_outside(source, allowed=KERNEL_USERS, names=KERNELS):
    """(line, owner) of every read of one of names (by default the chain
    division kernel), by name or as an attribute, whose top-level owner
    (the function, class or assigned name it sits in) is not allowed."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            owner = top.name
        elif isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
            owner = top.targets[0].id
        else:
            owner = None
        if owner in allowed:
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in names) or (
                    isinstance(node, ast.Attribute) and node.attr in names):
                found.append((node.lineno, owner))
    return sorted(found)


def limit_constants(source):
    """Module-level names assigned in source that end in _LIMIT."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name) and n.id.endswith("_LIMIT")]
    return names


def test_exactalg_has_one_division_path_and_one_limit():
    source = (SRC / "exactalg.py").read_text()
    assert kernel_references_outside(source) == []
    assert limit_constants(source) == ["_CHAIN_LIMIT"]


def test_scan_sees_a_second_division_path_and_a_new_limit():
    src = (
        "_CHAIN_LIMIT = 10000\n"
        "_REDUCE_NUM_LIMIT = 1500\n"
        "_TRI = _Ring(_pmul, _pdiv_binomial)\n"
        "def _reduce(num, k, ring):\n"
        "    return ring.div_binomial(num, *k)\n"
        "def _pdiv_exact(a, f):\n"
        "    return _updiv_binomial(a, *f)\n"
        "class FieldElement:\n"
        "    def cancel(self, ring):\n"
        "        return ring.div_binomial\n"
        "div = _updiv_binomial\n"
        "def _pdiv_binomial(a, *f):\n"
        "    return _updiv_binomial(a, *f)\n"
    )
    assert kernel_references_outside(src) == [
        (7, "_pdiv_exact"), (10, "FieldElement"), (11, "div"),
    ]
    assert limit_constants(src) == ["_CHAIN_LIMIT", "_REDUCE_NUM_LIMIT"]


SUMS = frozenset({"_sum"})
SUM_USERS = frozenset({"fe_sum"})


def test_exactalg_has_one_sum():
    source = (SRC / "exactalg.py").read_text()
    assert kernel_references_outside(source, SUM_USERS, SUMS) == []


def test_scan_sees_a_second_sum():
    src = (
        "def _sum(parts):\n"
        "    return parts\n"
        "def fe_sum(elems, system):\n"
        "    return _sum(elems)\n"
        "class FieldElement:\n"
        "    def __add__(self, other):\n"
        "        return _sum([self, other])\n"
        "def total(parts, ring):\n"
        "    return ring._sum(parts), fe_sum(parts, None)\n"
    )
    assert kernel_references_outside(src, SUM_USERS, SUMS) == [
        (7, "FieldElement"), (9, "total"),
    ]


FUNCTIONAL_PARTS = frozenset({"_cancel_xy", "_diffval"})
FUNCTIONAL_BODY = frozenset({"_element_functional"})


def test_exactalg_has_one_element_functional():
    source = (SRC / "exactalg.py").read_text()
    assert kernel_references_outside(source, FUNCTIONAL_BODY, FUNCTIONAL_PARTS) == []


def test_scan_sees_a_second_element_functional():
    src = (
        "def _cancel_xy(f, c):\n"
        "    return f\n"
        "def _element_functional(f, c, scale, derivative):\n"
        "    return _diffval(_cancel_xy(f, c), c)\n"
        "def evaluate_at_singular(f, c, scale=1):\n"
        "    return _cancel_xy(f, c)\n"
        "def dv_operator(f, c, scale=1):\n"
        "    nums, dens = _cancel_xy(f, c)\n"
        "    return _diffval(nums[0], c), exactalg._diffval\n"
    )
    assert kernel_references_outside(src, FUNCTIONAL_BODY, FUNCTIONAL_PARTS) == [
        (6, "evaluate_at_singular"), (8, "dv_operator"), (9, "dv_operator"),
        (9, "dv_operator"),
    ]
