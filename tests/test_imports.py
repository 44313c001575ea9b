"""No unused imports in the package or the tests, and a light import closure.

No linter ships with the project, so this scan is the check: every name an
import binds must be read somewhere in its module (a ``Name`` node, which
also roots every attribute chain) or be listed in the module's ``__all__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "gtsingular").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                name = a.asname or a.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_names():
    src = (
        "import os, sys\nimport a.b as ab\nfrom x import y, z as w\n"
        "from m import p\n__all__ = ['p']\nsys.path\nw()\n"
    )
    assert unused_imports(src) == [(1, "os"), (2, "ab"), (3, "y")]


def test_verify_loads_neither_dataclasses_nor_inspect():
    """Importing gtsingular.verify, the whole package, loads neither
    dataclasses nor inspect, which add several milliseconds to every cold
    start.  It runs in a fresh interpreter, since pytest loads both."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gtsingular.verify\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
