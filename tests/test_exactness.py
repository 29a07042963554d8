"""Exactness lint: no float enters ``src/`` outside the spectral module.

The check walks the syntax tree of every module and refuses float literals,
the ``float`` name, the floating-point functions of ``math`` and numpy's
float dtypes, whether named as attributes or as dtype strings.
"""

from __future__ import annotations

import ast
from pathlib import Path

import sumsetlab

SRC = Path(sumsetlab.__file__).parent
FLOAT_MODULES = {"spectral.py"}  # the Fourier side is float by design
MATH_FLOAT = {"sqrt", "log", "log2", "log10", "exp", "pow"}
NUMPY_FLOAT = {"float16", "float32", "float64", "float128", "longdouble", "double",
               "single", "half", "floating", "float_"}
DTYPE_STRINGS = {"float", "float16", "float32", "float64", "float128", "f2", "f4", "f8",
                 "double", "longdouble"}
# (file, enclosing function, name) -> why the float is allowed there
ALLOWED = {
    ("cli.py", "cmd_equidist", "float"):
        "frequencies go to spectral.weyl_defect_window, which is float by design",
}


def _float_uses(tree: ast.AST):
    """Yield (function, what, line) for each float construct in the tree."""
    scopes = [(node.name, node) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    owner = {}
    for name, fn in scopes:
        for node in ast.walk(fn):
            owner.setdefault(node, name)  # outer functions come first in ast.walk
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (float, complex)):
                what = repr(node.value)
            elif isinstance(node.value, str) and node.value in DTYPE_STRINGS:
                what = node.value
        elif isinstance(node, ast.Name) and node.id == "float":
            what = "float"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr in MATH_FLOAT:
                what = f"math.{node.attr}"
            elif node.value.id in ("np", "numpy") and node.attr in NUMPY_FLOAT:
                what = f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy"):
            names = MATH_FLOAT if node.module == "math" else NUMPY_FLOAT
            hits = [a.name for a in node.names if a.name in names]
            what = f"from {node.module} import {', '.join(hits)}" if hits else None
        if what is not None:
            yield owner.get(node, "<module>"), what, node.lineno


def test_no_float_outside_the_spectral_module():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in FLOAT_MODULES:
            continue
        for function, what, line in _float_uses(ast.parse(path.read_text())):
            if (path.name, function, what) not in ALLOWED:
                found.append(f"{path.name}:{line} in {function}: {what}")
    assert found == []


def test_every_allowed_float_is_still_there():
    # A stale entry would silently admit a float that a later change adds.
    seen = set()
    for path in sorted(SRC.glob("*.py")):
        seen |= {(path.name, fn, what) for fn, what, _ in _float_uses(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= seen


def test_the_lint_sees_each_kind_of_float():
    source = '''
x = 0.5
def f(v):
    return float(v) + math.sqrt(v) + np.float64(v) + np.zeros(3, dtype="float32")
from math import exp
'''
    kinds = sorted(what for _, what, _ in _float_uses(ast.parse(source)))
    assert kinds == ["0.5", "float", "float32", "from math import exp", "math.sqrt",
                     "np.float64"]
