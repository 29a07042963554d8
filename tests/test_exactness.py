"""Exactness lint: no float enters ``src/`` outside the spectral module, and
integers enter the exact modules only through ``groups.exact_int``.

The float check walks the syntax tree of every module and refuses float
literals, the ``float`` name, the floating-point functions of ``math`` and
numpy's float dtypes, whether named as attributes or as dtype strings.  The
integer check refuses, in the modules of ``INT_MODULES``, every ``int``
cast (called, or passed as a function as in ``map(int, xs)``) and every use
of ``operator.index`` outside ``exact_int``: ``int(1.7)`` truncates and
``int("3")`` parses, and ``operator.index(True)`` is 1.
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
# Modules whose integer arguments pass ``exact_int``; magnification, spectral and
# cli convert numpy results and command-line text, which are not arguments.
INT_MODULES = ("groups.py", "systems.py", "zline.py", "orbits.py", "verify.py")


def _owners(tree: ast.AST) -> dict:
    """The name of the outermost function around each node of the tree."""
    scopes = [(node.name, node) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    owner = {}
    for name, fn in scopes:
        for node in ast.walk(fn):
            owner.setdefault(node, name)  # outer functions come first in ast.walk
    return owner


def _float_uses(tree: ast.AST):
    """Yield (function, what, line) for each float construct in the tree."""
    owner = _owners(tree)
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
            found.append(f"{path.name}:{line} in {function}: {what}")
    assert found == []


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


def _int_casts(tree: ast.AST):
    """Yield (function, what, line) for each int cast and each operator.index
    outside ``exact_int``."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "int":
                what = "int(...)"
            elif any(isinstance(a, ast.Name) and a.id == "int" for a in node.args):
                what = "int as an argument"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "operator" and node.attr == "index"):
            what = "operator.index"
        elif isinstance(node, ast.ImportFrom) and node.module == "operator":
            if any(a.name == "index" for a in node.names):
                what = "from operator import index"
        function = owner.get(node, "<module>")
        if what is not None and not (what == "operator.index" and function == "exact_int"):
            yield function, what, node.lineno


def test_integers_enter_the_exact_modules_only_through_exact_int():
    found = []
    for name in INT_MODULES:
        for function, what, line in _int_casts(ast.parse((SRC / name).read_text())):
            found.append(f"{name}:{line} in {function}: {what}")
    assert found == []


def test_the_lint_sees_each_kind_of_int_cast():
    source = '''
from operator import index
def exact_int(v):
    return operator.index(v)
def f(v, xs):
    return int(v) + sum(map(int, xs)) + operator.index(v)
'''
    kinds = sorted((fn, what) for fn, what, _ in _int_casts(ast.parse(source)))
    assert kinds == [("<module>", "from operator import index"), ("f", "int as an argument"),
                     ("f", "int(...)"), ("f", "operator.index")]
