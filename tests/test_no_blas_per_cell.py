"""No BLAS call on the per-cell path.

Sweep cells run on threads in one process and would share one OpenBLAS
thread pool, so the modules a cell runs keep matrix products out: no `@`,
no `dot`, `vdot`, `inner`, `matmul` or `tensordot` (as `np.` functions,
array methods or imports), nothing from `numpy.linalg`, and no `einsum`
with `optimize` (which may hand the contraction to BLAS; without it einsum
runs its own loop).  The modules are parsed with `ast`, never run.
`calibration` is not per-cell and may use BLAS.
"""

import ast
from pathlib import Path

import pytest

import pvlc

PER_CELL = ("link.py", "compensation.py", "experiments.py", "device.py", "seeding.py")
PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def blas_uses(tree):
    """(line, what) for each BLAS construct in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and (node.attr in PRODUCTS or node.attr == "linalg"):
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {a.name for a in node.names}
            if "linalg" in node.module or names & (PRODUCTS | {"linalg"}):
                found.append((node.lineno, f"from {node.module} import {', '.join(sorted(names))}"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.Call) and any(k.arg == "optimize" for k in node.keywords):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "einsum":
                found.append((node.lineno, "einsum(optimize=...)"))
    return found


@pytest.mark.parametrize("module", PER_CELL)
def test_per_cell_module_has_no_blas_call(module):
    path = Path(pvlc.__file__).resolve().parent / module
    assert blas_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source", [
    "c = a @ b", "a @= b", "np.dot(a, b)", "numpy.vdot(a, b)", "np.inner(a, b)", "np.matmul(a, b)",
    "np.tensordot(a, b)", "a.dot(b)", "np.linalg.norm(a)", "from numpy import dot",
    "from numpy.linalg import norm", "import numpy.linalg", "np.einsum('i,i->', a, a, optimize=True)",
])
def test_guard_sees_each_construct(source):
    assert len(blas_uses(ast.parse(source))) == 1


def test_guard_passes_plain_einsum():
    assert blas_uses(ast.parse("np.einsum('i,i->', a, a); np.sum(a * b)")) == []
