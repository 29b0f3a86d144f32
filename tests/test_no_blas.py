"""The library makes no BLAS-backed call.

A BLAS level-1 or level-2 call on a long vector wakes OpenBLAS's thread
pool, whose workers then spin between solver steps and double a run's CPU
time.  This test reads the source of every phasekit module and refuses the
`@` operator, the numpy products (`dot`, `vdot`, `inner`, `matmul`, `einsum`,
`tensordot`) and anything under a `linalg` namespace except the exception
name `np.linalg.LinAlgError`, imports included.  The library's one LAPACK
entry is `torus`'s loader of scipy's `_flapack` extension, from which it
takes `dptsv` and `dpttrs` only.
"""

import ast
from pathlib import Path

import phasekit

PRODUCTS = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}
# what torus takes from the LAPACK extension it loads
LAPACK_ROUTINES = {"_flapack.dptsv", "_flapack.dpttrs"}


def dotted(node):
    """'np.linalg.solve' for an Attribute chain on a Name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def blas_uses(tree):
    """(line, what) for every BLAS-backed use in a module's syntax tree."""
    nodes = list(ast.walk(tree))
    # the inner links of an attribute chain, so a chain is read once, whole
    inner = {id(node.value) for node in nodes
             if isinstance(node, ast.Attribute)}
    found = []
    for node in nodes:
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name in PRODUCTS:
                found.append((node.lineno, f"call to {name}"))
        elif isinstance(node, ast.Attribute) and id(node) not in inner:
            path = dotted(node)
            if path and (("linalg" in path.split(".")
                           and path != "np.linalg.LinAlgError")
                          or (path.startswith("_flapack.")
                              and path not in LAPACK_ROUTINES)):
                found.append((node.lineno, path))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names
                      if "linalg" in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if "linalg" in node.module.split("."):
                found.append((node.lineno, f"from {node.module}"))
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names
                      if alias.name in PRODUCTS | {"linalg"}]
    return found


def test_library_makes_no_blas_call():
    package = Path(phasekit.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line}: {what}"
                      for line, what in blas_uses(tree)]
    assert not offenders, "BLAS-backed calls:\n" + "\n".join(offenders)
