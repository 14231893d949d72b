"""The library uses public numpy names only: a private module or attribute
(a dotted part starting with "_") can change in any numpy release."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "womplab"


def _private(dotted):
    parts = dotted.split(".")
    return parts[0] == "numpy" and any(
        p.startswith("_") and not p.endswith("__") for p in parts[1:])


def private_numpy_names(source):
    """(line, dotted name) of each private numpy name that the source
    imports, or reaches as an attribute of an imported numpy module."""
    tree = ast.parse(source)
    modules, found = {}, []  # local name -> numpy module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
                found += [(node.lineno, alias.name)] * _private(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                modules[alias.asname or alias.name] = name
                found += [(node.lineno, name)] * _private(name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            parts, root = [node.attr], node.value
            while isinstance(root, ast.Attribute):
                parts.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                name = ".".join([modules[root.id], *reversed(parts)])
                found += [(node.lineno, name)] * _private(name)
    return sorted(found)


def test_the_check_finds_private_names():
    source = ("import numpy as np\n"
              "import numpy.linalg._umath_linalg\n"
              "from numpy.linalg import _umath_linalg, norm\n"
              "from numpy._core import multiarray\n"
              "from numpy import linalg as la\n"
              "np.linalg._umath_linalg.cholesky_lo(la._umath_linalg)\n"
              "np.linalg.norm(np.ndarray.__len__, x._y)\n")
    assert private_numpy_names(source) == [
        (2, "numpy.linalg._umath_linalg"), (3, "numpy.linalg._umath_linalg"),
        (4, "numpy._core.multiarray"), (6, "numpy.linalg._umath_linalg"),
        (6, "numpy.linalg._umath_linalg")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_library_uses_public_numpy_names_only(path):
    assert private_numpy_names(path.read_text()) == []
