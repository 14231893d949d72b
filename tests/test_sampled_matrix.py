"""Only discretization.py touches a SampledSystem's matrix: every other
module reads it through adjoint(), @, columns(), moments() and gram, so a
change of how the sampled system is held changes one class."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "womplab"
OWNER = "discretization.py"


def matrix_accesses(source):
    """(line, attribute) of each .matrix or ._matrix attribute access."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("matrix", "_matrix"))


def test_the_check_finds_matrix_accesses():
    source = ("cols = h.matrix[:, support]\n"
              "y = sampled._matrix @ a\n"
              "matrix = system.evaluate_at(points)\n"
              "s.matrix_free = mpmath.matrices\n")
    assert matrix_accesses(source) == [(1, "matrix"), (2, "_matrix")]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != OWNER),
                         ids=lambda p: p.name)
def test_only_discretization_touches_the_sampled_matrix(path):
    assert matrix_accesses(path.read_text()) == []
