"""No module of ``src/equilef`` keeps a top-level import that it never reads.

No linter is part of the toolchain, so the check is a walk of each module's
syntax tree: every name a top-level ``import`` binds must be read somewhere
in the module as a name (an attribute access ``rl.hnf`` reads ``rl``).
``__init__`` imports to re-export and is exempt, and so is ``from
__future__``, which binds nothing that code reads.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "equilef"
MODULES = sorted(path for path in SRC.glob("*.py") if path.stem != "__init__")


def unused_imports(source):
    """The names that a top-level import of ``source`` binds and that no
    expression in it reads, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_top_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from fractions import Fraction\n"
              "from . import _ratlin as rl\n"
              "def f(x: Fraction):\n    return rl.hnf(x)\n")
    assert unused_imports(source) == ["math", "os"]
