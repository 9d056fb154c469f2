"""Every top-level import in the package modules is used in that module.

An import kept alive only by a test that reads it back from the module
hides dead code, so each module-level `import x` or `from m import x`
binding must be referenced somewhere in the module's own source.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cavityq"


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [name for name in _imported_names(tree) if name not in _used_names(tree)]
    assert not unused, f"{path.name} imports {unused} but never uses them"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import json\nfrom math import inf, pi\nprint(pi)\n")
    used = _used_names(tree)
    assert [n for n in _imported_names(tree) if n not in used] == ["json", "inf"]
