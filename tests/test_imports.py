import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "canmeas"


def private_sibling_imports(path: Path) -> list[str]:
    """``from .x import _y`` (or ``from canmeas.x import _y``) lines in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("canmeas"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    # A name a module keeps private is its own to change; a sibling that
    # needs it should get a public name for it instead.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [line for path in modules for line in private_sibling_imports(path)] == []


def test_the_scan_sees_relative_and_absolute_imports(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "from json.encoder import encode_basestring_ascii as _escape\n"
        "from . import linalg\n"
        "from .measures import CycleSpace, _hidden\n"
        "from canmeas.linalg import _rows as rows\n"
    )
    assert private_sibling_imports(path) == [
        "sample.py:4 imports _hidden",
        "sample.py:5 imports _rows",
    ]
