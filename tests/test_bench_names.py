import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def test_every_traced_name_exists():
    # bench/tracing.py looks each name up with getattr when it installs its
    # spans, so a name deleted from canmeas would crash `run.py --trace 1`.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
    )
    missing = [
        f"canmeas.{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"canmeas.{module}"), name, None))
    ]
    assert traced and missing == []
