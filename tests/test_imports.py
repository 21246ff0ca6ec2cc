import ast
import inspect
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


def linalg_imports(path: Path) -> list[str]:
    """Lines of path that import canmeas.linalg or a name from it, in any
    form: relative or absolute, the module or a name in it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # The package is flat, so a relative import starts at canmeas.
            base = ".".join(filter(None, ["canmeas" if node.level else "", node.module]))
            modules = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(m.split(".")[:2] == ["canmeas", "linalg"] for m in modules):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_the_laplacian_oracle_imports_nothing_from_linalg():
    # kirchhoff is the oracle for the routes that run on linalg's kernels,
    # so it must share none of them.
    assert linalg_imports(PACKAGE / "kirchhoff.py") == []


def test_the_linalg_scan_sees_every_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import graphs, linalg\n"
        "from .linalg import solve\n"
        "from canmeas import linalg as la\n"
        "from canmeas.linalg import selected_inverse\n"
        "import canmeas.linalg\n"
        "from numpy import linalg\n"
        "import numpy.linalg\n"
        "from .graphs import linalg_free\n"
        "from .measures import linalg_calls\n"
    )
    assert linalg_imports(path) == [f"sample.py:{line}" for line in range(1, 6)]


TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def traced_names() -> dict:
    """``TRACED`` of the benchmark tracer, read off its source text, so
    nothing under bench/ is imported or written."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8"), str(TRACING)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED in {TRACING}")


def linalg_calls(path: Path) -> set[str]:
    """Names path calls from canmeas.linalg, as ``linalg.f(...)`` or as
    ``f(...)`` after ``from .linalg import f``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "canmeas.linalg")
        for alias in node.names
    }
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "linalg":
            found.add(f.attr)
        elif isinstance(f, ast.Name) and f.id in imported:
            found.add(f.id)
    return found


def test_every_linalg_kernel_is_called_or_traced():
    # A public kernel that no other module calls and the benchmark does
    # not trace is dead code.
    from canmeas import linalg

    public = {
        name
        for name, value in vars(linalg).items()
        if inspect.isfunction(value) and value.__module__ == linalg.__name__ and name[0] != "_"
    }
    called = set().union(
        *(linalg_calls(path) for path in PACKAGE.glob("*.py") if path.name != "linalg.py")
    )
    assert "solve" in public
    assert sorted(public - called - set(traced_names()["linalg"])) == []


def test_the_call_scan_sees_both_forms(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import linalg\n"
        "from .linalg import solve as s, inverse\n"
        "linalg.selected_inverse(rows, scales, fill)\n"
        "s(rows, rhs)\n"
        "rows: linalg.Matrix = linalg.elimination_fill\n"
    )
    assert linalg_calls(path) == {"selected_inverse", "s"}


def package_imports(tree: ast.AST) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """The package names a module imports: each local name bound by
    ``from .m import name`` (or ``from canmeas.m import name``) mapped to
    (m, name), and each bound by ``from . import m`` mapped to m."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("canmeas"):
            continue
        base = (node.module or "").removeprefix("canmeas").lstrip(".")
        for alias in node.names:
            local = alias.asname or alias.name
            if base:
                names[local] = (base, alias.name)
            else:
                modules[local] = alias.name
    return names, modules


def module_references(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs that path uses: a bare name of its own module,
    ``name`` after ``from .m import name``, or ``m.name`` after
    ``from . import m``.  An import alone is no use."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names, modules = package_imports(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(names.get(node.id, (path.stem, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
    return found


def public_definitions(path: Path) -> set[tuple[str, str]]:
    """(module, name) of the public functions and classes at the top
    level of path."""
    body = ast.parse(path.read_text(encoding="utf-8"), str(path)).body
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {(path.stem, n.name) for n in body if isinstance(n, kinds) and n.name[0] != "_"}


def unreached_names(package: Path, traced: dict) -> list[str]:
    """Public functions and classes of the package, corpus aside, that no
    package module uses, ``__init__`` does not export and ``traced``
    does not name."""
    init = package / "__init__.py"
    exported = set(package_imports(ast.parse(init.read_text(encoding="utf-8")))[0].values())
    paths = [path for path in sorted(package.glob("*.py")) if path != init]
    used = set().union(*(module_references(path) for path in paths))
    defined = set().union(*(public_definitions(p) for p in paths if p.name != "corpus.py"))
    reached = used | exported | {(m, n) for m, names in traced.items() for n in names}
    return sorted(f"{m}.{n}" for m, n in defined - reached)


def test_every_public_name_is_used_exported_or_traced():
    # A public function or class that no module uses, the package does
    # not export and the benchmark does not trace is dead code.  corpus
    # is left out: its helpers are test data.
    assert ("graphs", "is_stable") in public_definitions(PACKAGE / "graphs.py")
    assert unreached_names(PACKAGE, traced_names()) == []


def test_the_name_scan_sees_every_use(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported(): pass\n"
        "def traced(): pass\n"
        "def own(): pass\n"
        "def by_name(): pass\n"
        "def by_module(): pass\n"
        "def dead(): pass\n"
        "def _private(): pass\n"
        "class Dead: pass\n"
        "HANDLERS = {'own': own}\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import by_name as named, dead\n"
        "x: a.by_module = named()\n"
    )
    (tmp_path / "corpus.py").write_text("def data(): pass\n")
    assert unreached_names(tmp_path, {"a": ("traced",)}) == ["a.Dead", "a.dead"]
