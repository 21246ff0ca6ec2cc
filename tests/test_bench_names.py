import importlib
import sys
import types
from fractions import Fraction
from importlib import resources
from pathlib import Path

from canmeas import OrderedPartition, dump_report, graded_minors
from canmeas.cli import main
from canmeas.gallery import theta_graph

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    # Compiled from the source text, so no bytecode is written under bench/.
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_exists():
    # bench/tracing.py looks each name up with getattr when it installs its
    # spans, so a name deleted from canmeas would crash `run.py --trace 1`.
    traced = load_tracing().TRACED
    missing = [
        f"canmeas.{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"canmeas.{module}"), name, None))
    ]
    assert traced and missing == []


def test_every_count_measures_what_its_function_returns():
    # A traced function's count is taken from its result, so a change of
    # return type would crash `run.py --trace 1` at the first call.
    tracing = load_tracing()
    assert set(tracing.COUNTS) <= set(tracing.FUNCTIONS)
    g = theta_graph()
    split = OrderedPartition(parts=(frozenset({"e1"}), frozenset({"e2", "e3"})))
    report = {"command": "trees", "count": 3}
    calls = {
        "linalg.inverse": ([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]],),
        "graphs.spanning_trees": (g,),
        "layerings.layered_spanning_trees": (graded_minors(g, split),),
        "documents.dump_report": (report,),
    }
    assert set(calls) == set(tracing.COUNTS)
    tracer = tracing.Tracer()
    for name, args in calls.items():
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"canmeas.{module}"), attr)
        tracer.wrap(tracing.FUNCTIONS.index(name), fn)(*args)
    assert tracer.take_counts() == {
        # The inverse is [[2/3, -1/3], [-1/3, 2/3]]: 2-bit numerators and
        # denominators.
        "linalg.inverse": 2,
        "graphs.spanning_trees": 3,
        "layerings.layered_spanning_trees": 2,
        "documents.dump_report": len(dump_report(report).encode()),
    }


def test_commands_record_once_the_parser_is_built(capsys, monkeypatch):
    # The benchmark worker runs a command before it installs the tracer,
    # so the cached parser already exists; the command that runs after
    # install must still be the traced one.
    tracing = load_tracing()
    argv = ["measure", "--input", str(resources.files("canmeas") / "examples" / "theta.json")]
    assert main(argv) == 0
    # Re-set every reference install replaces, so monkeypatch restores it.
    originals = {
        id(getattr(sys.modules[f"canmeas.{module}"], name))
        for module, names in tracing.TRACED.items()
        for name in names
    }
    for name, mod in list(sys.modules.items()):
        if name == "canmeas" or name.startswith("canmeas."):
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    monkeypatch.setattr(mod, attr, value)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if id(item) in originals:
                            monkeypatch.setitem(value, key, item)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert main(argv) == 0
    capsys.readouterr()
    recorded = {tracing.FUNCTIONS[index] for index, *_ in tracer.take()}
    assert {"cli.build_parser", "cli.cmd_measure"} <= recorded
