import importlib
import types
from fractions import Fraction
from pathlib import Path

from canmeas import OrderedPartition, dump_report, graded_minors
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
