"""Per-layer spans, recorded from outside around canmeas's public functions.

canmeas modules import each other's functions by name (``from .x import
y``) and ``cli._FORMULATIONS`` keeps direct references, so patching a
function in its home module alone would miss most calls.  ``install``
therefore replaces every reference to a traced function that any loaded
canmeas module holds, as a module attribute or as a value of a
module-level dict.

Each call records one span: function, start, end, and self time (its
duration minus the time covered by the spans it caused).  Spans stay in
memory; the worker aggregates them per case and writes them out when the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "linalg": ("inverse", "solve", "is_positive_definite", "determinant", "integer_determinant"),
    "kirchhoff": ("effective_resistance", "tree_count"),
    "measures": (
        "foster_by_matrix",
        "foster_by_projection",
        "foster_by_trees",
        "tropical_canonical_measure",
        "gram_matrices",
    ),
    "graphs": ("spanning_trees", "cycle_basis"),
    "layerings": ("graded_minors", "admissible_cycle_basis", "layered_spanning_trees"),
    "families": ("product", "ratio_limit"),
    "degeneration": (
        "all_tree_limits",
        "omega_infinity",
        "limit_foster",
        "layered_tree_weight",
        "check_convergence",
    ),
    "periods": (
        "monodromy_from_basis",
        "graded_inverse_limits",
        "model_period",
        "schur_block_inverse",
        "verify_inverse_lemma",
    ),
    "documents": ("load_document", "dump_report"),
    "cli": (
        "build_parser",
        "cmd_measure",
        "cmd_trees",
        "cmd_minors",
        "cmd_limit",
        "cmd_periods",
        "cmd_selftest",
    ),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)


def _max_bits(matrix) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in matrix for x in row),
        default=0,
    )


# Counts taken from a traced function's result: (quantity, unit, measure,
# how values of successive calls combine).
COUNTS = {
    "linalg.inverse": ("max_bits", "bits", _max_bits, max),
    "graphs.spanning_trees": ("trees", "count", len, lambda a, b: a + b),
    "layerings.layered_spanning_trees": ("trees", "count", len, lambda a, b: a + b),
    "documents.dump_report": ("bytes", "bytes", lambda text: len(text.encode()), lambda a, b: a + b),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, float]] = []
        self.counts = {name: 0 for name in COUNTS}
        self._open: list[float] = []

    def take(self) -> list[tuple[int, float, float, float]]:
        """Spans recorded since the last take, oldest first."""
        spans, self.spans = self.spans, []
        return spans

    def take_counts(self) -> dict[str, int]:
        counts, self.counts = self.counts, {name: 0 for name in COUNTS}
        return counts

    def wrap(self, index: int, fn):
        name = FUNCTIONS[index]
        count = COUNTS.get(name)
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                covered = open_spans.pop()
                if open_spans:
                    open_spans[-1] += end - start
                self.spans.append((index, start, end, end - start - covered))
            if count is not None:
                _, _, measure, combine = count
                self.counts[name] = combine(self.counts[name], measure(result))
            return result

        return traced



def self_times(spans) -> list[tuple[float, int]]:
    """(self seconds, calls) per traced function over the given spans."""
    out = [[0.0, 0] for _ in FUNCTIONS]
    for index, _, _, own in spans:
        out[index][0] += own
        out[index][1] += 1
    return [(own, calls) for own, calls in out]


def install(tracer: Tracer) -> None:
    """Replace every reference to a traced function held by canmeas."""
    modules = [m for name, m in list(sys.modules.items()) if name == "canmeas" or name.startswith("canmeas.")]
    for index, full in enumerate(FUNCTIONS):
        module, name = full.split(".")
        original = getattr(sys.modules[f"canmeas.{module}"], name)
        wrapper = tracer.wrap(index, original)
        for mod in modules:
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if item is original:
                            value[key] = wrapper
