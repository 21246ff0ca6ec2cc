"""Reading of the two JSON inputs, and deterministic report rendering.

Document layout::

    {
      "description": "optional free text",
      "vertices": [{"id": "u", "genus": 1, "marks": ["p1"]}, ...],
      "edges":    [{"id": "e1", "ends": ["u", "v"], "length": "1/2"}, ...],
      "layering": [["e1"], ["e2", "e3"]],
      "family":   {"e1": "1", "e2": "1/2*t", "e3": "1/2*t"},
      "target":   {"e1": "1", "e2": "1/2", "e3": "1/2"}
    }

Rationals are exact strings ("p/q" or an integer string); JSON floats
are rejected so no binary rounding sneaks into exact lanes, and so is a
rational whose numerator or denominator would have more than
:data:`canmeas.families.RATIONAL_DIGITS` digits, judged from its text.  All
optional sections may be omitted; operations that need a missing section
say so; the description is ignored.  The base matrix file of ``periods
--lambda0`` is an object of optional float blocks, each a list of equal
rows of finite numbers: ``vertex_blocks`` (vertex id to block),
``rank_block`` and ``cross``, as taken by
:func:`canmeas.periods.assemble_base`.  Both inputs pass one check (a
JSON object with known keys only), and neither is ever written.

Reports are serialized canonically, so equal reports are equal byte for
byte: :func:`dump_report` writes exactly what ``json.dumps(report,
indent=2, sort_keys=True)`` writes, in one recursive pass.  That call
would run json's pure-Python encoder, since the C encoder takes no
indent; here each container joins its items, dict items sorted as json
sorts them, and leaves are written inline, strings through json's own C
escaper.

Reports tag every numeric leaf as {"exact": "p/q"} or {"float": "..."},
the float rendered with 17 significant digits.  An exact value too long
for Python to print ends the command as a failed precondition.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Mapping

from .degeneration import LengthFamily
from .errors import CanmeasError, DocumentError, MissingSection
from .families import RATIONAL_DIGITS, ScaleFunction, oversized_rational, parse_scale
from .graphs import AugmentedGraph
from .layerings import OrderedPartition
from .measures import EdgeMeasure, MetricGraph, TropicalCurve

_DOC_KEYS = {"description", "vertices", "edges", "layering", "family", "target"}
_BASE_KEYS = {"vertex_blocks", "rank_block", "cross"}


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"{where}: rationals must be exact strings, got {value!r}")
    text = str(value)
    if oversized_rational(text):
        raise DocumentError(f"{where}: rational of more than {RATIONAL_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"{where}: malformed rational {value!r}") from None


def _document_scale(value: Any, where: str) -> ScaleFunction:
    try:
        fn = parse_scale(str(value))
    except CanmeasError as err:
        raise DocumentError(f"{where}: {err}") from None
    if fn.dominant_exponent < 0:
        raise DocumentError(f"{where}: negative exponents are not allowed in documents")
    return fn


def _edge_section(
    data: Mapping[str, Any], key: str, values: str, known: set[str], parse
) -> dict[str, Any]:
    # A section mapping edge ids, each checked against the known edges,
    # to values parsed as parse(value, where).
    raw = data[key]
    if not isinstance(raw, dict):
        raise DocumentError(f"'{key}' must map edge ids to {values}")
    out = {}
    for eid, value in raw.items():
        if eid not in known:
            raise DocumentError(f"{key} names unknown edge {eid!r}")
        out[eid] = parse(value, f"edge {eid!r}")
    return out


@dataclass(frozen=True)
class GraphDocument:
    """A parsed document; optional sections are None when absent."""

    graph: AugmentedGraph
    lengths: Mapping[str, Fraction] | None
    layering: OrderedPartition | None
    family: Mapping[str, ScaleFunction] | None
    target: Mapping[str, Fraction] | None

    def metric(self) -> MetricGraph:
        if self.lengths is None:
            raise MissingSection("this operation needs edge lengths in the document")
        return MetricGraph(self.graph, dict(self.lengths))

    def require_layering(self) -> OrderedPartition:
        if self.layering is None:
            raise MissingSection("this operation needs a layering in the document")
        return self.layering

    def tropical(self) -> TropicalCurve:
        return TropicalCurve(
            graph=self.graph,
            lengths=dict(self.metric().lengths),
            layering=self.require_layering(),
        )

    def length_family(self) -> LengthFamily:
        if self.family is None:
            raise MissingSection("this operation needs a length family in the document")
        if self.target is None:
            raise MissingSection("this operation needs a target point in the document")
        return LengthFamily(
            graph=self.graph,
            param_lengths=dict(self.family),
            target_layering=self.require_layering(),
            target_point=dict(self.target),
        )


def _read(path: str, name: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise DocumentError(f"cannot read {name} {path}: {err}") from None


def _json_object(text: str, name: str, keys: set[str]) -> dict[str, Any]:
    """Decode a JSON object with keys only from ``keys``; errors name the input."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(f"invalid JSON in {name}: {err}") from None
    except ValueError:  # an int too long to convert
        raise DocumentError(
            f"invalid JSON in {name}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(data, dict):
        raise DocumentError(f"{name} must be a JSON object")
    unknown = sorted(set(data) - keys)
    if unknown:
        raise DocumentError(f"unknown {name} keys {unknown}")
    return data


def parse_document(text: str) -> GraphDocument:
    """Parse a graph document from JSON text."""
    data = _json_object(text, "document", _DOC_KEYS)
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise DocumentError("document needs a nonempty 'vertices' list")
    vertices: list[str] = []
    genus: dict[str, int] = {}
    marks: dict[str, str] = {}
    for i, item in enumerate(raw_vertices):
        if not isinstance(item, dict) or "id" not in item:
            raise DocumentError(f"vertex #{i}: expected an object with an 'id'")
        vid = str(item["id"])
        extra = sorted(set(item) - {"id", "genus", "marks"})
        if extra:
            raise DocumentError(f"vertex {vid!r}: unknown keys {extra}")
        vertices.append(vid)
        gv = item.get("genus", 0)
        if isinstance(gv, bool) or not isinstance(gv, int) or gv < 0:
            raise DocumentError(f"vertex {vid!r}: genus must be a nonnegative integer")
        genus[vid] = gv
        labels = item.get("marks", [])
        if not isinstance(labels, list):
            raise DocumentError(f"vertex {vid!r}: marks must be a list of labels")
        for label in labels:
            label = str(label)
            if label in marks:
                raise DocumentError(f"mark {label!r} appears on more than one vertex")
            marks[label] = vid

    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise DocumentError("document needs an 'edges' list")
    edges: list[tuple[str, tuple[str, str]]] = []
    lengths: dict[str, Fraction] = {}
    lengthless: list[str] = []
    for i, item in enumerate(raw_edges):
        if not isinstance(item, dict) or "id" not in item:
            raise DocumentError(f"edge #{i}: expected an object with an 'id'")
        eid = str(item["id"])
        extra = sorted(set(item) - {"id", "ends", "length"})
        if extra:
            raise DocumentError(f"edge {eid!r}: unknown keys {extra}")
        ends = item.get("ends")
        if not isinstance(ends, list) or len(ends) != 2:
            raise DocumentError(f"edge {eid!r}: 'ends' must list exactly two vertices")
        edges.append((eid, (str(ends[0]), str(ends[1]))))
        if "length" in item:
            le = parse_rational(item["length"], f"edge {eid!r}")
            if le <= 0:
                raise DocumentError(f"edge {eid!r}: length must be positive, got {le}")
            lengths[eid] = le
        else:
            lengthless.append(eid)
    if lengths and lengthless:
        raise DocumentError(
            f"either every edge or no edge carries a length; missing on {sorted(lengthless)}"
        )

    try:
        graph = AugmentedGraph(
            vertices=tuple(vertices), edges=tuple(edges), genus=genus, marks=marks
        )
    except CanmeasError as err:
        raise DocumentError(f"invalid graph: {err}") from None

    known = set(graph.edge_ids)
    layering = None
    if "layering" in data:
        raw_layering = data["layering"]
        if not isinstance(raw_layering, list) or not all(
            isinstance(part, list) for part in raw_layering
        ):
            raise DocumentError("'layering' must be a list of lists of edge ids")
        for part in raw_layering:
            for eid in part:
                if str(eid) not in known:
                    raise DocumentError(f"layering names unknown edge {eid!r}")
        try:
            layering = OrderedPartition(
                parts=tuple(frozenset(str(e) for e in part) for part in raw_layering)
            )
        except CanmeasError as err:
            raise DocumentError(f"invalid layering: {err}") from None
        covered = layering.edge_ids
        if covered != known:
            raise DocumentError(
                f"layering must cover every edge; missing {sorted(known - covered)}"
            )

    family = None
    if "family" in data:
        family = _edge_section(data, "family", "scale expressions", known, _document_scale)
    target = None
    if "target" in data:
        target = _edge_section(data, "target", "rationals", known, parse_rational)

    return GraphDocument(
        graph=graph,
        lengths=lengths or None,
        layering=layering,
        family=family,
        target=target,
    )


def load_document(path: str) -> GraphDocument:
    return parse_document(_read(path, "document"))


def _finite_number(x: Any) -> bool:
    """Whether x is a JSON number with a finite binary64 value."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond binary64
        return False


def _base_block(name: str, block: Any) -> list[list[float]]:
    """A base matrix block read from JSON: equal rows of finite numbers."""
    if not isinstance(block, list) or not all(isinstance(row, list) for row in block):
        raise DocumentError(f"base matrix block {name} must be a list of rows")
    if len({len(row) for row in block}) > 1:
        raise DocumentError(f"rows of base matrix block {name} differ in length")
    for row in block:
        for x in row:
            if not _finite_number(x):
                # An int beyond binary64 is named by its length, not echoed.
                what = (
                    f"an entry of {len(str(abs(x)))} digits" if type(x) is int else f"entry {x!r}"
                )
                raise DocumentError(f"base matrix block {name} has {what}, not a finite number")
    return block


def load_base_matrix(path: str) -> dict[str, Any]:
    """Read a base matrix file into :func:`canmeas.periods.assemble_base`
    arguments; a file without ``vertex_blocks`` gives no vertex blocks."""
    data = _json_object(_read(path, "base matrix"), "base matrix", _BASE_KEYS)
    vertex_blocks = data.get("vertex_blocks", {})
    if not isinstance(vertex_blocks, dict):
        raise DocumentError("base matrix vertex_blocks must map vertex ids to blocks")
    vertex_blocks = {v: _base_block(f"vertex_blocks[{v!r}]", b) for v, b in vertex_blocks.items()}
    others = {k: _base_block(k, data[k]) for k in ("rank_block", "cross") if data.get(k) is not None}
    return {"vertex_blocks": vertex_blocks, **others}


def exact_field(x: Fraction) -> dict[str, str]:
    # A Fraction or an int already prints as its Fraction does; anything
    # else, a bool included, is made a Fraction first.
    value = x if type(x) in (Fraction, int) else Fraction(x)
    try:
        return {"exact": str(value)}
    except ValueError:  # Python prints ints of at most this many digits
        raise CanmeasError(
            f"a report value has more than {sys.get_int_max_str_digits()} digits, "
            "too many to print"
        ) from None


def float_field(x: float) -> dict[str, str]:
    return {"float": format(float(x), ".17g")}


def measure_section(mu: EdgeMeasure) -> dict[str, Any]:
    return {
        "edge_coefficients": {e: exact_field(x) for e, x in mu.edge_coeffs.items()},
        "vertex_atoms": {v: a for v, a in mu.vertex_atoms.items() if a},
        "edge_mass": exact_field(mu.edge_mass),
        "total_mass": exact_field(mu.total_mass),
    }


def _report_text(x: Any, pad: str) -> str:
    # Containers, each item on its own line indented by pad plus two
    # spaces, then the leaves json writes.
    if isinstance(x, str):
        return _escape(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + "  "
        items = [_escape(k) + ": " + _report_text(v, inner) for k, v in sorted(x.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + "  "
        items = [_report_text(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (math.inf, -math.inf):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def dump_report(report: Mapping[str, Any]) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=True)`` writes
    it, plus a newline.  Keys must be strings; a key or a leaf of another
    type raises TypeError."""
    return _report_text(report, "") + "\n"


def _table_lines(value: Any, label: str, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if set(value) == {"exact"}:
            out.append(f"{pad}{label}: {value['exact']}")
            return
        if set(value) == {"float"}:
            out.append(f"{pad}{label}: {value['float']}")
            return
        out.append(f"{pad}{label}:")
        for key in sorted(value):
            _table_lines(value[key], str(key), indent + 1, out)
        return
    if isinstance(value, list):
        out.append(f"{pad}{label}:")
        for i, item in enumerate(value):
            _table_lines(item, f"[{i}]", indent + 1, out)
        return
    out.append(f"{pad}{label}: {value}")


def render_table(report: Mapping[str, Any]) -> str:
    """Line-per-leaf text rendering of a report, for terminals."""
    lines: list[str] = []
    for key in sorted(report):
        _table_lines(report[key], str(key), 0, lines)
    return "\n".join(lines) + "\n"
