"""JSON documents describing graphs, and deterministic report rendering.

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
are rejected so no binary rounding sneaks into exact lanes.  All
optional sections may be omitted; operations that need a missing section
say so.  Serialization is canonical (sorted keys, fixed indentation), so
equal documents and equal reports are equal byte for byte.

Reports tag every numeric leaf as {"exact": "p/q"} or {"float": "..."},
the float rendered with 17 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .degeneration import LengthFamily
from .errors import CanmeasError, DocumentError, MissingSection
from .families import ScaleFunction, parse_scale
from .graphs import AugmentedGraph
from .layerings import OrderedPartition
from .measures import EdgeMeasure, MetricGraph, TropicalCurve

_DOC_KEYS = {"description", "vertices", "edges", "layering", "family", "target"}


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"{where}: rationals must be exact strings, got {value!r}")
    try:
        return Fraction(str(value))
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
    description: str | None = None

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


def parse_document(source: str | Mapping[str, Any]) -> GraphDocument:
    """Parse a JSON string or already-decoded mapping into a document."""
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as err:
            raise DocumentError(f"invalid JSON: {err}") from None
    else:
        data = source
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    unknown = sorted(set(data) - _DOC_KEYS)
    if unknown:
        raise DocumentError(f"unknown document keys {unknown}")

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

    description = data.get("description")
    if description is not None:
        description = str(description)

    return GraphDocument(
        graph=graph,
        lengths=lengths or None,
        layering=layering,
        family=family,
        target=target,
        description=description,
    )


def load_document(path: str) -> GraphDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from None
    return parse_document(text)


def document_to_data(doc: GraphDocument) -> dict[str, Any]:
    data: dict[str, Any] = {}
    if doc.description is not None:
        data["description"] = doc.description
    data["vertices"] = []
    for v in doc.graph.vertices:
        item: dict[str, Any] = {"id": v}
        if doc.graph.genus[v]:
            item["genus"] = doc.graph.genus[v]
        labels = sorted(l for l, w in doc.graph.marks.items() if w == v)
        if labels:
            item["marks"] = labels
        data["vertices"].append(item)
    data["edges"] = []
    for eid, (u, v) in doc.graph.edges:
        item = {"id": eid, "ends": [u, v]}
        if doc.lengths is not None:
            item["length"] = str(doc.lengths[eid])
        data["edges"].append(item)
    if doc.layering is not None:
        data["layering"] = [sorted(part) for part in doc.layering.parts]
    if doc.family is not None:
        data["family"] = {e: fn.render() for e, fn in sorted(doc.family.items())}
    if doc.target is not None:
        data["target"] = {e: str(x) for e, x in sorted(doc.target.items())}
    return data


def serialize_document(doc: GraphDocument) -> str:
    """Canonical JSON text; parse(serialize(d)) equals d."""
    return json.dumps(document_to_data(doc), indent=2, sort_keys=True) + "\n"


def exact_field(x: Fraction) -> dict[str, str]:
    return {"exact": str(Fraction(x))}


def float_field(x: float) -> dict[str, str]:
    return {"float": format(float(x), ".17g")}


def measure_section(mu: EdgeMeasure) -> dict[str, Any]:
    return {
        "edge_coefficients": {e: exact_field(x) for e, x in mu.edge_coeffs.items()},
        "vertex_atoms": {v: a for v, a in mu.vertex_atoms.items() if a},
        "edge_mass": exact_field(mu.edge_mass),
        "total_mass": exact_field(mu.total_mass),
    }


def dump_report(report: Mapping[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


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
