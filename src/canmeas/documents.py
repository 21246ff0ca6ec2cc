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
:data:`canmeas.families.RATIONAL_DIGITS` digits, judged from its text,
or a vertex genus of more digits.  All optional sections may be omitted;
operations that need a missing section say so; the description is
ignored.  The base matrix file of ``periods --lambda0`` is an object of
optional float blocks, each a list of equal rows of finite numbers:
``vertex_blocks`` (vertex id to block), ``rank_block`` and ``cross``, as
taken by :func:`canmeas.periods.assemble_base`.  Both inputs pass one
check (a JSON object with known keys only), and neither is ever written.

Rationals of ASCII digits, ``p`` or ``p/q`` with at most RATIONAL_DIGITS
characters a part, become ``Fraction(int(p), int(q))`` directly; every
other text takes the digit bound's reading and ``Fraction(text)``.

Reports are serialized canonically, so equal reports are equal byte for
byte: :func:`dump_report` writes exactly what ``json.dumps(report,
indent=2, sort_keys=True)`` writes.  That call would run json's
pure-Python encoder, since the C encoder takes no indent; here one
recursive pass appends fragments to one list, dict items sorted as json
sorts them and strings through json's own C escaper, and joins it once,
so each byte is copied once and not once per level of nesting.

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
from .errors import CanmeasError, DocumentError, MissingSection, excerpt
from .families import RATIONAL_DIGITS, ScaleFunction, oversized_rational, parse_scale
from .graphs import AugmentedGraph
from .layerings import OrderedPartition
from .measures import EdgeMeasure, MetricGraph, TropicalCurve

_DOC_KEYS = frozenset({"description", "vertices", "edges", "layering", "family", "target"})
_BASE_KEYS = frozenset({"vertex_blocks", "rank_block", "cross"})
_VERTEX_KEYS = frozenset({"id", "genus", "marks"})
_EDGE_KEYS = frozenset({"id", "ends", "length"})


def _ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit() and len(text) <= RATIONAL_DIGITS


def parse_rational(value: Any, where: str) -> Fraction:
    if type(value) is str:
        # "p" or "p/q" in ASCII digits needs neither the digit bound's
        # reading nor Fraction's own regex.
        num, slash, den = value.partition("/")
        if _ascii_digits(num) and (not slash or _ascii_digits(den)):
            q = int(den) if slash else 1
            if q:
                return Fraction(int(num), q)
    elif isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"{where}: rationals must be exact strings, got {value!r}")
    text = str(value)
    if oversized_rational(text):
        raise DocumentError(f"{where}: rational of more than {RATIONAL_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        # Any other JSON value prints as its repr.
        shown = excerpt(text, quote=type(value) is str)
        raise DocumentError(f"{where}: malformed rational {shown}") from None


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
    except (OSError, UnicodeDecodeError) as err:
        raise DocumentError(f"cannot read {name} {path}: {err}") from None


def _json_object(text: str, name: str, keys: frozenset[str]) -> dict[str, Any]:
    """Decode a JSON object with keys only from ``keys``; errors name the input."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:  # or nested too deep
        raise DocumentError(f"invalid JSON in {name}: {err}") from None
    except ValueError:  # an int too long to convert
        raise DocumentError(
            f"invalid JSON in {name}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(data, dict):
        raise DocumentError(f"{name} must be a JSON object")
    unknown = data.keys() - keys
    if unknown:
        raise DocumentError(f"unknown {name} keys {sorted(unknown)}")
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
        extra = item.keys() - _VERTEX_KEYS
        if extra:
            raise DocumentError(f"vertex {vid!r}: unknown keys {sorted(extra)}")
        vertices.append(vid)
        gv = item.get("genus", 0)
        if isinstance(gv, bool) or not isinstance(gv, int) or gv < 0:
            raise DocumentError(f"vertex {vid!r}: genus must be a nonnegative integer")
        # JSON decodes no int too long to print, so str(gv) is safe.
        if len(str(gv)) > RATIONAL_DIGITS:
            raise DocumentError(f"vertex {vid!r}: genus of more than {RATIONAL_DIGITS} digits")
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
        extra = item.keys() - _EDGE_KEYS
        if extra:
            raise DocumentError(f"edge {eid!r}: unknown keys {sorted(extra)}")
        ends = item.get("ends")
        if not isinstance(ends, list) or len(ends) != 2:
            raise DocumentError(f"edge {eid!r}: 'ends' must list exactly two vertices")
        edges.append((eid, (str(ends[0]), str(ends[1]))))
        if "length" in item:
            le = parse_rational(item["length"], f"edge {eid!r}")
            if le.numerator <= 0:
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


def _leaf(x: Any) -> str:
    if isinstance(x, str):
        return _escape(x)
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


def _write(x: Any, line: str, head: str, out: list[str]) -> None:
    # Appends head, then x as json writes it after ``line``, the newline
    # and indent of its depth: a container's items on lines of their own,
    # one level deeper.  A str or int list and a one-key dict with a str
    # value are one fragment.
    if isinstance(x, dict):
        if not x:
            out.append(head + "{}")
            return
        inner = line + "  "
        if len(x) == 1:
            [(key, value)] = x.items()
            if type(value) is str:
                out.append(head + "{" + inner + _escape(key) + ": " + _escape(value) + line + "}")
                return
        head += "{" + inner
        sep = "," + inner
        for key, value in sorted(x.items()):
            _write(value, inner, head + _escape(key) + ": ", out)
            head = sep
        out.append(line + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append(head + "[]")
            return
        inner = line + "  "
        sep = "," + inner
        kind = type(x[0])
        if kind is str:
            try:  # the escaper refuses any item that is no str
                out.append(head + "[" + inner + sep.join(map(_escape, x)) + line + "]")
                return
            except TypeError:
                pass
        elif kind is int and all(type(v) is int for v in x):
            out.append(head + "[" + inner + sep.join(map(int.__repr__, x)) + line + "]")
            return
        head += "[" + inner
        for value in x:
            _write(value, inner, head, out)
            head = sep
        out.append(line + "]")
    else:
        out.append(head + _leaf(x))


def dump_report(report: Mapping[str, Any]) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=True)`` writes
    it, plus a newline, from one pass that appends fragments to one list
    and joins it once.  Keys must be strings; a key or a leaf of another
    type raises TypeError, and an int too long to print ValueError."""
    out: list[str] = []
    _write(report, "\n", "", out)
    out.append("\n")
    return "".join(out)


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
