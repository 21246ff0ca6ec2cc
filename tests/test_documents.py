import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canmeas import (
    AugmentedGraph,
    DocumentError,
    MissingSection,
    OrderedPartition,
    ScaleFunction,
    dump_report,
    exact_field,
    float_field,
    foster_by_trees,
    load_document,
    measure_section,
    parse_document,
    render_table,
)
from canmeas.gallery import theta_graph

F = Fraction

rationals = st.fractions(min_value=F(1, 99), max_value=99, max_denominator=99)

THETA_TEXT = """
{
  "description": "three parallel edges",
  "vertices": [{"id": "u", "genus": 1, "marks": ["p"]}, {"id": "v"}],
  "edges": [
    {"id": "e1", "ends": ["u", "v"], "length": "1"},
    {"id": "e2", "ends": ["u", "v"], "length": "1/2"},
    {"id": "e3", "ends": ["u", "v"], "length": "1/2"}
  ],
  "layering": [["e1"], ["e2", "e3"]],
  "family": {"e1": "1", "e2": "1/2*t", "e3": "1/2*t"},
  "target": {"e1": "1", "e2": "1/2", "e3": "1/2"}
}
"""


def example_path(name):
    return str(resources.files("canmeas") / "examples" / name)


class TestParsing:
    def test_full_document(self):
        doc = parse_document(THETA_TEXT)
        assert doc.description == "three parallel edges"
        assert doc.graph.vertices == ("u", "v")
        assert doc.graph.genus == {"u": 1, "v": 0}
        assert doc.graph.marks == {"p": "u"}
        assert doc.lengths == {"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)}
        assert doc.layering.parts == (
            frozenset({"e1"}),
            frozenset({"e2", "e3"}),
        )
        assert doc.family["e2"].terms == ((1, F(1, 2)),)
        assert doc.target == {"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)}

    def test_optional_sections_default_to_none(self):
        doc = parse_document(
            {
                "vertices": [{"id": "u"}],
                "edges": [{"id": "e1", "ends": ["u", "u"]}],
            }
        )
        assert doc.lengths is None
        assert doc.layering is None
        assert doc.family is None
        assert doc.target is None
        assert doc.description is None

    def test_bundled_examples_load(self):
        for name in ("theta.json", "triangle.json", "theta_weighted.json"):
            doc = load_document(example_path(name))
            doc.metric()
            doc.tropical()
            doc.length_family()

    def test_missing_file(self):
        with pytest.raises(DocumentError, match="cannot read"):
            load_document("/nonexistent/doc.json")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_documents_round_trip(self, data):
        # Raw JSON written straight from the draws parses to exactly them.
        vertices = [f"v{i}" for i in range(data.draw(st.integers(1, 5)))]
        genus = {v: data.draw(st.integers(0, 2)) for v in vertices}
        vertex = st.sampled_from(vertices)
        ends = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=7))
        ids = data.draw(st.permutations([f"e{i}" for i in range(len(ends))]))

        def per_edge(values):
            return data.draw(st.lists(values, min_size=len(ids), max_size=len(ids)))

        lengths = per_edge(st.tuples(st.integers(1, 99), st.integers(1, 99)))
        layer_of = per_edge(st.integers(0, 3))
        family = dict(zip(ids, zip(per_edge(rationals), per_edge(st.integers(0, 5)))))
        target = dict(zip(ids, per_edge(rationals)))
        layers = [[e for e, j in zip(ids, layer_of) if j == k] for k in range(4)]
        layers = [layer for layer in layers if layer]
        doc = parse_document(
            json.dumps(
                {
                    "vertices": [{"id": v, "genus": genus[v]} for v in vertices],
                    "edges": [
                        {"id": e, "ends": list(uv), "length": f"{p}/{q}"}
                        for e, uv, (p, q) in zip(ids, ends, lengths)
                    ],
                    "layering": layers,
                    "family": {e: f"{x}*t^{a}" for e, (x, a) in family.items()},
                    "target": {e: str(x) for e, x in target.items()},
                }
            )
        )
        assert doc.graph == AugmentedGraph(
            vertices=tuple(vertices), edges=tuple(zip(ids, ends)), genus=genus
        )
        assert doc.lengths == {e: F(p, q) for e, (p, q) in zip(ids, lengths)}
        assert doc.layering == OrderedPartition(parts=tuple(map(frozenset, layers)))
        assert doc.family == {e: ScaleFunction.power(a, x) for e, (x, a) in family.items()}
        assert doc.target == target
        assert doc.description is None


class TestParseErrors:
    def base(self):
        return json.loads(THETA_TEXT)

    def reject(self, data, pattern):
        with pytest.raises(DocumentError, match=pattern):
            parse_document(data)

    def test_invalid_json_text(self):
        self.reject("{not json", "invalid JSON")

    def test_non_object(self):
        self.reject("[1, 2]", "must be a JSON object")

    def test_unknown_document_key(self):
        data = self.base()
        data["metric"] = {}
        self.reject(data, r"unknown document keys \['metric'\]")

    def test_vertices_required(self):
        self.reject({"edges": []}, "nonempty 'vertices'")
        self.reject({"vertices": [], "edges": []}, "nonempty 'vertices'")

    def test_vertex_shape(self):
        self.reject({"vertices": ["u"], "edges": []}, "vertex #0")
        self.reject(
            {"vertices": [{"id": "u", "weight": 1}], "edges": []},
            r"vertex 'u': unknown keys \['weight'\]",
        )

    def test_vertex_genus_must_be_a_count(self):
        for bad in (-1, True, "2", 1.5):
            self.reject(
                {"vertices": [{"id": "u", "genus": bad}], "edges": []},
                "genus must be a nonnegative integer",
            )

    def test_duplicate_mark(self):
        self.reject(
            {
                "vertices": [
                    {"id": "u", "marks": ["p"]},
                    {"id": "v", "marks": ["p"]},
                ],
                "edges": [],
            },
            "mark 'p' appears on more than one vertex",
        )

    def test_edges_list_required(self):
        self.reject({"vertices": [{"id": "u"}]}, "'edges' list")

    def test_edge_shape(self):
        self.reject(
            {"vertices": [{"id": "u"}], "edges": ["e1"]}, "edge #0"
        )
        self.reject(
            {
                "vertices": [{"id": "u"}],
                "edges": [{"id": "e1", "ends": ["u", "u"], "color": "red"}],
            },
            r"edge 'e1': unknown keys \['color'\]",
        )
        self.reject(
            {"vertices": [{"id": "u"}], "edges": [{"id": "e1", "ends": ["u"]}]},
            "exactly two vertices",
        )

    def test_bad_lengths(self):
        def doc(length):
            return {
                "vertices": [{"id": "u"}],
                "edges": [{"id": "e1", "ends": ["u", "u"], "length": length}],
            }

        self.reject(doc("0"), "length must be positive")
        self.reject(doc("-3"), "length must be positive")
        self.reject(doc("1/0"), "edge 'e1': malformed rational '1/0'")
        self.reject(doc("abc"), "malformed rational")
        self.reject(doc(0.5), "rationals must be exact strings")
        self.reject(doc(True), "rationals must be exact strings")

    def test_all_or_no_lengths(self):
        data = self.base()
        del data["edges"][2]["length"]
        self.reject(data, r"missing on \['e3'\]")

    def test_unknown_endpoint(self):
        self.reject(
            {
                "vertices": [{"id": "u"}],
                "edges": [{"id": "e1", "ends": ["u", "w"]}],
            },
            "invalid graph",
        )

    def test_layering_errors(self):
        data = self.base()
        data["layering"] = {"e1": 0}
        self.reject(data, "list of lists")
        data = self.base()
        data["layering"] = [["e1"], ["e2", "e9"]]
        self.reject(data, "unknown edge 'e9'")
        data = self.base()
        data["layering"] = [["e1"], ["e2"]]
        self.reject(data, r"missing \['e3'\]")
        data = self.base()
        data["layering"] = [["e1", "e2"], ["e2", "e3"]]
        self.reject(data, "invalid layering")

    def test_family_errors(self):
        data = self.base()
        data["family"] = ["1", "t"]
        self.reject(data, "'family' must map")
        data = self.base()
        data["family"]["e9"] = "t"
        self.reject(data, "unknown edge 'e9'")
        data = self.base()
        data["family"]["e2"] = "t*t"
        self.reject(data, "edge 'e2'")
        data = self.base()
        data["family"]["e2"] = "1/2*t^-1"
        self.reject(data, "negative exponents are not allowed")

    def test_target_errors(self):
        data = self.base()
        data["target"] = "all ones"
        self.reject(data, "'target' must map")
        data = self.base()
        data["target"]["e9"] = "1"
        self.reject(data, "unknown edge 'e9'")
        data = self.base()
        data["target"]["e2"] = "1/0"
        self.reject(data, "malformed rational")


class TestMissingSections:
    def bare(self):
        return parse_document(
            {
                "vertices": [{"id": "u"}],
                "edges": [{"id": "e1", "ends": ["u", "u"]}],
            }
        )

    def test_each_accessor_names_its_need(self):
        doc = self.bare()
        with pytest.raises(MissingSection, match="edge lengths"):
            doc.metric()
        with pytest.raises(MissingSection, match="layering"):
            doc.require_layering()
        with pytest.raises(MissingSection, match="edge lengths"):
            doc.tropical()
        with pytest.raises(MissingSection, match="length family"):
            doc.length_family()

    def test_tropical_needs_a_layering(self):
        data = json.loads(THETA_TEXT)
        del data["layering"]
        with pytest.raises(MissingSection, match="layering"):
            parse_document(data).tropical()

    def test_length_family_needs_target(self):
        data = json.loads(THETA_TEXT)
        del data["target"]
        with pytest.raises(MissingSection, match="target point"):
            parse_document(data).length_family()


class TestReportRendering:
    def test_numeric_fields(self):
        assert exact_field(F(4, 5)) == {"exact": "4/5"}
        assert exact_field(F(10, 5)) == {"exact": "2"}
        assert float_field(0.1) == {"float": "0.10000000000000001"}
        assert float_field(2) == {"float": "2"}

    def test_measure_section(self):
        from canmeas import MetricGraph

        g = theta_graph(genus=(1, 0))
        mu = foster_by_trees(
            MetricGraph(g, {"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)})
        )
        section = measure_section(mu)
        assert section["edge_coefficients"]["e1"] == {"exact": "4/5"}
        assert section["vertex_atoms"] == {"u": 1}
        assert section["edge_mass"] == {"exact": "2"}
        assert section["total_mass"] == {"exact": "3"}

    def test_dump_report_is_canonical(self):
        report = {"b": [1, 2], "a": {"exact": "1/3"}}
        text = dump_report(report)
        assert text == dump_report({"a": {"exact": "1/3"}, "b": [1, 2]})
        assert text.startswith('{\n  "a"')
        assert text.endswith("\n")

    def test_render_table(self):
        report = {
            "beta": {"float": "0.25"},
            "alpha": {"exact": "1/2"},
            "gamma": {"items": [7, {"exact": "3"}]},
            "ok": True,
        }
        assert render_table(report) == (
            "alpha: 1/2\n"
            "beta: 0.25\n"
            "gamma:\n"
            "  items:\n"
            "    [0]: 7\n"
            "    [1]: 3\n"
            "ok: True\n"
        )
