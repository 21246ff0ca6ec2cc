import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canmeas import (
    AugmentedGraph,
    CanmeasError,
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
    parse_rational,
    render_table,
)
from canmeas.families import RATIONAL_DIGITS, oversized_rational
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
            json.dumps(
                {
                    "vertices": [{"id": "u"}],
                    "edges": [{"id": "e1", "ends": ["u", "u"]}],
                }
            )
        )
        assert doc.lengths is None
        assert doc.layering is None
        assert doc.family is None
        assert doc.target is None

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


class TestParseErrors:
    def base(self):
        return json.loads(THETA_TEXT)

    def reject(self, data, pattern):
        with pytest.raises(DocumentError, match=pattern):
            parse_document(data if isinstance(data, str) else json.dumps(data))

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

    def test_vertex_genus_is_bounded_by_its_digits(self):
        def doc(genus):
            return {"vertices": [{"id": "u", "genus": genus}], "edges": []}

        nines = int("9" * 4000)
        assert parse_document(json.dumps(doc(nines))).graph.genus == {"u": nines}
        self.reject(doc(nines + 1), "vertex 'u': genus of more than 4000 digits")
        self.reject(doc(int("9" * 4300)), "vertex 'u': genus of more than 4000 digits")

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

    def test_rationals_are_bounded_by_their_digits(self):
        def doc(length, target="1/2"):
            data = self.base()
            data["edges"][1]["length"] = length
            data["target"]["e2"] = target
            return data

        bound = "more than 4000 digits"
        nines = "9" * 4000
        assert parse_document(json.dumps(doc(f"{nines}/7"))).lengths["e2"] == F(int(nines), 7)
        assert parse_document(json.dumps(doc("1e3999"))).lengths["e2"] == 10**3999
        assert parse_document(json.dumps(doc("1e-3999"))).lengths["e2"] == F(1, 10**3999)
        self.reject(doc(f"{nines}9/7"), f"edge 'e2': rational of {bound}")
        self.reject(doc("1e4000"), bound)
        self.reject(doc("1e-4000"), bound)
        self.reject(doc("1e-2000000"), bound)
        self.reject(doc("1/2", target="1e-5000"), f"edge 'e2': rational of {bound}")
        data = self.base()
        data["family"]["e2"] = "1/1" + "0" * 4000 + "*t"
        self.reject(data, f"edge 'e2': a term has a coefficient or exponent of {bound}")

    def test_json_ints_too_long_to_convert(self):
        text = THETA_TEXT.replace('"genus": 1', '"genus": 1' + "0" * 5000)
        self.reject(text, "invalid JSON in document")

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


def parse_rational_reference(text, where="edge 'e'"):
    """parse_rational as it reads text without its fast path."""
    if oversized_rational(text):
        raise DocumentError(f"{where}: rational of more than {RATIONAL_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"{where}: malformed rational {text!r}") from None


def long_part(digits, zeros=0):
    return "0" * zeros + "7" + "3" * (digits - 1)


rational_texts = st.one_of(
    st.text(alphabet="0123456789/_.-+eE \u0661\u0662\u00b2", max_size=12),
    st.builds(
        lambda sign, num, slash, den, pad: pad + sign + num + slash + den + pad,
        st.sampled_from(["", "-", "+"]),
        st.from_regex(r"[0-9]{1,6}", fullmatch=True),
        st.sampled_from(["", "/"]),
        st.from_regex(r"[0-9]{0,6}", fullmatch=True),
        st.sampled_from(["", " ", "\t"]),
    ),
)


class TestParseRational:
    """parse_rational returns Fraction(text), or refuses the text with the
    message of the reading without its fast path."""

    @settings(max_examples=300, deadline=None)
    @given(rational_texts)
    @example("1/2")
    @example("007/0040")
    @example("0/5")
    @example("5/0")
    @example("0/0")
    @example("\u0661/\u0662")
    @example("\u00b2")
    @example("1_000/3")
    @example("1.5e3")
    @example(" 3/4 ")
    @example("-3/4")
    @example("")
    @example("/")
    @example("1/2/3")
    @example(long_part(RATIONAL_DIGITS))
    @example(long_part(RATIONAL_DIGITS + 1))
    @example(long_part(RATIONAL_DIGITS, zeros=1))
    @example(long_part(RATIONAL_DIGITS + 1, zeros=1))
    @example("1/" + long_part(RATIONAL_DIGITS))
    @example("1/" + long_part(RATIONAL_DIGITS + 1))
    @example(long_part(RATIONAL_DIGITS, zeros=3) + "/" + long_part(RATIONAL_DIGITS, zeros=1))
    @example(long_part(RATIONAL_DIGITS + 1) + "/" + long_part(RATIONAL_DIGITS + 1))
    def test_matches_fraction(self, text):
        try:
            expected = parse_rational_reference(text)
        except DocumentError as err:
            with pytest.raises(DocumentError) as raised:
                parse_rational(text, "edge 'e'")
            assert str(raised.value) == str(err)
        else:
            got = parse_rational(text, "edge 'e'")
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    def test_unknown_keys_are_named_sorted(self):
        doc = json.loads(THETA_TEXT)
        doc["vertices"][1].update(zeta=1, alpha=2, mid=3)
        with pytest.raises(DocumentError) as raised:
            parse_document(json.dumps(doc))
        assert str(raised.value) == "vertex 'v': unknown keys ['alpha', 'mid', 'zeta']"
        doc = json.loads(THETA_TEXT)
        doc["edges"][2].update(weight=1, color=2)
        with pytest.raises(DocumentError) as raised:
            parse_document(json.dumps(doc))
        assert str(raised.value) == "edge 'e3': unknown keys ['color', 'weight']"


class TestMissingSections:
    def bare(self):
        return parse_document(
            json.dumps(
                {
                    "vertices": [{"id": "u"}],
                    "edges": [{"id": "e1", "ends": ["u", "u"]}],
                }
            )
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
            parse_document(json.dumps(data)).tropical()

    def test_length_family_needs_target(self):
        data = json.loads(THETA_TEXT)
        del data["target"]
        with pytest.raises(MissingSection, match="target point"):
            parse_document(json.dumps(data)).length_family()


class TestReportRendering:
    def test_numeric_fields(self):
        assert exact_field(F(4, 5)) == {"exact": "4/5"}
        assert exact_field(F(10, 5)) == {"exact": "2"}
        assert exact_field(-7) == {"exact": "-7"}
        assert exact_field(True) == {"exact": "1"}
        assert exact_field(0.5) == {"exact": "1/2"}
        assert float_field(0.1) == {"float": "0.10000000000000001"}
        assert float_field(2) == {"float": "2"}

    def test_values_too_long_to_print(self):
        assert exact_field(F(1, 10**4299)) == {"exact": "1/1" + "0" * 4299}
        with pytest.raises(CanmeasError, match="more than 4300 digits, too many to print"):
            exact_field(F(1, 10**4300))

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


def json_dumps_report(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# Text with the characters an escaper must get right: quotes, backslashes,
# control characters, and non-ASCII ones inside and outside the BMP.
report_text = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
        st.characters(),
    ),
    max_size=8,
)
report_leaves = st.one_of(
    report_text,
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
)
reports = st.recursive(
    report_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(report_text, inner, max_size=4),
    ),
    max_leaves=20,
)


class TestReportWriter:
    """dump_report writes what json.dumps(indent=2, sort_keys=True) writes."""

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(reports, st.dictionaries(report_text, reports, max_size=4)))
    @example([-0.0, float("nan"), float("inf"), float("-inf"), 10**40, -1, True, None])
    @example({"\u00e9\"\\\n\x00": ["\U0001f600\u2028", {}, []]})
    def test_agrees_with_json(self, value):
        assert dump_report(value) == json_dumps_report(value)

    def test_empty_containers_at_every_depth(self):
        value = {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}], "e": ()}
        assert dump_report(value) == json_dumps_report(value)
        for empty in ([], {}, ()):
            assert dump_report(empty) == json_dumps_report(empty)

    def test_unsupported_values_raise_type_error(self):
        # Report keys are ids and names, always strings.
        for value in (
            {"x": F(1, 2)}, [F(1, 2)], F(1, 2), {"x": {1, 2}}, {1: "a"}, {None: 0},
            [{None: "a"}], {"k": {2: "b"}}, {(1,): "a"}, {"a": 1, 2: "b"},
        ):
            with pytest.raises(TypeError):
                dump_report(value)

    def test_does_not_call_json_dumps(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("json.dumps was called")

        monkeypatch.setattr(json, "dumps", unreachable)
        assert dump_report({"a": [1, {"exact": "1/2"}]}) == (
            '{\n  "a": [\n    1,\n    {\n      "exact": "1/2"\n    }\n  ]\n}\n'
        )

    class Text(str):
        pass

    class Int(int):
        pass

    class Dict(dict):
        pass

    class List(list):
        pass

    @pytest.mark.parametrize(
        "value",
        [
            ["edge %d \u00e9\n" % i for i in range(500)],
            ("a", "b\"", "\U0001f600"),
            list(range(-250, 250)) + [10**40, -(10**40)],
            [1, True, 2],
            [0, False],
            [True, 1],
            ["a", "b", 3, None, ["c"]],
            ["a", {"b": "c"}],
            [1, 2, "x"],
            [1, 2.5],
            {"exact": "1/2"},
            {"float": 0.5},
            {"n": 7},
            {"k": ["x", "y"]},
            {"k": {"exact": "1"}},
            {"k": None},
            {"k": True},
            [{"exact": "1/2"}, {"float": "0.5"}, {}, {"k": 1}],
        ],
        ids=lambda v: repr(v)[:30],
    )
    def test_fast_path_shapes(self, value):
        assert dump_report(value) == json_dumps_report(value)
        assert dump_report({"nested": [value, {"x": value}]}) == json_dumps_report(
            {"nested": [value, {"x": value}]}
        )

    def test_subclasses(self):
        value = self.Dict(
            a=self.List([self.Text("s"), "t"]),
            b=[self.Int(3), 4],
            c=[self.Text("only")],
            d=self.Dict(k=self.Text("v")),
            e={"k": self.Int(5)},
            f=(self.Int(1),),
            g=[4, self.Int(5)],
        )
        assert dump_report(value) == json_dumps_report(value)

    def test_deep_nesting(self):
        value = "leaf"
        for depth in range(300):
            value = [value] if depth % 2 else {"k%d" % depth: value}
        assert dump_report(value) == json_dumps_report(value)
        value = [1, 2]
        for _ in range(300):
            value = [value, 3]
        assert dump_report(value) == json_dumps_report(value)

    def test_ints_too_long_to_print(self):
        big = 10**4300
        with pytest.raises(ValueError) as expected:
            int.__repr__(big)
        for value in (big, [big], [1, big], {"k": big}, {"a": 1, "b": [big]}, ["s", big]):
            with pytest.raises(ValueError) as raised:
                dump_report(value)
            assert str(raised.value) == str(expected.value)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_reports_round_trip(path):
    # Every JSON golden file is a report as dump_report wrote it; read back
    # and written again, it must come out byte for byte.  The .txt golden
    # files are --table renderings, which are not JSON.
    text = path.read_text()
    assert dump_report(json.loads(text)) == text
