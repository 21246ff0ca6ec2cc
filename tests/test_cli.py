import collections
import copy
import functools
import json
import operator
import os
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path
from random import Random

import pytest

import canmeas
from canmeas import cli, graphs, periods
from canmeas.cli import main
from canmeas.corpus import layered_family, normalized_coordinates, random_graph, random_layering
from canmeas.errors import excerpt
from canmeas.measures import mass_digits


def example(name):
    return str(resources.files("canmeas") / "examples" / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestMeasureCommand:
    def test_theta_document(self, capsys):
        code, report = run_json(capsys, "measure", "--input", example("theta.json"))
        assert code == 0
        assert report["command"] == "measure"
        assert report["ok"] is True
        assert set(report["measures"]) == {"trees", "projection", "matrix"}
        coeffs = report["measures"]["trees"]["edge_coefficients"]
        assert coeffs == {
            "e1": {"exact": "4/5"},
            "e2": {"exact": "3/5"},
            "e3": {"exact": "3/5"},
        }
        assert report["graph"]["genus"] == 2
        names = {a["name"] for a in report["assertions"]}
        assert names == {
            "formulations_agree",
            "edge_mass_equals_genus",
            "resistance_oracle",
        }
        assert all(a["passed"] for a in report["assertions"])

    def test_single_formulation(self, capsys):
        code, report = run_json(
            capsys,
            "measure",
            "--input",
            example("theta.json"),
            "--formulation",
            "projection",
        )
        assert code == 0
        assert set(report["measures"]) == {"projection"}
        names = {a["name"] for a in report["assertions"]}
        assert "formulations_agree" not in names

    def test_missing_file_is_a_document_error(self, capsys):
        code, out, err = run(capsys, "measure", "--input", "/no/such.json")
        assert code == 2
        assert out == ""
        assert "cannot read" in err

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": "nope"}')
        code, out, err = run(capsys, "measure", "--input", str(path))
        assert code == 2
        assert "vertices" in err

    def test_marks_must_be_a_list(self, capsys, tmp_path):
        doc = json.loads(Path(example("theta.json")).read_text())
        doc["vertices"][0]["marks"] = 5
        path = tmp_path / "marks.json"
        path.write_text(json.dumps(doc))
        for command in ("measure", "trees", "minors", "limit", "periods"):
            code, out, err = run(capsys, command, "--input", str(path))
            assert (code, out) == (2, ""), command
            assert "marks must be a list" in err, command

    def test_first_disagreeing_formulation_is_named(self, capsys, monkeypatch):
        code, report = run_json(capsys, "measure", "--input", example("theta.json"))
        assert {"name": "formulations_agree", "passed": True} in report["assertions"]
        real = cli._FORMULATIONS["matrix"]

        def skewed(m):
            mu = real(m)
            coeffs = dict(mu.edge_coeffs, e2=mu.edge_coeffs["e2"] / 2, e3=Fraction(0))
            return canmeas.EdgeMeasure(mu.metric, coeffs)

        monkeypatch.setitem(cli._FORMULATIONS, "matrix", skewed)
        code, out, err = run(capsys, "measure", "--input", example("theta.json"))
        assert code == 4
        failed = [a for a in json.loads(out)["assertions"] if not a["passed"]]
        assert failed == [
            {
                "name": "formulations_agree",
                "passed": False,
                "edge": "e2",
                "trees": {"exact": "3/5"},
                "matrix": {"exact": "3/10"},
            }
        ]

    def test_resistance_oracle_failure_names_the_edge(self, capsys, monkeypatch):
        real = cli.effective_resistance

        def shifted(g, lengths):
            resistance = real(g, lengths)
            resistance["e3"] += 1
            return resistance

        monkeypatch.setattr(cli, "effective_resistance", shifted)
        code, out, err = run(capsys, "measure", "--input", example("theta.json"))
        assert code == 4
        failed = [a for a in json.loads(out)["assertions"] if not a["passed"]]
        assert failed == [
            {
                "name": "resistance_oracle",
                "passed": False,
                "edge": "e3",
                "measure": {"exact": "3/5"},
                "oracle": {"exact": "-7/5"},
            }
        ]

    def test_one_component_search_per_report(self, capsys, monkeypatch):
        # The report's graph section, the genus, the connectivity checks
        # and the oracle all read the document graph's components; only
        # the first reader searches for them.  theta.json has six half
        # edges; the cycle-basis walks search spanning trees with two.
        full = []

        def counted(adjacent, roots, search=graphs.search_forest):
            full.append(sum(map(len, adjacent.values())) == 6)
            return search(adjacent, roots)

        monkeypatch.setattr(graphs, "search_forest", counted)
        code, out, err = run(capsys, "measure", "--input", example("theta.json"))
        assert code == 0
        assert full.count(True) == 1

    @pytest.mark.parametrize("length", ["1e-2000000", "1e200000", "1e-4400", "1/1" + "0" * 4000])
    def test_lengths_of_too_many_digits_are_document_errors(self, capsys, tmp_path, length):
        # Refused from the text: 1e-2000000 used to run without end.
        doc = json.loads(Path(example("theta.json")).read_text())
        doc["edges"][1]["length"] = length
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measure", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: edge 'e2': rational of more than {cli.RATIONAL_DIGITS} digits\n"

    @staticmethod
    def complete_graph_document(tmp_path, n, digits, seed=1):
        """K_n with lengths of ``digits``-digit numerators and denominators."""
        rng = Random(seed)

        def part():
            return rng.randrange(10 ** (digits - 1), 10**digits)

        ids = [(i, j) for i in range(n) for j in range(i + 1, n)]
        doc = {
            "vertices": [{"id": f"v{i}"} for i in range(n)],
            "edges": [
                {"id": f"e{i}{j}", "ends": [f"v{i}", f"v{j}"], "length": f"{part()}/{part()}"}
                for i, j in ids
            ],
        }
        path = tmp_path / f"k{n}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_results_too_long_to_print_are_precondition_errors(self, capsys, tmp_path):
        # K6 with 300-digit numerators and denominators: the masses stay
        # under the digit budget (measures.mass_digits bounds them by 8,998
        # digits, both parts together) but pass Python's 4,300-digit limit
        # for printing an int.
        path = self.complete_graph_document(tmp_path, 6, 300)
        code, out, err = run(capsys, "measure", "--formulation", "matrix", "--input", path)
        assert (code, out) == (3, "")
        assert err == "error: a report value has more than 4300 digits, too many to print\n"

    @pytest.mark.parametrize("n, digits, bound", [(5, 1000, 19994), (6, 3999, 119966)])
    def test_masses_over_the_digit_budget_are_refused_before_any_elimination(
        self, capsys, tmp_path, monkeypatch, n, digits, bound
    ):
        def unreachable(*args):
            raise AssertionError("an elimination ran")

        for name in list(cli._FORMULATIONS):
            monkeypatch.setitem(cli._FORMULATIONS, name, unreachable)
        monkeypatch.setattr(cli, "tree_count", unreachable)
        path = self.complete_graph_document(tmp_path, n, digits)
        code, out, err = run(capsys, "measure", "--formulation", "all", "--input", path)
        assert (code, out) == (3, "")
        assert err == (
            f"error: masses may need up to {bound} digits, "
            f"over the budget of {cli.LENGTH_DIGITS_BUDGET}\n"
        )

    @staticmethod
    def short_mass_document(shape):
        """Long lengths whose masses are short, and the mass of edge e0."""
        if shape == "equal":
            # K4, six equal lengths of 3,999-digit parts: over their gcd,
            # all ones.
            ends = [(i, j) for i in range(4) for j in range(i + 1, 4)]
            lengths = [Fraction(10**3999 - 1, 10**3999 - 3)] * len(ends)
            mass = Fraction(1, 2)
        else:
            # A 10-edge cycle of 600-digit and an 11-vertex path of
            # 1,000-digit integers: each tree weight multiplies only
            # h = 1 or 0 lengths, though all of them have 6,000 and
            # 10,000 digits.
            closed = shape == "cycle"
            n, digits = (10, 600) if closed else (11, 1000)
            ends = [(i, (i + 1) % n) for i in range(n if closed else n - 1)]
            rng = Random(2)
            lengths = [Fraction(rng.randrange(10 ** (digits - 1), 10**digits)) for _ in ends]
            mass = lengths[0] / sum(lengths) if closed else Fraction(0)
        doc = {
            "vertices": [{"id": f"v{i}"} for i in sorted({v for e in ends for v in e})],
            "edges": [
                {"id": f"e{k}", "ends": [f"v{i}", f"v{j}"], "length": str(x)}
                for k, ((i, j), x) in enumerate(zip(ends, lengths))
            ],
        }
        return doc, mass

    @pytest.mark.parametrize("shape", ["equal", "cycle", "path"])
    def test_long_lengths_of_short_masses_pass_the_digit_budget(self, capsys, tmp_path, shape):
        doc, mass = self.short_mass_document(shape)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measure", "--input", str(path))
        assert (code, err) == (0, "")
        for name in ("trees", "projection", "matrix"):
            coeffs = json.loads(out)["measures"][name]["edge_coefficients"]
            assert Fraction(coeffs["e0"]["exact"]) == mass, name

    # Input files json cannot decode: (bytes, start of the message).
    UNDECODABLE = {
        "not_utf8": (
            b"\xff{}",
            "cannot read {name} {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n",
        ),
        "nested_too_deep": (
            b"[" * 100_000 + b"]" * 100_000,
            "invalid JSON in {name}: maximum recursion depth exceeded",
        ),
    }

    @pytest.mark.parametrize("command", ["measure", "periods"])
    @pytest.mark.parametrize("fault", UNDECODABLE)
    def test_undecodable_inputs_are_document_errors(self, capsys, tmp_path, command, fault):
        content, message = self.UNDECODABLE[fault]
        path = tmp_path / f"{fault}.json"
        path.write_bytes(content)
        if command == "measure":
            name, argv = "document", ["--input", str(path)]
        else:
            name = "base matrix"
            argv = ["--input", example("theta_weighted.json"), "--lambda0", str(path)]
        code, out, err = run(capsys, command, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message.format(name=name, path=path))

    def test_lengths_required(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [{"id": "u"}],
                    "edges": [{"id": "e1", "ends": ["u", "u"]}],
                }
            )
        )
        code, out, err = run(capsys, "measure", "--input", str(path))
        assert code == 3
        assert "edge lengths" in err

    def test_disconnected_graph_exits_3(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        doc = {
            "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
            "edges": [
                {"id": "e", "ends": ["a", "b"], "length": "1"},
                {"id": "l", "ends": ["c", "c"], "length": "2"},
            ],
        }
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measure", "--formulation", "matrix", "--input", str(path))
        assert (code, out, err) == (3, "", "error: canonical measure requires a connected graph\n")


class TestTreesCommand:
    def test_triangle(self, capsys):
        code, report = run_json(capsys, "trees", "--input", example("triangle.json"))
        assert code == 0
        assert report["count"] == 3
        assert report["matrix_tree_count"] == 3
        assert sorted(report["trees"]) == [
            ["e1", "e2"],
            ["e1", "e3"],
            ["e2", "e3"],
        ]


class TestMinorsCommand:
    def test_theta(self, capsys):
        code, report = run_json(capsys, "minors", "--input", example("theta.json"))
        assert code == 0
        assert report["genus_vector"] == [1, 1]
        assert report["layered_tree_count"] == 2
        assert [layer["tree_count"] for layer in report["layers"]] == [1, 2]
        assert report["admissible_basis"] == [
            [{"e1": 1, "e2": -1}],
            [{"e2": -1, "e3": 1}],
        ]
        assert report["tropical_measure"]["edge_coefficients"]["e1"] == {
            "exact": "1"
        }
        names = [a["name"] for a in report["assertions"]]
        assert "hybrid_total_mass_equals_total_genus" in names

    def test_tropical_masses_over_the_digit_budget_name_the_minor(self, capsys, tmp_path):
        # K6 in one layer, lengths x_e / sum(x) with random 3,999-digit x_e:
        # every input bound holds, and the tropical measure used to run for
        # seconds before its masses proved too long to print.
        rng = Random(3)
        ids = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        xs = [rng.randrange(10**3998, 10**3999) for _ in ids]
        total = sum(xs)
        doc = {
            "vertices": [{"id": f"v{i}"} for i in range(6)],
            "edges": [
                {"id": f"e{i}{j}", "ends": [f"v{i}", f"v{j}"], "length": str(Fraction(x, total))}
                for (i, j), x in zip(ids, xs)
            ],
            "layering": [[f"e{i}{j}" for i, j in ids]],
        }
        path = tmp_path / "k6.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "minors", "--input", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err.startswith("error: masses of graded minor 0 may need up to ")
        assert err.endswith(f" digits, over the budget of {cli.LENGTH_DIGITS_BUDGET}\n")

    def test_curve_refused_exactly_when_a_minor_bound_is_over_the_budget(self, monkeypatch):
        # With the budget drawn around the largest exact bound of the
        # minors, the curve is refused exactly when that bound is over it.
        for seed in range(150):
            rng = Random(seed)
            g = random_graph(rng, max_vertices=6, max_edges=10)
            if not g.edges:
                continue
            p = random_layering(rng, g)
            lengths = {}
            for part in p.parts:
                xs = {e: rng.randint(1, 10 ** rng.randint(1, 40)) for e in part}
                lengths.update({e: Fraction(x, sum(xs.values())) for e, x in xs.items()})
            curve = canmeas.TropicalCurve(g, lengths, p)
            pairs = curve.metric.integer_lengths
            exact = max(mass_digits(minor, pairs) for minor in curve.minors.minors)
            budget = rng.randint(exact // 2, 4 * exact)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "LENGTH_DIGITS_BUDGET", budget)
                try:
                    cli._require_minor_digits(curve)
                except canmeas.CanmeasError:
                    refused = True
                else:
                    refused = False
            assert refused == (exact > budget), seed

    def test_layering_required(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        doc = json.loads(Path(example("theta.json")).read_text())
        del doc["layering"]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "minors", "--input", str(path))
        assert code == 3
        assert "layering" in err


class TestLimitCommand:
    def test_theta_defaults(self, capsys):
        code, report = run_json(capsys, "limit", "--input", example("theta.json"))
        assert code == 0
        assert len(report["grid"]) == 6
        assert report["targets"]["e2"] == {"exact": "1/2"}
        limits = {tuple(item["tree"]): item["limit"] for item in report["tree_limits"]}
        assert limits == {
            ("e1",): {"exact": "0"},
            ("e2",): {"exact": "1/2"},
            ("e3",): {"exact": "1/2"},
        }
        assert {a["name"] for a in report["assertions"]} == {
            "edge_mass_equals_genus_on_grid",
            "deviations_monotone",
            "tree_weight_dichotomy",
        }

    def test_grid_forms(self, capsys):
        code, report = run_json(
            capsys, "limit", "--input", example("theta.json"), "--grid", "1e-1..1e-3"
        )
        assert code == 0
        assert [g["exact"] for g in report["grid"]] == ["1/10", "1/100", "1/1000"]
        code, report = run_json(
            capsys, "limit", "--input", example("theta.json"), "--grid", "1/2,1/4"
        )
        assert code == 0
        assert [g["exact"] for g in report["grid"]] == ["1/2", "1/4"]

    def test_bad_grids(self, capsys):
        for grid in ("abc", "1/4,1/2", "0,1", "-1", "1e-3..1e-1", "1e-0..1e-2"):
            code, out, err = run(
                capsys, "limit", "--input", example("theta.json"), "--grid", grid
            )
            assert code == 2, grid

    @pytest.mark.parametrize(
        "command, grid",
        [("limit", "1e-5000"), ("limit", "1e-1..1e-5000"), ("periods", "1e-5000")],
    )
    def test_grid_points_too_long_to_print_are_bad_grids(self, capsys, command, grid):
        code, out, err = run(capsys, command, "--input", example("theta.json"), "--grid", grid)
        assert (code, out) == (2, "")
        assert err == (
            f"error: bad --grid: point 1e-5000 has more than {cli.RATIONAL_DIGITS} digits\n"
        )

    def test_grid_digit_bounds(self, capsys, monkeypatch):
        theta = example("theta.json")
        # 1e-N has N + 1 digits, so 1e-3999 is the smallest decade accepted.
        code, out, err = run(capsys, "limit", "--input", theta, "--grid", "1/2,1e-4000")
        assert (code, out) == (2, "") and "point 1e-4000 has more" in err
        code, out, err = run(capsys, "periods", "--input", theta, "--grid", "1/2,1e-3999")
        assert (code, out) == (3, "")
        assert err == (
            f"error: the length of edge 'e1' at t = 1/1{'0' * 37}... (4002 characters) needs "
            f"up to 15998 digits, "
            f"over the budget of {cli.LENGTH_DIGITS_BUDGET}\n"
        )
        code, out, err = run(capsys, "limit", "--input", theta, "--grid", "1e4000")
        assert (code, out) == (2, "") and "point 1e4000 has more" in err
        # Decade exponents too long to convert to an int are still read.
        huge = "9" * 5000
        code, out, err = run(capsys, "limit", "--input", theta, "--grid", f"1e-{huge}..1e-2")
        assert (code, out) == (2, "")
        assert err == "error: bad --grid: grid exponents must satisfy 1 <= first <= last\n"

        # The decades form is refused before its points are built.
        def unreachable(first, last):
            raise AssertionError("the decades were built")

        monkeypatch.setattr(cli, "geometric_grid", unreachable)
        code, out, err = run(capsys, "limit", "--input", theta, "--grid", f"1e-1..1e-{huge}")
        assert (code, out) == (2, "")
        assert err == (
            f"error: bad --grid: point 1e-{'9' * 37}... (5003 characters) has more than "
            f"{cli.RATIONAL_DIGITS} digits\n"
        )

    def test_fibre_masses_over_the_digit_budget_are_refused(self, capsys, tmp_path, monkeypatch):
        # K6 in two layers, the second shrinking like t^5, at a grid point
        # of two 990-digit parts: every length is under the budget, but the
        # fibre masses may need more digits, and measuring them took
        # seconds.  Refused before any tree or fibre is measured.
        def unreachable(*args):
            raise AssertionError("a tree or a fibre was measured")

        monkeypatch.setattr(cli, "tree_limits", unreachable)
        monkeypatch.setattr(cli, "limit_foster", unreachable)
        ids = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        layers = [[f"e{i}{j}" for i, j in ids[:8]], [f"e{i}{j}" for i, j in ids[8:]]]
        doc = {
            "vertices": [{"id": f"v{i}"} for i in range(6)],
            "edges": [
                {"id": f"e{i}{j}", "ends": [f"v{i}", f"v{j}"], "length": "1/8" if k < 8 else "1/7"}
                for k, (i, j) in enumerate(ids)
            ],
            "layering": layers,
            "family": {**{e: "1/8" for e in layers[0]}, **{e: "1/7*t^5" for e in layers[1]}},
            "target": {**{e: "1/8" for e in layers[0]}, **{e: "1/7" for e in layers[1]}},
        }
        path = tmp_path / "k6.json"
        path.write_text(json.dumps(doc))
        rng = Random(4)
        t = Fraction(rng.randrange(10**989, 10**990), rng.randrange(10**989, 10**990)) / 10
        start = time.perf_counter()
        code, out, err = run(capsys, "limit", "--input", str(path), "--grid", f"{t},{t / 7}")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        shown = f"{str(t)[:40]}... ({len(str(t))} characters)"
        assert err.startswith(f"error: masses at t = {shown} may need up to ")
        assert err.endswith(f" digits, over the budget of {cli.LENGTH_DIGITS_BUDGET}\n")

    def test_long_lengths_of_short_fibre_masses_pass(self, capsys, tmp_path):
        # K4 in one layer at 1/6*t^1200: lengths of about 7,200 digits at
        # t = 1e-6, but over their gcd all ones, so the masses are short.
        ids = [f"e{i}{j}" for i in range(4) for j in range(i + 1, 4)]
        doc = {
            "vertices": [{"id": f"v{i}"} for i in range(4)],
            "edges": [{"id": e, "ends": [f"v{e[1]}", f"v{e[2]}"], "length": "1/6"} for e in ids],
            "layering": [ids],
            "family": dict.fromkeys(ids, "1/6*t^1200"),
            "target": dict.fromkeys(ids, "1/6"),
        }
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "limit", "--input", str(path))
        assert code == 0 and report["ok"]

    def test_fibre_digit_screen_takes_the_exact_bound_where_it_may_be_over(self, monkeypatch):
        # With the budget drawn around the exact bound of one grid point,
        # the point is refused exactly when that bound is over it, whether
        # or not the screen let the exact bound be skipped.
        calls = []

        def counted(g, lengths):
            calls.append(g)
            return mass_digits(g, lengths)

        monkeypatch.setattr(cli, "mass_digits", counted)
        exact_taken = []
        for seed in range(150):
            rng = Random(seed)
            g = random_graph(rng, max_vertices=6, max_edges=10)
            if not g.edges:
                continue
            p = random_layering(rng, g)
            exponents = sorted(rng.sample(range(60), len(p.parts)))
            family = layered_family(g, p, normalized_coordinates(rng, p), exponents)
            t = Fraction(rng.randint(1, 10 ** rng.randint(1, 30)), 10**31)
            totals = cli._require_length_budget(family, (t,))
            exact = mass_digits(g, family.integer_lengths_at(t))
            budget = rng.randint(exact // 2, 2 * exact)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(cli, "LENGTH_DIGITS_BUDGET", budget)
                try:
                    cli._require_fibre_digits(family, (t,), totals)
                except canmeas.CanmeasError:
                    refused = True
                else:
                    refused = False
            assert refused == (exact > budget), seed
            exact_taken.append(len(calls) == 2)
        assert any(exact_taken) and not all(exact_taken)

    def test_convergence_is_checked_once(self, capsys, monkeypatch):
        calls = []
        real = canmeas.degeneration.check_convergence

        def counted(family):
            calls.append(family)
            return real(family)

        monkeypatch.setattr(canmeas.degeneration, "check_convergence", counted)
        code, report = run_json(capsys, "limit", "--input", example("theta.json"))
        assert code == 0 and report["ok"]
        assert len(calls) == 1

    @pytest.mark.parametrize("table", [False, True])
    def test_a_tree_limit_too_long_to_print_exits_3(self, capsys, tmp_path, table):
        # theta.json in one layer, with coefficients of two 1,300-digit
        # parts and targets c_i / sum(c) of 3,899 or 3,900 digits a part,
        # within the parser's bound; the tree limits pass 4,300 digits,
        # which are found only as the report is written.
        rng = Random(0)
        digits = (10**1299, 10**1300)
        coeffs = [Fraction(rng.randrange(*digits), rng.randrange(*digits)) for _ in range(3)]
        total = sum(coeffs)
        doc = json.loads(Path(example("theta.json")).read_text())
        for edge in doc["edges"]:
            del edge["length"]
        doc["layering"] = [["e1", "e2", "e3"]]
        doc["family"] = {f"e{i}": str(c) for i, c in enumerate(coeffs, 1)}
        doc["target"] = {f"e{i}": str(c / total) for i, c in enumerate(coeffs, 1)}
        path = tmp_path / "long_limits.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "limit", "--input", str(path), *(["--table"] if table else []))
        assert (code, out) == (3, "")
        assert err == "error: a report value has more than 4300 digits, too many to print\n"

    def test_tree_limits_are_in_sorted_order(self, capsys):
        for path in (example("theta.json"), str(FIXTURES / "layered_grid.json")):
            code, report = run_json(capsys, "limit", "--input", path)
            assert code == 0
            trees = [row["tree"] for row in report["tree_limits"]]
            assert trees == sorted(trees) and len(trees) > 2, path

    def test_tree_limits_past_bit_63(self, capsys, tmp_path):
        # A 70-edge cycle with a chord across it: 71 edges, genus 2 and
        # 35 * 35 + 70 = 1,295 trees, so the masks run past bit 63.  The
        # chord and one half of the cycle are the first layer, and the
        # other half shrinks like t.
        n = 70
        ends = [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)]
        ids = [f"e{k:02d}" for k in range(len(ends))]
        # Shuffled, so a layer's bits are spread over the mask.
        Random(0).shuffle(ids)
        first, second = ids[: n // 2] + ids[n:], ids[n // 2 : n]
        doc = {
            "vertices": [{"id": f"v{i:02d}"} for i in range(n)],
            "edges": [
                {"id": e, "ends": [f"v{a:02d}", f"v{b:02d}"], "length": "1"}
                for e, (a, b) in zip(ids, ends)
            ],
            "layering": [first, second],
            "family": {**dict.fromkeys(first, "1/36"), **dict.fromkeys(second, "1/35*t")},
            "target": {**dict.fromkeys(first, "1/36"), **dict.fromkeys(second, "1/35")},
        }
        path = tmp_path / "chord.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "limit", "--input", str(path))
        assert code == 0
        assert {"name": "tree_weight_dichotomy", "passed": True} in report["assertions"]
        trees = graphs.spanning_trees(canmeas.load_document(str(path)).graph)
        assert len(trees) == 1295
        assert [row["tree"] for row in report["tree_limits"]] == [sorted(t) for t in trees]

    def test_dichotomy_failure_names_the_first_tree(self, capsys, monkeypatch):
        code, report = run_json(capsys, "limit", "--input", example("theta.json"))
        assert {"name": "tree_weight_dichotomy", "passed": True} in report["assertions"]
        real = cli.tree_limits

        def corrupted(family):
            # The trees {e3} and {e2}, as masks: bit i is the i-th edge id.
            limits = real(family)
            limits[0b100] += 1
            limits[0b010] += 2
            return limits

        monkeypatch.setattr(cli, "tree_limits", corrupted)
        code, out, err = run(capsys, "limit", "--input", example("theta.json"))
        assert code == 4
        failed = [a for a in json.loads(out)["assertions"] if not a["passed"]]
        assert failed == [
            {
                "name": "tree_weight_dichotomy",
                "passed": False,
                "tree": ["e2"],
                "limit": {"exact": "5/2"},
                "closed_form": {"exact": "1/2"},
            }
        ]

    def test_dichotomy_failure_sorts_the_failing_tree(self, capsys, monkeypatch):
        real = cli.tree_limits
        broken = []

        def corrupted(family):
            limits = real(family)
            broken.append(list(limits)[-1])
            limits[broken[0]] += 1
            return limits

        monkeypatch.setattr(cli, "tree_limits", corrupted)
        path = str(FIXTURES / "layered_grid.json")
        code, out, err = run(capsys, "limit", "--input", path)
        assert code == 4
        failed = [a for a in json.loads(out)["assertions"] if not a["passed"]]
        edge_ids = canmeas.load_document(path).graph.edge_ids
        tree = [e for i, e in enumerate(edge_ids) if broken[0] >> i & 1]
        assert [a["tree"] for a in failed] == [sorted(tree)]
        assert broken[0].bit_count() == 8

    def test_huge_scale_exponents_are_refused_before_the_exact_power(
        self, capsys, tmp_path, monkeypatch
    ):
        # At t = 1/10, t^1000000 has a million digits: the length sizes
        # are bounded by logarithms before any exact power is taken.
        doc = json.loads(Path(example("theta.json")).read_text())
        doc["family"]["e2"] = doc["family"]["e3"] = "1/2*t^1000000"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))

        def unreachable(self, t):
            raise AssertionError("a scale function was evaluated")

        with monkeypatch.context() as patch:
            patch.setattr(canmeas.families.ScaleFunction, "evaluate_pair", unreachable)
            code, out, err = run(capsys, "limit", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == (
            "error: the length of edge 'e2' at t = 1/10 needs up to 1000003 digits, "
            f"over the budget of {cli.LENGTH_DIGITS_BUDGET}\n"
        )
        # The budget holds at every grid point: t^1500 has 4,500 digits
        # at t = 1e-3, and 10,500 at 1e-7.
        doc["family"]["e2"] = doc["family"]["e3"] = "1/2*t^1500"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "limit", "--input", str(path), "--grid", "1e-1..1e-3")
        assert code == 0 and json.loads(out)["ok"]
        code, out, err = run(capsys, "limit", "--input", str(path), "--grid", "1/2,1/10000000")
        assert code == 3
        assert err.startswith("error: the length of edge 'e2' at t = 1/10000000 needs up to 10503 digits")

    @pytest.mark.parametrize(
        "section, value, code, message",
        [
            ("target", "1e-5000", 2, "edge 'e2': rational of more than 4000 digits"),
            ("family", "1" + "0" * 5000 + "*t", 2, "a coefficient or exponent of more than"),
            ("family", "t^" + "9" * 5000, 2, "a coefficient or exponent of more than"),
            # An exponent within the digit bound but beyond binary64.
            ("family", "t^" + "9" * 400, 3, "at t = 1/10 needs more than 10^308 digits"),
        ],
    )
    def test_oversized_family_numbers_end_in_a_documented_exit(
        self, capsys, tmp_path, section, value, code, message
    ):
        doc = json.loads(Path(example("theta.json")).read_text())
        doc[section]["e2"] = value
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        got, out, err = run(capsys, "limit", "--input", str(path))
        assert (got, out) == (code, "")
        assert message in err

    def test_divergent_family(self, capsys, tmp_path):
        doc = json.loads(Path(example("theta.json")).read_text())
        doc["family"]["e2"] = "1/3*t"
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "limit", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == (
            "error: family does not converge to its target (within_layer): normalized "
            "length of edge 'e2' in layer 1 tends to 2/5, target says 1/2\n"
        )


class TestPeriodsCommand:
    def test_theta_defaults(self, capsys):
        code, report = run_json(capsys, "periods", "--input", example("theta.json"))
        assert code == 0
        assert report["scales"] == ["t^-4", "t^-2"]
        assert report["block_sizes"] == [1, 1]
        assert report["monodromy"]["e2"] == [[1, 1], [1, 1]]
        assert report["layer_targets"] == [
            [[{"exact": "1"}]],
            [[{"exact": "1"}]],
        ]
        assert {a["name"] for a in report["assertions"]} == {
            "gram_consistency",
            "oracle_agreement",
            "diagonal_limits",
        }

    def test_padded_document(self, capsys):
        code, report = run_json(
            capsys, "periods", "--input", example("theta_weighted.json")
        )
        assert code == 0
        assert report["block_sizes"] == [1, 1, 2]
        names = {a["name"] for a in report["assertions"]}
        assert "pad_limit" in names

    def test_base_matrix_file(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(
            json.dumps(
                {
                    "vertex_blocks": {"u": [[2.0]], "v": [[1.5]]},
                    "rank_block": [[0.5, 0.0], [0.0, 0.25]],
                    "cross": [[0.1, 0.0], [0.0, 0.2]],
                }
            )
        )
        code, report = run_json(
            capsys,
            "periods",
            "--input",
            example("theta_weighted.json"),
            "--lambda0",
            str(base),
        )
        assert code == 0

    def test_bad_base_matrix_files(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"vertex_blocks": {}, "extra": 1}))
        code, out, err = run(
            capsys,
            "periods",
            "--input",
            example("theta_weighted.json"),
            "--lambda0",
            str(bogus),
        )
        assert code == 2
        assert "unknown base matrix keys" in err
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"vertex_blocks": {}}))
        code, out, err = run(
            capsys,
            "periods",
            "--input",
            example("theta_weighted.json"),
            "--lambda0",
            str(empty),
        )
        assert code == 3
        assert "no base block" in err

    @pytest.mark.parametrize(
        "document, blocks, vertex",
        [
            ("theta_weighted.json", {"u": [[2.0]], "v": [[1.5]], "nope": [[7.0]]}, "nope"),
            ("theta.json", {"u": [[7.0]]}, "u"),  # genus 0
        ],
    )
    def test_base_blocks_of_other_vertices_are_refused(
        self, capsys, tmp_path, document, blocks, vertex
    ):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"vertex_blocks": blocks}))
        code, out, err = run(
            capsys, "periods", "--input", example(document), "--lambda0", str(path)
        )
        assert (code, out) == (3, "")
        assert err == f"error: base block given for {vertex!r}, not a vertex of positive genus\n"

    def test_base_matrix_entries_must_be_finite_numbers(self, capsys, tmp_path):
        good = {"vertex_blocks": {"u": [[2.0]], "v": [[1.5]]}}
        bad = {
            "word": dict(good, rank_block=[["x", 0.0], [0.0, 1.0]]),
            "nan": dict(good, rank_block=[[float("nan"), 0.0], [0.0, 1.0]]),
            "vertex_nan": {"vertex_blocks": {"u": [[2.0]], "v": [[float("nan")]]}},
            # An int beyond binary64, which math.isfinite cannot convert.
            "vertex_huge": {"vertex_blocks": {"u": [[2.0]], "v": [[10**400]]}},
        }
        for name, data in bad.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            code, out, err = run(
                capsys,
                "periods",
                "--input",
                example("theta_weighted.json"),
                "--lambda0",
                str(path),
            )
            assert code == 2, name
            assert out == "", name
            assert ("'v'" if name.startswith("vertex") else "rank_block") in err, name
            assert "not a finite number" in err, name
            if name == "vertex_huge":  # named by its digit count, not echoed
                assert err == (
                    "error: base matrix block vertex_blocks['v'] has an entry of 401 "
                    "digits, not a finite number\n"
                )

    # Base matrix files the reader refuses: (text, or None for no file; message).
    BAD_BASE_FILES = {
        "missing": (None, "cannot read"),
        "json": ("{not json", "invalid JSON in"),
        "object": ("[1, 2]", "must be a JSON object"),
        "vertex_blocks": (
            '{"vertex_blocks": [[1.0]]}',
            "vertex_blocks must map vertex ids to blocks",
        ),
        "rows": (
            '{"vertex_blocks": {"u": [1.0], "v": [[1.0]]}}',
            "base matrix block vertex_blocks['u'] must be a list of rows",
        ),
        "ragged": (
            '{"rank_block": [[1.0, 0.0], [1.0]]}',
            "rows of base matrix block rank_block differ in length",
        ),
        # json refuses to convert an int of more than 4,300 digits; the
        # message gives no advice a command line user cannot act on.
        "long_int": (
            '{"rank_block": [[1' + "0" * 5000 + "]]}",
            "error: invalid JSON in base matrix: an integer has more than 4300 digits\n",
        ),
    }

    @pytest.mark.parametrize("name", BAD_BASE_FILES)
    def test_unreadable_base_matrix_files(self, capsys, tmp_path, name):
        text, message = self.BAD_BASE_FILES[name]
        path = tmp_path / f"{name}.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run(
            capsys, "periods", "--input", example("theta_weighted.json"), "--lambda0", str(path)
        )
        assert (code, out) == (2, "")
        assert message in err
        assert "base matrix" in err

    def test_layering_without_target_is_a_precondition_error(self, capsys, tmp_path):
        data = json.loads(Path(example("theta.json")).read_text())
        del data["target"]
        path = tmp_path / "untargeted.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "periods", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == "error: period models need a target point in the document\n"

    def test_reports_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Set iteration order follows the string hash seed, so summing the
        # edge terms in a layer's set order moved the float fields.
        vertices = [f"v{i}{j}" for i in range(3) for j in range(3)]
        edges = [
            (f"h{i}{j}", [f"v{i}{j}", f"v{i}{j + 1}"]) for i in range(3) for j in range(2)
        ]
        edges += [
            (f"w{i}{j}", [f"v{i}{j}", f"v{i + 1}{j}"]) for i in range(2) for j in range(3)
        ]
        parts = [[e for e, _ in edges[:7]], [e for e, _ in edges[7:]]]
        target = {}
        for part in parts:
            total = len(part) * (len(part) + 1) // 2
            target.update({e: f"{k}/{total}" for k, e in enumerate(part, 1)})
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [{"id": v} for v in vertices],
                    "edges": [{"id": e, "ends": ends} for e, ends in edges],
                    "layering": parts,
                    "target": target,
                }
            )
        )
        outs = set()
        for hash_seed in ("1", "2", "3", "4"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=str(Path(canmeas.__file__).parents[1]),
            )
            done = subprocess.run(
                [sys.executable, "-m", "canmeas.cli", "periods", "--input", str(path)],
                env=env,
                capture_output=True,
                check=True,
            )
            outs.add(done.stdout)
        assert len(outs) == 1

    def test_scale_validation(self, capsys):
        code, out, err = run(
            capsys, "periods", "--input", example("theta.json"), "--scales", "1,2"
        )
        assert code == 3
        # The order of the scales is the family's convergence, checked once.
        assert "(cross_layer)" in err
        code, out, err = run(
            capsys, "periods", "--input", example("theta.json"), "--scales", "3,2,1"
        )
        assert code == 3
        code, out, err = run(
            capsys, "periods", "--input", example("theta.json"), "--scales", "a,b"
        )
        assert code == 2

    def test_slow_scales_fail_the_tolerance(self, capsys):
        # With adjacent layer scales one power of t apart, the rescaled
        # diagonal error decays like t and misses 1e-6 at the default
        # final point 1e-5; the command must report that honestly.
        code, out, err = run(
            capsys, "periods", "--input", example("theta.json"), "--scales", "2,1"
        )
        assert code == 4
        report = json.loads(out)
        failed = {a["name"] for a in report["assertions"] if not a["passed"]}
        assert failed == {"diagonal_limits"}

    def test_genus_zero_document_is_a_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [{"id": "u"}, {"id": "v"}],
                    "edges": [{"id": "e1", "ends": ["u", "v"]}],
                    "layering": [["e1"]],
                    "family": {"e1": "1"},
                    "target": {"e1": "1"},
                }
            )
        )
        code, out, err = run(capsys, "periods", "--input", str(path))
        assert code == 3
        assert out == ""
        assert "total genus 0" in err

    def test_partial_target_is_a_precondition_error(self, capsys, tmp_path):
        self._assert_partial_target_rejected(capsys, tmp_path, "periods")

    def test_partial_target_is_a_precondition_error_for_limit(self, capsys, tmp_path):
        self._assert_partial_target_rejected(capsys, tmp_path, "limit")

    @staticmethod
    def _assert_partial_target_rejected(capsys, tmp_path, command):
        data = json.loads(Path(example("theta_weighted.json")).read_text())
        data["target"] = {"e1": "1", "e2": "1/2"}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 3
        assert out == ""
        assert err == "error: target point must give a coordinate for every edge\n"

    def test_ill_conditioned_pad_block_is_a_precondition_error(self, capsys, tmp_path):
        # Cholesky accepts the subnormal 1e-320, but the pad inverse would
        # overflow and fill the report with nan.
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"vertex_blocks": {"u": [[1]], "v": [[1e-320]]}}))
        code, out, err = run(
            capsys, "periods", "--input", example("theta_weighted.json"), "--lambda0", str(path)
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: pad block of the base matrix is numerically singular")
        assert len(err.splitlines()) == 1

    def test_pad_block_with_an_overflowing_inverse_is_a_precondition_error(
        self, capsys, tmp_path
    ):
        # The subnormal diagonal has condition number 1 and passes Cholesky,
        # but its inverse is inf; sampling would print nan and warn.
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"vertex_blocks": {"u": [[5e-324]], "v": [[5e-324]]}}))
        code, out, err = run(
            capsys, "periods", "--input", example("theta_weighted.json"), "--lambda0", str(path)
        )
        assert (code, out) == (3, "")
        assert err == "error: the inverse of the base matrix's pad block overflows binary64\n"

    def test_numpy_linear_algebra_errors_are_precondition_errors(self, capsys, monkeypatch):
        import numpy as np

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "graded_inverse_limits", singular)
        code, out, err = run(capsys, "periods", "--input", example("theta_weighted.json"))
        assert code == 3
        assert out == ""
        assert err == "error: numerical linear algebra failed: Singular matrix\n"

    def test_other_errors_propagate(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("not a precondition")

        monkeypatch.setattr(cli, "graded_inverse_limits", broken)
        with pytest.raises(RuntimeError, match="not a precondition"):
            main(["periods", "--input", example("theta_weighted.json")])
        assert capsys.readouterr().out == ""

    def test_out_of_memory_is_a_precondition_error(self, capsys, monkeypatch):
        # A huge vertex genus asks assemble_base for a matrix that cannot
        # be allocated; the stand-in raises as numpy would, allocating
        # nothing.
        def huge(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(periods, "assemble_base", huge)
        code, out, err = run(capsys, "periods", "--input", example("theta_weighted.json"))
        assert code == 3
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"

    def test_grid_beyond_the_float_range_is_a_precondition_error(self, capsys):
        # At t = 1e-78 the default top scale t^-4 exceeds binary64.
        code, out, err = run(
            capsys,
            "periods",
            "--input",
            example("theta_weighted.json"),
            "--grid",
            "1e-1..1e-80",
        )
        assert code == 3
        assert out == ""
        assert f"grid point t = 1/1{'0' * 78} overflows binary64" in err

    def test_huge_scale_exponents_are_refused_before_the_exact_power(self, capsys, monkeypatch):
        # t^-100000001 at t = 1/10 has 10^8 digits: the length sizes are
        # bounded by logarithms before any exact power is taken.
        def unreachable(self, t):
            raise AssertionError("a scale function was evaluated")

        monkeypatch.setattr(canmeas.families.ScaleFunction, "evaluate_pair", unreachable)
        code, out, err = run(
            capsys, "periods", "--input", example("theta.json"), "--scales", "100000001,100000000"
        )
        assert code == 3
        assert out == ""
        assert err == (
            "error: the length of edge 'e1' at t = 1/10 needs up to 100000003 digits, "
            f"over the budget of {cli.LENGTH_DIGITS_BUDGET}\n"
        )

    def test_lengths_near_one_are_refused_before_the_exact_power(self, capsys, monkeypatch):
        # Near t = 1, t^-3000000 is a finite double, but its exact value
        # has 72 million digits, and building it ran for minutes.
        def unreachable(self, t):
            raise AssertionError("a scale function was evaluated")

        monkeypatch.setattr(canmeas.families.ScaleFunction, "evaluate_pair", unreachable)
        t = "999999999999/1000000000000"
        code, out, err = run(
            capsys,
            "periods",
            "--input",
            example("theta.json"),
            "--grid",
            t,
            "--scales",
            "3000000,1",
        )
        assert (code, out) == (3, "")
        assert err == (
            f"error: the length of edge 'e1' at t = {t} needs up to 72000002 digits, "
            f"over the budget of {cli.LENGTH_DIGITS_BUDGET}\n"
        )

    def test_unit_gram_matrix_is_checked_once(self, capsys, monkeypatch):
        # gram_matrices applies Sylvester's criterion once per assembly.
        sizes = []

        def counted(rows, check=canmeas.linalg.is_positive_definite):
            sizes.append(len(rows))
            return check(rows)

        monkeypatch.setattr(canmeas.linalg, "is_positive_definite", counted)
        code, out, err = run(capsys, "periods", "--input", example("theta_weighted.json"))
        assert code == 0
        assert sizes == [2]

    def test_edge_outer_products_are_built_once(self, capsys, monkeypatch):
        # One outer product per edge serves the sampled matrices, the
        # monodromy section and the Gram check.
        import numpy

        calls = []

        def counted(a, b, real=numpy.outer):
            calls.append(len(a))
            return real(a, b)

        monkeypatch.setattr(numpy, "outer", counted)
        code, out, err = run(capsys, "periods", "--input", example("theta_weighted.json"))
        assert code == 0
        assert calls == [2, 2, 2]

    def test_gram_consistency_catches_a_faulty_gram_assembly(self, capsys, monkeypatch):
        # gram_matrices assembles the unit Gram matrix; the check adds the
        # printed edge matrices apart from it.  An assembly that raises one
        # diagonal entry keeps the matrix positive definite but breaks the
        # check.
        real = canmeas.measures.CycleSpace.gram

        def faulty(space, lengths):
            rows, scales = real(space, lengths)
            if rows:
                rows[0][0] += scales[0]
            return rows, scales

        monkeypatch.setattr(canmeas.measures.CycleSpace, "gram", faulty)
        code, out, err = run(capsys, "periods", "--input", example("theta_weighted.json"))
        assessed = {a["name"]: a["passed"] for a in json.loads(out)["assertions"]}
        assert assessed["gram_consistency"] is False
        assert code == 4

    def test_widely_spread_scales_are_positive_definite(self, capsys, tmp_path):
        # K8 in three layers of 12, 2 and 14 edges at the default scales
        # t^-6, t^-4, t^-2: near t = 1e-4 the diagonal spans so many
        # decades that the smallest eigenvalue from eigvalsh comes out
        # nonpositive, though the matrix is positive definite.
        ids = [f"e{i}{j}" for i in range(8) for j in range(i + 1, 8)]
        parts = [ids[:12], ids[12:14], ids[14:]]
        path = tmp_path / "k8.json"
        path.write_text(
            json.dumps(
                {
                    "vertices": [{"id": f"v{i}"} for i in range(8)],
                    "edges": [
                        {"id": e, "ends": [f"v{e[1]}", f"v{e[2]}"]} for e in ids
                    ],
                    "layering": parts,
                    "target": {e: f"1/{len(part)}" for part in parts for e in part},
                }
            )
        )
        code, report = run_json(capsys, "periods", "--input", str(path))
        assert code == 0
        assert report["ok"] is True
        assert report["scales"] == ["t^-6", "t^-4", "t^-2"]
        assert sum(report["block_sizes"]) == 28 - 8 + 1

    @staticmethod
    def _one_edge_per_layer(path, edges, genus=0):
        """A document whose layer j holds the (id, ends) pair edges[j]; its
        first vertex in sorted order has the given genus."""
        first, *rest = sorted({v for _, ends in edges for v in ends})
        path.write_text(
            json.dumps(
                {
                    "vertices": [{"id": first, "genus": genus}] + [{"id": v} for v in rest],
                    "edges": [{"id": e, "ends": ends} for e, ends in edges],
                    "layering": [[e] for e, _ in edges],
                    "target": {e: "1" for e, _ in edges},
                }
            )
        )
        return str(path)

    @staticmethod
    def _count_oracle_calls(monkeypatch):
        """Wrap periods.schur_block_inverse, recursive calls included, and
        return the list of the block sizes of every call."""
        original = periods.schur_block_inverse
        calls = []

        def counted(m, sizes):
            calls.append(list(sizes))
            return original(m, sizes)

        monkeypatch.setattr(periods, "schur_block_inverse", counted)
        return calls

    def test_schur_oracle_skips_empty_blocks(self, capsys, monkeypatch, tmp_path):
        # The 16-cycle with one edge per layer has block sizes 1, 0, ..., 0.
        # Empty blocks are dropped: the sampler's one oracle call, on the
        # stack of every grid point's matrix, does not recurse per layer.
        calls = self._count_oracle_calls(monkeypatch)
        ring = [(f"e{i:02d}", [f"v{i:02d}", f"v{(i + 1) % 16:02d}"]) for i in range(16)]
        path = self._one_edge_per_layer(tmp_path / "cycle16.json", ring)
        code, report = run_json(capsys, "periods", "--input", path)
        assert code == 0
        assert report["block_sizes"] == [1] + [0] * 15
        assert len(report["samples"][0]["diag_deviations"]) == 16
        assert len(report["grid"]) == 5
        assert calls == [[1] + [0] * 15]

    def test_schur_oracle_recurses_once_per_block(self, capsys, monkeypatch, tmp_path):
        # Thirty loops at one vertex, one per layer: thirty nonempty blocks,
        # each peeled by one call, where two calls per block would be 2^30.
        # The sampler makes one oracle call for the whole grid.  Thirty is
        # the most layers the default scales keep within binary64.
        calls = self._count_oracle_calls(monkeypatch)
        loops = [(f"l{i:02d}", ["v", "v"]) for i in range(30)]
        path = self._one_edge_per_layer(tmp_path / "bouquet30.json", loops)
        code, report = run_json(capsys, "periods", "--input", path)
        assert code == 0
        assert report["ok"] is True
        assert report["block_sizes"] == [1] * 30
        assert len(report["grid"]) == 5
        assert calls == [[1] * (30 - i) for i in range(30)]

    @pytest.mark.parametrize(
        "name, loops, genus, message",
        [
            ("genus", 1, 10_000, "10001 rows, over the budget of 100"),
            # 10^4000 rows: a count this long is not printed in full.
            ("nines", 1, int("9" * 4000), "more than 10^3999 rows, over the budget of 100"),
        ],
    )
    def test_large_period_matrices_are_refused(
        self, capsys, monkeypatch, tmp_path, name, loops, genus, message
    ):
        # A chain of vertices, each with a loop in its own layer; the first
        # vertex carries the vertex genus.  No array may be built.
        def refuse(*args, **kwargs):
            raise AssertionError("assemble_base was called")

        monkeypatch.setattr(periods, "assemble_base", refuse)
        edges = [(f"l{i:02d}", [f"v{i:02d}"] * 2) for i in range(loops)]
        edges += [(f"p{i:02d}", [f"v{i:02d}", f"v{i + 1:02d}"]) for i in range(loops - 1)]
        path = self._one_edge_per_layer(tmp_path / f"{name}.json", edges, genus)
        code, out, err = run(capsys, "periods", "--input", path)
        assert (code, out) == (3, "")
        assert err == f"error: the period matrix has {message}\n"


class TestSelftestCommand:
    def test_deterministic_across_runs(self, capsys):
        code1, out1, _ = run(capsys, "selftest")
        code2, out2, _ = run(capsys, "selftest", "--seed", "0")
        assert code1 == code2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["ok"] is True
        assert {a["name"] for a in report["assertions"]} == {
            "measures",
            "layerings",
            "limits",
            "periods",
        }

    def test_other_seeds_pass_too(self, capsys):
        code, report = run_json(capsys, "selftest", "--seed", "3")
        assert code == 0
        assert report["ok"] is True

    @pytest.mark.parametrize("seed", ["-1", "-20", "x"])
    def test_negative_or_malformed_seeds_are_usage_errors(self, capsys, seed):
        with pytest.raises(SystemExit) as err:
            main(["selftest", "--seed", seed])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err


def test_graded_minors_are_built_once_per_command(capsys, monkeypatch):
    # Every canmeas module that holds graded_minors gets the counting
    # wrapper, so calls from inside the package are counted too.
    original = canmeas.layerings.graded_minors
    calls = []

    def counted(g, p):
        calls.append(p)
        return original(g, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("canmeas") and getattr(module, "graded_minors", None) is original:
            monkeypatch.setattr(module, "graded_minors", counted)
    grid = str(FIXTURES / "layered_grid.json")
    for command, path in (
        ("minors", grid),
        ("limit", grid),
        ("periods", example("theta_weighted.json")),
    ):
        calls.clear()
        code, out, err = run(capsys, command, "--input", path)
        assert code == 0, command
        assert len(calls) == 1, command


def _complete_blocks_document(path, n, blocks=1):
    """``blocks`` copies of K_n glued at the vertex v0, one layer each,
    with unit lengths."""
    ids = [[f"v{b}_{i}" if i else "v0" for i in range(n)] for b in range(blocks)]
    layers = [
        {f"e{b}_{i}_{j}": [ids[b][i], ids[b][j]] for i in range(n) for j in range(i + 1, n)}
        for b in range(blocks)
    ]
    ends = {e: pair for layer in layers for e, pair in layer.items()}
    share = f"1/{len(ends)}"
    doc = {
        "vertices": [{"id": v} for v in dict.fromkeys(v for block in ids for v in block)],
        "edges": [{"id": e, "ends": pair, "length": "1"} for e, pair in ends.items()],
        "layering": [sorted(layer) for layer in layers],
        "family": dict.fromkeys(ends, share),
        "target": dict.fromkeys(ends, share),
    }
    path.write_text(json.dumps(doc))
    return str(path)


def _no_enumeration(*args, **kwargs):
    raise AssertionError("spanning trees were enumerated")


@pytest.mark.parametrize("argv", [["measure"], ["trees"], ["minors"], ["limit"]])
def test_tree_enumeration_over_the_budget_is_refused(capsys, monkeypatch, tmp_path, argv):
    # K9 has 9^7 = 4,782,969 spanning trees; the exact count refuses them
    # before any is listed.  Every enumeration goes through graphs._forests.
    monkeypatch.setattr(graphs, "_forests", _no_enumeration)
    path = _complete_blocks_document(tmp_path / "k9.json", 9)
    code, out, err = run(capsys, *argv, "--input", path)
    assert code == 3
    assert out == ""
    holder = "graded minor 0" if argv == ["minors"] else "the graph"
    assert err == f"error: {holder} has 4782969 spanning trees, over the budget of 1000000\n"


def test_limit_refuses_a_disconnected_graph_before_listing_forests(capsys, monkeypatch, tmp_path):
    # K8 and an isolated vertex have 8^6 = 262,144 forests, under the
    # budget, but no tropical curve: its target refuses the graph before
    # any forest is listed.
    monkeypatch.setattr(graphs, "_forests", _no_enumeration)
    path = Path(_complete_blocks_document(tmp_path / "k8.json", 8))
    doc = json.loads(path.read_text())
    doc["vertices"].append({"id": "lone"})
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "limit", "--input", str(path))
    assert (code, out, err) == (3, "", "error: tropical curves must be connected\n")


@pytest.mark.parametrize("argv", [["measure"], ["trees"], ["minors"], ["limit"]])
def test_a_tree_count_too_long_to_print_is_refused(capsys, monkeypatch, tmp_path, argv):
    # A necklace of 3,600 K4s joined by bridges has 16^3600 spanning
    # trees, 4,335 digits: more than str() converts.
    monkeypatch.setattr(cli, "tree_count", lambda g: 16**3600)
    path = _complete_blocks_document(tmp_path / "k4.json", 4)
    code, out, err = run(capsys, *argv, "--input", path)
    assert (code, out) == (3, "")
    holder = "graded minor 0" if argv == ["minors"] else "the graph"
    assert err == f"error: {holder} has more than 10^4334 spanning trees, over the budget of 1000000\n"


def test_minors_budgets_each_minor_not_their_product(capsys, tmp_path):
    # Two K6 blocks, one layer each: 1,296 forests per minor, listed one
    # minor at a time, though their product 1,679,616 is over the budget.
    path = _complete_blocks_document(tmp_path / "k6k6.json", 6, blocks=2)
    code, report = run_json(capsys, "minors", "--input", path)
    assert code == 0
    assert [layer["tree_count"] for layer in report["layers"]] == [1296, 1296]
    assert report["layered_tree_count"] == 1296**2


def test_measure_without_trees_ignores_the_budget(capsys, tmp_path):
    path = _complete_blocks_document(tmp_path / "k9.json", 9)
    code, out, err = run(capsys, "measure", "--input", path, "--formulation", "matrix")
    assert code == 0
    assert err == ""


def test_only_the_period_lane_loads_numpy():
    # A fresh interpreter: the test session itself has numpy loaded.
    script = (
        "import json, sys\n"
        "import canmeas.cli\n"
        "from canmeas.cli import main\n"
        "loaded = ['canmeas.periods' in sys.modules, 'numpy' in sys.modules]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )
    exact = [
        [command, "--input", example(name)]
        for command in ("measure", "trees", "minors", "limit")
        for name in ("theta.json", "theta_weighted.json", "triangle.json")
    ]
    argvs = exact + [["periods", "--input", example("theta_weighted.json")]]
    env = dict(os.environ, PYTHONPATH=str(Path(canmeas.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        env=env,
        capture_output=True,
        check=True,
        text=True,
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == [True, False] + [False] * len(exact) + [True]


class TestOutputModes:
    def test_table_rendering(self, capsys):
        code, out, err = run(
            capsys, "measure", "--input", example("theta.json"), "--table"
        )
        assert code == 0
        assert out.startswith("assertions:")
        assert "command: measure" in out
        assert "{" not in out

    def test_reports_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "limit", "--input", example("theta.json"))
        _, out2, _ = run(capsys, "limit", "--input", example("theta.json"))
        assert out1 == out2

    def test_one_parser_serves_every_call(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ["minors", "--input", example("theta.json")]
        first = run(capsys, *argv)
        assert first[0] == 0 and first[2] == ""
        assert "{" not in run(capsys, *argv, "--table")[1]
        assert run(capsys, *argv) == first
        with pytest.raises(SystemExit) as err:
            main([*argv, "--no-such-flag"])
        assert err.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        assert run(capsys, *argv) == first

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_missing_input_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["measure"])


GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"

# (document, commands) pairs pinned by tests/golden.  The bundled examples'
# minors are too small to tell measure routes apart; the layered grid has
# three layers, a loop and disconnected graded minors.
GOLDEN_INPUTS = [
    (example(f"{stem}.json"), ("measure", "trees", "minors", "limit"))
    for stem in ("theta", "theta_weighted", "triangle")
] + [(str(FIXTURES / "layered_grid.json"), ("minors", "limit"))]


def test_reports_match_the_golden_files(capsys):
    # tests/golden/<stem>.<command>.json (.txt) is the stdout of
    # `canmeas <command> --input <stem>.json` (with --table).  These
    # commands are exact: their floats are rounded once from rationals, so
    # the bytes do not depend on the platform.
    differ = []
    for path, commands in GOLDEN_INPUTS:
        stem = Path(path).stem
        for command in commands:
            argv = [command, "--input", path]
            if command == "measure":
                argv += ["--formulation", "all"]
            for suffix, mode in ((".json", []), (".txt", ["--table"])):
                code, out, err = run(capsys, *argv, *mode)
                golden = (GOLDEN / f"{stem}.{command}{suffix}").read_bytes()
                if (code, out.encode(), err) != (0, golden, ""):
                    differ.append(f"{stem}.{command}{suffix}")
    assert differ == []


# (golden name, document, base matrix file) triples whose `periods`
# reports have their exact sections pinned in tests/golden/<name>.periods.json.
PERIODS_GOLDEN = [
    (stem, example(f"{stem}.json"), None) for stem in ("theta", "theta_weighted", "triangle")
] + [
    ("layered_grid", str(FIXTURES / "layered_grid.json"), None),
    (
        "theta_weighted.lambda0",
        example("theta_weighted.json"),
        str(FIXTURES / "theta_weighted.lambda0.json"),
    ),
]
PERIODS_EXACT = ("command", "graph", "scales", "block_sizes", "monodromy", "layer_targets", "grid")


def test_periods_exact_sections_match_the_golden_files(capsys):
    # The samples and the assertions are left out: their floats come from
    # LAPACK and may differ between platforms.
    differ = []
    for name, path, base in PERIODS_GOLDEN:
        argv = ["periods", "--input", path] + ([] if base is None else ["--lambda0", base])
        code, report = run_json(capsys, *argv)
        pinned = canmeas.dump_report({k: report[k] for k in PERIODS_EXACT})
        if (code, pinned) != (0, (GOLDEN / f"{name}.periods.json").read_text()):
            differ.append(name)
    assert differ == []


def test_forest_reports_do_not_depend_on_the_hash_seed(capsys):
    # Forests are frozensets of edge ids, whose iteration order follows
    # the string hash seed; `trees` and `limit` must list them and their
    # edges in sorted order all the same.
    argvs = [
        [command, "--input", path]
        for path in (example("triangle.json"), str(FIXTURES / "layered_grid.json"))
        for command in ("trees", "limit")
    ]
    expected = b""
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        expected += out.encode()
    script = (
        "import json, sys\n"
        "from canmeas.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0\n"
    )
    outs = set()
    for hash_seed in ("1", "2", "3", "4"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=str(Path(canmeas.__file__).parents[1]),
        )
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            env=env,
            capture_output=True,
            check=True,
        )
        outs.add(done.stdout)
    assert outs == {expected}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_selftest_matches_the_golden_files(capsys, seed):
    # tests/golden/selftest.<seed>.json holds the exact sections of
    # `canmeas selftest --seed <seed>`.  The periods section is left out:
    # its floats come from LAPACK and may differ between platforms.
    code, report = run_json(capsys, "selftest", "--seed", str(seed))
    assert code == 0
    pinned = {k: report[k] for k in ("seed", "measures", "layerings", "limits")}
    golden = (GOLDEN / f"selftest.{seed}.json").read_text()
    assert canmeas.dump_report(pinned) == golden


# Values a mutant may put in place of any value of a bundled example: JSON
# scalars of every kind, non-finite floats, malformed and huge rationals,
# empty containers, and an edge id that names no edge.
MUTANT_VALUES = [
    None,
    True,
    1.5,
    float("nan"),
    float("inf"),
    "",
    "1/0",
    "-1",
    "9" * 600 + "/7",
    int("9" * 4300),  # the largest int JSON decodes
    [],
    {},
    "dangling",
]


def _value_paths(node, path=()):
    """Key paths to every value under node, containers included."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _value_paths(value, path + (key,))


def _mutant(doc, rng):
    """doc with one key or list item dropped, one list item duplicated,
    or one value replaced by a MUTANT_VALUES entry."""
    doc = copy.deepcopy(doc)
    *head, key = rng.choice(list(_value_paths(doc)))
    holder = functools.reduce(operator.getitem, head, doc)
    action = rng.choice(("drop", "duplicate", "replace", "replace"))
    if action == "drop":
        del holder[key]
    elif action == "duplicate" and isinstance(holder, list):
        holder.insert(key, copy.deepcopy(holder[key]))
    else:
        holder[key] = rng.choice(MUTANT_VALUES)
    return doc


def test_mutated_documents_end_in_a_documented_exit(capsys, tmp_path):
    # Every input ends in a report (exit 0, or 4 for a failed check) or in
    # a document (2) or precondition (3) error with nothing on stdout.
    rng = Random(20201)
    examples = [
        json.loads(Path(example(f"{stem}.json")).read_text())
        for stem in ("theta", "theta_weighted", "triangle")
    ]
    path = tmp_path / "mutant.json"
    codes = collections.Counter()
    for i in range(300):
        path.write_text(json.dumps(_mutant(rng.choice(examples), rng)))
        for command in ("measure", "trees", "minors", "limit", "periods"):
            code, out, err = run(capsys, command, "--input", str(path))
            assert code in (0, 2, 3, 4), (i, command, code)
            assert (out != "") == (code in (0, 4)), (i, command, code, err)
            codes[code] += 1
    assert all(codes[code] for code in (0, 2, 3)), codes


@pytest.mark.parametrize("nines, codes", [(4000, (0, 3)), (4001, (2,)), (4300, (2,))])
def test_vertex_genus_is_bounded_by_its_digits(capsys, tmp_path, nines, codes):
    # A one-loop document whose vertex has a genus of ``nines`` nines:
    # over RATIONAL_DIGITS digits every command refuses the document,
    # naming the vertex, before a total genus too long to print is built.
    doc = {
        "vertices": [{"id": "u", "genus": int("9" * nines)}],
        "edges": [{"id": "e", "ends": ["u", "u"], "length": "1"}],
        "layering": [["e"]],
        "family": {"e": "1"},
        "target": {"e": "1"},
    }
    path = tmp_path / "genus.json"
    path.write_text(json.dumps(doc))
    for command in ("measure", "trees", "minors", "limit", "periods"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert code in codes, (command, code, err[-200:])
        if code == 2:
            assert (out, err) == ("", "error: vertex 'u': genus of more than 4000 digits\n")


def test_minors_on_a_long_cycle_exits_0(capsys, tmp_path):
    # A one-layer cycle of 1,200 edges has 1,200 trees, far under the
    # budget; the forest enumeration runs on a stack, not on recursion.
    n = 1200
    doc = {
        "vertices": [{"id": f"v{i:04d}"} for i in range(n)],
        "edges": [
            {"id": f"e{i:04d}", "ends": [f"v{i:04d}", f"v{(i + 1) % n:04d}"], "length": "1"}
            for i in range(n)
        ],
        "layering": [[f"e{i:04d}" for i in range(n)]],
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "minors", "--input", str(path))
    assert code == 0
    assert report["layers"][0]["tree_count"] == n
    assert report["layered_tree_count"] == n



LONG = "x" * 50_000


def _set(*path_and_value):
    # An edit of a document that sets doc[path] = value.
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return edit


def _both(*edits):
    def edit(doc):
        for one in edits:
            one(doc)

    return edit


def _rename(old, new):
    # An edit that renames edge old to new in its edge, layering, family
    # and target.
    def edit(doc):
        for edge in doc["edges"]:
            if edge["id"] == old:
                edge["id"] = new
        doc["layering"] = [[new if e == old else e for e in part] for part in doc["layering"]]
        for section in ("family", "target"):
            doc[section][new] = doc[section].pop(old)

    return edit


_rename_e1 = _rename("e1", LONG)


def _rename_u(doc):
    # theta_weighted.json with vertex u renamed LONG, which sorts after v.
    doc["vertices"][0]["id"] = LONG
    for edge in doc["edges"]:
        edge["ends"] = [LONG if end == "u" else end for end in edge["ends"]]


# Edits of theta.json that put LONG where a parse error names it.
_LONG_DOCUMENT_TEXTS = {
    "document_key": _set(LONG, 1),
    "vertex_key": _set("vertices", 0, LONG, 1),
    "edge_key": _set("edges", 0, LONG, 1),
    "negative_genus": _set("vertices", 0, {"id": LONG, "genus": -1}),
    "genus_digits": _set("vertices", 0, {"id": LONG, "genus": 10**4000}),
    "marks_not_a_list": _set("vertices", 0, {"id": LONG, "marks": "p"}),
    "repeated_mark": _both(
        _set("vertices", 0, "marks", [LONG]), _set("vertices", 1, "marks", [LONG])
    ),
    "edge_ends": _set("edges", 0, {"id": LONG, "ends": ["u"]}),
    "malformed_length_of_long_edge": _both(
        _set("edges", 0, "id", LONG), _set("edges", 0, "length", "x")
    ),
    "nonpositive_length": _both(_set("edges", 0, "id", LONG), _set("edges", 0, "length", "0")),
    "missing_length": _both(
        _set("edges", 0, "id", LONG), lambda doc: doc["edges"][0].pop("length")
    ),
    "duplicate_edge": _both(_set("edges", 0, "id", LONG), _set("edges", 1, "id", LONG)),
    "outside_endpoint": _set("edges", 0, {"id": LONG, "ends": ["u", "w"], "length": "1"}),
    "layering_unknown_edge": _set("layering", 0, [LONG]),
    "layering_missing_edge": _both(_rename_e1, _set("layering", [["e2", "e3"]])),
    "family_unknown_edge": _set("family", LONG, "1"),
    "target_unknown_edge": _set("target", LONG, "1"),
    "family_value": _both(_rename_e1, _set("family", LONG, "q")),
    "target_value": _both(_rename_e1, _set("target", LONG, "x")),
}
# --lambda0 files that put LONG where a parse error names it.
_LONG_BASE_TEXTS = {
    "lambda0_key": {LONG: 1},
    "lambda0_entry": {"rank_block": [[LONG]]},
    "lambda0_block_name": {"vertex_blocks": {LONG: 5}},
}
# Inputs that parse but put LONG where a failed precondition names it.
_LONG_CHECKED_IDS = {
    "lambda0_block_for_no_vertex": ("periods", None, {"vertex_blocks": {LONG: [[1.0]]}}),
    "vertex_without_block": ("periods", _rename_u, {"vertex_blocks": {"v": [[1.0]]}}),
    "vertex_block_shape": (
        "periods", _rename_u, {"vertex_blocks": {LONG: [[1.0, 0.0], [0.0, 1.0]], "v": [[1.0]]}}
    ),
    "nonpositive_target": ("limit", _both(_rename_e1, _set("target", LONG, "0")), None),
    # e3 renamed "y" sorts after LONG, so LONG's ratio fails first.
    "within_layer": (
        "limit", _both(_rename("e2", LONG), _rename("e3", "y"), _set("family", LONG, "1/3*t")),
        None,
    ),
    "cross_layer": ("limit", _both(_rename_e1, _set("family", LONG, "t")), None),
}


@pytest.mark.parametrize(
    "command, grid, edit, lambda0, code",
    [
        # A point of 100,002 characters, over the digit bound.
        pytest.param("limit", "1/" + "1" * 100_000, None, None, 2, id="oversized_point"),
        pytest.param("limit", "x" * 5000, None, None, 2, id="unparsable_point"),
        # The length of e1 at t = 1e-2501, a t of 2,503 characters, is
        # over the digit budget.
        pytest.param("periods", "1e-1..1e-3999", None, None, 3, id="length_budget"),
        pytest.param(
            "measure", None, _set("edges", 0, "length", "x" * 50_000), None, 2,
            id="malformed_length",
        ),
        pytest.param(
            "limit", None, _set("family", "e2", "q" * 50_000), None, 2, id="malformed_term"
        ),
        pytest.param(
            "limit", None, _both(_rename_e1, _set("family", LONG, "t^1000000")), None, 3,
            id="long_edge_over_the_length_budget",
        ),
        *(
            pytest.param("measure", None, edit, None, 2, id=name)
            for name, edit in _LONG_DOCUMENT_TEXTS.items()
        ),
        *(
            pytest.param("periods", None, None, lambda0, 2, id=name)
            for name, lambda0 in _LONG_BASE_TEXTS.items()
        ),
        *(
            pytest.param(command, None, edit, lambda0, 3, id=name)
            for name, (command, edit, lambda0) in _LONG_CHECKED_IDS.items()
        ),
    ],
)
def test_messages_do_not_echo_long_inputs(capsys, tmp_path, command, grid, edit, lambda0, code):
    # A message shows the first 40 characters of a long input and its length.
    name = "theta_weighted.json" if command == "periods" else "theta.json"
    doc = json.loads(Path(example(name)).read_text())
    if edit is not None:
        edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--input", str(path)]
    if grid is not None:
        argv += ["--grid", grid]
    if lambda0 is not None:
        (tmp_path / "lambda0.json").write_text(json.dumps(lambda0))
        argv += ["--lambda0", str(tmp_path / "lambda0.json")]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert len(err.encode()) < 300, err[:300]
    assert "characters)" in err, err


@pytest.mark.parametrize("command", ["limit", "periods"])
def test_a_layer_sum_too_long_to_print_is_not_printed(capsys, tmp_path, command):
    # Targets 1/p and 1/q with 4,000-digit p and q sum to a fraction whose
    # denominator has some 8,000 digits, more than str() converts.
    doc = json.loads(Path(example("theta.json")).read_text())
    rng = Random(0)
    for e in ("e2", "e3"):
        doc["target"][e] = f"1/{rng.randrange(10**3999, 10**4000)}"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    got, out, err = run(capsys, command, "--input", str(path))
    assert (got, out) == (3, "")
    assert err == "error: target coordinates of layer 1 do not sum to 1\n"


def test_a_ratio_limit_too_long_to_print_is_shown_by_size(capsys, tmp_path):
    # A one-layer 4-cycle whose constant lengths a/b have 1,200-digit a and
    # b: each normalized length tends to a fraction of some 4,800 digits,
    # more than str() converts, while the lengths pass both digit budgets.
    rng = Random(1)
    ids = ["e1", "e2", "e3", "e4"]
    family = {}
    for e in ids:
        a, b = rng.randrange(10**1199, 10**1200), rng.randrange(10**1199, 10**1200)
        family[e] = f"{a}/{b}"
    doc = {
        "vertices": [{"id": v} for v in "abcd"],
        "edges": [
            {"id": e, "ends": [v, w], "length": "1"} for e, v, w in zip(ids, "abcd", "bcda")
        ],
        "layering": [ids],
        "family": family,
        "target": dict.fromkeys(ids, "1/4"),
    }
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    got, out, err = run(capsys, "limit", "--input", str(path))
    assert (got, out) == (3, "")
    assert len(err.encode()) < 300, err[:300]
    assert "normalized length of edge 'e1' in layer 0 tends to a ratio of" in err
    assert err.endswith("-bit integers, target says 1/4\n")


def test_excerpt_keeps_texts_of_up_to_100_characters():
    for text in ("", "1/2", "é" * 100, "x" * 100):
        assert excerpt(text) == text
        assert excerpt(text, quote=True) == repr(text)
    assert excerpt("x" * 101) == "x" * 40 + "... (101 characters)"
    assert excerpt("x" * 101, quote=True) == "'" + "x" * 40 + "'... (101 characters)"
    # The long form is ASCII whatever the text.
    assert excerpt("é" * 101) == "\\xe9" * 40 + "... (101 characters)"
    assert excerpt("é" * 101, quote=True) == "'" + "\\xe9" * 40 + "'... (101 characters)"
