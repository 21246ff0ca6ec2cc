import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import canmeas
from canmeas import cli
from canmeas.cli import main


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

    def test_tree_limits_are_in_sorted_order(self, capsys):
        for path in (example("theta.json"), str(FIXTURES / "layered_grid.json")):
            code, report = run_json(capsys, "limit", "--input", path)
            assert code == 0
            trees = [row["tree"] for row in report["tree_limits"]]
            assert trees == sorted(trees) and len(trees) > 2, path

    def test_dichotomy_failure_names_the_first_tree(self, capsys, monkeypatch):
        code, report = run_json(capsys, "limit", "--input", example("theta.json"))
        assert {"name": "tree_weight_dichotomy", "passed": True} in report["assertions"]
        real = cli.all_tree_limits

        def corrupted(family):
            limits = real(family)
            limits[frozenset({"e3"})] += 1
            limits[frozenset({"e2"})] += 2
            return limits

        monkeypatch.setattr(cli, "all_tree_limits", corrupted)
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

    def test_divergent_family(self, capsys, tmp_path):
        doc = json.loads(Path(example("theta.json")).read_text())
        doc["family"]["e2"] = "1/3*t"
        path = tmp_path / "skew.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "limit", "--input", str(path))
        assert code == 3
        assert "within_layer" in err


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

    def test_base_matrix_entries_must_be_finite_numbers(self, capsys, tmp_path):
        good = {"vertex_blocks": {"u": [[2.0]], "v": [[1.5]]}}
        bad = {
            "word": dict(good, rank_block=[["x", 0.0], [0.0, 1.0]]),
            "nan": dict(good, rank_block=[[float("nan"), 0.0], [0.0, 1.0]]),
            "vertex_nan": {"vertex_blocks": {"u": [[2.0]], "v": [[float("nan")]]}},
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
            assert ("'v'" if name == "vertex_nan" else "rank_block") in err, name

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

    def test_numpy_linear_algebra_errors_are_precondition_errors(self, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise cli.np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "graded_inverse_limits", singular)
        code, out, err = run(capsys, "periods", "--input", example("theta_weighted.json"))
        assert code == 3
        assert out == ""
        assert err == "error: numerical linear algebra failed: Singular matrix\n"

    def test_out_of_memory_is_a_precondition_error(self, capsys, monkeypatch):
        # A huge vertex genus asks assemble_base for a matrix that cannot
        # be allocated; the stand-in raises as numpy would, allocating
        # nothing.
        def huge(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "assemble_base", huge)
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

    def test_gram_consistency_catches_a_faulty_rank_one_sum(self, capsys, monkeypatch):
        # The unit Gram matrix is assembled by rank_one_sum; the check adds
        # the printed edge matrices apart from it.  A sum that raises one
        # diagonal entry keeps the matrix positive definite but breaks the
        # check.
        real = canmeas.linalg.rank_one_sum

        def faulty(terms, size):
            out = real(terms, size)
            if size:
                out[0][0] += 1
            return out

        for module in [m for name, m in sys.modules.items() if name.startswith("canmeas")]:
            if getattr(module, "rank_one_sum", None) is real:
                monkeypatch.setattr(module, "rank_one_sum", faulty)
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
