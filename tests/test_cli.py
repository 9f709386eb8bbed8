"""Command-line behavior: worked results, plots, determinism, errors."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdist
from fdist.cli import main
from helpers import oracle_render

DATA = str(Path(__file__).resolve().parent.parent / "data" / "worked_sets.json")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def write_doc(tmp_path, doc, name="sets.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def module_env():
    """The environment for running fdist from this source tree in a
    child interpreter."""
    src = str(Path(fdist.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def entries(mass_doc):
    return [(tuple(map(tuple, e["focal"])) if e["focal"] and isinstance(e["focal"][0], list) else tuple(e["focal"]), e["mass"]) for e in mass_doc["entries"]]


class TestMassCommand:
    def test_points_set_uses_declared_slices(self, capsys):
        doc = run_json(capsys, "mass", DATA, "A")
        assert doc["command"] == "mass"
        assert doc["set"] == "A"
        assert entries(doc["mass"]) == [
            ((("1", "5"),), "0.5"),
            ((("2", "4"),), "0.5"),
        ]
        assert [s["mu"] for s in doc["fuzzy"]] == ["0.5", "1", "0.5"]

    def test_slices_flag_overrides(self, capsys):
        doc = run_json(capsys, "mass", DATA, "A", "--slices", "4")
        assert entries(doc["mass"]) == [
            ((("1", "5"),), "0.25"),
            ((("1.5", "4.5"),), "0.25"),
            ((("2", "4"),), "0.25"),
            ((("2.5", "3.5"),), "0.25"),
        ]

    def test_discrete_set_has_label_mass_and_no_fuzzy(self, capsys):
        doc = run_json(capsys, "mass", DATA, "claim")
        assert entries(doc["mass"]) == [
            (("a",), "0.3"),
            (("a", "b"), "0.5"),
            (("a", "b", "c"), "0.2"),
        ]
        assert "fuzzy" not in doc

    def test_mass_kind_passes_through(self, capsys):
        doc = run_json(capsys, "mass", DATA, "subA")
        assert entries(doc["mass"]) == [((("1", "4"),), "0.5"), ((), "0.5")]
        assert [s["mu"] for s in doc["fuzzy"]] == ["0.5"]

    def test_output_reparses_as_input(self, capsys, tmp_path):
        doc = run_json(capsys, "mass", DATA, "B")
        spec = write_doc(tmp_path, {"sets": [doc["mass"]]})
        again = run_json(capsys, "mass", spec, "B")
        assert again["mass"] == doc["mass"]


class TestDistanceCommand:
    def test_default_strategy_is_diagonal_for_normal_sets(self, capsys):
        doc = run_json(capsys, "distance", DATA, "A", "B")
        assert doc["strategy"] == "diagonal"
        assert entries(doc["mass"]) == [
            ((("1", "9"),), "0.5"),
            ((("3", "7"),), "0.5"),
        ]

    def test_product_strategy_worked_example(self, capsys):
        doc = run_json(capsys, "distance", DATA, "A", "B", "--strategy", "product")
        assert entries(doc["mass"]) == [
            ((("1", "9"),), "0.25"),
            ((("2", "8"),), "0.5"),
            ((("3", "7"),), "0.25"),
        ]
        assert [(s["mu"], s["lo"], s["hi"]) for s in doc["fuzzy"]] == [
            ("0.25", "1", "2"),
            ("0.75", "2", "3"),
            ("1", "3", "7"),
            ("0.75", "7", "8"),
            ("0.25", "8", "9"),
        ]

    def test_four_slice_product(self, capsys):
        doc = run_json(capsys, "distance", DATA, "A4", "B4", "--strategy", "product")
        assert entries(doc["mass"]) == [
            ((("1", "9"),), "0.0625"),
            ((("1.5", "8.5"),), "0.125"),
            ((("2", "8"),), "0.1875"),
            ((("2.5", "7.5"),), "0.25"),
            ((("3", "7"),), "0.1875"),
            ((("3.5", "6.5"),), "0.125"),
            ((("4", "6"),), "0.0625"),
        ]

    def test_antidiagonal_collapses_symmetric_pair(self, capsys):
        doc = run_json(capsys, "distance", DATA, "A", "B", "--strategy", "antidiagonal")
        assert entries(doc["mass"]) == [((("2", "8"),), "1")]

    def test_directional_and_its_reverse_negate(self, capsys):
        fwd = run_json(capsys, "distance", DATA, "narrowA", "narrowB", "--directional")
        rev = run_json(capsys, "distance", DATA, "narrowB", "narrowA", "--directional")
        assert entries(fwd["mass"]) == [
            ((("2", "8"),), "0.5"),
            ((("4", "6"),), "0.5"),
        ]
        assert entries(rev["mass"]) == [
            ((("-8", "-2"),), "0.5"),
            ((("-6", "-4"),), "0.5"),
        ]
        assert fwd["directional"] is True

    def test_subnormal_input_defaults_to_product(self, capsys):
        doc = run_json(capsys, "distance", DATA, "subA", "narrowB")
        assert doc["strategy"] == "product"
        assert entries(doc["mass"]) == [
            ((("2", "8"),), "0.25"),
            ((("3", "7"),), "0.25"),
            ((), "0.5"),
        ]
        assert [(s["mu"], s["lo"], s["hi"]) for s in doc["fuzzy"]] == [
            ("0.25", "2", "3"),
            ("0.5", "3", "7"),
            ("0.25", "7", "8"),
        ]

    def test_skewed_mixture_against_narrow_triangle(self, capsys):
        doc = run_json(capsys, "distance", DATA, "forkSkewA", "narrowB")
        assert doc["strategy"] == "diagonal"
        assert entries(doc["mass"]) == [
            ((("1", "8"),), "0.5"),
            ((("2", "4"), ("5", "7")), "0.25"),
            ((("5", "7"),), "0.25"),
        ]
        assert [(s["mu"], s["lo"], s["hi"]) for s in doc["fuzzy"]] == [
            ("0.5", "1", "2"),
            ("0.75", "2", "4"),
            ("0.5", "4", "5"),
            ("1", "5", "7"),
            ("0.5", "7", "8"),
        ]

    def test_result_mass_feeds_back_into_defuzz(self, capsys, tmp_path):
        doc = run_json(capsys, "distance", DATA, "narrowA", "narrowB", "--directional")
        spec = write_doc(tmp_path, {"sets": [doc["mass"]]})
        summary = run_json(capsys, "defuzz", spec, "D(narrowA,narrowB)")
        assert summary["max_likelihood"] == [["4", "6"]]
        assert summary["centre_of_gravity"] == "5"


class TestPlots:
    def test_plot_rows_for_diagonal_distance(self, capsys):
        code, out, err = run(capsys, "distance", DATA, "A", "B", "--plot-step", "1")
        assert code == 0
        assert out.splitlines() == [
            "x,mu",
            "1,0.5",
            "2,0.5",
            "3,1",
            "4,1",
            "5,1",
            "6,1",
            "7,1",
            "8,0.5",
            "9,0.5",
        ]

    def test_fractional_step(self, capsys):
        code, out, err = run(
            capsys, "distance", DATA, "forkSkewA", "narrowB", "--plot-step", "0.5"
        )
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert out.splitlines()[0] == "x,mu"
        assert rows["3"] == "0.75"
        assert rows["4"] == "0.75"
        assert rows["4.5"] == "0.5"
        assert rows["6"] == "1"

    def test_empty_result_plots_header_only(self, capsys, tmp_path):
        spec = write_doc(
            tmp_path,
            {"sets": [{"name": "void", "kind": "mass", "entries": [{"focal": [], "mass": 1}]}]},
        )
        code, out, err = run(capsys, "distance", spec, "void", "void", "--plot-step", "1")
        assert code == 0
        assert out == "x,mu\n"

    def test_plot_step_must_be_positive(self, capsys):
        code, out, err = run(capsys, "distance", DATA, "A", "B", "--plot-step", "0")
        assert code == 2
        assert "plot-step" in err

    def test_plot_rows_limited(self, capsys):
        code, out, err = run(capsys, "distance", DATA, "A", "B", "--plot-step", "0.0000001")
        assert (code, out) == (2, "")
        assert err == "fdist: --plot-step 0.0000001 gives more than 100000 rows\n"


class TestUnifyCommand:
    def test_both_routings_by_default(self, capsys):
        doc = run_json(capsys, "unify", DATA, "claim", "evidence")
        assert doc["product"] == {"t": "0.67", "f": "0", "ft": "0.23", "empty": "0.1"}
        assert doc["maximal"] == {"t": "0.5", "f": "0", "ft": "0.4", "empty": "0.1"}

    def test_single_routing(self, capsys):
        doc = run_json(capsys, "unify", DATA, "claim", "evidence", "--routing", "product")
        assert "maximal" not in doc
        doc = run_json(capsys, "unify", DATA, "claim", "evidence", "--routing", "maximal")
        assert "product" not in doc

    def test_numeric_inputs_rejected(self, capsys):
        code, out, err = run(capsys, "unify", DATA, "narrowA", "evidence")
        assert code == 2
        assert "must be discrete" in err


class TestDefuzzCommand:
    def test_narrow_triangles(self, capsys):
        a = run_json(capsys, "defuzz", DATA, "narrowA")
        b = run_json(capsys, "defuzz", DATA, "narrowB")
        assert a["max_likelihood"] == [["2", "3"]]
        assert a["centre_of_gravity"] == "2.5"
        assert b["max_likelihood"] == [["7", "8"]]
        assert b["centre_of_gravity"] == "7.5"

    def test_subnormal_set_reports_unassigned_mass(self, capsys):
        doc = run_json(capsys, "defuzz", DATA, "subA")
        assert doc["unassigned"] == "0.5"
        assert doc["max_likelihood"] == [["1", "4"]]
        assert doc["centre_of_gravity"] == "2.5"

    def test_points_set_defuzzifies(self, capsys):
        doc = run_json(capsys, "defuzz", DATA, "A")
        assert doc["centre_of_gravity"] == "3"

    def test_degenerate_support_is_an_error(self, capsys, tmp_path):
        spec = write_doc(
            tmp_path,
            {"sets": [{"name": "pt", "kind": "mass", "entries": [{"focal": [[2, 2]], "mass": 1}]}]},
        )
        code, out, err = run(capsys, "defuzz", spec, "pt")
        assert code == 2
        assert "zero-length" in err


class TestRestrictCheckCommand:
    def test_two_slice_mixture_found(self, capsys):
        doc = run_json(capsys, "restrict-check", DATA, "prod2", "--basis", "diag2,anti2")
        assert doc["coefficients"] == ["0.5", "0.5"]
        assert doc["reachability"] == {
            "diag2": {"basis_to_target": False, "target_to_basis": False},
            "anti2": {"basis_to_target": False, "target_to_basis": False},
        }

    def test_four_slice_mixture_does_not_exist(self, capsys):
        doc = run_json(capsys, "restrict-check", DATA, "prod4", "--basis", "diag4,anti4")
        assert doc["coefficients"] is None

    def test_reachable_basis_reported(self, capsys, tmp_path):
        spec = write_doc(
            tmp_path,
            {
                "sets": [
                    {"name": "whole", "kind": "mass", "entries": [{"focal": [[2, 8]], "mass": 1}]},
                    {
                        "name": "split",
                        "kind": "mass",
                        "entries": [
                            {"focal": [[2, 8]], "mass": "0.5"},
                            {"focal": [[3, 7]], "mass": "0.25"},
                            {"focal": [[4, 6]], "mass": "0.25"},
                        ],
                    },
                ]
            },
        )
        doc = run_json(capsys, "restrict-check", spec, "split", "--basis", "whole")
        assert doc["coefficients"] is None
        assert doc["reachability"]["whole"] == {
            "basis_to_target": True,
            "target_to_basis": False,
        }

    def test_target_in_basis_is_identity(self, capsys):
        doc = run_json(capsys, "restrict-check", DATA, "diag2", "--basis", "diag2")
        assert doc["coefficients"] == ["1"]
        assert doc["reachability"]["diag2"] == {
            "basis_to_target": True,
            "target_to_basis": True,
        }

    def test_non_mass_kind_rejected(self, capsys):
        code, out, err = run(capsys, "restrict-check", DATA, "A", "--basis", "diag2")
        assert code == 2
        assert "must be mass kind" in err

    def test_empty_basis_rejected(self, capsys):
        code, out, err = run(capsys, "restrict-check", DATA, "prod2", "--basis", ",")
        assert code == 2
        assert "at least one" in err


class TestLabelAndNumericMassSets:
    @pytest.fixture
    def kinds(self, tmp_path):
        """A label mass T, a numeric mass B and a mass E on the empty set alone."""
        return write_doc(tmp_path, {"sets": [
            {"name": "T", "kind": "mass", "entries": [
                {"focal": ["a"], "mass": "0.5"}, {"focal": ["a", "b"], "mass": "0.5"}]},
            {"name": "B", "kind": "mass", "entries": [
                {"focal": [[1, 2]], "mass": "0.5"}, {"focal": [[0, 3]], "mass": "0.5"}]},
            {"name": "E", "kind": "mass", "entries": [{"focal": [], "mass": 1}]},
        ]})

    def test_empty_only_target_against_both_kinds(self, capsys, kinds):
        doc = run_json(capsys, "restrict-check", kinds, "E", "--basis", "B,T")
        assert doc["coefficients"] is None
        assert doc["reachability"] == {
            "B": {"basis_to_target": True, "target_to_basis": False},
            "T": {"basis_to_target": True, "target_to_basis": False},
        }

    def test_label_target_against_numeric_basis_refused(self, capsys, kinds):
        code, out, err = run(capsys, "restrict-check", kinds, "T", "--basis", "B")
        assert (code, out, err) == (
            2, "", "fdist: cannot mix label-set and numeric focal elements\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["distance", "T", "B"], "set 'T' has label focal elements; distance needs numeric sets"),
        (["defuzz", "T"], "set 'T' has label focal elements; a numeric set is required"),
    ], ids=["distance", "defuzz"])
    def test_label_mass_set_refused_where_numeric_needed(self, capsys, kinds, argv, message):
        code, out, err = run(capsys, argv[0], kinds, *argv[1:])
        assert (code, out, err) == (2, "", f"fdist: {message}\n")


class TestErrorsAndEnvironment:
    def test_unknown_set_name(self, capsys):
        code, out, err = run(capsys, "mass", DATA, "nope")
        assert code == 2
        assert out == ""
        assert "unknown set 'nope'" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "mass", str(tmp_path / "absent.json"), "A")
        assert code == 2
        assert "absent.json" in err

    def test_malformed_json_reports_line(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"sets": [\n  {,}\n]}')
        code, out, err = run(capsys, "mass", str(p), "A")
        assert code == 2
        assert "line 2" in err

    def test_bad_strategy_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["distance", DATA, "A", "B", "--strategy", "zigzag"])
        assert info.value.code == 2

    def test_mass_sum_enforced_by_default(self, capsys, tmp_path):
        spec = write_doc(
            tmp_path,
            {"sets": [{"name": "m", "kind": "mass", "entries": [{"focal": [[0, 1]], "mass": "0.999"}]}]},
        )
        code, out, err = run(capsys, "mass", spec, "m")
        assert code == 2

    def test_tolerance_env_relaxes_validation(self, capsys, tmp_path, monkeypatch):
        spec = write_doc(
            tmp_path,
            {"sets": [{"name": "m", "kind": "mass", "entries": [{"focal": [[0, 1]], "mass": "0.999"}]}]},
        )
        monkeypatch.setenv("FDIST_TOLERANCE", "0.01")
        code, out, err = run(capsys, "mass", spec, "m")
        assert code == 0
        assert json.loads(out)["mass"]["entries"][0]["mass"] == "0.999"

    def test_tolerance_env_must_be_numeric(self, capsys, monkeypatch):
        monkeypatch.setenv("FDIST_TOLERANCE", "tiny")
        code, out, err = run(capsys, "mass", DATA, "A")
        assert code == 2
        assert "FDIST_TOLERANCE" in err

    def test_json_infinity_endpoint_exits_two(self, capsys, tmp_path):
        p = tmp_path / "inf.json"
        p.write_text(
            '{"sets": [{"name": "m", "kind": "mass",'
            ' "entries": [{"focal": [[0, Infinity]], "mass": 1}]}]}'
        )
        code, out, err = run(capsys, "mass", str(p), "m")
        assert (code, out) == (2, "")
        assert err == "fdist: $.sets[0].entries[0].focal[0]: not a finite number: inf\n"

    def test_infinite_string_grade_exits_two(self, capsys, tmp_path):
        spec = write_doc(
            tmp_path, {"sets": [{"name": "g", "kind": "discrete", "grades": {"a": "inf"}}]}
        )
        code, out, err = run(capsys, "mass", spec, "g")
        assert (code, out) == (2, "")
        assert err == "fdist: $.sets[0].grades.a: not a finite number: 'inf'\n"

    def test_infinite_tolerance_env_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("FDIST_TOLERANCE", "inf")
        code, out, err = run(capsys, "mass", DATA, "A")
        assert (code, out) == (2, "")
        assert err == "fdist: FDIST_TOLERANCE must be a number, got 'inf'\n"

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        code, out, err = run(capsys, "mass", str(p), "m")
        assert (code, out) == (2, "")
        assert err == "fdist: $: document nested too deeply\n"

    def test_overlong_integer_literal_exits_two(self, capsys, tmp_path):
        p = tmp_path / "long.json"
        p.write_text('{"sets": [{"name": "g", "kind": "discrete", "grades": {"a": 1%s}}]}' % ("0" * 5000))
        code, out, err = run(capsys, "mass", str(p), "g")
        assert (code, out) == (2, "")
        assert err.startswith("fdist: $: integer literal longer than")

    def test_huge_decimal_exponent_exits_two(self, capsys, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text('{"sets": [{"name": "g", "kind": "discrete", "grades": {"a": 1e999999999}}]}')
        code, out, err = run(capsys, "mass", str(p), "g")
        assert (code, out) == (2, "")
        assert err.startswith("fdist: $.sets[0].grades.a: exponent out of range")

    def test_slice_count_limited(self, capsys, tmp_path):
        doc = {"sets": [{"name": "S", "kind": "points", "vertices": [[0, 0], [1, 1], [2, 0]],
                         "slices": 100_000_000}]}
        code, out, err = run(capsys, "mass", write_doc(tmp_path, doc), "S")
        assert (code, out) == (2, "")
        assert err == "fdist: slice count 100000000 exceeds the limit 1000\n"
        code, out, err = run(capsys, "distance", DATA, "A", "B", "--slices", "1001")
        assert (code, out) == (2, "")
        assert err == "fdist: slice count 1001 exceeds the limit 1000\n"

    @pytest.mark.parametrize("argv", [
        ["mass", "M"],
        ["distance", "M", "M"],
        ["unify", "M", "M"],
        ["defuzz", "M"],
        ["restrict-check", "M", "--basis", "M"],
    ], ids=lambda argv: argv[0])
    def test_mixed_kind_mass_set_refused(self, capsys, tmp_path, argv):
        doc = {"sets": [{"name": "M", "kind": "mass", "entries": [
            {"focal": ["a"], "mass": "0.5"}, {"focal": [[1, 2]], "mass": "0.5"}]}]}
        code, out, err = run(capsys, argv[0], write_doc(tmp_path, doc), *argv[1:])
        assert (code, out) == (2, "")
        assert err == (
            "fdist: $.sets[0].entries: cannot mix label-set and numeric focal elements\n"
        )

    def test_product_cells_limited_for_mass_sets(self, capsys, tmp_path):
        # two 1002-focal mass sets: 1002^2 cells exceed (1000 + 1)^2, the
        # most that two points sets at the slice limit can make
        def wide(name):
            return {"name": name, "kind": "mass", "entries": [
                {"focal": [[-k, k]], "mass": "1/1002"} for k in range(1, 1003)]}

        spec = write_doc(tmp_path, {"sets": [wide("P"), wide("R")]})
        code, out, err = run(capsys, "distance", spec, "P", "R", "--strategy", "product")
        assert (code, out) == (2, "")
        assert err == "fdist: product of 1004004 cells exceeds the limit 1002001\n"
        assert run(capsys, "defuzz", spec, "P")[0] == 0
        assert run(capsys, "distance", spec, "P", "R", "--strategy", "diagonal")[0] == 0

    def test_scattered_masses_name_the_product_strategy(self, capsys, tmp_path):
        def scattered(name, a, b):
            return {"name": name, "kind": "mass", "entries": [
                {"focal": [a], "mass": "1/2"}, {"focal": [b], "mass": "1/2"}]}

        spec = write_doc(tmp_path, {"sets": [scattered("P", [0, 1], [5, 6]),
                                             scattered("R", [2, 3], [8, 9])]})
        code, out, err = run(capsys, "distance", spec, "P", "R")
        assert (code, out) == (2, "")
        assert err.startswith("fdist: focal elements not nested:")
        assert err.endswith("the product strategy does not\n")
        assert run(capsys, "distance", spec, "P", "R", "--strategy", "product")[0] == 0

    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "distance", DATA, "A4", "B4", "--strategy", "product")
        second = run(capsys, "distance", DATA, "A4", "B4", "--strategy", "product")
        assert first == second
        third = run(capsys, "restrict-check", DATA, "prod4", "--basis", "diag4,anti4")
        fourth = run(capsys, "restrict-check", DATA, "prod4", "--basis", "diag4,anti4")
        assert third == fourth

    def test_parser_state_does_not_leak_between_calls(self, capsys):
        # main() reuses one parser; a flag, default or error of one call
        # must not reach the next.
        plain = ["distance", DATA, "A", "B"]
        first = run(capsys, *plain)
        assert first[0] == 0
        assert run(capsys, "distance", DATA, "A", "B", "--directional",
                   "--strategy", "product", "--slices", "4")[0] == 0
        with pytest.raises(SystemExit) as info:
            main(["distance", DATA, "A", "B", "--strategy", "zigzag"])
        assert info.value.code == 2
        capsys.readouterr()
        assert run(capsys, *plain) == first
        fresh = subprocess.run([sys.executable, "-m", "fdist.cli", *plain], capture_output=True,
                               text=True, env=module_env())
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == first


class TestDigitLimit:
    """Exact numbers whose decimal form would pass the interpreter's
    integer digit limit (sys.get_int_max_str_digits())."""

    @staticmethod
    def spec(tmp_path, entries):
        return write_doc(tmp_path, {"sets": [{"name": "m", "kind": "mass", "entries": entries}]})

    @staticmethod
    def fraction_text(q):
        return f"{q.numerator}/{q.denominator}"

    def test_mass_within_the_limit_prints_and_reparses(self, capsys, tmp_path):
        # 1/2**14000 has a 4215-digit denominator but a 9786-digit decimal.
        q = Fraction(1, 2**14000)
        spec = self.spec(tmp_path, [{"focal": [[0, 1]], "mass": self.fraction_text(q)},
                                    {"focal": [[0, 2]], "mass": self.fraction_text(1 - q)}])
        doc = run_json(capsys, "mass", spec, "m")
        assert doc["mass"]["entries"][0]["mass"] == self.fraction_text(q)
        again = fdist.parse_document({"sets": [doc["mass"]]})["m"].value
        assert again == fdist.load(spec)["m"].value
        for argv in (["defuzz", spec, "m"], ["distance", spec, "m", "m"]):
            assert run(capsys, *argv)[0] == 0

    def test_endpoint_with_too_many_places_reparses(self, capsys, tmp_path):
        # 1/2**5000 as a decimal has 3495 digits but 5000 places, which
        # as_fraction refuses to read back.
        q = Fraction(1, 2**5000)
        spec = self.spec(tmp_path, [{"focal": [[0, self.fraction_text(q)]], "mass": 1}])
        doc = run_json(capsys, "mass", spec, "m")
        assert doc["mass"]["entries"][0]["focal"] == [["0", self.fraction_text(q)]]
        assert fdist.parse_document({"sets": [doc["mass"]]})["m"].value == fdist.load(spec)["m"].value

    def test_product_past_the_limit_names_it(self, capsys, tmp_path):
        q = Fraction(1, 2**14000)
        spec = self.spec(tmp_path, [{"focal": [[0, 1]], "mass": self.fraction_text(q)},
                                    {"focal": [[0, 2]], "mass": self.fraction_text(1 - q)}])
        code, out, err = run(capsys, "distance", spec, "m", "m", "--strategy", "product")
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (2, "")
        assert err == f"fdist: exact number too long to print: over the integer digit limit of {limit} digits\n"


class TestNumbersPastTheDigitLimit:
    """Every number a document may hold prints back: one whose numerator
    or denominator passes the integer digit limit is refused where it is
    read, with the field named, and no message prints such a number."""

    LIMIT = sys.get_int_max_str_digits()

    @staticmethod
    def spec(tmp_path, focal):
        return write_doc(tmp_path, {"sets": [{"name": "m", "kind": "mass",
                                              "entries": [{"focal": [focal], "mass": 1}]}]})

    def test_out_of_order_endpoint_past_the_limit_names_the_field(self, capsys, tmp_path):
        code, out, err = run(capsys, "mass", self.spec(tmp_path, ["1.5e4300", 0]), "m")
        assert (code, out) == (2, "")
        assert err == ("fdist: $.sets[0].entries[0].focal[0]: exact number too long to print:"
                       f" over the integer digit limit of {self.LIMIT} digits\n")

    def test_out_of_order_message_stays_short(self, capsys, tmp_path):
        # 1/10**LIMIT prints as a decimal, but not as the p/q of str()
        code, out, err = run(capsys, "mass", self.spec(tmp_path, [f"1e-{self.LIMIT}", 0]), "m")
        assert (code, out) == (2, "")
        assert err == (f"fdist: $.sets[0].entries[0].focal[0]: interval endpoints out of order:"
                       f" ~1e-{self.LIMIT} > 0\n")

    @pytest.mark.parametrize("text", ["1e{L1}", "-1e{L1}", "9{nines}", "1/1{zeros}", "{nines}.5"])
    def test_numbers_at_the_limit_print_back(self, capsys, tmp_path, text):
        text = text.format(L1=self.LIMIT - 1, nines="9" * (self.LIMIT - 1),
                           zeros="0" * (self.LIMIT - 1))
        spec = self.spec(tmp_path, [text, text])
        doc = run_json(capsys, "mass", spec, "m")
        assert fdist.parse_document({"sets": [doc["mass"]]})["m"].value == fdist.load(spec)["m"].value

    @pytest.mark.parametrize("text", ["1e{L}", "1.5e{L}", "-1e{L}", "1{zeros}", "1{zeros}.5"])
    def test_numbers_past_the_limit_are_refused(self, capsys, tmp_path, text):
        text = text.format(L=self.LIMIT, zeros="0" * self.LIMIT)
        code, out, err = run(capsys, "mass", self.spec(tmp_path, [text, text]), "m")
        assert (code, out) == (2, "")
        assert err.startswith("fdist: $.sets[0].entries[0].focal[0]: exact number too long to print")

    def test_sum_past_the_limit_stays_short(self, capsys, tmp_path):
        # each mass prints, but their sum has a 7620-digit denominator
        doc = {"sets": [{"name": "m", "kind": "mass", "entries": [
            {"focal": [[0, 1]], "mass": f"1/{3 ** 8000}"},
            {"focal": [[0, 2]], "mass": f"1/{7 ** 4500}"},
        ]}]}
        code, out, err = run(capsys, "mass", write_doc(tmp_path, doc), "m")
        assert (code, out) == (2, "")
        assert err == "fdist: $.sets[0].entries: masses sum to ~1.15e-3803, expected 1\n"

    def test_unreadable_number_is_echoed_short(self, capsys, tmp_path):
        doc = {"sets": [{"name": "m", "kind": "mass", "entries": [
            {"focal": [[0, 1]], "mass": "1/1" + "0" * self.LIMIT},
        ]}]}
        code, out, err = run(capsys, "mass", write_doc(tmp_path, doc), "m")
        assert (code, out) == (2, "")
        assert err == (f"fdist: $.sets[0].entries[0].mass: not a number:"
                       f" '1/1{'0' * 33}...\n")


class TestStacksEndingNearOne:
    """A mass set whose total lies within the tolerance above 1 stacks at
    that total: it pairs with itself, and not with a set ending lower."""

    @staticmethod
    def spec(tmp_path):
        def mass_set(name, last):
            return {"name": name, "kind": "mass", "entries": [
                {"focal": [[0, 2]], "mass": "0.5"}, {"focal": [[0, 1]], "mass": last}]}
        return write_doc(tmp_path, {"sets": [mass_set("A", "0.5000000001"),
                                             mass_set("B", "0.4999999999")]})

    def test_total_above_one_pairs_with_itself(self, capsys, tmp_path):
        doc = run_json(capsys, "distance", self.spec(tmp_path), "A", "A")
        assert doc["strategy"] == "diagonal"
        assert entries(doc["mass"]) == [((("0", "1"),), "0.5000000001"), ((("0", "2"),), "0.5")]

    def test_stacks_ending_at_different_levels_exit_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "distance", self.spec(tmp_path), "A", "B")
        assert (code, out) == (2, "")
        assert err == "fdist: slice stacks end at different levels: 1.0000000001 and 0.9999999999\n"


class TestNoEntries:
    """A mass set whose only mass is 0, read at FDIST_TOLERANCE=1, has no
    entries at all; each command treats it as it always has."""

    @pytest.fixture
    def spec(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FDIST_TOLERANCE", "1")
        return write_doc(tmp_path, {"sets": [
            {"name": "Z", "kind": "mass", "entries": [{"focal": [[0, 1]], "mass": 0}]},
            {"name": "N", "kind": "mass", "entries": [{"focal": [[0, 1]], "mass": 1}]},
        ]})

    def test_mass_has_no_entries_and_no_steps(self, capsys, spec):
        doc = run_json(capsys, "mass", spec, "Z")
        assert doc["mass"]["entries"] == [] and doc["fuzzy"] == []

    @pytest.mark.parametrize("argv, message", [
        (["defuzz", "Z"], "no numeric support to take a maximum over"),
        (["distance", "Z", "N"], "slice stacks end at different levels: 0 and 1"),
        (["distance", "Z", "N", "--strategy", "product"], "masses sum to 0, expected 1"),
    ], ids=["defuzz", "distance", "distance-product"])
    def test_commands_needing_mass_exit_two(self, capsys, spec, argv, message):
        code, out, err = run(capsys, argv[0], spec, *argv[1:])
        assert (code, out, err) == (2, "", f"fdist: {message}\n")

    @pytest.mark.parametrize("target, basis", [("Z", "N"), ("N", "Z")])
    def test_restrict_check_finds_no_combination(self, capsys, spec, target, basis):
        doc = run_json(capsys, "restrict-check", spec, target, "--basis", basis)
        assert doc["coefficients"] is None
        assert doc["reachability"] == {
            basis: {"basis_to_target": False, "target_to_basis": False}
        }


class TestLongInputEchoedShort:
    """Input repeated in a message is cut short (intervals.echo), however
    long it is."""

    LONG = "x" * 50_000

    def assert_short_failure(self, capsys, *argv, chars=200):
        try:
            code, _, err = run(capsys, *argv)
        except SystemExit as exc:  # argparse refuses the argument itself
            code, err = exc.code, capsys.readouterr().err
        assert code == 2 and len(err) < chars, (code, len(err))

    @pytest.mark.parametrize("raw", ["x" * 50_001, "-" + "1" * 50_000], ids=["unreadable", "negative"])
    def test_tolerance_env(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("FDIST_TOLERANCE", raw)
        self.assert_short_failure(capsys, "mass", DATA, "A")

    def test_unknown_set_name(self, capsys, tmp_path):
        spec = write_doc(tmp_path, {"sets": [{"name": "A", "kind": "points", "vertices": [[0, 1]]}]})
        self.assert_short_failure(capsys, "mass", spec, self.LONG)

    def test_unknown_document_field(self, capsys, tmp_path):
        spec = write_doc(tmp_path, {"sets": [{"name": "A", "kind": "points",
                                              "vertices": [[0, 1]], self.LONG: 1}]})
        self.assert_short_failure(capsys, "mass", spec, "A")

    def test_duplicated_set_name(self, capsys, tmp_path):
        one = {"name": self.LONG, "kind": "points", "vertices": [[0, 1]]}
        self.assert_short_failure(capsys, "mass", write_doc(tmp_path, {"sets": [one, one]}), "A")

    def test_slices_flag(self, capsys):
        self.assert_short_failure(capsys, "mass", DATA, "A", "--slices", self.LONG)

    def test_plot_step_flag(self, capsys):
        self.assert_short_failure(capsys, "distance", DATA, "A", "B", "--plot-step", "-1" + "0" * 4000)

    # a focal element of 3000 single points, about 50 KB of text
    POINTS = [[2 * k, 2 * k] for k in range(3000)]

    def test_negative_mass_on_a_long_focal_element(self, capsys, tmp_path):
        entries = [{"focal": self.POINTS, "mass": "-1/2"}, {"focal": [[0, 1]], "mass": "3/2"}]
        spec = write_doc(tmp_path, {"sets": [{"name": "M", "kind": "mass", "entries": entries}]})
        self.assert_short_failure(capsys, "mass", spec, "M", chars=300)

    def test_long_focal_elements_not_nested(self, capsys, tmp_path):
        entries = [{"focal": self.POINTS, "mass": "1/2"}, {"focal": [[-3, -1]], "mass": "1/2"}]
        spec = write_doc(tmp_path, {"sets": [{"name": "M", "kind": "mass", "entries": entries}]})
        self.assert_short_failure(capsys, "distance", spec, "M", "M", chars=300)

    def test_long_zero_length_focal_element(self, capsys, tmp_path):
        entries = [{"focal": self.POINTS, "mass": 1}]
        spec = write_doc(tmp_path, {"sets": [{"name": "M", "kind": "mass", "entries": entries}]})
        self.assert_short_failure(capsys, "defuzz", spec, "M", chars=300)

    def test_long_label_in_a_field_path(self, capsys, tmp_path):
        spec = write_doc(tmp_path, {"sets": [{"name": "D", "kind": "discrete",
                                              "grades": {self.LONG: "zz"}}]})
        self.assert_short_failure(capsys, "mass", spec, "D", chars=300)

    def test_many_long_set_names_listed(self, capsys, tmp_path):
        sets = [{"name": f"{k:03d}" + "n" * 97, "kind": "points", "vertices": [[0, 1]]}
                for k in range(500)]
        spec = write_doc(tmp_path, {"sets": sets})
        self.assert_short_failure(capsys, "mass", spec, "nope", chars=300)


class TestRenderedOutput:
    """Every command's output is the indented json.dumps text of its document."""

    @pytest.mark.parametrize("argv", [
        ["mass", "A"],
        ["distance", "A4", "B4", "--directional", "--strategy", "product"],
        ["unify", "claim", "evidence"],
        ["defuzz", "narrowA"],
        ["restrict-check", "prod2", "--basis", "diag2,anti2"],
        pytest.param(["mass", "claim"], id="mass-labels"),
        pytest.param(["distance", "A", "B"], id="distance-default-diagonal"),
        pytest.param(["distance", "subA", "narrowB"], id="distance-subnormal"),
    ], ids=lambda argv: argv[0])
    def test_output_equals_oracle_render(self, capsys, argv):
        code, out, err = run(capsys, argv[0], DATA, *argv[1:])
        assert code == 0, err
        assert out == oracle_render(json.loads(out))

    def test_rows_cover_labels_and_the_empty_set(self, capsys):
        labels = run_json(capsys, "mass", DATA, "claim")
        assert all(isinstance(e["focal"][0], str) for e in labels["mass"]["entries"])
        assert "fuzzy" not in labels
        diagonal = run_json(capsys, "distance", DATA, "A", "B")
        assert diagonal["strategy"] == "diagonal"
        subnormal = run_json(capsys, "distance", DATA, "subA", "narrowB")
        assert {"focal": [], "mass": "0.5"} in subnormal["mass"]["entries"]


@pytest.mark.skipif(shutil.which("fdist") is None, reason="console script not on PATH")
def test_console_script_runs():
    proc = subprocess.run(
        ["fdist", "mass", DATA, "A"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert '"command": "mass"' in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [
    ["defuzz", DATA, "A"],  # fails on the flush
    ["distance", DATA, "A", "B", "--slices", "40", "--strategy", "product"],  # on the write
], ids=["small", "large"])
def test_unwritable_stdout_is_a_clean_failure(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fdist.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=module_env(),
        )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fdist: "), proc.stderr


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fdist.cli", "unify", DATA, "claim", "evidence"],
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["product"]["t"] == "0.67"


# ---------------------------------------------------------------------------
# never raises: every command on small generated documents exits 0 or 2

KINDS = ["points", "discrete", "mass"]
NEEDS = {  # the kinds each command accepts, drawn more often than the rest
    "mass": KINDS,
    "distance": ["points", "mass"],
    "unify": ["discrete"],
    "defuzz": ["points", "mass"],
    "restrict-check": ["mass"],
}
COORDS = st.sampled_from([-2, -1, 0, 1, "1/2", "3/2", 2, "0.25"])
GRADES = st.sampled_from([1, "1/4", "0.5", "2/3", 0, 1, "3/4", 1, "1/2", 1, 2])  # 2 is out of range


@st.composite
def small_sets(draw, name, kind):
    """One set of the given kind, mostly valid: vertices sorted, masses
    summing to 1 and grades within [0,1], each with a chance to break."""
    if kind == "points":
        xs = draw(st.lists(COORDS, min_size=1, max_size=4))
        if draw(st.integers(0, 7)):
            xs.sort(key=Fraction)
        vertices = [[x, draw(GRADES)] for x in xs]
        return {"name": name, "kind": kind, "vertices": vertices,
                "slices": draw(st.integers(1, 8))}
    if kind == "discrete":
        grades = draw(st.dictionaries(st.sampled_from("abc"), GRADES, min_size=1))
        return {"name": name, "kind": kind, "grades": grades}
    focal = (
        st.lists(st.sampled_from("ab"), max_size=2)
        if draw(st.booleans())
        else st.lists(
            st.lists(COORDS, min_size=2, max_size=2).map(lambda p: sorted(p, key=Fraction)),
            max_size=2,
        )
    )
    focals = draw(st.lists(focal, min_size=1, max_size=3))
    weights = [draw(st.integers(1, 4)) for _ in focals]
    masses = [f"{w}/{sum(weights)}" for w in weights]
    if draw(st.integers(0, 7)) == 0:
        masses[0] = draw(GRADES)
    entries = [{"focal": f, "mass": m} for f, m in zip(focals, masses)]
    return {"name": name, "kind": kind, "entries": entries}


@st.composite
def cli_calls(draw):
    """A document defining A, B and C, and the arguments of one command on
    it; names are drawn from ABCD, so a lookup can miss."""
    command = draw(st.sampled_from(sorted(NEEDS)))
    kind = st.sampled_from(NEEDS[command] * 3 + KINDS)
    doc = {"sets": [draw(small_sets(n, draw(kind))) for n in "ABC"]}
    name = st.sampled_from("ABCD")
    argv = [command]
    if command == "mass":
        argv += [draw(name)]
        if draw(st.booleans()):
            argv += ["--slices", str(draw(st.integers(1, 8)))]
    elif command == "distance":
        argv += [draw(name), draw(name)]
        if draw(st.booleans()):
            argv += ["--directional"]
        strategy = draw(st.sampled_from([None, "product", "diagonal", "antidiagonal"]))
        if strategy:
            argv += ["--strategy", strategy]
        if draw(st.booleans()):
            argv += ["--slices", str(draw(st.integers(1, 8)))]
        if draw(st.booleans()):
            argv += ["--plot-step", draw(st.sampled_from(["0.5", "1/3", "0", "-1", "x"]))]
    elif command == "unify":
        argv += [draw(name), draw(name), "--routing",
                 draw(st.sampled_from(["product", "maximal", "both"]))]
    elif command == "defuzz":
        argv += [draw(name)]
    else:
        argv += [draw(name), "--basis", ",".join(draw(st.lists(name, min_size=1, max_size=2)))]
    return doc, argv


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("never_raises") / "sets.json"


@given(cli_calls())
@settings(max_examples=200, deadline=None)
def test_cli_returns_zero_or_two_and_never_raises(spec_path, call):
    doc, argv = call
    spec_path.write_text(json.dumps(doc))
    argv.insert(1, str(spec_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, doc)
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()
