"""Input-document parsing: exact numbers, field-path errors, round-trips."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdist.intervals import IntervalUnion
from fdist.mass import (
    DiscreteFuzzySet,
    MassAssignment,
    PiecewiseShape,
    fuzzy_from_mass,
)
from fdist.specfile import (
    SpecError,
    focal_to_doc,
    fuzzy_to_doc,
    load,
    mass_to_doc,
    parse_document,
    parse_text,
    truth_to_doc,
)
from fdist.unification import TruthAssignment, TruthLabel

from helpers import numeric_masses

H = F(1, 2)
Q = F(1, 4)


def iu(*pairs):
    return IntervalUnion.from_pairs(pairs)


def one_set(obj):
    return parse_document({"sets": [obj]})


POINTS_A = {"name": "A", "kind": "points", "vertices": [[1, 0], [3, 1], [5, 0]], "slices": 2}
DISCRETE = {"name": "claim", "kind": "discrete", "grades": {"a": 1, "b": "0.7", "c": "0.2"}}
MASS_AN = {
    "name": "AN",
    "kind": "mass",
    "entries": [{"focal": [[1, 4]], "mass": 0.5}, {"focal": [], "mass": "1/2"}],
}


class TestParsing:
    def test_points_set(self):
        s = one_set(POINTS_A)["A"]
        assert s.kind == "points"
        assert s.slices == 2
        assert s.value == PiecewiseShape([(1, 0), (3, 1), (5, 0)])

    def test_discrete_set_with_exact_decimals(self):
        s = one_set(DISCRETE)["claim"]
        assert s.kind == "discrete"
        assert s.slices is None
        assert s.value == DiscreteFuzzySet({"a": F(1), "b": F(7, 10), "c": F(1, 5)})

    def test_mass_set_with_empty_focal(self):
        s = one_set(MASS_AN)["AN"]
        assert s.value == MassAssignment([(iu((1, 4)), H), (IntervalUnion(), H)])

    def test_label_focals(self):
        doc = {
            "name": "m",
            "kind": "mass",
            "entries": [
                {"focal": ["t"], "mass": "0.5"},
                {"focal": ["f", "t"], "mass": "0.5"},
            ],
        }
        s = one_set(doc)["m"]
        assert s.value == MassAssignment(
            [(frozenset({"t"}), H), (frozenset({"f", "t"}), H)]
        )

    def test_multi_interval_focal(self):
        doc = {
            "name": "m",
            "kind": "mass",
            "entries": [{"focal": [[1, 2], [4, 5]], "mass": 1}],
        }
        s = one_set(doc)["m"]
        assert s.value == MassAssignment([(iu((1, 2), (4, 5)), F(1))])

    def test_json_decimal_literals_parse_exactly(self):
        sets = parse_text(
            '{"sets": [{"name": "m", "kind": "mass",'
            ' "entries": [{"focal": [[0, 1]], "mass": 0.9},'
            '             {"focal": [], "mass": 0.1}]}]}'
        )
        assert sets["m"].value.mass_of(IntervalUnion()) == F(1, 10)

    def test_string_fraction_syntax(self):
        doc = {
            "name": "m",
            "kind": "mass",
            "entries": [
                {"focal": [[0, 1]], "mass": "15/16"},
                {"focal": [], "mass": "1/16"},
            ],
        }
        assert one_set(doc)["m"].value.mass_of(IntervalUnion()) == F(1, 16)

    def test_several_sets(self):
        sets = parse_document({"sets": [POINTS_A, DISCRETE, MASS_AN]})
        assert set(sets) == {"A", "claim", "AN"}

    def test_load_reads_a_file(self, tmp_path):
        p = tmp_path / "sets.json"
        p.write_text('{"sets": [{"name": "A", "kind": "points", "vertices": [[1, 0], [3, 1], [5, 0]]}]}')
        assert load(p)["A"].value == PiecewiseShape([(1, 0), (3, 1), (5, 0)])


def expect_error(doc, path, fragment=""):
    with pytest.raises(SpecError) as info:
        parse_document(doc)
    assert info.value.path == path
    assert fragment in str(info.value)
    return info.value


class TestErrors:
    def test_document_must_be_object(self):
        expect_error([], "$", "must be an object")

    def test_unknown_top_level_field(self):
        expect_error({"sets": [], "extra": 1}, "$", "unknown field 'extra'")

    def test_sets_must_be_list(self):
        expect_error({"sets": {}}, "$.sets", "must be a list")

    def test_set_must_be_object(self):
        expect_error({"sets": ["A"]}, "$.sets[0]", "must be an object")

    def test_missing_kind(self):
        expect_error({"sets": [{"name": "A"}]}, "$.sets[0]", "missing field 'kind'")

    def test_empty_name(self):
        expect_error(
            {"sets": [{"name": "", "kind": "points", "vertices": [[0, 1]]}]},
            "$.sets[0].name",
            "non-empty string",
        )

    def test_unknown_kind(self):
        expect_error(
            {"sets": [{"name": "A", "kind": "triangle"}]},
            "$.sets[0].kind",
            "points, discrete, mass",
        )

    def test_unknown_set_field(self):
        doc = dict(POINTS_A, color="red")
        expect_error({"sets": [doc]}, "$.sets[0]", "unknown field 'color'")

    def test_missing_body_field(self):
        expect_error(
            {"sets": [{"name": "A", "kind": "points"}]},
            "$.sets[0]",
            "a points set needs 'vertices'",
        )

    def test_body_field_of_wrong_kind(self):
        doc = dict(MASS_AN)
        doc["grades"] = {"a": 1}
        expect_error({"sets": [doc]}, "$.sets[0].grades", "not allowed on a mass set")

    def test_slices_on_non_points_set(self):
        doc = dict(MASS_AN, slices=4)
        expect_error({"sets": [doc]}, "$.sets[0].slices", "only to points sets")

    def test_slices_must_be_positive(self):
        doc = dict(POINTS_A, slices=0)
        expect_error({"sets": [doc]}, "$.sets[0].slices", "positive integer")

    def test_slices_rejects_boolean(self):
        doc = dict(POINTS_A, slices=True)
        expect_error({"sets": [doc]}, "$.sets[0].slices", "positive integer")

    def test_malformed_vertex(self):
        doc = {"name": "A", "kind": "points", "vertices": [[1, 0], [3]]}
        expect_error({"sets": [doc]}, "$.sets[0].vertices[1]", "[x, membership] pair")

    def test_vertices_going_backwards(self):
        doc = {"name": "A", "kind": "points", "vertices": [[3, 0], [1, 1]]}
        expect_error({"sets": [doc]}, "$.sets[0].vertices")

    def test_membership_above_one(self):
        doc = {"name": "A", "kind": "points", "vertices": [[1, 0], [3, 2], [5, 0]]}
        expect_error({"sets": [doc]}, "$.sets[0].vertices")

    def test_grade_out_of_range(self):
        doc = {"name": "g", "kind": "discrete", "grades": {"a": "3/2"}}
        expect_error({"sets": [doc]}, "$.sets[0].grades")

    def test_boolean_is_not_a_number(self):
        doc = {"name": "g", "kind": "discrete", "grades": {"a": True}}
        expect_error({"sets": [doc]}, "$.sets[0].grades.a", "boolean")

    def test_entry_must_be_object(self):
        doc = {"name": "m", "kind": "mass", "entries": [[1, 2]]}
        expect_error({"sets": [doc]}, "$.sets[0].entries[0]", "must be an object")

    def test_entry_unknown_field(self):
        doc = {
            "name": "m",
            "kind": "mass",
            "entries": [{"focal": [[0, 1]], "mass": 1, "weight": 2}],
        }
        expect_error({"sets": [doc]}, "$.sets[0].entries[0]", "unknown field 'weight'")

    def test_focal_mixing_labels_and_intervals(self):
        doc = {"name": "m", "kind": "mass", "entries": [{"focal": [[0, 1], "t"], "mass": 1}]}
        expect_error({"sets": [doc]}, "$.sets[0].entries[0].focal[1]", "cannot mix")

    def test_focal_pair_malformed(self):
        doc = {"name": "m", "kind": "mass", "entries": [{"focal": [[0, 1, 2]], "mass": 1}]}
        expect_error({"sets": [doc]}, "$.sets[0].entries[0].focal[0]", "[lo, hi] pair")

    def test_focal_endpoints_out_of_order(self):
        doc = {"name": "m", "kind": "mass", "entries": [{"focal": [[5, 1]], "mass": 1}]}
        expect_error({"sets": [doc]}, "$.sets[0].entries[0].focal[0]", "5 > 1")

    def test_masses_must_sum_to_one(self):
        doc = {"name": "m", "kind": "mass", "entries": [{"focal": [[0, 1]], "mass": "0.9"}]}
        expect_error({"sets": [doc]}, "$.sets[0].entries")

    def test_duplicate_set_name(self):
        err = expect_error(
            {"sets": [POINTS_A, POINTS_A]}, "$.sets[1].name", "duplicate set name 'A'"
        )
        assert isinstance(err, ValueError)

    def test_json_syntax_error_names_line(self):
        with pytest.raises(SpecError) as info:
            parse_text('{"sets": [\n  {,}\n]}')
        assert info.value.path == "$ (line 2)"

    def test_deeply_nested_json(self):
        with pytest.raises(SpecError) as info:
            parse_text("[" * 100_000)
        assert info.value.path == "$"
        assert str(info.value) == "$: document nested too deeply"

    def test_overlong_integer_literal(self):
        text = '{"sets": [{"name": "g", "kind": "discrete", "grades": {"a": 1%s}}]}'
        with pytest.raises(SpecError) as info:
            parse_text(text % ("0" * 5000))
        assert info.value.path == "$"
        assert "integer literal longer than" in str(info.value)

    def test_huge_decimal_exponent(self):
        text = '{"sets": [{"name": "g", "kind": "discrete", "grades": {"a": %s}}]}'
        with pytest.raises(SpecError) as info:
            parse_text(text % "1e999999999")
        assert info.value.path == "$"
        assert "exponent out of range" in str(info.value)
        with pytest.raises(SpecError) as info:
            parse_text(text % '"1e999999999"')
        assert info.value.path == "$.sets[0].grades.a"
        assert "exponent out of range" in str(info.value)

    def test_tolerance_is_wired_through(self):
        text = (
            '{"sets": [{"name": "m", "kind": "mass",'
            ' "entries": [{"focal": [[0, 1]], "mass": "0.999"}]}]}'
        )
        with pytest.raises(SpecError):
            parse_text(text)
        sets = parse_text(text, tolerance=F(1, 100))
        assert sets["m"].value.mass_of(iu((0, 1))) == F(999, 1000)


# JSON scalars, floats including infinities and NaN (json.dumps writes them
# as Infinity and NaN), and number-like strings with small exponents only.
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["0.5", "1/3", "-2.5e-3", "inf", "-Infinity", "nan", "1/0", "x", ""])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
PAIRS = st.lists(SCALARS, min_size=2, max_size=2) | JSON_VALUES


@st.composite
def set_documents(draw):
    """Documents near the accepted shape, so the numbers inside get parsed."""
    kind = draw(st.sampled_from(["points", "discrete", "mass", "other"]))
    obj = {"name": draw(st.sampled_from(["A", "", 3])), "kind": kind}
    if kind == "points":
        obj["vertices"] = draw(st.lists(PAIRS, max_size=4))
    elif kind == "discrete":
        obj["grades"] = draw(st.dictionaries(st.sampled_from("abc"), SCALARS, max_size=3))
    else:
        focal = st.lists(PAIRS, max_size=2) | st.lists(st.sampled_from("ab"), max_size=2)
        obj["entries"] = draw(
            st.lists(st.fixed_dictionaries({"focal": focal, "mass": SCALARS}), max_size=3)
        )
    if draw(st.booleans()):
        obj["slices"] = draw(SCALARS)
    return {"sets": [obj]}


@given(set_documents() | JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_parse_text_returns_sets_or_raises_spec_error(doc):
    try:
        sets = parse_text(json.dumps(doc))
    except SpecError:
        return
    assert isinstance(sets, dict)


class TestSerialization:
    def test_focal_to_doc_forms(self):
        assert focal_to_doc(IntervalUnion()) == []
        assert focal_to_doc(iu((1, 2), (F(9, 2), 5))) == [["1", "2"], ["4.5", "5"]]
        assert focal_to_doc(frozenset({"t", "f"})) == ["f", "t"]

    def test_mass_doc_round_trips(self):
        m = MassAssignment(
            [(iu((1, 5)), F(1, 3)), (iu((2, 4)), H), (IntervalUnion(), F(1, 6))]
        )
        doc = mass_to_doc(m, name="D")
        assert one_set(doc)["D"].value == m

    def test_label_mass_doc_round_trips(self):
        m = MassAssignment([(frozenset({"t"}), F(2, 3)), (frozenset({"f", "t"}), F(1, 3))])
        assert one_set(mass_to_doc(m))["result"].value == m

    @given(numeric_masses())
    def test_any_numeric_mass_round_trips(self, m):
        assert one_set(mass_to_doc(m))["result"].value == m

    def test_fuzzy_to_doc(self):
        f = fuzzy_from_mass(MassAssignment([(iu((1, 5)), H), (iu((2, 4)), H)]))
        assert fuzzy_to_doc(f) == [
            {"mu": "0.5", "lo": "1", "hi": "2", "lo_open": False, "hi_open": True},
            {"mu": "1", "lo": "2", "hi": "4", "lo_open": False, "hi_open": False},
            {"mu": "0.5", "lo": "4", "hi": "5", "lo_open": True, "hi_open": False},
        ]

    def test_truth_to_doc(self):
        t = TruthAssignment(
            {
                TruthLabel.TRUE: F(67, 100),
                TruthLabel.BOTH: F(23, 100),
                TruthLabel.UNKNOWN: F(1, 10),
            }
        )
        assert truth_to_doc(t) == {"t": "0.67", "f": "0", "ft": "0.23", "empty": "0.1"}
