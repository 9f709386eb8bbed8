"""Input-document parsing: exact numbers, field-path errors, round-trips."""

import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdist.distance import Strategy, distance
from fdist.intervals import IntervalUnion, SurrogatePairError, digit_limit, echo
from fdist.mass import (
    DiscreteFuzzySet,
    MassAssignment,
    NumericFuzzySet,
    PiecewiseShape,
    Step,
    fuzzy_from_mass,
)
from fdist.specfile import (
    SpecError,
    focal_to_doc,
    formatter,
    fuzzy_rows,
    fuzzy_to_doc,
    load,
    mass_frame,
    mass_to_doc,
    parse_document,
    parse_text,
    render,
    truth_to_doc,
)
from fdist.unification import TruthAssignment, TruthLabel

from helpers import (
    WIDE_PRIME_DENS,
    coprime_shapes,
    frac,
    int_digit_limit,
    kernel_masses,
    nested_masses,
    numeric_masses,
    oracle_focal_doc,
    oracle_format_fraction,
    oracle_fuzzy_doc,
    oracle_fuzzy_rows,
    oracle_mass_doc,
    oracle_mass_frame,
    oracle_mass_keys,
    oracle_parse_document,
    oracle_parse_text,
    oracle_render,
    piecewise_shapes,
)

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


class TestKeyedMassSets:
    """A mass set is read as keys, on the lcm of the denominators read, and
    stores the scales and keys that the Fraction constructor
    (oracle_mass_keys) stores for its entries; its entries are built only
    when read."""

    @staticmethod
    def same_as_entries(entries, tolerance=None, **written):
        doc = {"name": "m", "kind": "mass", "entries": [
            {"focal": focal, "mass": mass} for focal, mass in written["rows"]]}
        kwargs = {} if tolerance is None else {"tolerance": tolerance}
        m = parse_document({"sets": [doc]}, **kwargs)["m"].value
        scale, mass_scale, keys, expected = oracle_mass_keys(entries, **kwargs)
        assert m._view is None
        assert (m._scale, m._mass_scale, m._keys) == (scale, mass_scale, keys)
        assert m.entries == expected and m._view is not None
        return m

    def test_endpoints_merged_away_leave_the_scale_they_passed(self):
        # 0.001 as a JSON float is over 2**60 and "1/1000" over 1000: the
        # read scale, 2**60 * 125, passes 64 bits, and merging [0, 1/1000]
        # into [0, 1] drops the 1000, so the keys go back onto 2**60
        m = self.same_as_entries(
            [(iu((0, F(0.001))), H), (iu((0, F(1, 1000)), (0, 1)), H)],
            rows=[([[0, 0.001]], "0.5"), ([[0, "1/1000"], [0, 1]], "0.5")])
        assert m._scale == 2**60

    def test_masses_summed_past_the_limit_go_back_onto_their_scale(self):
        # each focal element given twice, with 1/p and (p-2)/(2p): the masses
        # read over p and q, primes near 2**40, pass 64 bits; each sum is 1/2
        p, q = 1099511627689, 1099511627791
        m = self.same_as_entries(
            [(iu((0, 1)), F(1, p)), (iu((0, 2)), F(1, q)),
             (iu((0, 1)), F(p - 2, 2 * p)), (iu((0, 2)), F(q - 2, 2 * q))],
            rows=[([[0, 1]], f"1/{p}"), ([[0, 2]], f"1/{q}"),
                  ([[0, 1]], f"{p - 2}/{2 * p}"), ([[0, 2]], f"{q - 2}/{2 * q}")])
        assert (m._mass_scale, [k for _, k in m._keys]) == (2, [1, 1])

    def test_label_sets_are_keys_too(self):
        m = self.same_as_entries(
            [(frozenset("ba"), F(1, 4)), (frozenset(), H), (frozenset("ab"), F(1, 4))],
            rows=[(["b", "a"], "0.25"), ([], "1/2"), (["a", "b", "a"], "2/8")])
        assert repr(m) == "MassAssignment({a,b}:0.5, []:0.5)"

    def test_trailing_zeros_past_64_bits_cut_to_the_least_scale(self):
        # read denominators of 10**20, past MAX_SCALE_BITS; least scale 2
        half = "0.50000000000000000000"
        self.same_as_entries(
            [(iu((H, F(3, 2))), H), (iu((0, 1)), H)],
            rows=[([[half, "1.50000000000000000000"]], half), ([[0, 1]], "0.5")])

    def test_unreduced_ratios_cut_to_the_least_scale(self):
        self.same_as_entries(
            [(iu((F(1, 144), 1)), F(1, 144)), (iu((0, 2)), F(143, 144))],
            rows=[([["2/288", 1]], "2/288"), ([[0, "576/288"]], "286/288")])

    def test_a_total_within_a_wide_tolerance_is_divided(self):
        tolerance = F(1, 10)
        self.same_as_entries(
            [(iu((0, 1)), F(1, 2)), (iu((0, 2)), F(45, 100))], tolerance,
            rows=[([[0, 1]], "0.5"), ([[0, 2]], "0.45")])

    def test_duplicates_merge_and_zero_masses_drop(self):
        self.same_as_entries(
            [(iu((0, 1), (2, 3)), F(1, 4)), (iu((0, 1), (2, 3)), F(1, 4)), (iu((5, 6)), 0),
             (IntervalUnion(), F(1, 2))],
            rows=[([[2, 3], [0, 1]], "0.25"), ([[0, "1.0"], ["2", 3]], "1/4"),
                  ([[5, 6]], "0"), ([], "0.5")])


def expect_error(doc, path, fragment=""):
    with pytest.raises(SpecError) as info:
        parse_document(doc)
    assert info.value.path == path
    assert fragment in str(info.value)
    return info.value


# (document text, path of the object giving the key twice, the key)
TWICE = [
    ('{"sets": [{"name": "g", "kind": "discrete", "grades": {"a": 1, "b": 0.5, "a": 0.2}}]}',
     "$.sets[0].grades", "a"),
    ('{"sets": [{"name": "g", "kind": "discrete", "name": "h", "grades": {"a": 1}}]}',
     "$.sets[0]", "name"),
    ('{"sets": [{"name": "m", "kind": "mass",'
     ' "entries": [{"focal": [[0, 1]], "mass": 1, "focal": []}]}]}', "$.sets[0].entries[0]", "focal"),
    ('{"sets": [{"name": "m", "kind": "mass", "entries": [{"focal": [], "mass": 0.5},'
     ' {"focal": [[0, 1]], "mass": 0.5, "mass": 0.5}]}]}', "$.sets[0].entries[1]", "mass"),
    ('{"sets": [{"name": "g", "kind": "discrete", "grades": {"a": 1}},'
     ' {"name": "h", "kind": "points", "vertices": [[0, 1]], "kind": "points"}]}', "$.sets[1]", "kind"),
    ('{"sets": [], "sets": []}', "$", "sets"),
    ('{"sets": [], "%s": 1, "%s": 2}' % ("x" * 50, "x" * 50), "$", "x" * 50),
]


class TestErrors:
    def test_document_must_be_object(self):
        expect_error([], "$", "must be an object")

    @pytest.mark.parametrize("text, path, key", TWICE, ids=[f"{t}-{k}" for t, _, k in TWICE])
    def test_a_key_given_twice_is_refused(self, text, path, key):
        # JSON would keep the last value and drop the first without a word;
        # the message names the object that gives the key twice
        with pytest.raises(SpecError) as info:
            parse_text(text)
        assert info.value.path == path
        assert str(info.value) == f"{path}: key {echo(key)} given twice in one object"

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
        with int_digit_limit(digit_limit()), pytest.raises(SpecError) as info:
            parse_text(text % ("0" * 5000))
        assert info.value.path == "$"
        assert "integer literal longer than" in str(info.value)

    def test_huge_decimal_exponent(self):
        text = '{"sets": [{"name": "g", "kind": "discrete", "grades": {"a": %s}}]}'
        with pytest.raises(SpecError) as info:
            parse_text(text % "1e999999999")
        assert info.value.path == "$.sets[0].grades.a"
        assert "exponent out of range" in str(info.value)
        with pytest.raises(SpecError) as info:
            parse_text(text % '"1e999999999"')
        assert info.value.path == "$.sets[0].grades.a"
        assert "exponent out of range" in str(info.value)

    def test_float_literal_errors_name_their_field(self):
        # JSON floats arrive as their text and are read once, at their field
        text = '{"sets": [{"name": "g", "kind": "points", "vertices": [[0, 0], [2e99999, 1]]}]}'
        with pytest.raises(SpecError) as info:
            parse_text(text)
        assert str(info.value) == (
            "$.sets[0].vertices[1]: exponent out of range (over "
            f"{digit_limit()} digits): '2E+99999'"
        )
        sets = parse_text(text.replace("2e99999", "0.1"))
        assert sets["g"].value.vertices[1] == (F(1, 10), 1)

    def test_numbers_that_would_not_print_back_are_refused(self):
        limit = digit_limit()
        text = '{"sets": [{"name": "g", "kind": "discrete", "grades": {"a": %s}}]}'
        for past in (f"1e{limit}", f'"1.5e{limit}"', f'"-1{"0" * limit}"',
                     f'"1{"0" * limit}/3"', f'"1/3{"0" * limit}"'):
            with int_digit_limit(limit), pytest.raises(SpecError) as info:
                parse_text(text % past)
            assert info.value.path == "$.sets[0].grades.a"
            assert "too long to print" in str(info.value)
        # a number at the limit is read, and out of range as a grade
        with pytest.raises(SpecError) as info:
            parse_text(text % f'"1e{limit - 1}"')
        assert "outside [0,1]" in str(info.value)
        doc = {"name": "m", "kind": "mass",
               "entries": [{"focal": [[f"-1e{limit - 1}", f"1e{limit - 1}"]], "mass": 1}]}
        parsed = parse_document({"sets": [doc]})["m"].value
        assert parsed.entries[0][0] == IntervalUnion.from_pairs([(-(10 ** (limit - 1)), 10 ** (limit - 1))])

    def test_literal_exponents_past_decimal_are_refused_at_their_field(self):
        text = '{"sets": [{"name": "g", "kind": "discrete", "grades": {"a": %s}}]}'
        with pytest.raises(SpecError) as info:
            parse_text(text % ("1e" + "9" * 30))
        assert str(info.value) == (f"$.sets[0].grades.a: exponent out of range (over {digit_limit()}"
                                   f" digits): '1e{'9' * 30}'")

    def test_tolerance_is_wired_through(self):
        text = (
            '{"sets": [{"name": "m", "kind": "mass",'
            ' "entries": [{"focal": [[0, 1]], "mass": "0.999"}]}]}'
        )
        with pytest.raises(SpecError):
            parse_text(text)
        # loaded at the wider tolerance and divided by its total
        sets = parse_text(text, tolerance=F(1, 100))
        assert sets["m"].value == MassAssignment([(iu((0, 1)), 1)])


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


# Text with what JSON escapes: quotes, backslashes, control characters,
# non-ASCII (astral too) and lone surrogates, which st.text leaves out.
JSON_TEXT = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600')
)
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


class TestRender:
    @given(JSON_DOCS)
    def test_equals_indented_json_dumps(self, doc):
        assert render(doc) == oracle_render(doc)

    def test_empty_containers_and_scalars(self):
        for doc in ([], {}, [[], {}], {"a": [], "b": {}}, None, True, False, "", "\ud800"):
            assert render(doc) == oracle_render(doc)

    @pytest.mark.parametrize("key", [F(1, 2), 1])
    def test_non_string_key_is_a_type_error(self, key):
        with pytest.raises(TypeError, match=type(key).__name__):
            render({"ok": [{key: "x"}]})

    @pytest.mark.parametrize("value", [F(1, 2), 1, 0.5, ("a",), {"a"}])
    def test_other_value_types_are_type_errors(self, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            render({"ok": [value]})


@st.composite
def long_decimal_masses(draw):
    """Numeric masses over 1/2**k, k on either side of the interpreter's
    integer digit limit: format_fraction writes a terminating decimal
    with more places than the limit as p/q. Their common denominator is
    far past MAX_SCALE_BITS, so their keys are Fractions."""
    k = draw(st.integers(-1, 1)) + digit_limit()
    tiny = F(1, 2**k)
    a = F(draw(st.integers(-3, 3)))
    rest = draw(st.sampled_from([0, Q]))
    return MassAssignment([
        (iu((a, a + tiny)), tiny),
        (iu((a - 1, a + 1 - tiny), (a + 2, a + 3)), 1 - tiny - rest),
        (IntervalUnion(), rest),
    ])


# Labels that JSON escapes, or writes as \u escapes.
ESCAPED_LABELS = st.sampled_from(["a", "b c", '"q"', "\\", "\n", "\xe9", "\ud800", "\U0001f600"])


@st.composite
def escaped_label_masses(draw):
    focals = draw(st.lists(st.frozensets(ESCAPED_LABELS, max_size=3), min_size=1, max_size=3))
    weights = [draw(st.integers(1, 8)) for _ in focals]
    return MassAssignment((f, F(w, sum(weights))) for f, w in zip(focals, weights))


NUMERIC_RESULTS = {
    "small": kernel_masses(den=4),  # keys under one integer scale
    "wide": kernel_masses(den=WIDE_PRIME_DENS, max_focals=6),  # past MAX_SCALE_BITS at times
    "long": long_decimal_masses(),  # p/q numbers, Fraction keys
}
ALL_RESULTS = {**NUMERIC_RESULTS, "labels": escaped_label_masses()}


class TestRowWriter:
    """The row writer writes the text that render writes for the dict
    documents it replaced, and the dict API is that text decoded."""

    @pytest.mark.parametrize("kind", ALL_RESULTS)
    @given(data=st.data(), name=JSON_TEXT)
    @settings(max_examples=50, deadline=None)
    def test_mass_rows_equal_the_old_document(self, kind, data, name):
        m = data.draw(ALL_RESULTS[kind])
        if re.search("[\ud800-\udbff][\udc00-\udfff]", name):
            # JSON would read the pair back as one character
            with pytest.raises(SurrogatePairError):
                mass_frame(m, name, formatter())
            return
        doc = oracle_mass_doc(m, name)
        assert render(mass_frame(m, name, formatter())) == oracle_render(doc)
        assert mass_to_doc(m, name) == doc
        assert [focal_to_doc(f) for f, _ in m.entries] == [oracle_focal_doc(f) for f, _ in m.entries]

    @pytest.mark.parametrize("kind", NUMERIC_RESULTS)
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_fuzzy_rows_equal_the_old_document(self, kind, data):
        f = fuzzy_from_mass(data.draw(NUMERIC_RESULTS[kind]))
        steps = oracle_fuzzy_doc(f)
        assert render(fuzzy_rows(f, formatter())) == oracle_render(steps)
        assert fuzzy_to_doc(f) == steps

    @pytest.mark.parametrize("kind", NUMERIC_RESULTS)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_of_one_op_share_a_formatter_at_any_depth(self, kind, data):
        # as cmd_distance writes them: both documents' rows under one frame
        m = data.draw(NUMERIC_RESULTS[kind])
        f = fuzzy_from_mass(m)
        text = formatter()
        written = {"mass": mass_frame(m, "D(A,B)", text), "fuzzy": fuzzy_rows(f, text)}
        plain = {"mass": oracle_mass_doc(m, "D(A,B)"), "fuzzy": oracle_fuzzy_doc(f)}
        assert render(written) == oracle_render(plain)
        assert render([{"x": [written]}]) == oracle_render([{"x": [plain]}])

    def test_open_closed_and_point_steps(self):
        m = MassAssignment([(iu((1, 3)), H), (iu((3, 3)), Q), (iu((2, 5)), Q)])
        f = fuzzy_from_mass(m)
        closures = {(s.lo_open, s.hi_open) for s in f.steps}
        assert {(False, True), (True, False), (False, False)} <= closures
        assert render(fuzzy_rows(f, formatter())) == oracle_render(oracle_fuzzy_doc(f))

    def test_no_entries_and_no_steps(self):
        m = MassAssignment([(IntervalUnion(), 1)])
        assert fuzzy_to_doc(fuzzy_from_mass(m)) == []
        assert render(fuzzy_rows(fuzzy_from_mass(m), formatter())) == "[]\n"
        assert mass_to_doc(m) == oracle_mass_doc(m)


# Scales on both sides of the keyed writer's choice: 1 (whole numbers),
# scales that divide a power of ten, up to 2**64 and 5**27, and scales
# that do not.
DECIMAL_SCALES = (1, 2, 5, 8, 10, 16, 20, 25, 40, 125, 1000, 2**63, 2**64, 5**27, 2**30 * 5**10)
OTHER_SCALES = (3, 6, 7, 12, 30, 2**62 * 3, 1048583 * 1048589)
# Denominators for drawn values: whole, dividing a power of ten, not;
# kernel_masses draws its masses over them too, which needs 3 or more.
KERNEL_DENS = (8, 10, 25, 40, 3, 6, 7, 12)
WRITER_DENS = (1, 2) + KERNEL_DENS


@st.composite
def distance_results(draw):
    """Distance results by every strategy, plain or directional (negative
    keys): products of kernel masses over one drawn denominator or over
    WIDE_PRIME_DENS (past MAX_SCALE_BITS at times), and pairings of nested
    masses and of sliced shapes, coprime ones included."""
    directional = draw(st.booleans())
    kind = draw(st.sampled_from(["product", "nested", "shapes"]))
    if kind == "product":
        den = draw(st.sampled_from(KERNEL_DENS + (WIDE_PRIME_DENS,)))
        a, b = draw(kernel_masses(den=den)), draw(kernel_masses(den=den))
        return distance(a, b, directional=directional, strategy=Strategy.PRODUCT)
    strategy = draw(st.sampled_from([Strategy.DIAGONAL, Strategy.ANTIDIAGONAL]))
    if kind == "nested":
        a, b = draw(nested_masses()), draw(nested_masses())
        return distance(a, b, directional=directional, strategy=strategy)
    a, b = draw(coprime_shapes()), draw(piecewise_shapes())
    n = draw(st.integers(1, 7))
    return distance(a, b, directional=directional, strategy=strategy, n_slices=n)


@st.composite
def hand_built_steps(draw):
    """NumericFuzzySet(steps) over ordered endpoints of a drawn
    denominator, integer fields at times, closures and single points
    drawn; the writer does not need the steps to be maximal."""
    den = draw(st.sampled_from(WRITER_DENS + (WIDE_PRIME_DENS,)))
    ends = sorted(draw(st.lists(frac(-6, 6, den), min_size=0, max_size=8)))
    if draw(st.booleans()):
        ends = [int(e) for e in ends]  # integer fields, stored as given
    steps = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        mu = draw(frac(0, 1, den).filter(bool))
        steps.append(Step(lo, hi, mu, draw(st.booleans()), draw(st.booleans())))
    return NumericFuzzySet(steps)


@st.composite
def written_values(draw):
    """(mass assignment or None, fuzzy set or None), as an op writes them:
    a distance result, a hand-built mass assignment with its membership,
    a fuzzy set built from steps, or a label mass assignment."""
    kind = draw(st.sampled_from(["distance", "mass", "steps", "labels"]))
    if kind == "distance":
        result = draw(distance_results())
        return result.mass, result.fuzzy
    if kind == "mass":
        den = draw(st.sampled_from(KERNEL_DENS + (WIDE_PRIME_DENS,)))
        m = draw(kernel_masses(den=den) | numeric_masses(den=draw(st.sampled_from(WRITER_DENS))))
        return m, fuzzy_from_mass(m)
    if kind == "steps":
        f = draw(hand_built_steps() | st.builds(lambda m: NumericFuzzySet(fuzzy_from_mass(m).steps),
                                                kernel_masses(den=WIDE_PRIME_DENS, max_focals=6)))
        return None, f
    return draw(escaped_label_masses()), None


class TestKeyedWriter:
    """The writer formats stored keys under their scales; its text is the
    eager writer's, which built every entry and step as Fractions and
    wrote each number with format_fraction, and each key is written as
    the division loop (oracle_format_fraction) writes its number."""

    @given(data=st.data(), scale=st.sampled_from(DECIMAL_SCALES + OTHER_SCALES + (None,)))
    @settings(max_examples=300)
    def test_a_key_is_written_as_format_fraction_writes_its_number(self, data, scale):
        if scale is None:
            # past the scale limit the keys are the numbers, a folded cell
            # bound among them the int 0
            k = data.draw(st.fractions() | frac(-5, 5, (3, 2**70, 5**40, 2**70 * 3)) | st.just(0))
            assert formatter()(scale)(k) == oracle_format_fraction(F(k))
            return
        # any key, and multiples of the scale (whole numbers) and of odd
        # factors (decimals under a scale that does not divide a power of
        # ten), 0 and negatives among them
        factor = data.draw(st.sampled_from([scale, 3, 7, 1048583]))
        multiples = st.integers(-50, 50).map(lambda j: j * factor)
        k = data.draw(st.integers(-(10**25), 10**25) | multiples)
        assert formatter()(scale)(k) == oracle_format_fraction(F(k, scale))

    def test_keys_past_the_scale_limit_are_the_numbers(self):
        text = formatter()(None)
        # a folded cell bound may be the int 0
        assert (text(F(-7, 3)), text(F(5, 8)), text(0), text(F(2**70 + 1, 2**70))) == (
            "-7/3", "0.625", "0", oracle_format_fraction(F(2**70 + 1, 2**70))
        )

    def test_keys_past_the_digit_limit_are_reduced_then_refused(self):
        limit = digit_limit()
        whole = 10 ** (limit - 4) + 1  # odd, and within the limit
        with int_digit_limit(limit):
            # keys whose digits times 10**10 // 1024 pass what str() converts:
            # a whole number is written at scale 1, not as n/1, a half at
            # scale 2, and a key that shares no factor with 1024 as p/q
            assert formatter()(1024)(whole * 1024) == str(whole)
            assert formatter()(1024)(-whole * 1024) == str(-whole)
            assert formatter()(3 * 1024)(3 * whole * 1024) == str(whole)
            assert formatter()(1024)(whole * 512) == oracle_format_fraction(F(whole, 2))
            assert formatter()(1024)(whole) == f"{whole}/1024"
            # a whole number past it: the named error
            with pytest.raises(ValueError, match="exact number too long to print"):
                formatter()(2)(2 * 10 ** (limit + 1))

    @given(value=written_values(), name=st.sampled_from(["result", "D(A,B)", "\xe9"]))
    @settings(max_examples=300, deadline=None)
    def test_keyed_writer_equals_the_eager_oracle(self, value, name):
        # both documents through one formatter, as an op writes them
        m, f = value
        text = formatter()
        written, eager = {}, {}
        if m is not None:
            written["mass"], eager["mass"] = mass_frame(m, name, text), oracle_mass_frame(m, name)
        if f is not None:
            written["fuzzy"], eager["fuzzy"] = fuzzy_rows(f, text), oracle_fuzzy_rows(f)
        assert render(written) == render(eager)

    def test_a_set_name_holding_a_surrogate_pair_is_refused(self):
        m = MassAssignment([(iu((1, 2)), 1)])
        with pytest.raises(SurrogatePairError, match="set name"):
            mass_frame(m, "D(\ud800\udfff,B)", formatter())
        with pytest.raises(SurrogatePairError):
            mass_to_doc(m, "\udbff\udc00")
        # a lone surrogate, or a low one before a high one, reads back as itself
        for name in ("\ud800", "\udfff\ud800", "\U0001f600"):
            doc = mass_to_doc(m, name)
            assert json.loads(render(doc))["name"] == name


# ---------------------------------------------------------------------------
# the key-built loader against the Fraction loader it replaced

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
PAD = ("", "", " ", "\t", " ", "\xa0 ")


class Raw(str):
    """Text placed into a drawn document unquoted, as a JSON literal."""


class Pairs(list):
    """A drawn JSON object as (key, value) pairs, so a key may come twice."""


def dump(x) -> str:
    """JSON text of a drawn document: Raw literals as they are, Pairs as
    objects that may give a key twice."""
    if isinstance(x, Raw):
        return str(x)
    if isinstance(x, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in x) + "}"
    if isinstance(x, list):
        return "[" + ", ".join(map(dump, x)) + "]"
    return json.dumps(x)


def chance(n: int):
    """True about once in n draws."""
    return st.integers(1, n).map(lambda k: k == 2)


@st.composite
def number_texts(draw, q: F):
    """q as a document may write it: a terminating decimal with trailing
    zeros, a sign, an exponent, padding or non-ASCII digits, as a string or
    a JSON literal; or p/q unreduced."""
    den = q.denominator
    twos, fives = (den & -den).bit_length() - 1, 0
    while den % 5 ** (fives + 1) == 0:
        fives += 1
    sign = "-" if q < 0 else draw(st.sampled_from(["", "", "+"]))
    if den != 2**twos * 5**fives or draw(chance(4)):
        k = draw(st.integers(1, 12))
        text = f"{sign}{abs(q.numerator) * k}/{den * k}"
    else:
        places = max(twos, fives) + draw(st.sampled_from([0, 0, 1, 2, 5, 19, 25]))
        digits = str(abs(q.numerator) * 10**places // den)
        if draw(chance(3)):  # an exponent, the point anywhere in the digits
            j = draw(st.integers(1, len(digits)))
            point = digits[:j] + ("." + digits[j:] if j < len(digits) else "")
            text = f"{sign}{point}e{len(digits) - j - places}"
        elif places:
            digits = digits.rjust(places + 1, "0")
            text = f"{sign}{digits[:-places]}.{digits[-places:]}"
        else:
            text = sign + digits
        if sign != "+" and draw(st.booleans()):
            return Raw(text)  # a JSON literal
    if draw(chance(6)):
        text = text.translate(draw(st.sampled_from([ARABIC_INDIC, FULLWIDTH])))
    if draw(chance(4)):
        text = draw(st.sampled_from(PAD)) + text + draw(st.sampled_from(PAD))
    return text


# primes past 2**20 and small ones: a few wide ones pass MAX_SCALE_BITS
READ_DENS = (1, 2, 3, 4, 5, 8, 10, 16, 25, 125, 1000) + WIDE_PRIME_DENS
LIMIT = digit_limit()
ODD_NUMBERS = (
    f"1e{LIMIT - 1}", f"1e{LIMIT}", f"1e{LIMIT + 1}", f"-1.5e-{LIMIT - 1}", f"1e-{LIMIT + 1}",
    f"0e{LIMIT + 5}", "1/0", "0/7", "-0", "inf", "-Infinity", "nan", "1..2", "", "x", "1/-3",
    True, None, [], 3, -2, 0,
)


@st.composite
def drawn_numbers(draw, q: F):
    """q written by number_texts, or now and then an odd value in its place."""
    if draw(chance(150)):
        value = draw(st.sampled_from(ODD_NUMBERS))
        return Raw(value) if isinstance(value, str) and value.startswith("1e") and draw(st.booleans()) else value
    return draw(number_texts(q))


@st.composite
def drawn_mass_sets(draw):
    """Entries with unions of drawn endpoints (some out of order), empty and
    label focal elements, repeated focal elements, zero and negative masses,
    and totals at 1, within the default tolerance of it and past it."""
    n = draw(st.integers(1, 6))
    dens = draw(st.lists(st.sampled_from(READ_DENS), min_size=1, max_size=6))
    weights = [draw(st.integers(0, 6)) for _ in range(n)]
    if draw(chance(8)):
        weights[draw(st.integers(0, n - 1))] *= -1
    total = sum(weights) or 1
    masses = [F(w, total) for w in weights]
    if n > 1 and draw(chance(4)):  # masses over distinct wide primes, the last one the rest
        masses = [F(draw(st.integers(1, 9)), p * 20) for p in WIDE_PRIME_DENS[: n - 1]]
        masses.append(1 - sum(masses))
    off = draw(st.sampled_from([F(0)] * 4 + [F(1, 10**10), F(-1, 10**10), F(1, 10**8), F(-3, 10**9)]))
    masses = [mass * (1 + off) for mass in masses]
    labels = draw(chance(6))
    focals = []
    for _ in range(n):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            focals.append([])
        elif labels and kind < 4:
            focals.append(draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)))
        elif focals and kind == 4:
            focals.append(draw(st.sampled_from(focals)))  # given again
        else:
            spans = []
            for _ in range(draw(st.integers(1, 3))):
                lo = F(draw(st.integers(-40, 40)), draw(st.sampled_from(dens)))
                hi = lo + F(draw(st.integers(0, 30)), draw(st.sampled_from(dens)))
                if draw(chance(30)):
                    lo, hi = hi, lo - 1  # out of order
                spans.append([draw(drawn_numbers(lo)), draw(drawn_numbers(hi))])
            focals.append(spans)
    entries = []
    for focal, mass in zip(focals, masses):
        pairs = [("focal", focal), ("mass", draw(drawn_numbers(mass)))]
        if draw(chance(100)):
            pairs.append(("mass", Raw("1")))  # a key given twice
        entries.append(Pairs(pairs))
    return Pairs([("name", "M"), ("kind", "mass"), ("entries", entries)])


@st.composite
def drawn_documents(draw):
    sets = [draw(drawn_mass_sets())]
    if draw(st.booleans()):
        grades = [F(draw(st.integers(-1, 21)), 20) for _ in range(draw(st.integers(1, 3)))]
        sets.append(Pairs([("name", "G"), ("kind", "discrete"), ("grades", Pairs(
            (label, draw(drawn_numbers(g))) for label, g in zip("abc", grades)))]))
    if draw(st.booleans()):
        xs = sorted(F(draw(st.integers(-20, 20)), draw(st.sampled_from(READ_DENS))) for _ in range(3))
        mus = [F(draw(st.integers(0, 4)), 4) for _ in range(3)]
        sets.append(Pairs([("name", "P"), ("kind", "points"), ("vertices", [
            [draw(drawn_numbers(x)), draw(drawn_numbers(mu))] for x, mu in zip(xs, mus)])]))
    return dump(Pairs([("sets", sets)]))


def loaded(parse, *args, **kwargs):
    """What a loader gives: each set with a mass set's stored keys, or the
    error it raises, as text."""
    try:
        sets = parse(*args, **kwargs)
    except Exception as exc:  # the same type and text from both loaders
        return type(exc).__name__, str(exc)
    return {name: (s, getattr(s.value, "_scale", None), getattr(s.value, "_mass_scale", None),
                   getattr(s.value, "_keys", None)) for name, s in sets.items()}


class TestLoaderEqualsTheOracle:
    """parse_text reads numbers with intervals.read and builds numeric mass
    sets as keys; it gives the sets, stored keys and scales, or the error
    text, that the Fraction loader (oracle_parse_text) gives."""

    @given(text=drawn_documents(), tolerance=st.sampled_from([None, F(1, 10)]))
    @settings(max_examples=400, deadline=None)
    def test_loaders_agree(self, text, tolerance):
        kwargs = {} if tolerance is None else {"tolerance": tolerance}
        with int_digit_limit(LIMIT):
            assert loaded(parse_text, text, **kwargs) == loaded(oracle_parse_text, text, **kwargs)

    @given(text=drawn_documents())
    @settings(max_examples=100, deadline=None)
    def test_decoded_documents_agree(self, text):
        # JSON floats decoded as floats, read by their binary value
        try:
            doc = json.loads(text)
        except ValueError:
            return
        with int_digit_limit(LIMIT):
            assert loaded(parse_document, doc) == loaded(oracle_parse_document, doc)
