from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdist import exactlp, unification
from fdist.intervals import EMPTY, iu
from fdist.mass import DiscreteFuzzySet, MassAssignment, mass_from_discrete
from fdist.unification import (
    DEFAULT_ORDER,
    TruthAssignment,
    TruthLabel,
    truth_cell,
    unify_maximal,
    unify_product,
)
from helpers import numeric_masses, oracle_lex_maximize

F = Fraction

CLAIM = mass_from_discrete(DiscreteFuzzySet({"a": 1, "b": F(7, 10), "c": F(1, 5)}))
EVIDENCE = mass_from_discrete(
    DiscreteFuzzySet({"a": F(9, 10), "b": F(3, 5), "c": F(1, 10)})
)


def fs(*labels):
    return frozenset(labels)


def ta(**kw):
    return TruthAssignment({TruthLabel[k.upper()]: v for k, v in kw.items()})


class TestTruthCell:
    def test_label_set_cases(self):
        assert truth_cell(fs("a", "b"), fs("a")) is TruthLabel.TRUE
        assert truth_cell(fs("a"), fs("a", "b")) is TruthLabel.BOTH
        assert truth_cell(fs("a"), fs("b")) is TruthLabel.FALSE
        assert truth_cell(fs("a"), EMPTY) is TruthLabel.UNKNOWN
        assert truth_cell(EMPTY, EMPTY) is TruthLabel.TRUE
        assert truth_cell(EMPTY, fs("a")) is TruthLabel.BOTH

    def test_interval_cases(self):
        assert truth_cell(iu((1, 5)), iu((2, 4))) is TruthLabel.TRUE
        assert truth_cell(iu((2, 4)), iu((1, 5))) is TruthLabel.BOTH
        assert truth_cell(iu((1, 2)), iu((4, 5))) is TruthLabel.FALSE
        assert truth_cell(iu((1, 2)), EMPTY) is TruthLabel.UNKNOWN
        assert truth_cell(iu((1, 2), (4, 5)), iu((4, 5))) is TruthLabel.TRUE

    @given(
        st.frozensets(st.sampled_from("abcd"), min_size=1),
        st.frozensets(st.sampled_from("abcd"), min_size=1),
        st.frozensets(st.sampled_from("abcd")),
    )
    def test_growing_claim_never_hardens(self, a, extra, g):
        # widening a non-empty claim against non-empty evidence can only
        # move the label toward TRUE or BOTH
        wider = a | extra
        if not g:
            return
        before = truth_cell(a, g)
        after = truth_cell(wider, g)
        assert after in {before, TruthLabel.TRUE, TruthLabel.BOTH}


class TestUnifyProduct:
    def test_worked_example(self):
        r = unify_product(CLAIM, EVIDENCE)
        assert r == ta(true=F(67, 100), both=F(23, 100), unknown=F(1, 10))

    def test_crisp_identical(self):
        m = MassAssignment([(fs("a"), 1)])
        assert unify_product(m, m) == ta(true=1)

    def test_disjoint_mixture(self):
        m = MassAssignment([(fs("a"), F(1, 2)), (fs("b"), F(1, 2))])
        assert unify_product(m, m) == ta(true=F(1, 2), false=F(1, 2))

    def test_interval_unification(self):
        a = MassAssignment([(iu((1, 5)), F(1, 2)), (iu((2, 4)), F(1, 2))])
        g = MassAssignment([(iu((2, 4)), F(1, 2)), (iu((0, 6)), F(1, 2))])
        assert unify_product(a, g) == ta(true=F(1, 2), both=F(1, 2))


class TestUnifyMaximal:
    def test_worked_example(self):
        r = unify_maximal(CLAIM, EVIDENCE)
        assert r == ta(true=F(1, 2), both=F(2, 5), unknown=F(1, 10))

    def test_crisp_identical(self):
        m = MassAssignment([(fs("a"), 1)])
        assert unify_maximal(m, m) == ta(true=1)

    def test_can_beat_product(self):
        m = MassAssignment([(fs("a"), F(1, 2)), (fs("b"), F(1, 2))])
        assert unify_maximal(m, m) == ta(true=1)

    def test_order_knob(self):
        # preferring TRUE first changes the split for the worked example
        r = unify_maximal(
            CLAIM,
            EVIDENCE,
            order=(TruthLabel.TRUE, TruthLabel.BOTH, TruthLabel.FALSE, TruthLabel.UNKNOWN),
        )
        assert r[TruthLabel.TRUE] >= F(1, 2)
        assert sum(r.masses.values()) == 1

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            unify_maximal(CLAIM, EVIDENCE, order=(TruthLabel.TRUE,) * 4)


# ---------------------------------------------------------------------------
# randomized properties

@st.composite
def label_masses(draw, allow_empty=True):
    k = draw(st.integers(1, 3))
    focals = [
        draw(st.frozensets(st.sampled_from("abc"), min_size=0 if allow_empty else 1))
        for _ in range(k)
    ]
    weights = [draw(st.integers(1, 8)) for _ in range(k)]
    total = sum(weights)
    return MassAssignment((f, F(w, total)) for f, w in zip(focals, weights))


@given(label_masses(), label_masses())
def test_outputs_sum_to_one(ma, mg):
    assert sum(unify_product(ma, mg).masses.values()) == 1
    assert sum(unify_maximal(ma, mg).masses.values()) == 1


@given(label_masses(), label_masses())
def test_maximal_dominates_product_lexicographically(ma, mg):
    p = unify_product(ma, mg).as_tuple(DEFAULT_ORDER)
    m = unify_maximal(ma, mg).as_tuple(DEFAULT_ORDER)
    assert m >= p


@given(label_masses(allow_empty=False), label_masses())
def test_unknown_mass_is_evidence_empty_share(ma, mg):
    # UNKNOWN arises exactly from non-empty claim rows against the empty
    # evidence column
    r = unify_product(ma, mg)
    assert r[TruthLabel.UNKNOWN] == mg.empty_mass * (ma.total - ma.empty_mass)


@given(
    st.one_of(
        st.tuples(label_masses(), label_masses()),
        st.tuples(numeric_masses(), numeric_masses()),
    )
)
@settings(max_examples=150, deadline=None)
def test_maximal_matches_pinning_oracle(pair):
    # swap the whole module unification sees: patching exactlp.lex_maximize
    # alone would recurse, as the oracle's exactlp.maximize runs through it
    pinning = SimpleNamespace(
        transportation=exactlp.transportation, lex_maximize=oracle_lex_maximize
    )
    ma, mg = pair
    with mock.patch.object(unification, "exactlp", pinning):
        expected = unify_maximal(ma, mg)
    assert unify_maximal(ma, mg) == expected


@st.composite
def two_by_two(draw):
    focals_a = [
        draw(st.frozensets(st.sampled_from("ab"))),
        draw(st.frozensets(st.sampled_from("ab"))),
    ]
    focals_g = [
        draw(st.frozensets(st.sampled_from("ab"))),
        draw(st.frozensets(st.sampled_from("ab"))),
    ]
    p = F(draw(st.integers(1, 7)), 8)
    r = F(draw(st.integers(1, 7)), 8)
    return focals_a, focals_g, p, r


@given(two_by_two())
def test_maximal_matches_segment_oracle(case):
    # a 2x2 transportation polytope is a segment; every linear objective
    # peaks at an endpoint, so the lexicographic optimum is the larger of
    # the two endpoint label tuples
    focals_a, focals_g, p, r = case
    ma = MassAssignment([(focals_a[0], p), (focals_a[1], 1 - p)])
    mg = MassAssignment([(focals_g[0], r), (focals_g[1], 1 - r)])
    if len(ma.entries) < 2 or len(mg.entries) < 2:
        return  # duplicate focals merged; not a 2x2 any more

    rows = [f for f, _ in ma.entries]
    cols = [f for f, _ in mg.entries]
    a1 = ma.mass_of(rows[0])
    g1 = mg.mass_of(cols[0])
    g2 = 1 - g1

    def totals(t):
        cells = {
            (0, 0): t,
            (0, 1): a1 - t,
            (1, 0): g1 - t,
            (1, 1): g2 - a1 + t,
        }
        acc = {label: F(0) for label in TruthLabel}
        for (i, j), mass in cells.items():
            acc[truth_cell(rows[i], cols[j])] += mass
        return tuple(acc[l] for l in DEFAULT_ORDER)

    t_min = max(F(0), a1 - g2)
    t_max = min(a1, g1)
    expected = max(totals(t_min), totals(t_max))
    assert unify_maximal(ma, mg).as_tuple(DEFAULT_ORDER) == expected
