import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdist.intervals import EMPTY, MIXED_KINDS, iu
from fdist.mass import DiscreteFuzzySet, MassAssignment, mass_from_discrete, product_rows
from fdist.unification import (
    DEFAULT_ORDER,
    TruthAssignment,
    TruthLabel,
    _labels,
    truth_cell,
    unify_maximal,
    unify_product,
)
from helpers import (
    WIDE_PRIME_DENS,
    kernel_masses,
    label_masses,
    numeric_masses,
    oracle_min_cost_flow,
    oracle_truth_cell,
    oracle_unify_maximal,
    oracle_unify_product,
    totals_one,
    wide_masses,
)

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
        assert truth_cell(iu((1, 2)), iu((2, 3))) is TruthLabel.BOTH  # touching ends
        assert truth_cell(iu((1, 2), (4, 5)), iu((2, 4))) is TruthLabel.BOTH  # a bridge
        assert truth_cell(iu((1, 2), (4, 5)), iu((3, 3))) is TruthLabel.FALSE  # in the gap

    def test_labels_against_a_union_refused(self):
        for a, g in ((fs("a"), iu((1, 2))), (iu((1, 2)), fs("a"))):
            with pytest.raises(TypeError, match=MIXED_KINDS):
                truth_cell(a, g)

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

    def test_masses_short_of_one_are_normalised(self):
        # a total of 19/20, within a tolerance of 1/10: the set is divided
        # by it where it is read, and both routings route the divided masses,
        # where the raw products summed to (19/20)**2
        a = MassAssignment([(fs("x"), F(1, 2)), (fs("x", "y"), F(9, 20))], tolerance=F(1, 10))
        assert a == MassAssignment([(fs("x"), F(10, 19)), (fs("x", "y"), F(9, 19))])
        assert totals_one(a)
        assert unify_product(a, a) == ta(true=F(271, 361), both=F(90, 361))
        assert unify_product(a, a) == oracle_unify_product(a, a)
        assert unify_maximal(a, a) == ta(true=F(10, 19), both=F(9, 19))

    @pytest.mark.parametrize("wide", [False, True], ids=["int", "wide"])
    def test_both_sides_of_the_scale_limit(self, wide):
        # masses over four distinct primes past 2**20 have no integer
        # common scale: the cells' mass keys are the Fractions themselves
        p, q, r, s = WIDE_PRIME_DENS[:4] if wide else (7, 11, 13, 17)
        masses_a, masses_g = [F(1, p), F(1, q)], [F(1, r), F(1, s)]
        a = MassAssignment(zip([fs("a"), fs("a", "b"), EMPTY], masses_a + [1 - sum(masses_a)]))
        g = MassAssignment(zip([fs("b"), fs("c"), fs("a")], masses_g + [1 - sum(masses_g)]))
        _, scale = product_rows(a, g)
        assert (scale is None) is wide
        assert unify_product(a, g) == oracle_unify_product(a, g)


class TestKinds:
    LABELS = MassAssignment([(fs("a"), F(1, 2)), (fs("a", "b"), F(1, 2))])
    NUMBERS = MassAssignment([(iu((1, 2)), F(1, 2)), (EMPTY, F(1, 2))])
    NOTHING = MassAssignment([(EMPTY, 1)])

    @pytest.mark.parametrize("unify", [unify_product, unify_maximal])
    def test_labels_against_a_union_refused(self, unify):
        for a, g in ((self.LABELS, self.NUMBERS), (self.NUMBERS, self.LABELS)):
            with pytest.raises(TypeError, match=MIXED_KINDS):
                unify(a, g)

    @pytest.mark.parametrize("unify", [unify_product, unify_maximal])
    def test_the_empty_set_alone_meets_either_kind(self, unify):
        # a claim on the empty set alone leaves both open, or holds against
        # the empty set; as evidence it says nothing of a nonempty claim
        assert unify(self.NOTHING, self.LABELS) == ta(both=1)
        assert unify(self.NOTHING, self.NUMBERS) == ta(both=F(1, 2), true=F(1, 2))
        assert unify(self.LABELS, self.NOTHING) == ta(unknown=1)
        assert unify(self.NUMBERS, self.NOTHING) == ta(unknown=F(1, 2), true=F(1, 2))
        assert unify(self.NOTHING, self.NOTHING) == ta(true=1)


class TestUnifyMaximal:
    def test_mass_scale_past_the_limit(self):
        # masses over four primes past 2**20 have no integer mass scale;
        # the other side's has one
        p, q, r, s = WIDE_PRIME_DENS[:4]
        masses = [F(1, p), F(1, q), F(1, r), F(1, s)]
        a = MassAssignment(zip([fs("a"), fs("a", "b"), fs("b"), fs("c"), EMPTY],
                               masses + [1 - sum(masses)]))
        g = MassAssignment([(fs("b"), F(1, 3)), (fs("a", "c"), F(2, 3))])
        assert a._mass_scale is None and g._mass_scale == 3
        for x, y in ((a, g), (g, a), (a, a)):
            assert unify_maximal(x, y) == oracle_unify_maximal(x, y)

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

    def test_order_given_by_label_values(self):
        by_value = unify_maximal(CLAIM, EVIDENCE, ["ft", "t", "f", "empty"])
        assert by_value == unify_maximal(CLAIM, EVIDENCE)
        with pytest.raises(ValueError, match="not a valid TruthLabel"):
            unify_maximal(CLAIM, EVIDENCE, ["ft", "t", "f", "unknown"])


class TestTruthAssignment:
    def test_labels_given_by_value(self):
        r = TruthAssignment({"t": "0.5", "f": "0.5"})
        assert r["t"] == F(1, 2)
        assert r.as_tuple(["t", "f", "ft", "empty"]) == (F(1, 2), F(1, 2), 0, 0)
        assert r.as_tuple(["t", TruthLabel.FALSE]) == (F(1, 2), F(1, 2))

    def test_total_is_exactly_one(self):
        # both routings normalise, so no tolerance is read here
        with pytest.raises(ValueError, match=r"^truth masses sum to 0\.9999999999, expected 1$"):
            TruthAssignment({"t": "0.5", "f": "0.4999999999"})

    def test_label_given_twice_refused(self):
        # "t" and TruthLabel.TRUE name one label: the second mass would
        # silently replace the first
        with pytest.raises(ValueError, match=r"^truth label 't' given twice$"):
            TruthAssignment({"t": F(1, 2), TruthLabel.TRUE: F(1, 2), "f": F(1, 2)})
        with pytest.raises(ValueError, match=r"^truth label 'empty' given twice$"):
            TruthAssignment({TruthLabel.UNKNOWN: 1, "empty": 0})

    def test_label_given_twice_as_pairs_refused(self):
        # pairs are read as given: a dict of them would keep the last alone
        with pytest.raises(ValueError, match=r"^truth label 't' given twice$"):
            TruthAssignment([("t", 0), ("t", 1)])
        with pytest.raises(ValueError, match=r"^truth label 't' given twice$"):
            TruthAssignment([(TruthLabel.TRUE, F(1, 2)), ("t", F(1, 2))])
        assert TruthAssignment([("t", F(1, 2)), ("f", F(1, 2))]) == ta(true=F(1, 2), false=F(1, 2))

    def test_bad_label_names_rejected(self):
        r = TruthAssignment({"t": 1})
        with pytest.raises(ValueError, match="not a valid TruthLabel"):
            r["true"]
        with pytest.raises(ValueError, match="not a valid TruthLabel"):
            r.as_tuple(["t", "f", "ft", "both"])


def test_bad_truth_sum_prints_briefly():
    with pytest.raises(ValueError, match=r"^truth masses sum to ~1\.07e-3817, expected 1$"):
        ta(true=F(1, 3**8000))


# ---------------------------------------------------------------------------
# randomized properties

@given(label_masses(), label_masses())
def test_outputs_sum_to_one(ma, mg):
    assert sum(unify_product(ma, mg).masses.values()) == 1
    assert sum(unify_maximal(ma, mg).masses.values()) == 1


@given(
    st.one_of(
        st.tuples(label_masses(), label_masses()),
        st.tuples(*[label_masses(den=WIDE_PRIME_DENS, max_focals=6)] * 2),
        st.tuples(numeric_masses(), numeric_masses()),
    )
)
@settings(max_examples=150, deadline=None)
def test_product_matches_fraction_oracle(pair):
    ma, mg = pair
    assert unify_product(ma, mg) == oracle_unify_product(ma, mg)


@given(
    wide_masses(labels=True),
    wide_masses(labels=True) | label_masses(),
    st.booleans(),
    st.permutations(list(TruthLabel)),
)
@settings(max_examples=40, deadline=None)
def test_maximal_past_the_mass_scale_matches_pinning_oracle(wide, other, claim, order):
    # the flow's capacities are the masses times the lcm of their denominators
    assert wide._mass_scale is None
    ma, mg = (wide, other) if claim else (other, wide)
    assert unify_maximal(ma, mg, order) == oracle_unify_maximal(ma, mg, order)


@given(
    st.one_of(
        st.tuples(label_masses(), label_masses()),
        st.tuples(numeric_masses(), numeric_masses()),
        st.tuples(wide_masses(labels=True), wide_masses(labels=True) | label_masses()),
        st.tuples(wide_masses(labels=False), wide_masses(labels=False) | numeric_masses()),
        st.tuples(kernel_masses(WIDE_PRIME_DENS, 6), kernel_masses() | numeric_masses()),
    ),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_label_table_matches_oracle_cell_by_cell(pair, swap):
    # the routing oracles compare label totals alone, which a wrong cell
    # can leave unchanged; wide masses have no integer mass scale, and wide
    # kernel masses often no integer endpoint scale either
    ma, mg = pair[::-1] if swap else pair
    expected = [oracle_truth_cell(fa, fg) for fa, _ in ma.entries for fg, _ in mg.entries]
    assert _labels(ma, mg) == expected


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
    assert r[TruthLabel.UNKNOWN] == mg.empty_mass * (1 - ma.empty_mass)


@given(
    st.one_of(
        st.tuples(label_masses(), label_masses()),
        st.tuples(numeric_masses(), numeric_masses()),
    ),
    st.permutations(list(TruthLabel)),
)
@settings(max_examples=150, deadline=None)
def test_maximal_matches_pinning_oracle(pair, order):
    ma, mg = pair
    assert unify_maximal(ma, mg, order) == oracle_unify_maximal(ma, mg, order)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83)


def test_maximal_on_24_by_24_coprime_grades():
    # 24 distinct grades per side over pairwise-coprime denominators (1
    # and 1/p, or 1 and (p-1)/p): 576 cells, a dense LP took seconds
    labels = [f"x{k:02d}" for k in range(24)]
    claim = DiscreteFuzzySet(dict(zip(labels, (1, *(F(1, p) for p in PRIMES)))))
    evidence = DiscreteFuzzySet(dict(zip(labels, (*(F(p - 1, p) for p in PRIMES), 1))))
    ma, mg = mass_from_discrete(claim), mass_from_discrete(evidence)
    assert (len(ma.entries), len(mg.entries)) == (24, 24)
    r = unify_maximal(ma, mg)
    assert sum(r.masses.values()) == 1
    assert r.as_tuple() >= unify_product(ma, mg).as_tuple()


def test_maximal_on_60_distinct_grades_matches_the_tuple_flow():
    # 61 x 61 focal elements (3721 cells), too many for the dense LP
    # oracle: the label totals of the Bellman-Ford flow over cost tuples
    rng = random.Random(60)
    labels = [f"x{k:02d}" for k in range(60)]
    ma, mg = (
        mass_from_discrete(DiscreteFuzzySet(
            {l: F(g, 1000) for l, g in zip(labels, rng.sample(range(1, 1000), 60))}
        ))
        for _ in range(2)
    )
    assert (len(ma.entries), len(mg.entries)) == (61, 61)
    cells = [(i, j) for i in range(61) for j in range(61)]
    table = [truth_cell(fa, fg) for fa, _ in ma.entries for fg, _ in mg.entries]
    costs = [tuple(-(label == o) for o in DEFAULT_ORDER) for label in table]
    flow = oracle_min_cost_flow(
        [m for _, m in ma.entries], [m for _, m in mg.entries], cells, costs
    )
    totals = {label: F(0) for label in TruthLabel}
    for label, x in zip(table, flow):
        totals[label] += x
    assert unify_maximal(ma, mg) == TruthAssignment(totals)


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
