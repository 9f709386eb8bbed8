from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdist import exactlp
from fdist.exactlp import Infeasible, Unbounded, feasible, maximize, min_cost_flow
from helpers import (
    flow_totals,
    frac,
    oracle_lex_maximize,
    oracle_maximize,
    oracle_min_cost_flow,
    rational_min_cost_flow,
    transportation,
)

F = Fraction


class TestMaximize:
    def test_picks_the_profitable_variable(self):
        value, x = maximize([F(1), F(0)], [[F(1), F(1)]], [F(1)])
        assert value == 1
        assert x == [F(1), F(0)]

    def test_exact_fractions(self):
        value, x = maximize([F(1, 3)], [[F(1)]], [F(1, 7)])
        assert value == F(1, 21)
        assert x == [F(1, 7)]

    def test_negative_rhs_rows_are_flipped(self):
        value, x = maximize([F(1), F(0)], [[F(-1), F(-1)]], [F(-2)])
        assert value == 2
        assert x == [F(2), F(0)]

    def test_redundant_duplicate_rows(self):
        rows = [[F(1), F(1)], [F(1), F(1)]]
        value, x = maximize([F(0), F(1)], rows, [F(1), F(1)])
        assert value == 1
        assert x == [F(0), F(1)]

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            maximize([F(1)], [[F(1)]], [F(-1)])

    def test_infeasible_conflicting_rows(self):
        with pytest.raises(Infeasible):
            maximize([F(1), F(1)], [[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            maximize([F(1), F(0)], [[F(1), F(-1)]], [F(0)])

    def test_tight_three_variable_problem(self):
        # max x3 with x1+x2+x3 = 1 and x1 - x3 = 0: optimum x1=x3=1/2
        value, x = maximize(
            [F(0), F(0), F(1)],
            [[F(1), F(1), F(1)], [F(1), F(0), F(-1)]],
            [F(1), F(0)],
        )
        assert value == F(1, 2)
        assert x == [F(1, 2), F(0), F(1, 2)]

    def test_drive_out_pivots_on_a_negative_entry(self, monkeypatch):
        # max x1 + 2 x2 + 2 x3 with (2/3) x2 + (1/3) x3 = 1/3 and -x1 = 0.
        # Phase 1 enters x2 on the first row and ends with the second
        # row's artificial basic at zero; driving it out pivots on the -1
        # of x1. Phase 2 then enters x3 over the negated row.
        signs = []
        pivot = exactlp._pivot

        def spy(tableau, basis, d, row, col):
            signs.append(tableau[row][col] > 0)
            return pivot(tableau, basis, d, row, col)

        monkeypatch.setattr(exactlp, "_pivot", spy)
        lp = ([F(1), F(2), F(2)], [[F(0), F(2, 3), F(1, 3)], [F(-1), F(0), F(0)]], [F(1, 3), F(0)])
        assert maximize(*lp) == (2, [F(0), F(0), F(1)])
        assert signs == [True, False, True]
        assert maximize(*lp) == oracle_maximize(*lp)


class TestFeasible:
    def test_balanced_transportation(self):
        rows = [
            [F(1), F(1), F(0), F(0)],
            [F(0), F(0), F(1), F(1)],
            [F(1), F(0), F(1), F(0)],
            [F(0), F(1), F(0), F(1)],
        ]
        rhs = [F(1, 2), F(1, 2), F(3, 4), F(1, 4)]
        x = feasible(rows, rhs)
        assert x is not None
        assert x[0] + x[1] == F(1, 2)
        assert x[2] + x[3] == F(1, 2)
        assert x[0] + x[2] == F(3, 4)
        assert x[1] + x[3] == F(1, 4)
        assert all(v >= 0 for v in x)

    def test_unbalanced_is_infeasible(self):
        rows = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
        rhs = [F(1), F(1), F(3)]
        assert feasible(rows, rhs) is None

    def test_no_columns(self):
        assert feasible([[], []], [F(0), F(0)]) == []
        assert feasible([[], []], [F(1), F(0)]) is None

    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=3),
        st.lists(st.integers(0, 5), min_size=2, max_size=3),
    )
    @settings(max_examples=60)
    def test_balanced_marginals_always_route(self, supply, demand):
        total_s, total_d = sum(supply), sum(demand)
        if total_s == 0 or total_d == 0:
            return
        supply = [F(s, total_s) for s in supply]
        demand = [F(d, total_d) for d in demand]
        nr, nc = len(supply), len(demand)
        edges = [(i, j) for i in range(nr) for j in range(nc)]
        rows, rhs = transportation(edges, supply, demand)
        x = feasible(rows, rhs)
        assert x is not None
        for i in range(nr):
            assert sum(x[k] for k, e in enumerate(edges) if e[0] == i) == supply[i]
        for j in range(nc):
            assert sum(x[k] for k, e in enumerate(edges) if e[1] == j) == demand[j]


class TestLexMaximize:
    """Worked tables for the flow's lexicographic tuple costs."""

    def test_sequential_pinning(self):
        # 2x2 square of halves: maximize x11, then x22 under that optimum
        cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
        costs = [(-1, 0), (0, 0), (0, 0), (0, -1)]
        x = rational_min_cost_flow([F(1, 2)] * 2, [F(1, 2)] * 2, cells, costs)
        assert x == [F(1, 2), F(0), F(0), F(1, 2)]

    def test_earlier_objective_takes_priority(self):
        # one unit over two parallel edges; the first cost entry decides
        one = [F(1)]
        assert rational_min_cost_flow(one, one, [(0, 0)] * 2, [(-1, 0), (0, -1)]) == [1, 0]
        assert rational_min_cost_flow(one, one, [(0, 0)] * 2, [(0, -1), (-1, 0)]) == [0, 1]

    def test_solution_satisfies_all_pins(self):
        # x2 and x3 tie on the first objective; the second picks x3
        one = [F(1)]
        x = rational_min_cost_flow(one, one, [(0, 0)] * 3, [(0, 0), (-1, 0), (-1, -1)])
        assert x == [F(0), F(0), F(1)]


class TestMinCostFlow:
    def test_empty_costs_give_a_maximum_flow(self):
        # the second demand can only be fed from the first supply
        halves = [F(1, 2)] * 2
        x = rational_min_cost_flow(halves, halves, [(0, 0), (0, 1), (1, 0)], [()] * 3)
        assert x == [F(0), F(1, 2), F(1, 2)]
        short = rational_min_cost_flow(halves, halves, [(0, 0), (1, 0)], [()] * 2)
        assert sum(short) == F(1, 2)

    def test_no_edges(self):
        assert rational_min_cost_flow([F(1)], [F(1)], [], []) == []

    def test_integer_capacities_give_integer_flows(self):
        # capacities are taken as given, on one scale of any size
        big = 3**90
        x = min_cost_flow([big, 2 * big], [2 * big, big], [(0, 0), (1, 0), (1, 1)], [()] * 3)
        assert x == [big, big, big]
        assert all(type(f) is int for f in x)


@st.composite
def small_lps(draw):
    """max c.x, A x = b, x >= 0 over a coarse grid of halves and thirds, so
    that ratio ties (Bland's tie-break) and degenerate pivots are common.
    Right-hand sides may be negative; rows may be repeated, scaled, with
    the same right-hand side (redundant) or another one (infeasible); the
    objective may be zero, as in feasible."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    entry = st.just(F(0)) | frac(-3, 3, (1, 2, 3))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    rhs = [draw(entry) for _ in range(m)]
    if m:
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, m - 1))
            times = draw(st.sampled_from((F(1), F(-1), F(2), F(1, 3))))
            rows.append([times * v for v in rows[k]])
            rhs.append(times * rhs[k] if draw(st.booleans()) else draw(entry))
    c = [F(0)] * n if draw(st.booleans()) else draw(st.lists(entry, min_size=n, max_size=n))
    return c, rows, rhs


def outcome(solve, lp):
    try:
        return solve(*lp)
    except (Infeasible, Unbounded) as exc:
        return type(exc)


@given(small_lps())
@settings(max_examples=400, deadline=None)
def test_maximize_equals_the_fraction_tableau(lp):
    # value and solution vector, or the exception class: the same pivots
    assert outcome(maximize, lp) == outcome(oracle_maximize, lp)


@st.composite
def flow_problems(draw):
    """Supplies and demands (some zero) over a small table with some cells
    dropped and some repeated as parallel edges, each edge carrying a cost
    tuple of 0, 2 or 4 coordinates."""
    den = draw(st.sampled_from((1, 2, 3, 7)))
    supply = draw(st.lists(frac(0, 2, den), min_size=1, max_size=4))
    demand = draw(st.lists(frac(0, 2, den), min_size=1, max_size=4))
    table = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
    dropped = draw(st.sets(st.sampled_from(table), max_size=3))
    edges = [c for c in table if c not in dropped]
    edges += draw(st.lists(st.sampled_from(table), max_size=3))
    width = draw(st.sampled_from((0, 2, 4)))
    coord = st.integers(-3, 3)
    costs = [tuple(draw(coord) for _ in range(width)) for _ in edges]
    return supply, demand, edges, costs


@given(flow_problems())
@settings(max_examples=300, deadline=None)
def test_flow_value_and_cost_totals_equal_the_tuple_flow(problem):
    # optimal edge vectors may differ; the value and the totals may not
    supply, demand, edges, costs = problem
    x = rational_min_cost_flow(*problem)
    assert all(v >= 0 for v in x)
    for k, s in enumerate(supply):
        assert sum(v for (i, _), v in zip(edges, x) if i == k) <= s
    for k, d in enumerate(demand):
        assert sum(v for (_, j), v in zip(edges, x) if j == k) <= d
    assert flow_totals(edges, costs, x) == flow_totals(
        edges, costs, oracle_min_cost_flow(*problem)
    )


def test_encoded_costs_keep_lexicographic_order_across_a_long_cycle():
    # Four supplies route to four demands either straight (i -> i) or
    # shifted (i -> i+1). Straight costs (0, 3) per edge and shifted
    # (0, -3), save one shifted edge at (1, -3): straight wins by 1/4 in
    # the first coordinate while losing 6 in the second, and the residual
    # cycle between the two has 8 arcs, each worth the largest |cost| 3
    # in the second coordinate. A base of 2*3+1 would prefer the shift.
    quarter = [F(1, 4)] * 4
    straight = [(i, i) for i in range(4)]
    shifted = [(i, (i + 1) % 4) for i in range(4)]
    edges = shifted + straight
    costs = [(1, -3)] + [(0, -3)] * 3 + [(0, 3)] * 4
    x = rational_min_cost_flow(quarter, quarter, edges, costs)
    assert x == [F(0)] * 4 + quarter
    assert flow_totals(edges, costs, x) == (1, (0, 3))
    assert flow_totals(edges, costs, x) == flow_totals(
        edges, costs, oracle_min_cost_flow(quarter, quarter, edges, costs)
    )


@st.composite
def labelled_tables(draw):
    """A balanced transportation problem over some cells of a small table,
    each cell carrying one of four labels, with the labels preferred in a
    random order. Dropped cells may make it infeasible."""
    supply = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    demand = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    assume(sum(supply) and sum(demand))
    supply = [F(s, sum(supply)) for s in supply]
    demand = [F(d, sum(demand)) for d in demand]
    table = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
    dropped = draw(st.sets(st.sampled_from(table), max_size=2))
    cells = [c for c in table if c not in dropped]
    labels = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells)))
    order = draw(st.permutations(range(4)))
    return supply, demand, cells, labels, order


def label_flow(table):
    supply, demand, cells, labels, order = table
    costs = [tuple(-(label == o) for o in order) for label in labels]
    return rational_min_cost_flow(supply, demand, cells, costs)


class TestLexMatchesOracle:
    """One min-cost flow with tuple costs against the dense LP that pins
    each label's optimum and re-solves."""

    @given(labelled_tables())
    @settings(max_examples=200, deadline=None)
    def test_values_equal_oracle(self, table):
        supply, demand, cells, labels, order = table
        objectives = [[F(l == label) for l in labels] for label in order]
        x = label_flow(table)
        try:
            expected, _ = oracle_lex_maximize(
                objectives, *transportation(cells, supply, demand)
            )
        except Infeasible:
            assert sum(x) < 1
            return
        assert sum(x) == 1
        assert [sum(v for l, v in zip(labels, x) if l == label) for label in order] == expected

    @given(labelled_tables())
    @settings(max_examples=200, deadline=None)
    def test_solution_is_feasible_and_attains_every_value(self, table):
        supply, demand, cells, _, _ = table
        x = label_flow(table)
        assert all(v >= 0 for v in x)
        out = [sum(v for (i, _), v in zip(cells, x) if i == k) for k in range(len(supply))]
        into = [sum(v for (_, j), v in zip(cells, x) if j == k) for k in range(len(demand))]
        assert all(o <= s for o, s in zip(out, supply))
        assert all(i <= d for i, d in zip(into, demand))
        if sum(x) == 1:
            assert (out, into) == (supply, demand)
