from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdist import exactlp
from fdist.exactlp import (
    Infeasible,
    Unbounded,
    feasible,
    lex_maximize,
    maximize,
    transportation,
)
from helpers import oracle_lex_maximize

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


class TestFeasible:
    def test_balanced_transportation(self):
        rows = [
            [F(1), F(1), F(0), F(0)],
            [F(0), F(0), F(1), F(1)],
            [F(1), F(0), F(1), F(0)],
            [F(0), F(1), F(0), F(1)],
        ]
        rhs = [F(1, 2), F(1, 2), F(3, 4), F(1, 4)]
        x = feasible(rows, rhs, nvars=4)
        assert x is not None
        assert x[0] + x[1] == F(1, 2)
        assert x[2] + x[3] == F(1, 2)
        assert x[0] + x[2] == F(3, 4)
        assert x[1] + x[3] == F(1, 4)
        assert all(v >= 0 for v in x)

    def test_unbalanced_is_infeasible(self):
        rows = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
        rhs = [F(1), F(1), F(3)]
        assert feasible(rows, rhs, nvars=2) is None

    def test_no_columns(self):
        assert feasible([[], []], [F(0), F(0)], nvars=0) == []
        assert feasible([[], []], [F(1), F(0)], nvars=0) is None

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
        x = feasible(rows, rhs, nvars=len(edges))
        assert x is not None
        for i in range(nr):
            assert sum(x[k] for k, e in enumerate(edges) if e[0] == i) == supply[i]
        for j in range(nc):
            assert sum(x[k] for k, e in enumerate(edges) if e[1] == j) == demand[j]


class TestLexMaximize:
    def test_sequential_pinning(self):
        # 2x2 transportation square: maximize x11, then x22 under the pin
        rows = [
            [F(1), F(1), F(0), F(0)],
            [F(0), F(0), F(1), F(1)],
            [F(1), F(0), F(1), F(0)],
            [F(0), F(1), F(0), F(1)],
        ]
        rhs = [F(1, 2), F(1, 2), F(1, 2), F(1, 2)]
        objectives = [
            [F(1), F(0), F(0), F(0)],
            [F(0), F(0), F(0), F(1)],
        ]
        values, x = lex_maximize(objectives, rows, rhs)
        assert values == [F(1, 2), F(1, 2)]
        assert x == [F(1, 2), F(0), F(0), F(1, 2)]

    def test_earlier_objective_takes_priority(self):
        # one unit split between x1 and x2; lexicographic order decides
        rows = [[F(1), F(1)]]
        rhs = [F(1)]
        values, _ = lex_maximize([[F(1), F(0)], [F(0), F(1)]], rows, rhs)
        assert values == [F(1), F(0)]
        values, _ = lex_maximize([[F(0), F(1)], [F(1), F(0)]], rows, rhs)
        assert values == [F(1), F(0)]

    def test_solution_satisfies_all_pins(self):
        rows = [[F(1), F(1), F(1)]]
        rhs = [F(1)]
        objectives = [[F(0), F(1), F(1)], [F(0), F(0), F(1)]]
        values, x = lex_maximize(objectives, rows, rhs)
        assert values == [F(1), F(1)]
        assert x == [F(0), F(0), F(1)]

    def test_one_phase_one_then_one_phase_two_per_objective(self, monkeypatch):
        calls = []
        original = exactlp._simplex

        def counting(tableau, *args):
            calls.append(len(tableau))
            return original(tableau, *args)

        monkeypatch.setattr(exactlp, "_simplex", counting)
        cells = [(i, j) for i in range(2) for j in range(3)]
        rows, rhs = transportation(cells, [F(1, 2), F(1, 2)], [F(1, 3)] * 3)
        objectives = [[F(1) if k % 4 == label else F(0) for k in range(6)] for label in range(4)]
        lex_maximize(objectives, rows, rhs)
        assert len(calls) == len(objectives) + 1
        assert max(calls) <= len(rows)  # no optimum is pinned as an extra row


@st.composite
def labelled_tables(draw):
    """A balanced transportation problem over some cells of a small table,
    each cell carrying one of four labels, with one 0/1 objective per
    label in a random order. Dropped cells may make it infeasible."""
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
    objectives = [[F(1) if l == label else F(0) for l in labels] for label in order]
    return (objectives, *transportation(cells, supply, demand))


class TestLexMatchesOracle:
    """One tableau with fixed columns against pinning and re-solving."""

    @given(labelled_tables())
    @settings(max_examples=200, deadline=None)
    def test_values_equal_oracle(self, table):
        objectives, rows, rhs = table
        try:
            expected, _ = oracle_lex_maximize(objectives, rows, rhs)
        except Infeasible:
            with pytest.raises(Infeasible):
                lex_maximize(objectives, rows, rhs)
            return
        values, _ = lex_maximize(objectives, rows, rhs)
        assert values == expected

    @given(labelled_tables())
    @settings(max_examples=200, deadline=None)
    def test_solution_is_feasible_and_attains_every_value(self, table):
        objectives, rows, rhs = table
        try:
            values, x = lex_maximize(objectives, rows, rhs)
        except Infeasible:
            return
        assert all(v >= 0 for v in x)
        assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs
        assert [sum(c * v for c, v in zip(obj, x)) for obj in objectives] == values
