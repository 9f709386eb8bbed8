import importlib
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdist.distance import (
    MAX_PRODUCT_CELLS,
    MAX_SLICES,
    DistanceResult,
    Strategy,
    assign_antidiagonal,
    assign_diagonal,
    assign_product,
    cell_directional,
    cell_nondirectional,
    distance,
)
from fdist.intervals import DEFAULT_TOLERANCE, EMPTY, IntervalUnion, common_scale, iu
from fdist.mass import (
    DegenerateSupportError,
    MassAssignment,
    PiecewiseShape,
    SlicedAssignment,
    Step,
    combine,
    as_focal,
    fuzzy_from_mass,
    least_prejudiced,
    slice_shape,
)
from helpers import (
    COPRIME_DENS,
    WIDE_PRIME_DENS,
    check_cell_against_grid,
    coprime_shapes,
    interval_unions,
    kernel_masses,
    label_masses,
    nested_masses,
    numeric_masses,
    oracle_assign_product,
    oracle_differences,
    oracle_fuzzy_from_mass,
    oracle_least_prejudiced,
    oracle_paired,
    stacks,
)

F = Fraction
H = F(1, 2)
Q = F(1, 4)

TRIANGLE_A = PiecewiseShape([(1, 0), (3, 1), (5, 0)])
TRIANGLE_B = PiecewiseShape([(6, 0), (8, 1), (10, 0)])

# the same pair of fuzzy numbers at two slicing resolutions
MASS_A2 = MassAssignment([(iu((1, 5)), H), (iu((2, 4)), H)])
MASS_B2 = MassAssignment([(iu((6, 10)), H), (iu((7, 9)), H)])
MASS_A4 = MassAssignment(
    [(iu((1, 5)), Q), (iu((F(3, 2), F(9, 2))), Q), (iu((2, 4)), Q), (iu((F(5, 2), F(7, 2))), Q)]
)
MASS_B4 = MassAssignment(
    [(iu((6, 10)), Q), (iu((F(13, 2), F(19, 2))), Q), (iu((7, 9)), Q), (iu((F(15, 2), F(17, 2))), Q)]
)

# narrower pair used for the directional and defuzzification examples
MASS_DIR_A = MassAssignment([(iu((1, 4)), H), (iu((2, 3)), H)])
MASS_DIR_B = MassAssignment([(iu((6, 9)), H), (iu((7, 8)), H)])

# non-normal, multimodal, and combined variants measured against MASS_DIR_B
MASS_AN = MassAssignment([(iu((1, 4)), H), (EMPTY, H)])
MASS_AM = MassAssignment([(iu((1, 4)), H), (iu((1, 2), (3, 4)), H)])
MASS_AE = MassAssignment([(iu((1, 5)), H), (iu((1, 2), (4, 5)), H)])
MASS_AEN = MassAssignment(
    [(iu((1, 5)), H), (iu((1, 2), (4, 5)), Q), (iu((1, 2)), Q)]
)


def entries(result: DistanceResult):
    return result.mass.entries


class TestCells:
    def test_directional_disjoint(self):
        assert cell_directional(iu((1, 4)), iu((6, 9))) == iu((2, 8))

    def test_directional_multipart(self):
        assert cell_directional(iu((1, 2), (4, 5)), iu((7, 8))) == iu((2, 4), (5, 7))

    def test_directional_touching_parts_merge(self):
        assert cell_directional(iu((1, 2), (3, 4)), iu((7, 8))) == iu((3, 7))

    def test_directional_reversed_sides_negative(self):
        assert cell_directional(iu((6, 9)), iu((1, 4))) == iu((-8, -2))

    def test_directional_empty(self):
        assert cell_directional(iu((1, 4)), EMPTY) == EMPTY
        assert cell_directional(EMPTY, iu((1, 4))) == EMPTY
        assert cell_directional(EMPTY, EMPTY) == EMPTY

    def test_directional_point_self(self):
        assert cell_directional(iu((3, 3)), iu((3, 3))) == iu((0, 0))

    def test_nondirectional_disjoint(self):
        assert cell_nondirectional(iu((1, 5)), iu((6, 10))) == iu((1, 9))

    def test_nondirectional_self_overlap(self):
        assert cell_nondirectional(iu((2, 4)), iu((2, 4))) == iu((0, 2))

    def test_nondirectional_straddle(self):
        assert cell_nondirectional(iu((0, 10)), iu((4, 5))) == iu((0, 6))

    def test_nondirectional_symmetric_pair(self):
        assert cell_nondirectional(iu((6, 9)), iu((1, 4))) == iu((2, 8))

    def test_nondirectional_empty(self):
        assert cell_nondirectional(EMPTY, iu((1, 2))) == EMPTY

    @given(interval_unions(), interval_unions())
    @settings(max_examples=30, deadline=None)
    def test_directional_matches_grid_oracle(self, a, b):
        check_cell_against_grid(
            cell_directional(a, b), oracle_differences(a, b, directional=True)
        )

    @given(interval_unions(), interval_unions())
    @settings(max_examples=30, deadline=None)
    def test_nondirectional_matches_grid_oracle(self, a, b):
        check_cell_against_grid(
            cell_nondirectional(a, b), oracle_differences(a, b, directional=False)
        )

    @given(interval_unions(), interval_unions())
    def test_nondirectional_is_symmetric(self, a, b):
        assert cell_nondirectional(a, b) == cell_nondirectional(b, a)

    @given(interval_unions(), interval_unions())
    def test_nondirectional_is_folded_directional(self, a, b):
        forward = cell_directional(a, b)
        backward = cell_directional(b, a)
        span = max(abs(a.hull.lo) + abs(b.hull.hi), abs(a.hull.hi) + abs(b.hull.lo))
        nonnegative = iu((0, span + 1))
        assert cell_nondirectional(a, b) == forward.union(backward).intersection(
            nonnegative
        )


class TestProduct:
    def test_two_slice_pair(self):
        result = assign_product(MASS_A2, MASS_B2)
        assert entries(result) == (
            (iu((1, 9)), Q),
            (iu((2, 8)), H),
            (iu((3, 7)), Q),
        )

    def test_two_slice_pair_fuzzy_staircase(self):
        result = assign_product(MASS_A2, MASS_B2)
        assert result.fuzzy.steps == (
            Step(1, 2, Q, False, True),
            Step(2, 3, F(3, 4), False, True),
            Step(3, 7, F(1)),
            Step(7, 8, F(3, 4), True, False),
            Step(8, 9, Q, True, False),
        )

    def test_four_slice_pair(self):
        result = assign_product(MASS_A4, MASS_B4)
        assert entries(result) == (
            (iu((1, 9)), F(1, 16)),
            (iu((F(3, 2), F(17, 2))), F(2, 16)),
            (iu((2, 8)), F(3, 16)),
            (iu((F(5, 2), F(15, 2))), F(4, 16)),
            (iu((3, 7)), F(3, 16)),
            (iu((F(7, 2), F(13, 2))), F(2, 16)),
            (iu((4, 6)), F(1, 16)),
        )

    def test_non_normal_input(self):
        result = assign_product(MASS_AN, MASS_DIR_B)
        assert entries(result) == (
            (iu((2, 8)), Q),
            (iu((3, 7)), Q),
            (EMPTY, H),
        )
        assert result.fuzzy.steps == (
            Step(2, 3, Q, False, True),
            Step(3, 7, H),
            Step(7, 8, Q, True, False),
        )
        assert result.fuzzy.height == H

    def test_directional_product(self):
        result = assign_product(MASS_DIR_A, MASS_DIR_B, directional=True)
        assert entries(result) == (
            (iu((2, 8)), Q),
            (iu((3, 7)), H),
            (iu((4, 6)), Q),
        )


class TestDiagonal:
    def test_two_slice_pair(self):
        a = slice_shape(TRIANGLE_A, 2)
        b = slice_shape(TRIANGLE_B, 2)
        result = assign_diagonal(a, b)
        assert entries(result) == ((iu((1, 9)), H), (iu((3, 7)), H))
        assert result.fuzzy.steps == (
            Step(1, 3, H, False, True),
            Step(3, 7, F(1)),
            Step(7, 9, H, True, False),
        )

    def test_four_slice_pair(self):
        a = slice_shape(TRIANGLE_A, 4)
        b = slice_shape(TRIANGLE_B, 4)
        result = assign_diagonal(a, b)
        assert entries(result) == (
            (iu((1, 9)), Q),
            (iu((2, 8)), Q),
            (iu((3, 7)), Q),
            (iu((4, 6)), Q),
        )

    def test_directional_narrow_pair(self):
        a = SlicedAssignment.from_mass(MASS_DIR_A)
        b = SlicedAssignment.from_mass(MASS_DIR_B)
        result = assign_diagonal(a, b, directional=True)
        assert entries(result) == ((iu((2, 8)), H), (iu((4, 6)), H))
        assert result.fuzzy.steps == (
            Step(2, 4, H, False, True),
            Step(4, 6, F(1)),
            Step(6, 8, H, True, False),
        )

    def test_directional_reversed_is_negated(self):
        a = SlicedAssignment.from_mass(MASS_DIR_A)
        b = SlicedAssignment.from_mass(MASS_DIR_B)
        forward = assign_diagonal(a, b, directional=True)
        backward = assign_diagonal(b, a, directional=True)
        assert backward.mass == forward.mass.negated()
        assert entries(backward) == ((iu((-8, -2)), H), (iu((-6, -4)), H))
        assert backward.fuzzy.steps == (
            Step(-8, -6, H, False, True),
            Step(-6, -4, F(1)),
            Step(-4, -2, H, True, False),
        )

    def test_multimodal_unimodal_result(self):
        a = SlicedAssignment.from_mass(MASS_AM)
        b = SlicedAssignment.from_mass(MASS_DIR_B)
        result = assign_diagonal(a, b, directional=True)
        assert entries(result) == ((iu((2, 8)), H), (iu((3, 7)), H))
        assert result.fuzzy.steps == (
            Step(2, 3, H, False, True),
            Step(3, 7, F(1)),
            Step(7, 8, H, True, False),
        )

    def test_multimodal_bimodal_result(self):
        a = SlicedAssignment.from_mass(MASS_AE)
        b = SlicedAssignment.from_mass(MASS_DIR_B)
        result = assign_diagonal(a, b, directional=True)
        assert entries(result) == ((iu((1, 8)), H), (iu((2, 4), (5, 7)), H))
        assert result.fuzzy.steps == (
            Step(1, 2, H, False, True),
            Step(2, 4, F(1)),
            Step(4, 5, H, True, True),
            Step(5, 7, F(1)),
            Step(7, 8, H, True, False),
        )

    def test_multimodal_non_normal_levels_align(self):
        a = SlicedAssignment.from_mass(MASS_AEN)
        b = SlicedAssignment.from_mass(MASS_DIR_B)
        result = assign_diagonal(a, b, directional=True)
        assert entries(result) == (
            (iu((1, 8)), H),
            (iu((2, 4), (5, 7)), Q),
            (iu((5, 7)), Q),
        )
        assert result.fuzzy.steps == (
            Step(1, 2, H, False, True),
            Step(2, 4, F(3, 4)),
            Step(4, 5, H, True, True),
            Step(5, 7, F(1)),
            Step(7, 8, H, True, False),
        )

    def test_nondirectional_same_where_all_positive(self):
        a = SlicedAssignment.from_mass(MASS_AEN)
        b = SlicedAssignment.from_mass(MASS_DIR_B)
        assert assign_diagonal(a, b, directional=True).mass == assign_diagonal(
            a, b, directional=False
        ).mass


class TestAntidiagonal:
    def test_two_slice_pair(self):
        a = slice_shape(TRIANGLE_A, 2)
        b = slice_shape(TRIANGLE_B, 2)
        result = assign_antidiagonal(a, b)
        assert entries(result) == ((iu((2, 8)), F(1)),)
        assert result.fuzzy.steps == (Step(2, 8, F(1)),)

    def test_single_slice_matches_diagonal(self):
        crisp = PiecewiseShape([(0, 0), (0, 1), (2, 1), (2, 0)])
        a = slice_shape(crisp, 1)
        b = slice_shape(TRIANGLE_B, 1)
        assert assign_antidiagonal(a, b).mass == assign_diagonal(a, b).mass

    def test_four_slice_pair_collapses(self):
        # every reversed pairing of these congruent symmetric slicings
        # produces the same cell, so all the mass lands on one element
        a = slice_shape(TRIANGLE_A, 4)
        b = slice_shape(TRIANGLE_B, 4)
        result = assign_antidiagonal(a, b)
        assert entries(result) == ((iu((F(5, 2), F(15, 2))), F(1)),)

    def test_unequal_levels(self):
        a = MassAssignment([(iu((0, 4)), F(3, 4)), (iu((1, 3)), Q)])
        b = MassAssignment([(iu((10, 14)), H), (iu((11, 13)), H)])
        result = assign_antidiagonal(
            SlicedAssignment.from_mass(a), SlicedAssignment.from_mass(b)
        )
        assert entries(result) == ((iu((6, 14)), Q), (iu((7, 13)), F(3, 4)))

    def test_mass_conserved_with_empty_slice(self):
        a = MassAssignment([(iu((0, 2)), H), (EMPTY, H)])
        b = MassAssignment([(iu((5, 7)), F(3, 4)), (iu((6, 6)), Q)])
        result = assign_antidiagonal(
            SlicedAssignment.from_mass(a), SlicedAssignment.from_mass(b)
        )
        # bottom half of a pairs with the reversed top of b and vice versa
        assert entries(result) == (
            (iu((3, 7)), Q), (iu((4, 6)), Q), (EMPTY, H),
        )


class TestDistanceApi:
    def test_shapes_with_explicit_slices(self):
        result = distance(
            TRIANGLE_A, TRIANGLE_B, strategy=Strategy.PRODUCT, n_slices=2
        )
        assert result.mass == assign_product(MASS_A2, MASS_B2).mass

    @pytest.mark.parametrize("n_slices", [0, -1])
    def test_slice_counts_below_one_rejected(self, n_slices):
        # 0 is a count like any other, not a request for the default
        with pytest.raises(ValueError, match="need at least one slice"):
            distance(TRIANGLE_A, TRIANGLE_B, n_slices=n_slices)

    def test_default_strategy_normal_inputs_is_diagonal(self):
        result = distance(MASS_A2, MASS_B2)
        assert entries(result) == ((iu((1, 9)), H), (iu((3, 7)), H))

    def test_default_strategy_non_normal_is_product(self):
        result = distance(MASS_AN, MASS_DIR_B)
        assert entries(result) == (
            (iu((2, 8)), Q),
            (iu((3, 7)), Q),
            (EMPTY, H),
        )

    def test_sliced_inputs_pass_through(self):
        result = distance(
            slice_shape(TRIANGLE_A, 2),
            slice_shape(TRIANGLE_B, 2),
            strategy=Strategy.ANTIDIAGONAL,
        )
        assert entries(result) == ((iu((2, 8)), F(1)),)

    def test_directional_flag(self):
        result = distance(
            MASS_DIR_A, MASS_DIR_B, directional=True, strategy=Strategy.DIAGONAL
        )
        assert entries(result) == ((iu((2, 8)), H), (iu((4, 6)), H))

    def test_directional_self_distance_of_point(self):
        point = MassAssignment([(iu((3, 3)), F(1))])
        result = distance(point, point, directional=True, strategy=Strategy.DIAGONAL)
        assert entries(result) == ((iu((0, 0)), F(1)),)
        assert result.fuzzy.steps == (Step(0, 0, F(1)),)

    def test_label_focals_rejected(self):
        labels = MassAssignment([(frozenset("ab"), H), (frozenset("a"), H)])
        for x in (labels, SlicedAssignment.from_mass(labels)):
            for strategy in Strategy:
                with pytest.raises(TypeError, match="distance needs numeric focal elements"):
                    distance(x, MASS_A2, strategy=strategy)

    def test_rejects_unknown_input_type(self):
        with pytest.raises(TypeError):
            distance([1, 2, 3], MASS_B2)

    def test_diagonal_requires_nested_mass(self):
        scattered = MassAssignment([(iu((0, 1)), H), (iu((5, 6)), H)])
        with pytest.raises(ValueError):
            distance(scattered, MASS_B2, strategy=Strategy.DIAGONAL)

    @pytest.mark.parametrize("strategy", [Strategy.DIAGONAL, Strategy.ANTIDIAGONAL])
    def test_nested_focals_of_equal_length_pair_as_the_oracle(self, strategy):
        # [0,1] and [0,1],[2,2] both have length 1; the second holds the first
        m = MassAssignment([(iu((0, 1)), H), (iu((0, 1), (2, 2)), H)])
        stack = SlicedAssignment([(iu((0, 1), (2, 2)), H), (iu((0, 1)), H)])
        other = stack if strategy is Strategy.DIAGONAL else stack.reversed_levels()
        for directional in (False, True):
            result = distance(m, m, directional=directional, strategy=strategy)
            same_as_oracle(result, oracle_paired(stack, other, directional))
        assert distance(m, m).strategy is Strategy.DIAGONAL

    def test_stacks_ending_at_different_levels_rejected(self):
        from fdist.distance import _paired

        a = SlicedAssignment.from_mass(MASS_A2)
        b = SlicedAssignment([(iu((6, 10)), F(3, 4))])
        with pytest.raises(ValueError, match="different levels"):
            _paired(a, b)
        # stacks with different boundaries but the same top pair directly
        b = SlicedAssignment.from_mass(
            MassAssignment([(iu((6, 10)), F(3, 4)), (iu((7, 9)), Q)])
        )
        assert _paired(a, b) == MassAssignment(
            [(iu((1, 9)), H), (iu((2, 8)), Q), (iu((3, 7)), Q)]
        )


class TestProductLimit:
    def test_product_refused_before_any_cell(self, monkeypatch):
        wide = MassAssignment([(iu((-k, k)), F(1, 1002)) for k in range(1, 1003)])
        # the package's distance() function shadows this submodule's name
        module = importlib.import_module("fdist.distance")

        def no_work(*args):
            raise AssertionError("a key or a cell was built")

        # the one keying function and the cell kernel
        monkeypatch.setattr(IntervalUnion, "part_keys", no_work)
        monkeypatch.setattr(module, "_cell", no_work)
        with pytest.raises(ValueError, match="product of 1004004 cells exceeds the limit 1002001"):
            assign_product(wide, wide)
        with pytest.raises(ValueError, match="exceeds the limit"):
            distance(wide, wide, strategy=Strategy.PRODUCT)
        # the patched kernel is the one the product runs
        with pytest.raises(AssertionError, match="a key or a cell was built"):
            assign_product(MASS_A2, MASS_B2)

    def test_slice_count_over_the_limit_refused_before_slicing(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^slice count 1000000000 exceeds the limit 1000$"):
            distance(TRIANGLE_A, TRIANGLE_A, n_slices=10**9)
        assert time.perf_counter() - start < 0.5

    def test_limit_admits_every_sliced_shape(self):
        # a subnormal shape at the slice limit stacks one empty slice more
        subnormal = PiecewiseShape([(0, 0), (1, H), (2, 0)])
        sliced = slice_shape(subnormal, MAX_SLICES).to_mass()
        assert len(sliced) == MAX_SLICES + 1
        assert len(sliced) ** 2 == MAX_PRODUCT_CELLS


class TestSingleInputPass:
    """distance() normalises each input once and resolves its strategy once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the package's distance() function shadows this submodule's name
        module = importlib.import_module("fdist.distance")
        counts = {"slice_shape": 0, "resolve_strategy": 0}
        for name in counts:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("strategy", [None, *Strategy])
    def test_each_shape_sliced_once(self, calls, strategy):
        distance(TRIANGLE_A, TRIANGLE_A, strategy=strategy, n_slices=3)
        assert calls == {"slice_shape": 2, "resolve_strategy": 1}

    def test_cli_distance_resolves_once(self, calls, capsys):
        from fdist.cli import main

        data = str(Path(__file__).resolve().parent.parent / "data" / "worked_sets.json")
        assert main(["distance", data, "A", "subA"]) == 0
        assert '"strategy": "product"' in capsys.readouterr().out
        assert calls == {"slice_shape": 0, "resolve_strategy": 1}

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (MASS_A2, MASS_B2, Strategy.DIAGONAL),
            (MASS_AN, MASS_DIR_B, Strategy.PRODUCT),
            (MASS_DIR_B, MASS_AN, Strategy.PRODUCT),
            (TRIANGLE_A, TRIANGLE_B, Strategy.DIAGONAL),
            (slice_shape(TRIANGLE_A, 2), MASS_B2, Strategy.DIAGONAL),
            (PiecewiseShape([(1, 0), (3, H), (5, 0)]), TRIANGLE_B, Strategy.PRODUCT),
            (slice_shape(PiecewiseShape([(1, 0), (3, H), (5, 0)]), 2), MASS_B2, Strategy.PRODUCT),
        ],
    )
    def test_default_result_reports_resolved_strategy(self, a, b, expected):
        assert distance(a, b, n_slices=2).strategy is expected

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("a", [MASS_A2, MASS_AN, TRIANGLE_A])
    def test_explicit_result_reports_its_strategy(self, a, strategy):
        assert distance(a, MASS_DIR_B, strategy=strategy, n_slices=2).strategy is strategy

    def test_assign_functions_set_their_strategy(self):
        sa, sb = SlicedAssignment.from_mass(MASS_A2), SlicedAssignment.from_mass(MASS_B2)
        assert assign_product(MASS_A2, MASS_B2).strategy is Strategy.PRODUCT
        assert assign_diagonal(sa, sb).strategy is Strategy.DIAGONAL
        assert assign_antidiagonal(sa, sb).strategy is Strategy.ANTIDIAGONAL

    @given(nested_masses())
    def test_sliced_normality_matches_its_mass(self, m):
        assert SlicedAssignment.from_mass(m).is_normal == m.is_normal


class TestProperties:
    def test_linear_combination_of_diagonals_is_product(self):
        a = slice_shape(TRIANGLE_A, 2)
        b = slice_shape(TRIANGLE_B, 2)
        diag = assign_diagonal(a, b).mass
        anti = assign_antidiagonal(a, b).mass
        prod = assign_product(a.to_mass(), b.to_mass()).mass
        assert combine([(H, diag), (H, anti)]) == prod

    @given(numeric_masses(), numeric_masses())
    @settings(max_examples=60)
    def test_product_antisymmetry(self, ma, mb):
        forward = assign_product(ma, mb, directional=True)
        backward = assign_product(mb, ma, directional=True)
        assert backward.mass == forward.mass.negated()

    @given(nested_masses(), nested_masses())
    @settings(max_examples=60)
    def test_diagonal_antisymmetry(self, ma, mb):
        sa, sb = SlicedAssignment.from_mass(ma), SlicedAssignment.from_mass(mb)
        forward = assign_diagonal(sa, sb, directional=True)
        backward = assign_diagonal(sb, sa, directional=True)
        assert backward.mass == forward.mass.negated()

    @given(numeric_masses(), numeric_masses())
    @settings(max_examples=40)
    def test_product_mass_conserved(self, ma, mb):
        assert assign_product(ma, mb).mass.total == 1

    @given(nested_masses(), nested_masses())
    @settings(max_examples=40)
    def test_strategies_conserve_mass(self, ma, mb):
        sa, sb = SlicedAssignment.from_mass(ma), SlicedAssignment.from_mass(mb)
        assert assign_diagonal(sa, sb).mass.total == 1
        assert assign_antidiagonal(sa, sb).mass.total == 1

    @given(
        nested_masses(allow_empty=False),
        nested_masses(allow_empty=False),
        st.sampled_from(list(Strategy)),
    )
    @settings(max_examples=60)
    def test_normal_inputs_give_normal_distance(self, ma, mb, strategy):
        result = distance(ma, mb, strategy=strategy)
        assert result.mass.is_normal
        assert result.fuzzy.height == 1

    @given(numeric_masses(), numeric_masses())
    @settings(max_examples=40)
    def test_product_empty_mass_formula(self, ma, mb):
        za, zb = ma.empty_mass, mb.empty_mass
        result = assign_product(ma, mb)
        assert result.mass.empty_mass == za + zb - za * zb


def same_as_oracle(result: DistanceResult, oracle: MassAssignment):
    """Exactly the oracle's mass assignment: entries in the same order with
    the same masses, equal and hashing alike, the same total and lookups,
    the same membership."""
    assert result.mass.entries == oracle.entries
    assert result.mass == oracle and hash(result.mass) == hash(oracle)
    assert result.mass.total == oracle.total
    assert all(result.mass.mass_of(f) == m for f, m in oracle.entries)
    assert result.mass.empty_mass == oracle.empty_mass
    assert result.fuzzy == fuzzy_from_mass(oracle)


DENS = pytest.mark.parametrize("den", [4, COPRIME_DENS, WIDE_PRIME_DENS], ids=["4", "coprime", "wide"])


class TestKernelMatchesOracle:
    """Cells built on scaled integer keys (or, past MAX_SCALE_BITS, on the
    Fractions themselves) equal the Fraction cells fed to MassAssignment."""

    @DENS
    @given(data=st.data(), directional=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_product(self, den, data, directional):
        ma, mb = data.draw(kernel_masses(den)), data.draw(kernel_masses(den))
        same_as_oracle(
            assign_product(ma, mb, directional), oracle_assign_product(ma, mb, directional)
        )

    @DENS
    @given(data=st.data(), directional=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_diagonal_and_antidiagonal(self, den, data, directional):
        sa = data.draw(stacks(data.draw(kernel_masses(den))))
        sb = data.draw(stacks(data.draw(kernel_masses(den))))
        same_as_oracle(assign_diagonal(sa, sb, directional), oracle_paired(sa, sb, directional))
        same_as_oracle(
            assign_antidiagonal(sa, sb, directional),
            oracle_paired(sa, sb.reversed_levels(), directional),
        )

    @given(coprime_shapes(), coprime_shapes(), st.sampled_from(list(Strategy)),
           st.booleans(), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_sliced_shapes(self, a, b, strategy, directional, n):
        # peaks below 1 leave subnormal stacks topped by an empty slice
        sa, sb = slice_shape(a, n), slice_shape(b, n)
        result = distance(sa, sb, directional=directional, strategy=strategy)
        if strategy is Strategy.PRODUCT:
            oracle = oracle_assign_product(sa.to_mass(), sb.to_mass(), directional)
        elif strategy is Strategy.DIAGONAL:
            oracle = oracle_paired(sa, sb, directional)
        else:
            oracle = oracle_paired(sa, sb.reversed_levels(), directional)
        same_as_oracle(result, oracle)

    @pytest.mark.parametrize("wide", [False, True])
    def test_both_sides_of_the_scale_limit(self, wide):
        # four distinct primes past 2**20 put endpoints and masses past the limit
        dens = WIDE_PRIME_DENS[:4] if wide else (4, 8, 16, 32)
        focals = [iu((F(-k, q), F(k, q))) for k, q in zip((1, 2, 3, 5), dens)] + [EMPTY]
        masses = [F(1, q) for q in dens]
        m = MassAssignment(zip(focals, masses + [1 - sum(masses)]))
        endpoints = [e for f in m.focals() for p in f.parts for e in (p.lo, p.hi)]
        assert (common_scale(endpoints) is None) is wide
        assert (common_scale(mass for _, mass in m.entries) is None) is wide
        s = SlicedAssignment(m.entries)
        for directional in (False, True):
            same_as_oracle(assign_product(m, m, directional), oracle_assign_product(m, m, directional))
            same_as_oracle(assign_antidiagonal(s, s, directional),
                           oracle_paired(s, s.reversed_levels(), directional))


class TestSweepOnKernelKeys:
    """Membership and density of a result read the keys the kernel built
    it from (or, past MAX_SCALE_BITS, the Fractions themselves) and equal
    the quadratic reconstructions; the kept keys do not show in equality,
    hashing or membership."""

    @DENS
    @given(data=st.data(), directional=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_strategy_result(self, den, data, directional):
        ma, mb = data.draw(kernel_masses(den)), data.draw(kernel_masses(den))
        sa, sb = data.draw(stacks(ma)), data.draw(stacks(mb))
        for result in (
            assign_product(ma, mb, directional),
            assign_diagonal(sa, sb, directional),
            assign_antidiagonal(sa, sb, directional),
        ):
            m, rebuilt = result.mass, MassAssignment(result.mass.entries)
            assert m == rebuilt and hash(m) == hash(rebuilt)
            assert result.fuzzy == fuzzy_from_mass(m) == oracle_fuzzy_from_mass(m)
            assert fuzzy_from_mass(rebuilt) == result.fuzzy
            try:
                expected = oracle_least_prejudiced(m)
            except DegenerateSupportError:
                with pytest.raises(DegenerateSupportError):
                    least_prejudiced(m)
            else:
                assert least_prejudiced(m) == least_prejudiced(rebuilt) == expected


ABSENT_FOCALS = st.one_of(
    st.just(EMPTY),
    st.frozensets(st.sampled_from("abcd")),
    interval_unions(max_parts=2, lo=-8, hi=8, den=4, allow_empty=True),
)


class TestLookupsMatchEntries:
    """mass_of and empty_mass read entries alone: they agree with a dict
    of the entries on every input assignment and every strategy's result."""

    @staticmethod
    def check(m, absent):
        held = dict(m.entries)
        for f in [f for f, _ in m.entries] + [as_focal(f) for f in absent]:
            assert m.mass_of(f) == held.get(f, 0)
        assert m.empty_mass == held.get(EMPTY, 0)

    @given(label_masses() | numeric_masses(den=COPRIME_DENS), st.lists(ABSENT_FOCALS))
    @settings(max_examples=150)
    def test_inputs(self, m, absent):
        self.check(m, absent)

    @DENS
    @given(data=st.data(), directional=st.booleans(), absent=st.lists(ABSENT_FOCALS))
    @settings(max_examples=40, deadline=None)
    def test_every_strategy_result(self, den, data, directional, absent):
        ma, mb = data.draw(kernel_masses(den)), data.draw(kernel_masses(den))
        sa, sb = data.draw(stacks(ma)), data.draw(stacks(mb))
        for m in (ma, mb):
            self.check(m, absent)
        self.check(assign_product(ma, mb, directional).mass, absent)
        self.check(assign_diagonal(sa, sb, directional).mass, absent)
        self.check(assign_antidiagonal(sa, sb, directional).mass, absent)


class TestSumTolerance:
    """Result masses skip MassAssignment's merge and sort, but not its check
    that the masses total 1 within the tolerance."""

    @staticmethod
    def short_of_one(gap):
        return MassAssignment([(iu((0, 2)), H), (iu((0, 1)), H - gap)])

    def test_product_past_the_tolerance_raises_as_the_oracle(self):
        m = self.short_of_one(F(6, 10**10))
        assert 1 - m.total * m.total > DEFAULT_TOLERANCE
        with pytest.raises(ValueError) as expected:
            oracle_assign_product(m, m, False)
        with pytest.raises(ValueError) as info:
            assign_product(m, m)
        assert str(info.value) == str(expected.value)
        assert str(info.value).startswith("masses sum to ")

    def test_product_within_the_tolerance_passes(self):
        m = self.short_of_one(F(4, 10**10))
        assert 1 - m.total * m.total <= DEFAULT_TOLERANCE
        for directional in (False, True):
            same_as_oracle(assign_product(m, m, directional), oracle_assign_product(m, m, directional))

    def test_paired_stacks_keep_their_total(self):
        m = self.short_of_one(F(6, 10**10))
        s = SlicedAssignment.from_mass(m)
        same_as_oracle(assign_diagonal(s, s), oracle_paired(s, s, False))
        # a stack may end further below 1 than a mass assignment may total
        low = SlicedAssignment([(iu((0, 2)), H), (iu((0, 1)), H - F(2, 10**9))])
        with pytest.raises(ValueError) as expected:
            oracle_paired(low, low, False)
        with pytest.raises(ValueError) as info:
            assign_diagonal(low, low)
        assert str(info.value) == str(expected.value)
