"""Inequality evaluators: pinned examples and structural behavior."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import fknlab.bounds as bounds_module
from fknlab.bounds import (
    BoundReport,
    Constants,
    DEFAULT_CONSTANTS,
    claim6_example,
    claim8_check,
    claim9_bound,
    corollary2_apply,
    format_value,
    lemma4_bound,
    lemma5_bound,
    lemma7_bound,
    partition_split,
    theorem1_check,
    tribes_example,
)
from fknlab.cube import BooleanFunction, Partition, variance
from fknlab.errors import BalanceError, StructureError, VerificationError
from fknlab.rv import DiscreteRV, TwoPointBalancedRV, shift

F = Fraction

UNIFORM = DiscreteRV.from_atoms([(-1, F(1, 2)), (1, F(1, 2))])


class TestConstants:
    def test_default_relations(self):
        c = DEFAULT_CONSTANTS
        assert (c.k0, c.k1, c.k2) == (4, 20480, 61440)
        assert c.k1 == 5120 * c.k0
        assert c.k2 == 3 * c.k1
        assert c.corollary_k == 61442

    def test_overrides_are_exact(self):
        c = Constants(k0="1.33")
        assert c.k0 == F(133, 100)
        assert c.k1 == 20480

    @pytest.mark.parametrize("name", ["k0", "k1", "k2"])
    @pytest.mark.parametrize("value", [F(0), F(-1, 2)])
    def test_nonpositive_rejected(self, name, value):
        with pytest.raises(StructureError, match=f"constants must be positive, got {name}="):
            Constants(**{name: value})


class TestBoundReport:
    def test_holds_matches_comparison(self):
        assert BoundReport(F(1), F(1)).holds
        assert not BoundReport(F(1), F(2)).holds

    def test_verdict_follows_replaced_sides(self):
        report = BoundReport(F(2), F(1), {"k": 0})
        assert report.holds
        assert not replace(report, lhs=F(1, 2)).holds
        assert replace(report, lhs=F(1), rhs=F(1)).holds

    def test_ratio_only_when_rhs_positive(self):
        assert BoundReport(F(3), F(2)).ratio == F(3, 2)
        assert BoundReport(F(3), F(0)).ratio is None

    def test_serialization(self):
        report = BoundReport(F(3, 4), F(1, 4), {"k": 2, "flag": True})
        lines = report.kv_lines()
        assert "lhs=3/4" in lines and "rhs=1/4" in lines and "ratio=3" in lines
        assert "witness.flag=true" in lines
        assert report.csv_row(7) == ["7", "3/4", "1/4", "3", "true", "k=2;flag=true"]

    def test_decimal_kv_lines(self):
        report = BoundReport(F(1, 3), F(0), {"split": (0, 2), "e": F(1, 4), "flag": False})
        assert report.kv_lines(decimal=True) == [
            "lhs=0.333333333333333",
            "rhs=0",
            "ratio=",
            "holds=true",
            "witness.split=0,2",
            "witness.e=0.25",
            "witness.flag=false",
        ]

    def test_decimal_values_outside_the_normal_float_range(self):
        # float() overflowed past 2^1024, printed 1e-400 as 0 and rounded
        # subnormals to a multiple of 2^-1074; these are exact, half-even
        cases = [
            (F(10**400), "1e+400"),
            (-F(10**400), "-1e+400"),
            (F(1, 10**400), "1e-400"),
            (F(2, 3) * 10**400, "6.66666666666667e+399"),
            (F(1, 3 << 1060), "2.69825718048766e-320"),  # float: 2.69809249193905e-320
            (F(10**15 + 5) * 10**400, "1e+415"),  # a tie goes to the even digit
            (F(10**15 + 15) * 10**400, "1.00000000000002e+415"),
            (-F(10**15 + 5, 2 * 10**400), "-5.00000000000002e-386"),
            (F(2**1024), "1.79769313486232e+308"),
        ]
        for value, text in cases:
            assert format_value(value, decimal=True) == text
            assert format_value(value) == str(value)

    def test_decimal_values_in_the_normal_float_range_match_their_float(self):
        # on these edges the nearest float has the .15g text of the exact value
        edges = [F(1, 1 << 1022), F((1 << 1024) - (1 << 971)), F(0), F(-7, 3), F(10**14), F(1, 10**5)]
        for value in edges:
            assert format_value(value, decimal=True) == f"{float(value):.15g}"

    def test_decimal_values_round_once_from_the_exact_value(self):
        # a float in between rounded twice: 6.10339506172839 and 0.740865532228085
        cases = [
            (F(3955, 648), "6.1033950617284"),  # 6.10339506172839506...
            (F(1481731064456171, 2000000000000000), "0.740865532228086"),  # a tie, to even
            (F(0), "0"),
            (F(1, 10**5), "1e-05"),
            (F(10**14), "100000000000000"),
            (F(10**15), "1e+15"),
        ]
        for value, text in cases:
            assert format_value(value, decimal=True) == text


class TestLemma7:
    def test_uniform_pair(self):
        report = lemma7_bound(UNIFORM, UNIFORM, 0)
        assert (report.lhs, report.rhs, report.holds) == (F(1), F(0), True)

    def test_claim6_pair(self):
        x, y = claim6_example()
        report = lemma7_bound(x, y, 0)
        assert (report.lhs, report.rhs) == (F(3, 4), F(1, 4))
        assert report.ratio == 3
        assert report.witness["max_abs_var"] == 1
        assert report.witness["required_k0"] == F(4, 3)

    def test_degenerate_summand(self):
        y = DiscreteRV.from_atoms([(-2, F(1, 2)), (2, F(1, 2))])
        report = lemma7_bound(DiscreteRV.constant(0), y, F(1, 2))
        assert report.lhs == report.witness["max_abs_var"]
        assert report.holds

    def test_rejects_unbalanced(self):
        with pytest.raises(BalanceError):
            lemma7_bound(DiscreteRV.constant(1), UNIFORM, 0)

    def test_constant_override(self):
        x, y = claim6_example()
        assert lemma7_bound(x, y, 0, Constants(k0=F(4, 3))).holds
        assert not lemma7_bound(x, y, 0, Constants(k0=F(133, 100))).holds
        assert not lemma7_bound(x, y, 0, Constants(k0=1)).holds


class TestLemma5:
    def test_matches_lemma7_after_centering(self):
        x, y = claim6_example()
        assert lemma5_bound(x, y).lhs == lemma7_bound(x, y, 0).lhs

    def test_shift_invariance(self):
        x, y = claim6_example()
        base = lemma5_bound(x, y)
        moved = lemma5_bound(shift(x, 5), shift(y, -5))
        assert (moved.lhs, moved.rhs, moved.holds) == (base.lhs, base.rhs, base.holds)

    def test_constants_in_constants_out(self):
        report = lemma5_bound(DiscreteRV.constant(2), DiscreteRV.constant(-7))
        assert (report.lhs, report.rhs, report.holds) == (F(0), F(0), True)


class TestClaim8:
    def test_opposite_dictator_points(self):
        ybar = TwoPointBalancedRV.from_rv(UNIFORM)
        report = claim8_check(1, -1, ybar)
        assert (report.lhs, report.rhs, report.holds) == (F(2), F(0), True)

    def test_gap_two(self):
        ybar = TwoPointBalancedRV.from_rv(UNIFORM)
        report = claim8_check(2, 0, ybar)
        assert (report.lhs, report.rhs, report.holds) == (F(2), F(1), True)

    def test_degenerate_y(self):
        ybar = TwoPointBalancedRV(F(0), F(1, 2))
        report = claim8_check(F(5, 2), F(-1, 2), ybar)
        assert report.lhs == (F(5, 2) - F(1, 2)) ** 2
        assert report.rhs == report.lhs / 4
        assert report.holds

    def test_skewed_two_point(self):
        # p = 1/5, d = 1: support {5, -5/4}
        ybar = TwoPointBalancedRV(F(1), F(1, 5))
        report = claim8_check(F(3), F(-2), ybar)
        assert report.holds


class TestClaim9:
    def test_uniform_pair(self):
        report = claim9_bound(UNIFORM, UNIFORM, 0)
        assert (report.lhs, report.rhs, report.holds) == (F(1), F(1, 16), True)

    def test_zero_y(self):
        report = claim9_bound(UNIFORM, DiscreteRV.constant(0), 0)
        assert report.rhs == 0
        assert report.holds

    def test_claim6_pair(self):
        x, y = claim6_example()
        report = claim9_bound(x, y, 0)
        assert (report.lhs, report.rhs, report.holds) == (F(1), F(3, 128), True)

    def test_orientation_swap(self):
        small = DiscreteRV.from_atoms([(F(-1, 8), F(1, 2)), (F(1, 8), F(1, 2))])
        report = claim9_bound(small, UNIFORM, 0)
        assert report.witness["swapped"] is True
        assert report.holds
        # without the swap the literal formula would demand 1/16 > lhs
        assert report.lhs == F(1, 64)

    def test_negative_e_flip(self):
        x = DiscreteRV.from_atoms([(0, F(1, 2)), (-2, F(1, 4)), (2, F(1, 4))])
        report = claim9_bound(x, UNIFORM, -2)
        assert report.witness["flipped"] is True
        assert report.holds

    def test_degenerate_denominator(self):
        report = claim9_bound(DiscreteRV.constant(0), UNIFORM, 0)
        assert report.rhs == 0
        assert report.holds


class TestLemma4:
    def test_uniform_pair(self):
        report = lemma4_bound(UNIFORM, UNIFORM)
        assert (report.lhs, report.rhs) == (F(1), F(1, 20480))
        assert report.witness["a"] == F(1, 2560)
        assert report.holds

    def test_constant_side(self):
        report = lemma4_bound(UNIFORM, DiscreteRV.constant(9))
        assert report.rhs == 0
        assert report.witness["m_xy"] == 0
        assert report.holds

    def test_claim6_pair(self):
        x, y = claim6_example()
        report = lemma4_bound(x, y)
        assert (report.lhs, report.rhs, report.holds) == (F(3, 4), F(1, 20480), True)
        assert report.witness["v"] == 3
        assert report.witness["a"] == F(1, 2560)


class TestPartitionSplit:
    def test_three_equal(self):
        assert partition_split([1, 1, 1]) == ((0,), (1, 2))

    def test_four_halves(self):
        a, b = partition_split([F(1, 2)] * 4)
        assert a == (0, 1) and b == (2, 3)

    def test_boundary_heavy_singleton(self):
        assert partition_split([2, 1]) == ((0,), (1,))

    def test_sums_land_in_window(self):
        import random

        rng = random.Random(5)
        for _ in range(200):
            variances = [F(rng.randint(1, 8), rng.randint(1, 5)) for _ in range(6)]
            total = sum(variances)
            if any(3 * v > 2 * total for v in variances):
                continue
            a, b = partition_split(variances)
            assert sorted(a + b) == list(range(6))
            sum_a = sum(variances[i] for i in a)
            assert total / 3 <= sum_a <= 2 * total / 3
            assert total / 3 <= total - sum_a <= 2 * total / 3

    def test_precondition_errors(self):
        with pytest.raises(StructureError):
            partition_split([10, 1])
        with pytest.raises(StructureError):
            partition_split([0, 0])
        with pytest.raises(StructureError):
            partition_split([1, -1, 3])


class TestTheorem1:
    def test_three_uniform(self):
        report = theorem1_check([UNIFORM] * 3)
        assert (report.lhs, report.rhs) == (F(3, 4), F(1, 30720))
        assert report.witness["k"] == 0
        assert report.witness["split_a"] == (0,)
        assert report.holds

    def test_two_variables_match_lemma4_shape(self):
        x, y = claim6_example()
        t_report = theorem1_check([x, y])
        l_report = lemma4_bound(x, y)
        assert t_report.lhs == l_report.lhs
        assert t_report.rhs == l_report.rhs / 3  # K2 = 3 K1, same numerator
        assert t_report.witness["rest_var"] == l_report.witness["m_xy"]

    def test_dominant_variable_uses_heavy_branch(self):
        heavy = DiscreteRV.from_atoms([(-100, F(1, 2)), (100, F(1, 2))])
        report = theorem1_check([heavy, UNIFORM])
        assert report.witness["k"] == 0
        assert "split_a" not in report.witness
        assert (report.lhs, report.rhs) == (F(1), F(1, 61440))
        assert report.holds

    def test_needs_two_variables(self):
        with pytest.raises(StructureError):
            theorem1_check([UNIFORM])

    def test_tie_picks_lowest_index(self):
        report = theorem1_check([UNIFORM, UNIFORM])
        assert report.witness["k"] == 0


class TestCorollary2:
    def test_dictator(self):
        f = BooleanFunction(2, [1, -1, 1, -1])
        partition = Partition.from_blocks(2, [[1], [2]])
        outcome = corollary2_apply(f, partition)
        assert (outcome.epsilon, outcome.dist, outcome.holds) == (F(0), F(0), True)
        assert outcome.k == 0

    def test_or_of_two(self):
        f = BooleanFunction(2, [1, -1, -1, -1])  # x OR y, -1 = true
        partition = Partition.from_blocks(2, [[1], [2]])
        outcome = corollary2_apply(f, partition)
        assert outcome.var_f == F(3, 4)
        assert outcome.cross_weight == F(1, 4)
        assert outcome.epsilon == F(1, 3)
        assert outcome.coeff_empty == F(-1, 2)
        assert outcome.dist == F(1, 2)
        assert outcome.block_dists == (F(1, 2), F(1, 2))
        assert outcome.k == 0
        assert outcome.holds  # 1/2 <= 61442/3

    def test_pure_crossing_character(self):
        f = BooleanFunction(2, [1, -1, -1, 1])
        partition = Partition.from_blocks(2, [[1], [2]])
        outcome = corollary2_apply(f, partition)
        assert (outcome.epsilon, outcome.dist) == (F(1), F(1))
        assert outcome.holds

    def test_verdict_follows_replaced_distance(self):
        f = BooleanFunction(2, [1, -1, -1, 1])
        outcome = corollary2_apply(f, Partition.from_blocks(2, [[1], [2]]))
        assert outcome.holds
        assert not replace(outcome, dist=outcome.bound + F(1, 64)).holds
        assert replace(outcome, dist=outcome.bound).holds

    def test_constant_function_rejected(self):
        f = BooleanFunction(2, [1, 1, 1, 1])
        partition = Partition.from_blocks(2, [[1], [2]])
        with pytest.raises(StructureError, match="variance zero"):
            corollary2_apply(f, partition)


class TestTribesExample:
    def test_m1_values(self):
        f, partition = tribes_example(1)
        assert variance(f) == 0.75
        assert corollary2_apply(f, partition).cross_weight == 0.25
        assert partition.blocks == (frozenset({1}), frozenset({2}))

    def test_m2_values(self):
        f, partition = tribes_example(2)
        assert Fraction(variance(f)) == F(63, 64)
        outcome = corollary2_apply(f, partition)
        assert outcome.cross_weight == F(9, 64)
        assert outcome.epsilon == F(1, 7)
        assert outcome.dist == F(9, 16)

    def test_checks_make_no_int64_table_copy(self):
        # the m=10 table is 1 MiB of int8; one int64 copy of it is 8 MiB
        tracemalloc.start()
        try:
            f, _ = tribes_example(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.table.dtype == np.int8
        assert peak < 4 << 20

    def test_range_validation(self):
        with pytest.raises(StructureError):
            tribes_example(0)
        with pytest.raises(StructureError):
            tribes_example(14)

    @pytest.mark.parametrize(
        "on_table, match",
        [
            (False, r"^tribes distance 5/16 != 4\*2\^\(-2m\)$"),  # X + Y - 1 - f: 0 or -2
            (True, r"^tribes variance != 4p\(1-p\)$"),  # the table: +1 or -1
        ],
        ids=["distance", "variance"],
    )
    def test_construction_checks(self, monkeypatch, on_table, match):
        real = bounds_module._sum_sq

        def bumped(rows):
            out = real(rows)
            return out + 1 if bool(np.all(np.abs(rows) == 1)) == on_table else out

        monkeypatch.setattr(bounds_module, "_sum_sq", bumped)
        with pytest.raises(VerificationError, match=match):
            tribes_example(2)


class TestClaim6Example:
    def test_exact_atoms(self):
        x, y = claim6_example()
        assert x.atoms == ((F(-2), F(1, 4)), (F(0), F(1, 2)), (F(2), F(1, 4)))
        assert y.atoms == ((F(-1), F(1, 2)), (F(1), F(1, 2)))

    def test_k0_threshold(self):
        x, y = claim6_example()
        assert lemma5_bound(x, y, Constants(k0=F(4, 3))).holds
        assert not lemma5_bound(x, y, Constants(k0=F(133, 100))).holds

    @pytest.mark.parametrize(
        "name, wrong, match",
        [
            ("expectation", lambda real, rv: real(rv) + 1, "^claim6 variables must be balanced$"),
            ("variance_rv", lambda real, rv: real(rv) + 1, r"^claim6 Var\|X\+Y\| != 3/4$"),
            # Var|X+Y| = 3/4 passes; Var|X| = 1 is doubled
            (
                "variance_rv",
                lambda real, rv: real(rv) * (2 if real(rv) == 1 else 1),
                r"^claim6 Var\|X\| != 1$",
            ),
        ],
        ids=["mean", "var_sum", "var_x"],
    )
    def test_construction_checks(self, monkeypatch, name, wrong, match):
        real = getattr(bounds_module, name)
        monkeypatch.setattr(bounds_module, name, lambda rv: wrong(real, rv))
        with pytest.raises(VerificationError, match=match):
            claim6_example()
