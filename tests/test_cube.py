"""Hypercube function types, transform, and identity tests."""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fknlab.cube as cube_module
from fknlab.bounds import corollary2_apply, tribes_example
from fknlab.cube import (
    BooleanFunction,
    FourierExpansion,
    Partition,
    RealFunction,
    _butterfly,
    _pointwise_sq_dist,
    balance_extend,
    boolean_tables,
    format_boolean_function,
    format_partition,
    inverse_wht,
    parse_boolean_function,
    parse_partition,
    restriction,
    sq_l2_dist,
    stack_block_weights,
    variance,
    wht,
)
from fknlab.errors import (
    CapacityError,
    DimensionMismatchError,
    ParseError,
    StructureError,
    VerificationError,
)
from fknlab.sweep import enumerate_boolean_functions, random_real_function

from conftest import dyadic_function, naive_fourier, set_partitions, sq_mass, values, within

F = Fraction


def dictator(m: int, i: int = 1) -> BooleanFunction:
    table = [(-1 if (x >> (i - 1)) & 1 else 1) for x in range(1 << m)]
    return BooleanFunction(m, table)


def maj3() -> BooleanFunction:
    table = []
    for x in range(8):
        point = [-1 if (x >> b) & 1 else 1 for b in range(3)]
        table.append(1 if sum(point) > 0 else -1)
    return BooleanFunction(3, table)


def or2() -> BooleanFunction:
    # -1 plays "true": f = x OR y
    return BooleanFunction(2, [1, -1, -1, -1])


class TestTypes:
    def test_index_convention(self):
        f = dictator(2)
        assert list(f.table) == [1, -1, 1, -1]

    def test_boolean_rejects_bad_entries(self):
        with pytest.raises(StructureError):
            BooleanFunction(1, [1, 0])

    def test_length_must_be_power(self):
        with pytest.raises(StructureError):
            BooleanFunction(2, [1, 1, 1])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            BooleanFunction(0, [1])
        with pytest.raises(CapacityError):
            RealFunction(27, np.zeros(2**27 // 2**27, dtype=np.int64))

    def test_real_rejects_non_integer_numerators(self):
        # never cast: 0.5 would become 0 in an int64 table
        for bad in (np.array([0.5, 1.0]), [F(1, 2), 0], [1, "1"]):
            with pytest.raises(StructureError, match="integers"):
                RealFunction(1, bad)
        with pytest.raises(StructureError, match="integers"):
            FourierExpansion(1, np.array([1.0, 0.0]))
        with pytest.raises(StructureError, match="k >= 0"):
            RealFunction(1, [1, 0], k=-1)

    def test_tables_become_readonly(self):
        f = dictator(1)
        with pytest.raises(ValueError):
            f.table[0] = -1

    @pytest.mark.parametrize(
        "build,dtype",
        [
            (lambda a: BooleanFunction(1, a).table, np.int8),
            (lambda a: RealFunction(1, a).table, np.int64),
            (lambda a: FourierExpansion(1, a).coeffs, np.int64),
        ],
    )
    def test_callers_array_stays_writable_and_read_only_ones_are_kept(self, build, dtype):
        caller = np.array([1, -1], dtype=dtype)
        stored = build(caller)
        caller[0] = -1  # the caller's array is still theirs to write
        assert list(stored) == [1, -1] and not stored.flags.writeable
        frozen = np.array([1, -1], dtype=dtype)
        frozen.setflags(write=False)
        assert build(frozen) is frozen  # a read-only array is kept, not copied

    def test_package_tables_are_handed_over_without_a_copy(self, monkeypatch):
        handed = []  # every array _frozen marks read-only, in order
        freeze = cube_module._frozen
        monkeypatch.setattr(cube_module, "_frozen", lambda a: handed.append(a) or freeze(a))
        f = parse_boolean_function("m=2\n+--+")
        assert f.table is handed[0]  # the parsed signs
        handed.clear()
        assert balance_extend(f).table is handed[0]
        real = RealFunction(2, [1, 2, 3, 4])
        handed.clear()
        expansion = wht(real)
        assert expansion.coeffs is handed[0]  # the butterfly's own output
        handed.clear()
        assert inverse_wht(expansion).table is handed[0]

    def test_partition_validation(self):
        with pytest.raises(StructureError):
            Partition.from_blocks(2, [[1], [1, 2]])
        with pytest.raises(StructureError):
            Partition.from_blocks(3, [[1], [2]])
        with pytest.raises(StructureError):
            Partition.from_blocks(2, [[1, 2], []])
        with pytest.raises(StructureError):
            Partition.from_blocks(2, [[1], [2], [3]])
        with pytest.raises(StructureError, match="^partition needs at least one block$"):
            Partition(2, ())
        # a repeat inside one block used to vanish into its frozenset
        with pytest.raises(StructureError, match="^variable 2 appears twice in one block$"):
            Partition.from_blocks(4, [[1, 2, 2], [3, 4]])
        with pytest.raises(ParseError, match="^variable 2 appears twice in one block$"):
            parse_partition("1,2,2|3,4", 4)


class TestWht:
    def test_dictator(self):
        expansion = wht(dictator(2))
        assert values(expansion)[0b01] == 1
        assert np.count_nonzero(expansion.coeffs) == 1

    def test_single_character(self):
        f = BooleanFunction(2, [1, -1, -1, 1])  # x1 * x2
        expansion = wht(f)
        assert values(expansion)[0b11] == 1
        assert np.count_nonzero(expansion.coeffs) == 1

    def test_maj3_against_naive_sum(self):
        f = maj3()
        expected = naive_fourier(f.table, 3)
        assert expected[0b001] == Fraction(1, 2)
        assert expected[0b111] == Fraction(-1, 2)
        assert values(wht(f)) == expected

    def test_all_m2_against_naive_sum(self):
        for f in enumerate_boolean_functions(2):
            assert values(wht(f)) == naive_fourier(f.table, 2)

    def test_boolean_expansion_on_16_variables_is_int64(self):
        # coefficient numerators reach 2^16, past the table bound, inside the expansion one
        f, _ = tribes_example(8)
        expansion = wht(f)
        assert f.m == 16 and expansion.coeffs.dtype == np.int64
        assert np.array_equal(expansion.coeffs, _butterfly(f.table.astype(object)))

    @pytest.mark.parametrize("m", [7, 8])
    def test_int8_rows_are_widened(self, m):
        # the all-ones row sums to 2^m, past int8: the working copy is int32
        rows = 1 - 2 * np.random.default_rng(m).integers(0, 2, (4, 1 << m), dtype=np.int8)
        rows[0] = 1
        got = _butterfly(rows)
        assert rows.dtype == np.int8 and got.dtype == np.int32 and got[0, 0] == 1 << m
        assert np.array_equal(got, _butterfly(rows.astype(np.int64)))

    def test_parseval_and_dyadic_grid_exhaustive(self):
        for m in (1, 2, 3):
            for f in enumerate_boolean_functions(m):
                coeffs = values(wht(f))
                assert sum(c * c for c in coeffs) == 1
                assert all((c * (1 << m)).denominator == 1 for c in coeffs)


class TestInverse:
    def test_single_coefficient_is_dictator(self):
        coeffs = np.zeros(4, dtype=np.int64)
        coeffs[0b01] = 1
        table = inverse_wht(FourierExpansion(2, coeffs)).table
        assert np.array_equal(table, dictator(2).table)

    def test_mixed_coefficients(self):
        # 1/2 + x1/2 evaluates to 1 at x1=+1 and 0 at x1=-1
        expansion = FourierExpansion(1, np.array([1, 1]), k=1)
        assert values(inverse_wht(expansion)) == [1, 0]

    def test_round_trip_exact(self, rng_seed):
        for i in range(25):
            f = random_real_function(4, rng_seed + i)
            back = inverse_wht(wht(f))
            assert values(back) == values(f)
            f2 = dictator(3)
            assert values(wht(inverse_wht(wht(f2)))) == values(wht(f2))


def coefficient_sq_dist(f, g) -> Fraction:
    """Sum of squared coefficient differences (Fact 2's coefficient side)."""
    return sum((a - b) ** 2 for a, b in zip(values(wht(f)), values(wht(g))))


class TestDistance:
    def test_self_distance_zero(self):
        f = maj3()
        assert sq_l2_dist(f, f) == 0.0

    def test_negation_distance_four(self):
        f = maj3()
        neg = BooleanFunction(3, -f.table)
        assert sq_l2_dist(f, neg) == 4.0

    def test_dictator_vs_majority(self):
        assert sq_l2_dist(dictator(3), maj3()) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sq_l2_dist(dictator(2), dictator(3))

    def test_fact2_pointwise_equals_coefficient_sum(self, rng_seed):
        for m in (1, 2):
            funcs = list(enumerate_boolean_functions(m))
            for f in funcs[:: max(1, len(funcs) // 8)]:
                for g in funcs[:: max(1, len(funcs) // 8)]:
                    assert sq_l2_dist(f, g) == coefficient_sq_dist(f, g)
        for i in range(50):
            f = random_real_function(3, rng_seed + i)
            g = random_real_function(3, rng_seed + 1000 + i)
            assert sq_l2_dist(f, g) == coefficient_sq_dist(f, g)

    def test_boolean_distance_identities(self, rng_seed):
        fs = list(enumerate_boolean_functions(2))
        for f in fs:
            for g in fs:
                d = sq_l2_dist(f, g)
                disagree = int(np.count_nonzero(f.table != g.table))
                assert d == 4 * disagree / f.table.size
                abs_diff = np.abs(f.table.astype(np.int64) - g.table)
                assert d == 2 * F(int(abs_diff.sum()), abs_diff.size)


class TestVariance:
    def test_constant_zero(self):
        assert variance(BooleanFunction(2, [1, 1, 1, 1])) == 0

    def test_dictator_one(self):
        assert variance(dictator(3)) == 1

    def test_or_three_quarters(self):
        assert variance(or2()) == F(3, 4)

    def test_fact3_coefficient_identity(self, rng_seed):
        for f in enumerate_boolean_functions(3):
            assert variance(f) == sum(c * c for c in values(wht(f))[1:])
        for i in range(100):
            f = random_real_function(3, rng_seed + i)
            assert variance(f) == sum(c * c for c in values(wht(f))[1:])

    def test_fact5_distance_to_mean(self, rng_seed):
        for i in range(100):
            f = random_real_function(3, rng_seed + i)
            const = dyadic_function(3, [f.mean()] * 8)
            assert variance(f) == sq_l2_dist(f, const)

    def test_fact6_mean_minimizes(self, rng_seed):
        for i in range(50):
            f = random_real_function(2, rng_seed + i)
            var = variance(f)
            mean = f.mean()
            for c in [mean, 0, F(1, 2), F(-5, 4), mean + F(1, 2), mean - 2]:
                dist = sq_l2_dist(f, dyadic_function(2, [c] * 4))
                assert dist >= var
                if c == mean:
                    assert dist == var

    def test_fact1_relaxed_triangle(self, rng_seed):
        for i in range(100):
            f = random_real_function(2, rng_seed + 3 * i)
            g = random_real_function(2, rng_seed + 3 * i + 1)
            h = random_real_function(2, rng_seed + 3 * i + 2)
            assert sq_l2_dist(f, g) + sq_l2_dist(g, h) >= sq_l2_dist(f, h) / 2

    def test_fact8_variance_transfer(self, rng_seed):
        for i in range(100):
            f = random_real_function(2, rng_seed + 7000 + 2 * i)
            g = random_real_function(2, rng_seed + 7000 + 2 * i + 1)
            assert variance(f) >= variance(g) / 2 - sq_l2_dist(f, g)


class TestRestriction:
    def test_dictator_in_block(self):
        r = restriction(dictator(1), {1})
        assert values(r) == values(dictator(1))

    def test_dictator_outside_block(self):
        r = restriction(dictator(2, i=1), {2})
        assert np.array_equal(r.table, np.zeros(4))

    def test_or_block_coefficient(self):
        expansion = wht(restriction(or2(), {1}))
        assert values(expansion)[0b01] == F(1, 2)
        assert np.count_nonzero(expansion.coeffs) == 1

    def test_mean_zero(self, rng_seed):
        for i in range(20):
            f = random_real_function(3, rng_seed + i)
            assert restriction(f, {1, 3}).mean() == 0

    def test_disjoint_blocks_orthogonal(self):
        for f in enumerate_boolean_functions(3):
            a = restriction(f, {1})
            b = restriction(f, {2, 3})
            assert sum(x * y for x, y in zip(values(a), values(b))) == 0

    def test_block_out_of_range(self):
        with pytest.raises(StructureError):
            restriction(dictator(2), {3})


def kernel_cross(f: BooleanFunction, partition: Partition) -> Fraction:
    """The kernel's cross column for one table, over 4^m."""
    [(cross, _)] = stack_block_weights(f.table[None], [partition])[1]
    return F(int(cross[0]), 1 << 2 * f.m)


class TestCrossWeight:
    def test_dictator_zero(self):
        p = Partition.from_blocks(2, [[1], [2]])
        assert kernel_cross(dictator(2), p) == 0

    def test_single_crossing_character(self):
        f = BooleanFunction(2, [1, -1, -1, 1])
        p = Partition.from_blocks(2, [[1], [2]])
        assert kernel_cross(f, p) == 1
        assert corollary2_apply(f, p).cross_weight == 1

    def test_or_quarter(self):
        p = Partition.from_blocks(2, [[1], [2]])
        assert kernel_cross(or2(), p) == F(1, 4)
        assert corollary2_apply(or2(), p).cross_weight == F(1, 4)

    def test_constant_tables_weigh_zero(self):
        # corollary2_apply refuses Var f = 0; the kernel weighs such tables too
        p = Partition.from_blocks(3, [[1, 3], [2]])
        for entry in (1, -1):
            assert kernel_cross(BooleanFunction(3, [entry] * 8), p) == 0

    def test_invalid_partition(self):
        p = Partition.from_blocks(3, [[1], [2, 3]])
        with pytest.raises(DimensionMismatchError):
            kernel_cross(dictator(2), p)


class TestStackKernel:
    def test_boolean_tables_in_table_integer_order(self):
        for m in (1, 2, 3):
            tables = boolean_tables(m)
            assert tables.dtype == np.int8 and tables.shape == (1 << (1 << m), 1 << m)
            assert not tables.flags.writeable
            for t, table in enumerate(tables):
                assert table.tolist() == [-1 if (t >> i) & 1 else 1 for i in range(1 << m)]

    def test_equals_corollary2_apply_on_every_function_and_partition(self):
        # every non-constant function on m <= 3 against every set partition,
        # the one-block partition included
        for m in (1, 2, 3):
            tables = boolean_tables(m)[1:-1]  # rows 0 and 2^(2^m)-1 are the constants
            unit = 4**m
            variables = list(range(1, m + 1))
            partitions = [Partition.from_blocks(m, b) for b in set_partitions(variables)]
            assert len(partitions) == [1, 2, 5][m - 1]
            var, weights = stack_block_weights(tables, partitions)
            for partition, (cross, dists) in zip(partitions, weights, strict=True):
                for t, table in enumerate(tables):
                    report = corollary2_apply(BooleanFunction(m, table), partition)
                    assert Fraction(int(var[t]), unit) == report.var_f
                    assert Fraction(int(cross[t]), unit) == report.cross_weight
                    got = tuple(Fraction(int(d), unit) for d in dists[t])
                    assert got == report.block_dists

    def test_input_checks(self):
        partition = Partition.from_blocks(2, [[1], [2]])
        with pytest.raises(DimensionMismatchError):
            stack_block_weights(boolean_tables(3), [partition])
        with pytest.raises(StructureError, match="exactly"):
            stack_block_weights(np.zeros((1, 4), dtype=np.int8), [partition])
        # m past M_MAX is refused before any work
        wide = Partition.from_blocks(27, [range(1, 28)])
        with pytest.raises(CapacityError, match="outside supported range"):
            stack_block_weights(np.ones((0, 1 << 27), dtype=np.int8), [wide])
        var, [(cross, dists)] = stack_block_weights(
            np.ones((0, 8), dtype=np.int8), [Partition.from_blocks(3, [[1], [2, 3]])]
        )
        assert var.shape == cross.shape == (0,) and dists.shape == (0, 2)

    @pytest.mark.parametrize("shape", [(8,), (1, 12)], ids=["one_row_1d", "rows_12_wide"])
    def test_a_stack_not_of_rows_of_2_to_the_m_entries(self, shape):
        partition = Partition.from_blocks(3, [[1], [2, 3]])
        match = rf"^3 variables, tables of shape {re.escape(str(shape))}$"
        with pytest.raises(DimensionMismatchError, match=match):
            stack_block_weights(np.ones(shape, dtype=np.int8), [partition])

    def test_is_naive_mass_times_4_to_the_m_on_every_function_and_partition(self):
        for m in (1, 2, 3):
            tables = boolean_tables(m)[1:-1]  # rows 0 and 2^(2^m)-1 are the constants
            unit = 4**m
            oracle = [naive_fourier(table, m) for table in tables]
            for blocks in set_partitions(list(range(1, m + 1))):
                partition = Partition.from_blocks(m, blocks)
                masks = [partition.mask(j) for j in range(len(blocks))]
                inside_none = lambda s: not any(within(s, mask) for mask in masks)
                var, [(cross, dists)] = stack_block_weights(tables, [partition])
                for t, coeffs in enumerate(oracle):
                    assert var[t] == sq_mass(coeffs, lambda s: s != 0) * unit
                    assert cross[t] == sq_mass(coeffs, inside_none) * unit
                    for j, mask in enumerate(masks):
                        assert dists[t, j] == sq_mass(coeffs, lambda s: not within(s, mask)) * unit

    def test_a_table_stack_is_transformed_once(self, monkeypatch):
        tables = boolean_tables(3)
        partitions = [Partition.from_blocks(3, b) for b in set_partitions([1, 2, 3])]
        assert len(partitions) == 5
        expected = [stack_block_weights(tables, [partition]) for partition in partitions]
        real, calls = cube_module._butterfly, []
        monkeypatch.setattr(cube_module, "_butterfly", lambda a: calls.append(a) or real(a))
        var, weights = stack_block_weights(tables, partitions)
        # one forward transform for all five; the pointwise route sums blocks of the tables
        assert len(calls) == 1
        assert len(weights) == len(partitions)
        for (cross, dists), (one_var, [(one_cross, one_dists)]) in zip(weights, expected):
            assert np.array_equal(var, one_var)
            assert np.array_equal(cross, one_cross) and np.array_equal(dists, one_dists)
        with pytest.raises(DimensionMismatchError):
            stack_block_weights(tables, [partitions[0], Partition.from_blocks(2, [[1], [2]])])

    def test_pointwise_route_catches_a_swap_in_the_forward_transform(self, monkeypatch):
        # swapping c_S (S inside block 1) and c_T (T in no block) of different
        # magnitude keeps Parseval, Var f and the cross identity the kernel
        # derives its cross from: only the pointwise route, which reads the
        # table and not c, can see it
        f, partition = tribes_example(2)
        n, masks = 1 << f.m, [partition.mask(j) for j in range(len(partition.blocks))]
        c = _butterfly(f.table.astype(np.int64))
        crossing = [t for t in range(n) if not any(within(t, mask) for mask in masks)]
        inside = [s for s in range(1, n) if within(s, masks[0])]
        s, t = next((s, t) for s in inside for t in crossing if abs(c[s]) != abs(c[t]))
        real = cube_module._butterfly

        def swapped(a):
            out = real(a)
            out[..., [s, t]] = out[..., [t, s]]
            return out

        c2 = swapped(f.table.astype(np.int64))
        assert sorted(c2**2) == sorted(c**2) and c2[0] == c[0]
        mass = lambda keep: sum(int(c2[u]) ** 2 for u in range(n) if keep(u))
        block_vars = sum(mass(lambda u: within(u, mask)) - c2[0] ** 2 for mask in masks)
        assert mass(lambda u: u in crossing) == n * n - c2[0] ** 2 - block_vars
        monkeypatch.setattr(cube_module, "_butterfly", swapped)
        with pytest.raises(VerificationError, match="block 0: coefficient route != pointwise"):
            stack_block_weights(f.table[None], [partition])

    def test_parseval_catches_a_changed_coefficient(self, monkeypatch):
        real = cube_module._butterfly

        def bumped(a):
            out = real(a)
            out[..., 1] += 1
            return out

        monkeypatch.setattr(cube_module, "_butterfly", bumped)
        with pytest.raises(VerificationError, match="^Parseval fails on the stack$"):
            stack_block_weights(boolean_tables(2), [Partition.from_blocks(2, [[1], [2]])])

    def test_table_variance_catches_a_swap_with_the_empty_coefficient(self, monkeypatch):
        # swapping c_0 with a c_S of another magnitude keeps every sum of
        # squares, so Parseval holds; Var f from the table sees the swap
        f, partition = tribes_example(2)
        c = _butterfly(f.table.astype(np.int64))
        s = next(s for s in range(1, 1 << f.m) if abs(c[s]) != abs(c[0]))
        real = cube_module._butterfly

        def swapped(a):
            out = real(a)
            out[..., [0, s]] = out[..., [s, 0]]
            return out

        monkeypatch.setattr(cube_module, "_butterfly", swapped)
        with pytest.raises(
            VerificationError, match="^table and coefficient variances differ on the stack$"
        ):
            stack_block_weights(f.table[None], [partition])

    def test_odd_and_even_blocks_across_column_chunks(self):
        # 2^17 entries: the last butterfly stage takes two column chunks; the
        # partitions by index mod 2 and mod 3 interleave the blocks' bits, so
        # each margin sums non-adjacent axes, and with three blocks the derived
        # cross subtracts Var f twice.  Oracle: RealFunction distances through
        # wht and inverse_wht.
        m = 17
        rng = np.random.default_rng(20240813)
        f = BooleanFunction(m, 1 - 2 * rng.integers(0, 2, 1 << m, dtype=np.int8))
        unit, total = 4**m, int(f.table.sum())  # total / 2^m is the empty coefficient
        for k in (2, 3):
            partition = Partition.from_blocks(m, [range(r, m + 1, k) for r in range(1, k + 1)])
            var, [(cross, dists)] = stack_block_weights(f.table[None], [partition])
            block_vars = 0
            for j, block in enumerate(partition.blocks):
                r = restriction(f, block)
                g = RealFunction(m, r.table + (total << r.k - m), r.k)
                assert Fraction(int(dists[0, j]), unit) == sq_l2_dist(f, g)
                block_vars += variance(r)
            assert Fraction(int(var[0]), unit) == variance(f)
            assert Fraction(int(cross[0]), unit) == variance(f) - block_vars

    def test_int64_past_the_old_bound(self):
        # 22 variables: 3m + 2 > 62, where a sum of pointwise squares would
        # leave int64; the margins keep every term inside 4^m = 2^44
        f, partition = tribes_example(11)
        var, [(cross, dists)] = stack_block_weights(f.table[None], [partition])
        assert all(a.dtype == np.int64 for a in (var, cross, dists))
        for j in range(len(partition.blocks)):
            pointwise = _pointwise_sq_dist(f.table[None], partition.mask(j))
            assert pointwise.dtype == np.int64
            assert pointwise.tolist() == dists[:, j].tolist() == [4190209 << 13]
        assert var.tolist() == [17158905855 << 2] and cross.tolist() == [4190209 << 2]


class TestBalanceExtend:
    def test_constant_migrates(self):
        g = balance_extend(BooleanFunction(1, [1, 1]))
        assert np.array_equal(g.table, dictator(2, i=2).table)

    def test_dictator_fixed(self):
        expansion = wht(balance_extend(dictator(1)))
        assert values(expansion)[0b01] == 1
        assert np.count_nonzero(expansion.coeffs) == 1

    def test_even_level_gains_new_variable(self):
        f = BooleanFunction(2, [1, -1, -1, 1])  # x1 x2
        expansion = wht(balance_extend(f))
        assert values(expansion)[0b111] == 1
        assert np.count_nonzero(expansion.coeffs) == 1

    def test_coefficient_mapping_exhaustive_m3(self):
        for f in enumerate_boolean_functions(3):
            fc = values(wht(f))
            gc = values(wht(balance_extend(f)))
            assert gc[0] == 0
            for s in range(8):
                if bin(s).count("1") % 2 == 1:
                    assert gc[s] == fc[s]
                    assert gc[s | 8] == 0
                else:
                    assert gc[s | 8] == fc[s]
                    if s:
                        assert gc[s] == 0
            level1_g = sum(gc[1 << b] ** 2 for b in range(4))
            level01_f = fc[0] ** 2 + sum(fc[1 << b] ** 2 for b in range(3))
            assert level1_g == level01_f

    def test_capacity_limit(self):
        f = BooleanFunction(1, [1, -1])
        for _ in range(25):
            f = balance_extend(f)
        assert f.m == 26
        with pytest.raises(CapacityError):
            balance_extend(f)


class TestFormats:
    def test_boolean_round_trip(self):
        f = maj3()
        text = format_boolean_function(f, comments=["majority of three"])
        back = parse_boolean_function(text)
        assert back.m == 3
        assert np.array_equal(back.table, f.table)

    def test_boolean_parse_errors(self):
        with pytest.raises(ParseError):
            parse_boolean_function("")
        with pytest.raises(ParseError, match="line 1"):
            parse_boolean_function("n=2\n++--")
        with pytest.raises(ParseError, match="line 2"):
            parse_boolean_function("m=2\n++-")
        with pytest.raises(ParseError, match="line 2"):
            parse_boolean_function("m=2\n++-x")
        with pytest.raises(ParseError, match="line 2: bad table character 'é' at position 1"):
            parse_boolean_function("m=1\n+é")
        with pytest.raises(ParseError, match="^expected exactly one table line after the header$"):
            parse_boolean_function("m=1\n+-\n-+")

    @pytest.mark.parametrize("char", ["x", ",", "/", "*", "\x00", "\xab", "\xad"])
    @pytest.mark.parametrize("at", [0, 255])
    def test_a_bad_byte_at_either_end_of_a_long_row(self, char, at):
        # the neighbours of '+' (43) and '-' (45), and the two with the top bit set
        row = ["+-"[i % 2] for i in range(256)]
        row[at] = char
        message = f"^line 2: bad table character {re.escape(repr(char))} at position {at}$"
        with pytest.raises(ParseError, match=message):
            parse_boolean_function("m=8\n" + "".join(row))

    def test_a_character_past_latin_1_is_reported_as_itself(self):
        # the first bad character is reported, not the one with the largest byte
        with pytest.raises(ParseError, match="^line 3: bad table character '€' at position 1$"):
            parse_boolean_function("m=2\n\n+€x-")

    @pytest.mark.parametrize("char, entry", [("+", 1), ("-", -1)])
    def test_a_constant_row(self, char, entry):
        f = parse_boolean_function("m=9\n" + char * 512)
        assert f.table.dtype == np.int8 and np.all(f.table == entry)
        assert not f.table.flags.writeable

    @pytest.mark.parametrize("m", range(1, 13))
    def test_random_tables_round_trip(self, m):
        table = 1 - 2 * np.random.default_rng(m).integers(0, 2, 1 << m)
        text = format_boolean_function(BooleanFunction(m, table))
        assert text == f"m={m}\n" + "".join("+" if v > 0 else "-" for v in table) + "\n"
        assert np.array_equal(parse_boolean_function(text).table, table)

    def test_header_m_not_an_integer(self):
        with pytest.raises(ParseError, match="^line 1: bad variable count 'x'$"):
            parse_boolean_function("m=x\n+-")

    @pytest.mark.parametrize("header", ["m=-1", "m=0", "m=27"])
    def test_header_m_outside_range(self, header):
        # a negative m used to end in a "negative shift count" ValueError
        with pytest.raises(CapacityError, match="outside supported range"):
            parse_boolean_function(f"{header}\n+-")

    # each id gives m and the two entries of the table
    @pytest.mark.parametrize(
        "numerators, k, entries",
        [
            pytest.param([2**53, 1], 0, [F(2**53), F(1)], id="m=1\n9007199254740992\n1"),
            pytest.param(
                [2**30 + 1, 0], 30, [F(2**30 + 1, 2**30), F(0)], id="m=1\n1073741825/1073741824\n0"
            ),
        ],
    )
    def test_real_tables_past_int64_are_exact(self, numerators, k, entries):
        # numerators past the int64 bound run as Python ints; in a float64
        # model both would round (coefficient 2^52 instead of 2^52 + 1/2)
        f = RealFunction(1, numerators, k)
        assert f.table.dtype == object and values(f) == entries
        coeffs = naive_fourier(entries, 1)
        assert values(wht(f)) == coeffs
        assert variance(f) == coeffs[1] ** 2
        assert sq_l2_dist(f, dyadic_function(1, [0, 0])) == sum(c * c for c in coeffs)
        if entries[0] == 2**53:
            assert values(wht(f))[0] == 2**52 + F(1, 2)

    def test_real_range_edge_is_exact(self):
        f = RealFunction(1, [33554431, -33554432])  # 2^1 * 2^25 = 2^26
        assert f.table.dtype == np.int64
        assert variance(f) == Fraction(67108863, 2) ** 2
        assert values(wht(f))[0] == Fraction(-1, 2)

    def test_partition_round_trip(self):
        p = parse_partition("1,3|2,4", 4)
        assert p.blocks == (frozenset({1, 3}), frozenset({2, 4}))
        assert format_partition(p) == "1,3|2,4"

    def test_partition_parse_errors(self):
        with pytest.raises(ParseError):
            parse_partition("1,2|", 2)
        with pytest.raises(ParseError):
            parse_partition("1|a", 2)
        with pytest.raises(ParseError):
            parse_partition("1|3", 2)


@pytest.mark.parametrize("m", [2, 10])
@pytest.mark.parametrize("bad", [-128, 0])
def test_an_int8_table_holding_minus_128_or_0_is_refused(bad, m):
    # |-128| is -128 in int8, so an absolute-value check must not wrap to pass
    table = np.ones(1 << m, dtype=np.int8)
    table[-1] = bad
    message = r"^Boolean table entries must be exactly \+1 or -1$"
    with pytest.raises(StructureError, match=message):
        BooleanFunction(m, table)
    with pytest.raises(StructureError, match=message):
        stack_block_weights(table[None], [Partition.from_blocks(m, [range(1, m + 1)])])


def test_boolean_entries_checked_before_narrowing():
    # each used to pass by its cast: 1.5 -> 1, 255 -> -1 in int8, 2^32 + 1 -> 1 in int32
    with pytest.raises(StructureError, match="exactly"):
        BooleanFunction(1, [1.5, -1])
    with pytest.raises(StructureError, match="exactly"):
        BooleanFunction(1, np.array([255, 1]))
    with pytest.raises(StructureError, match="exactly"):
        stack_block_weights(np.array([[2**32 + 1, -1]]), [Partition.from_blocks(1, [[1]])])


def test_no_float_in_src():
    # the integer model keeps floats out, --decimal output included
    src = Path(__file__).resolve().parents[1] / "src" / "fknlab"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for pattern in ("float(", "np.float64", "dtype=float"):
            assert pattern not in text, f"{path.name} uses {pattern}"
