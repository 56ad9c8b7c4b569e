"""Property tests against the slow oracles of conftest.py.

Cube: random Boolean tables on m = 2..6 variables and random partitions with
at least two blocks; every measure, one function at a time and on a stack
of tables, must equal the exact sum of squared naive Fourier coefficients
over the right family of sets.  Random dyadic tables, with numerators wide
enough to run as int64 or as Python ints, must meet the naive coefficients,
the round trip and Parseval exactly.

Random variables: small random supports; convolution must equal the literal
product distribution, a balanced variable must be rebuilt from its two-point
decomposition, and the integer lattice kernel Var|X1+...+Xn+E| must equal
both the Fraction chain and the product measure, with denominators up to
10^30.  On the same wide inputs, every integer operation must equal its
Fraction definition over `atoms`, and equal distributions must compare
equal and hash alike however they were built.

Evaluators: both two-atom `to_rv`s must build the variable of the merged
Fraction atoms, claim 8's integer sides must equal its Fraction double loop,
and lemma5, lemma7 and claim9 must give the reports built from the chain
Var|.| = variance_rv(abs_rv(shift(convolve(...)))) on the same wide inputs,
witnesses in the same order.

Sweeps: the random-variable generator must draw the variable of the
Fraction reference, leave the generator in the same state, and fail the same
way on a value grid too small for the support.  The fact1 and fact8 sides,
summed on drawn numerators, must equal the cube measures of the same
tables.  The sweep's integer fold must give the Fraction fold's result and
CSV rows on random report sequences, every random sweep must give the
result and rows of the sweep that builds every report, and the exhaustive
corollary check's batch fold must give the per-instance Fraction fold's
result and CSV bytes.  A report's CSV line must be what `csv.writer` writes
for its six cells, and a variable's inline text the text of its atoms.
"""

import csv
import functools
import io
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fknlab.cube as cube_module
from fknlab import sweep
from fknlab.bounds import (
    BoundReport,
    Constants,
    _csv_cell,
    claim8_check,
    claim9_bound,
    corollary2_apply,
    format_value,
    lemma5_bound,
    lemma7_bound,
)
from fknlab.cli import main
from fknlab.cube import (
    BooleanFunction,
    Partition,
    RealFunction,
    _all_signs,
    _butterfly,
    inverse_wht,
    sq_l2_dist,
    stack_block_weights,
    variance,
    wht,
)
from fknlab.errors import AtomLimitError, BalanceError, StructureError
from fknlab.rv import (
    ConstAbsRV,
    DiscreteRV,
    TwoPointBalancedRV,
    abs_rv,
    center,
    const_abs_approx,
    convolve,
    expectation,
    format_rv_inline,
    mix,
    negate,
    shift,
    two_point_decompose,
    var_abs_sum,
    variance_rv,
)

from conftest import (
    accumulate_reference,
    claim8_reference,
    corollary2_per_instance,
    csv_row_reference,
    decimal_reference,
    dyadic_function,
    naive_fourier,
    product_distribution,
    random_rv_reference,
    rv_inline_reference,
    rv_moments,
    sign_matrix,
    sq_mass,
    sweep_reference,
    two_atom_reference,
    values,
    within,
)

PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def boolean_with_partition(draw) -> tuple[BooleanFunction, Partition]:
    m = draw(st.integers(2, 6))
    bits = draw(st.integers(0, (1 << (1 << m)) - 1))
    f = BooleanFunction(m, [-1 if (bits >> i) & 1 else 1 for i in range(1 << m)])
    order = draw(st.permutations(range(1, m + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1), min_size=1)))
    bounds = [0, *cuts, m]
    blocks = [order[a:b] for a, b in zip(bounds, bounds[1:])]
    return f, Partition.from_blocks(m, blocks)


@PROPERTY_SETTINGS
@given(boolean_with_partition())
def test_cross_weight_is_mass_inside_no_block(case):
    f, partition = case
    coeffs = naive_fourier(f.table, f.m)
    masks = [partition.mask(j) for j in range(len(partition.blocks))]
    expected = sq_mass(coeffs, lambda s: not any(within(s, mask) for mask in masks))
    [(cross, _)] = stack_block_weights(f.table[None], [partition])[1]
    assert Fraction(int(cross[0]), 1 << 2 * f.m) == expected


@PROPERTY_SETTINGS
@given(boolean_with_partition())
def test_block_dists_are_mass_outside_each_block(case):
    f, partition = case
    assume(len(set(f.table.tolist())) > 1)  # the corollary needs Var f > 0
    coeffs = naive_fourier(f.table, f.m)
    report = corollary2_apply(f, partition)
    assert len(report.block_dists) == len(partition.blocks)
    for j, dist in enumerate(report.block_dists):
        mask = partition.mask(j)
        assert dist == sq_mass(coeffs, lambda s: not within(s, mask))


@PROPERTY_SETTINGS
@given(boolean_with_partition())
def test_variance_is_mass_off_the_empty_set(case):
    f, _ = case
    coeffs = naive_fourier(f.table, f.m)
    var_f = variance(f)
    assert isinstance(var_f, Fraction) and var_f == sq_mass(coeffs, lambda s: s != 0)


@PROPERTY_SETTINGS
@given(boolean_with_partition(), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3))
def test_stack_kernel_is_naive_mass_over_4_to_the_m(case, more_bits):
    f, partition = case
    n = 1 << f.m
    extra = [[-1 if (bits >> i) & 1 else 1 for i in range(n)] for bits in more_bits]
    tables = np.array([f.table.tolist(), *extra], dtype=np.int8)
    var, [(cross, dists)] = stack_block_weights(tables, [partition])
    # the last-axis butterfly transforms each row as the one-table transform does
    wide = tables.astype(np.int64)
    assert all(np.array_equal(row, _butterfly(t)) for row, t in zip(_butterfly(wide), wide))
    masks = [partition.mask(j) for j in range(len(partition.blocks))]
    for t, table in enumerate(tables):
        coeffs = naive_fourier(table, f.m)
        assert var[t] == sq_mass(coeffs, lambda s: s != 0) * n * n
        expected = sq_mass(coeffs, lambda s: not any(within(s, mask) for mask in masks))
        assert cross[t] == expected * n * n
        for j, mask in enumerate(masks):
            assert dists[t, j] == sq_mass(coeffs, lambda s: not within(s, mask)) * n * n


@PROPERTY_SETTINGS
@given(
    st.integers(1, 10),
    st.sampled_from([0, 1, 3]),
    st.sampled_from([np.int32, np.int64, object]),
    st.integers(0, 2**32 - 1),
)
@example(8, 3, np.int32, 0)
@example(9, 3, np.int32, 0)
@example(8, 3, np.int64, 0)
@example(9, 3, np.int64, 0)
@example(8, 3, object, 0)
@example(9, 3, object, 0)
@example(9, 0, np.int64, 0)
def test_butterfly_is_the_sign_matrix_product(m, rows, dtype, seed):
    # odd and even m, so the radix-4 passes end with and without a radix-2 stage;
    # fixed-width entries are as wide as their dtype lets every stage be; the
    # examples put each dtype on both sides of 2^9 entries, where the low bits move
    n = 1 << m
    rng = np.random.default_rng(seed)
    if dtype is object:
        table = rng.integers(-(2**62), 2**62, (rows, n)).astype(object) << 40
    else:
        peak = (2 ** (8 * np.dtype(dtype).itemsize - 1) - 1) >> m
        table = rng.integers(-peak, peak + 1, (rows, n), dtype=dtype)
    before = table.copy()
    table.setflags(write=False)  # read-only, as the tables of the cube types are
    got = _butterfly(table)
    assert got.dtype == table.dtype and got.shape == (rows, n)
    assert np.array_equal(table, before)  # the input is only read
    expected = table.astype(object) @ sign_matrix(m).astype(object)
    assert np.array_equal(got.astype(object), expected)
    if dtype is object and rows:
        f = RealFunction(m, table[0], k=3)
        expansion = wht(f)
        assert f.table.dtype == expansion.coeffs.dtype == object
        back = inverse_wht(expansion)
        assert back.table.dtype == object and values(back) == values(f)


@PROPERTY_SETTINGS
@given(st.integers(1, 16), st.integers(0, 3), st.integers(0, 2**32 - 1))
@example(6, 0, 0)
@example(7, 0, 0)
@example(8, 3, 0)
@example(9, 3, 0)
@example(10, 1, 0)
@example(14, 0, 0)
@example(15, 0, 0)
@example(16, 3, 0)
def test_butterfly_is_exact_on_int8_sign_rows(m, rows, seed):
    # the all-ones row reaches 2^s after s stages in every order of stages, and
    # the alternating row (chi on x_1) ends at c_1 = 2^m: the int8 stages stop
    # where 2^7 would overflow (m = 6, 7), and rows of 2^9 or more entries
    # move their 6 low bits (m = 8, 9, 10), then run the rest of each 2^14-entry
    # block's stages, at most 8, in int16: there the all-ones row ends at 2^14
    # (m = 14), and at m = 15 the int32 stage past the block takes it to 2^15
    n = 1 << m
    rng = np.random.default_rng(seed)
    table = np.concatenate(
        [np.ones((1, n)), [1 - 2 * (np.arange(n) & 1)], 1 - 2 * rng.integers(0, 2, (rows, n))]
    ).astype(np.int8)
    before = table.copy()
    got = _butterfly(table)
    assert got.dtype == np.int32 and got.shape == table.shape
    assert np.array_equal(table, before)  # the input is only read
    assert got[0, 0] == got[1, 1] == n
    assert np.array_equal(got, _butterfly(table.astype(np.int64)))
    # every subset up to m = 10; past it the empty set, the full set, the
    # singletons and a few drawn subsets
    subsets = np.arange(n)
    if m > 10:
        subsets = np.unique([0, n - 1, *(1 << np.arange(m)), *rng.integers(0, n, 8)])
    assert np.array_equal(got[:, subsets], table.astype(np.int64) @ sign_matrix(m, subsets).T)
    assert _butterfly(table[:0]).dtype == np.int32


_SIGN_CHECK_ENTRIES = {
    # dtype: (the +-1 entries it can hold, entries that must fail the check)
    np.int8: ([1, -1], [-128, 0, 2, -2, 127]),
    np.int16: ([1, -1], [-32768, 0, 2, -2]),
    np.int64: ([1, -1], [-(2**63), 0, 2, -2]),
    np.bool_: ([True], [False]),
    np.float64: ([1.0, -1.0], [float("nan"), 0.0, 0.5, -1.5, float("-inf")]),
    object: ([1, -1, Fraction(-1), 1.0], [float("nan"), 0, 2, 10**30, Fraction(1, 2)]),
}


@st.composite
def sign_check_arrays(draw) -> np.ndarray:
    """1-D and 2-D arrays, empty ones included, of +-1 entries with a few
    others drawn in, in each dtype of `_SIGN_CHECK_ENTRIES`."""
    dtype = draw(st.sampled_from(list(_SIGN_CHECK_ENTRIES)))
    good, bad = _SIGN_CHECK_ENTRIES[dtype]
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    size = int(np.prod(shape))
    entries = draw(st.lists(st.sampled_from(good), min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 2)) if size else 0):
        entries[draw(st.integers(0, size - 1))] = draw(st.sampled_from(bad))
    a = np.empty(size, dtype=dtype)
    a[:] = entries
    return a.reshape(shape)


@settings(PROPERTY_SETTINGS, max_examples=300)  # 50 arrays a dtype, each cheap
@given(sign_check_arrays())
@example(np.array([1, -128], dtype=np.int8))
@example(np.array([[1.0, -1.0], [float("nan"), 1.0]]))
@example(np.array([1, float("nan"), -1], dtype=object))
@example(np.zeros((0, 3), dtype=np.int8))
def test_all_signs_is_the_elementwise_check(a):
    before = a.tobytes()  # an object array's bytes are its entries' addresses
    assert _all_signs(a) == bool(np.all(np.abs(a) == 1))
    assert a.tobytes() == before


@st.composite
def dyadic_table(draw) -> tuple[int, list[Fraction]]:
    """m <= 4 and entries n / 2^k with k <= 70 and |n| <= 2^80: small tables
    run on int64 numerators, wide ones on Python ints."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, 70))
    bound = draw(st.sampled_from([2, 2**20, 2**80]))
    numerators = draw(st.lists(st.integers(-bound, bound), min_size=1 << m, max_size=1 << m))
    return m, [Fraction(n, 1 << k) for n in numerators]


@PROPERTY_SETTINGS
@given(dyadic_table())
def test_integer_model_is_exact(case):
    m, entries = case
    f = dyadic_function(m, entries)
    coeffs = naive_fourier(entries, m)
    expansion = wht(f)
    assert values(expansion) == coeffs
    assert values(inverse_wht(expansion)) == entries
    second_moment = sum(v * v for v in entries) / len(entries)
    assert sum(c * c for c in coeffs) == second_moment  # Parseval
    assert sq_l2_dist(f, dyadic_function(m, [0] * len(entries))) == second_moment
    var_f = variance(f)
    assert isinstance(var_f, Fraction) and var_f == sum(c * c for c in coeffs[1:])


@st.composite
def small_rv(draw, max_support: int = 4) -> DiscreteRV:
    """Distinct values k/d with d <= 6, positive integer weights normalised to 1."""
    values = draw(
        st.lists(
            st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
            min_size=1,
            max_size=max_support,
            unique=True,
        )
    )
    weights = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
    return DiscreteRV.from_atoms((v, Fraction(w, sum(weights))) for v, w in zip(values, weights))


@PROPERTY_SETTINGS
@given(small_rv(), small_rv())
def test_convolve_is_the_product_distribution(x, y):
    assert convolve(x, y).atoms == product_distribution(x.atoms, y.atoms)


@PROPERTY_SETTINGS
@given(small_rv(), small_rv())
def test_convolve_commutes(x, y):
    assert convolve(x, y).atoms == convolve(y, x).atoms


@PROPERTY_SETTINGS
@given(small_rv(3), small_rv(3), small_rv(3))
def test_convolve_associates(x, y, z):
    left = convolve(convolve(x, y), z)
    assert left.atoms == convolve(x, convolve(y, z)).atoms
    assert left.atoms == product_distribution(x.atoms, y.atoms, z.atoms)


@PROPERTY_SETTINGS
@given(small_rv(5))
def test_mix_of_two_point_components_rebuilds_input(x):
    balanced = center(x)
    components = two_point_decompose(balanced)
    assert mix([(w, c.to_rv()) for w, c in components]).atoms == balanced.atoms


# small grid values, or a numerator and denominator up to 10^30 (big primes
# among them, so the common value scale of several variables is huge)
wide_rationals = st.one_of(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.one_of(st.integers(1, 10**30), st.sampled_from([10**30 - 57, 2**89 - 1, 10**29 + 3])),
    ),
)


@st.composite
def wide_rv(draw) -> DiscreteRV:
    """Up to 4 distinct wide rational values, weights up to 10^30 normalised to 1."""
    values = draw(st.lists(wide_rationals, min_size=1, max_size=4, unique=True))
    weights = draw(
        st.lists(st.integers(1, 10**30), min_size=len(values), max_size=len(values))
    )
    return DiscreteRV.from_atoms((v, Fraction(w, sum(weights))) for v, w in zip(values, weights))


# odd value ranges: lo < hi with small or coprime denominators, some holding
# only a few multiples of 1/denom_cap
value_ranges = st.tuples(
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)),
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 9)),
).map(lambda t: (t[0], t[0] + t[1]))


@PROPERTY_SETTINGS
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=12),
    st.integers(2, 60),
    value_ranges,
    st.integers(0, 2**32 - 1),
)
# k = support - 1 cuts of D - 1 <= 59 points: sample's list route, its small-set
# size grown past 59 for k > 5, and its set route for k <= 5 once D - 1 > 21
@example(supports=[8, 7, 6], denom_cap=60, value_range=(Fraction(-3), Fraction(3)), seed=1)
@example(supports=[2, 3, 4, 5, 6], denom_cap=40, value_range=(Fraction(-3), Fraction(3)), seed=2)
# no multiple of 1, 1/2, 1/3 or 1/4 in [1/9, 2/9]: those denominators fall back to the cap
@example(supports=[3, 1, 4], denom_cap=9, value_range=(Fraction(1, 9), Fraction(2, 9)), seed=4)
@example(supports=[2, 30], denom_cap=2, value_range=(Fraction(0), Fraction(1, 3)), seed=3)  # grid too small
def test_random_rv_draws_as_the_fraction_reference(supports, denom_cap, value_range, seed):
    # twin generators, several variables in a row as a sweep instance draws them
    ours, theirs = sweep._rng_for(seed, 0), sweep._rng_for(seed, 0)
    for support in supports:
        try:
            expected = random_rv_reference(theirs, support, value_range, denom_cap)
        except StructureError as exc:
            with pytest.raises(StructureError) as raised:
                sweep._random_rv(ours, support, sweep._value_grid(*value_range, denom_cap))
            assert str(raised.value) == str(exc)
            break
        assert sweep._random_rv(ours, support, sweep._value_grid(*value_range, denom_cap)) == expected
        assert ours.getstate() == theirs.getstate()


@PROPERTY_SETTINGS
@given(st.lists(wide_rv(), min_size=1, max_size=4), wide_rationals)
def test_var_abs_sum_matches_fraction_chain_and_product_measure(xs, e):
    lhs = var_abs_sum(xs, e)
    total = xs[0]
    for x in xs[1:]:
        total = convolve(total, x)
    assert isinstance(lhs, Fraction) and lhs == variance_rv(abs_rv(shift(total, e)))
    sums = product_distribution(*(x.atoms for x in xs), ((e, Fraction(1)),))
    assert lhs == rv_moments([(abs(s), p) for s, p in sums])[1]


@PROPERTY_SETTINGS
@given(wide_rv(), wide_rationals)
def test_integer_operations_match_their_fraction_definitions(x, c):
    atoms = x.atoms
    mean, var = rv_moments(atoms)
    assert (expectation(x), variance_rv(x)) == (mean, var)
    assert shift(x, c).atoms == tuple((v + c, p) for v, p in atoms)
    assert negate(x).atoms == tuple((-v, p) for v, p in reversed(atoms))
    assert center(x).atoms == tuple((v - mean, p) for v, p in atoms)
    assert abs_rv(x).atoms == product_distribution([(abs(v), p) for v, p in atoms])
    shifted = [(v + c, p) for v, p in atoms]
    magnitude = sum(abs(v) * p for v, p in shifted)
    approx = const_abs_approx(x, c)
    assert (approx.magnitude, approx.p) == (magnitude, sum(p for v, p in shifted if v >= 0))
    # coupled pointwise, X' = sign(X+E) E|X+E| is at squared distance Var|X+E|
    distance = sum(p * (v - (magnitude if v >= 0 else -magnitude)) ** 2 for v, p in shifted)
    assert distance == var_abs_sum((x,), c)


@PROPERTY_SETTINGS
@given(wide_rv(), wide_rv(), wide_rationals, st.integers(2, 10**30))
def test_equal_distributions_compare_and_hash_alike(x, y, c, parts):
    # each atom split into two unequal parts, the pairs given in reverse order
    split = [(v, p * w) for v, p in x.atoms for w in (Fraction(1, parts), 1 - Fraction(1, parts))]
    built = [
        DiscreteRV.from_atoms(reversed(split)),
        DiscreteRV.from_atoms((str(v), str(p)) for v, p in x.atoms),
        shift(shift(x, c), -c),
        negate(negate(x)),
        mix([(Fraction(1, parts), x), (1 - Fraction(1, parts), x)]),
    ]
    for other in built:
        assert other == x and hash(other) == hash(x)
    total = DiscreteRV.from_atoms(product_distribution(x.atoms, y.atoms))
    assert convolve(x, y) == total and hash(convolve(y, x)) == hash(total)


# 0 < a/b < 1 on a small grid or with b up to 10^30; d and magnitudes >= 0
open_unit = st.one_of(st.integers(2, 12), st.integers(2, 10**30)).flatmap(
    lambda b: st.builds(Fraction, st.integers(1, b - 1), st.just(b))
)
nonnegative = st.one_of(st.just(Fraction(0)), wide_rationals.map(abs))


def _report(report: BoundReport) -> tuple:
    return report.lhs, report.rhs, list(report.witness.items())


@PROPERTY_SETTINGS
@given(nonnegative, open_unit, st.one_of(st.sampled_from([Fraction(0), Fraction(1)]), open_unit))
@example(magnitude=Fraction(0), p=Fraction(1, 3), q=Fraction(1, 3))
@example(magnitude=Fraction(5, 6), p=Fraction(1, 2), q=Fraction(0))
@example(magnitude=Fraction(5, 6), p=Fraction(2, 5), q=Fraction(1))
def test_two_atom_variables_are_the_merged_reference(magnitude, p, q):
    two_point = TwoPointBalancedRV(magnitude, p)
    assert two_point.to_rv() == two_atom_reference(two_point)
    for const in (ConstAbsRV(magnitude, q), ConstAbsRV(Fraction(0), q)):
        assert const.to_rv() == two_atom_reference(const)


@PROPERTY_SETTINGS
@given(wide_rationals, wide_rationals, nonnegative, open_unit)
@example(x1=Fraction(2), x2=Fraction(-2), d=Fraction(1), p=Fraction(1, 2))  # sums landing on 0
@example(x1=Fraction(1, 3), x2=Fraction(-5, 7), d=Fraction(0), p=Fraction(1, 2))  # Y = 0
def test_claim8_sides_are_the_fraction_double_loop(x1, x2, d, p):
    ybar = TwoPointBalancedRV(d, p)
    assert _report(claim8_check(x1, x2, ybar)) == _report(claim8_reference(x1, x2, ybar))


# a rational of up to 40 digits over up to 40, a 16-digit value exactly halfway
# between two 15-digit ones, each times 10^k for |k| up to 450
wide_rationals = st.one_of(
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
    st.builds(
        lambda d, sign: sign * Fraction(10 * d + 5),
        st.integers(10**14, 10**15 - 1),
        st.sampled_from([1, -1]),
    ),
)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(wide_rationals, st.integers(-450, 450))
@example(Fraction(0), 0)
@example(Fraction(999999999999999500), -3)  # a tie that carries into 1e+15
@example(Fraction(99999999999999995, 10**21), 0)  # carries into 0.0001: fixed, not 1e-04
def test_decimal_rendering_is_the_exact_half_even_rounding(value, k):
    value *= Fraction(10) ** k
    assert format_value(value, decimal=True) == decimal_reference(value)


# cells of every character csv.writer quotes for, and of some it does not
_CELL = st.text(alphabet=[",", '"', "\r", "\n", " ", ";", "=", "/", "-", "a", "1"], max_size=6)


@PROPERTY_SETTINGS
@given(st.lists(_CELL, min_size=6, max_size=6))
@example(["", "", "", "", "", ""])
@example(['"', "a,b", "\r\n", " ", "x=1;y=-1/2", ""])
def test_csv_cells_are_the_csv_writer_row(cells):
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    assert ",".join(map(_csv_cell, cells)) + "\r\n" == out.getvalue()


_WITNESS_VALUE = st.one_of(
    st.fractions(max_denominator=50),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.builds(DiscreteRV.constant, st.integers(-9, 9)),
    small_rv(),
    _CELL,
)


@PROPERTY_SETTINGS
@given(
    st.integers(0, 2**40),
    st.fractions(min_value=-5, max_value=5, max_denominator=30),
    st.fractions(min_value=0, max_value=5, max_denominator=30),
    st.sampled_from([-1, 0, 1]),
    st.dictionaries(st.sampled_from(["x", "y", "e", "k", "table", "partition"]), _WITNESS_VALUE),
)
def test_csv_row_reads_back_as_the_old_cells(i, lhs, size, sign, witness):
    # rhs < 0, rhs = 0 (no ratio) and rhs > 0, each with witnesses of every value type
    report = BoundReport(lhs, sign * size, witness)
    line = report.csv_row(i)
    ratio = report.ratio
    cells = [str(i), str(report.lhs), str(report.rhs), "" if ratio is None else str(ratio)]
    cells += [format_value(report.holds), report.witness_text()]
    assert list(csv.reader([line])) == [cells]
    assert line == csv_row_reference(report, i)


@PROPERTY_SETTINGS
@given(st.one_of(small_rv(), wide_rv(), st.builds(DiscreteRV.constant, st.integers(-9, 9))))
@example(DiscreteRV.constant(3))  # one atom: scale 1 and den 1
@example(DiscreteRV((-2, 0, 5), (1, 2, 1), 1, 4))  # integer values over scale 1
def test_format_rv_inline_is_the_atom_text(x):
    assert format_rv_inline(x) == rv_inline_reference(x)


def _abs_var(e: Fraction, *xs: DiscreteRV) -> Fraction:
    """Var|X1 + ... + Xn + E| through the merges of the Fraction chain."""
    total = xs[0]
    for x in xs[1:]:
        total = convolve(total, x)
    return variance_rv(abs_rv(shift(total, e)))


def _lemma7_reference(x, y, e, k0) -> BoundReport:
    vx, vy = _abs_var(e, x), _abs_var(e, y)
    lhs = _abs_var(e, x, y)
    witness = {"e": e, "max_side": "x" if vx >= vy else "y", "max_abs_var": max(vx, vy)}
    if lhs > 0:
        witness["required_k0"] = max(vx, vy) / lhs
    return BoundReport(lhs, max(vx, vy) / k0, witness)


def _claim9_reference(x, y, e) -> BoundReport:
    flipped = e < 0
    if flipped:
        x, y = (DiscreteRV.from_atoms((-v, p) for v, p in z.atoms) for z in (x, y))
        e = -e

    def approx(z):
        shifted = [(v + e, p) for v, p in z.atoms]
        return ConstAbsRV(sum(abs(s) * p for s, p in shifted), sum(p for s, p in shifted if s >= 0))

    ax, ay = approx(x), approx(y)
    swapped = ay.magnitude > ax.magnitude
    if swapped:
        x, y, ax, ay = y, x, ay, ax
    x_rv, y_rv = two_atom_reference(ax), two_atom_reference(ay)
    var_x, var_y = rv_moments(x_rv.atoms)[1], rv_moments(y_rv.atoms)[1]
    denominator = 16 * (rv_moments(x.atoms)[1] + e * e)
    rhs = var_x * var_y / denominator if denominator > 0 else Fraction(0)
    witness = dict(e=e, flipped=flipped, swapped=swapped, dx=ax.magnitude, px=ax.p, dy=ay.magnitude, py=ay.p)
    witness.update(var_x_approx=var_x, var_y_approx=var_y)
    return BoundReport(_abs_var(-e, x_rv, y_rv), rhs, witness)


@PROPERTY_SETTINGS
@given(wide_rv(), wide_rv(), wide_rationals)
@example(x=DiscreteRV.constant(Fraction(3, 2)), y=DiscreteRV.constant(Fraction(-1, 3)), e=Fraction(0))
@example(
    x=DiscreteRV.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]),
    y=DiscreteRV.from_atoms([(0, Fraction(1, 2)), (2, Fraction(1, 4)), (-2, Fraction(1, 4))]),
    e=Fraction(-1),
)
def test_pair_evaluators_are_the_merge_chain(x, y, e):
    constants = Constants(k0=Fraction(7, 3))
    (mean_x, _), (mean_y, _) = rv_moments(x.atoms), rv_moments(y.atoms)
    xbar = DiscreteRV.from_atoms((v - mean_x, p) for v, p in x.atoms)
    ybar = DiscreteRV.from_atoms((v - mean_y, p) for v, p in y.atoms)
    expected = _lemma7_reference(xbar, ybar, mean_x + mean_y, constants.k0)
    assert _report(lemma5_bound(x, y, constants)) == _report(expected)
    expected = _lemma7_reference(xbar, ybar, e, constants.k0)
    assert _report(lemma7_bound(xbar, ybar, e, constants)) == _report(expected)
    assert _report(claim9_bound(xbar, ybar, e)) == _report(_claim9_reference(xbar, ybar, e))
    if mean_x:  # the balance check's text is the mean as a Fraction
        for evaluate in (lemma7_bound, claim9_bound):
            with pytest.raises(BalanceError) as raised:
                evaluate(x, ybar, e)
            assert str(raised.value) == f"X has mean {mean_x}, expected exactly 0"


class ScriptedRng:
    """Hands out the given words in order, as `getrandbits` calls."""

    def __init__(self, words):
        self.words = iter(words)

    def getrandbits(self, k):
        word = next(self.words)
        assert 0 <= word < 1 << k
        return word


@PROPERTY_SETTINGS
@given(st.integers(1, 3), st.lists(st.integers(-32, 32), min_size=24, max_size=24))
def test_fact_sides_on_numerators_are_the_cube_measures(m, draws):
    # m = 1..3 and the numerators of three tables on m variables, as fact1 and fact8
    # draw them: the words m - 1 (of 2 bits) and v + 32 (of 7 bits), none redrawn
    n = 1 << m
    f, g, h = (RealFunction(m, draws[i * n : (i + 1) * n], 4) for i in range(3))
    words = [m - 1, *(v + 32 for v in draws)]
    a1, b1, build = sweep._fact1_target(ScriptedRng(words[: 1 + 3 * n]), None, 0)
    fact1 = build()
    assert (fact1.lhs, fact1.rhs) == (sq_l2_dist(f, g) + sq_l2_dist(g, h), sq_l2_dist(f, h) / 2)
    a8, b8, build = sweep._fact8_target(ScriptedRng(words[: 1 + 2 * n]), None, 0)
    fact8 = build()
    assert (fact8.lhs, fact8.rhs) == (variance(f), variance(g) / 2 - sq_l2_dist(f, g))
    assert fact1.witness == fact8.witness == {"m": m}
    # the folded sums: lhs/rhs = a/b, b of the sign of rhs
    for (a, b), report in (((a1, b1), fact1), ((a8, b8), fact8)):
        assert report.lhs * b == report.rhs * a
        assert (b > 0, b < 0) == (report.rhs > 0, report.rhs < 0)


# A case of the sweep fold: sides (lhs, rhs) from a small grid, so that equal
# ratios from different integer pairs (a, b) are common (1 : 2 and 2 : 4),
# with rhs 0, rhs < 0 and lhs 0 < rhs among them; or a package error it raises.
_SIDE = st.fractions(min_value=-2, max_value=4, max_denominator=3)
_FOLD_CASE = st.one_of(
    st.tuples(_SIDE, _SIDE),
    st.sampled_from([(0, 1), (1, 0), (3, -1)]).map(lambda sides: tuple(map(Fraction, sides))),
    st.sampled_from([StructureError, AtomLimitError]),
)


@PROPERTY_SETTINGS
@given(st.lists(_FOLD_CASE, max_size=12), st.sampled_from([None, Fraction(2), Fraction(9, 4)]))
@example(
    [
        (Fraction(2), Fraction(4)),
        (Fraction(0), Fraction(0)),
        AtomLimitError,
        (Fraction(1), Fraction(2)),
        (Fraction(1, 3), Fraction(-2, 3)),
        (Fraction(1, 2), Fraction(1)),
        (Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(2)),
        StructureError,
    ],
    Fraction(2),
)
@example([(Fraction(3), Fraction(-1)), (Fraction(2), Fraction(4)), (Fraction(1), Fraction(2))], None)
def test_sweep_fold_is_the_fraction_fold(cases, scale):
    def case(i, item):
        if isinstance(item, type):
            raise item(f"case {i}")
        return BoundReport(*item, {"case": i})

    rows, expected_rows = [], []
    calls = [functools.partial(case, i, item) for i, item in enumerate(cases)]
    expected = accumulate_reference("t", calls, scale, expected_rows.append)
    if not cases:  # SweepConfig refuses n=0: the fold of no sides
        assert sweep._fold("t", [], None, scale, []) == expected
        return
    # a scripted target whose instance i is case i, taken by the integer fold as sides
    target = sweep.Target(
        lambda rng, cfg, i: sweep._sides(case(i, cases[i]), {}),
        None if scale is None else lambda constants: scale,
        reads=frozenset({"n"}),
    )
    with pytest.MonkeyPatch.context() as patch:  # hypothesis refuses function-scoped fixtures
        patch.setitem(sweep.TARGETS, "t", target)
        cfg = sweep.SweepConfig(target="t", n=len(cases))
        result = sweep.run_sweep(cfg, rows.append)
        unwritten = sweep.run_sweep(cfg)  # no rows: a report is built only when the fold asks
    assert (result, rows) == (expected, expected_rows) and unwritten == expected


RANDOMIZED = [name for name, target in sweep.TARGETS.items() if target.instance]
LOWERED = sweep.SweepConfig(target="lemma7", n=12, seed=3, k0=Fraction(1, 10**4))
CAPPED = sweep.SweepConfig(target="theorem1", n=6, atom_cap=1)


@st.composite
def sweep_configs(draw) -> sweep.SweepConfig:
    """A short sweep of any randomized target: a constant it reads at its
    default or lowered to 1/10^4, which gives violations; atom_cap at its
    default or at 1 or 6, where convolutions raise AtomLimitError."""
    target = draw(st.sampled_from(RANDOMIZED))
    reads = sweep.TARGETS[target].reads
    settings = {"n": draw(st.integers(1, 12)), "seed": draw(st.integers(0, sweep.SEED_MAX))}
    for name in sorted(reads & {"k0", "k1", "k2"}):
        settings[name] = draw(st.sampled_from([None, Fraction(1, 10**4)]))
    if "atom_cap" in reads:
        settings["atom_cap"] = draw(st.sampled_from([None, 1, 6]))
    if "support_max" in reads:
        settings["support_max"] = draw(st.integers(1, 4))
    if "include_claim6" in reads:
        settings["include_claim6"] = draw(st.booleans())
    given = {k: v for k, v in settings.items() if v is not None}
    return sweep.SweepConfig(target=target, **given)


@PROPERTY_SETTINGS
@given(sweep_configs())
@example(LOWERED)
@example(CAPPED)
def test_random_sweeps_are_the_eager_fraction_fold(cfg):
    # violations, min_ratio, the witness line, errors, the constant and the rows
    outcomes = []
    for run in (sweep.run_sweep, sweep_reference):
        rows = []
        outcomes.append((run(cfg, rows.append), rows))
    assert outcomes[0] == outcomes[1]
    assert sweep.run_sweep(cfg) == outcomes[1][0]  # no rows: reports built for the fold alone


@pytest.mark.parametrize("name", RANDOMIZED)
@PROPERTY_SETTINGS
@given(seed=st.integers(0, sweep.SEED_MAX), n=st.integers(1, 6), claim6=st.booleans())
@example(seed=0, n=5, claim6=False)
@example(seed=sweep.SEED_MAX, n=5, claim6=True)
def test_each_instance_starts_from_its_own_stream(name, seed, n, claim6):
    # one generator per sweep, reseeded: instance i enters at the state of
    # _rng_for(seed, i), and building its report, witness too, draws nothing
    target, entered = sweep.TARGETS[name], []

    def instance(rng, cfg, index):
        entered.append(rng.getstate() == sweep._rng_for(seed, index).getstate())
        a, b, build = target.instance(rng, cfg, index)
        drawn = rng.getstate()
        assert build().witness is not None and rng.getstate() == drawn
        return a, b, build

    claim6 = claim6 and "include_claim6" in target.reads
    cfg = sweep.SweepConfig(target=name, n=n, seed=seed, include_claim6=claim6)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sweep.TARGETS, name, replace(target, instance=instance))
        assert sweep.run_sweep(cfg).instances_run == n + claim6
    assert entered == [True] * (n + claim6)


def test_the_sweep_examples_violate_and_err():
    assert sweep.run_sweep(LOWERED).violations and sweep.run_sweep(CAPPED).errors


@pytest.mark.parametrize("m,k2", [(2, None), (3, None), (3, Fraction(1, 16))])
def test_exhaustive_fold_is_the_per_instance_fold(m, k2):
    constants = Constants() if k2 is None else Constants(k2=k2)
    assert sweep.corollary2_exhaustive(m, constants) == corollary2_per_instance(m, constants)


def test_exhaustive_csv_bytes_are_the_per_instance_bytes(tmp_path, monkeypatch, capsys):
    outputs = []
    for check in (sweep.corollary2_exhaustive, corollary2_per_instance):
        monkeypatch.setattr(sweep, "corollary2_exhaustive", check)
        (tmp_path / check.__name__).mkdir()
        monkeypatch.chdir(tmp_path / check.__name__)
        code = main(["sweep", "--target", "corollary2", "--exhaustive-m", "3", "--csv", "rows.csv"])
        outputs.append((code, capsys.readouterr().out, Path("rows.csv").read_bytes()))
    assert outputs[0] == outputs[1] and outputs[0][2].count(b"\n") == 1 + 254 * 3


def test_exhaustive_witness_is_the_first_instance_of_least_ratio(monkeypatch):
    # doubling Var f and the cross weight of every even table keeps each
    # instance's sides, and so its report and ratio, but doubles its integer
    # pair (a, b): the least ratio now comes from two pairs, and the pair
    # that sorts first is not the one of the first such instance
    real = sweep.stack_block_weights

    def doubled(tables, partitions):
        var, weights = real(tables, partitions)
        weight = 2 - np.arange(len(var)) % 2
        return var * weight, [(cross * weight, dists) for cross, dists in weights]

    plain = sweep.corollary2_exhaustive(3)
    monkeypatch.setattr(sweep, "stack_block_weights", doubled)
    batch = sweep.corollary2_exhaustive(3)
    assert batch == corollary2_per_instance(3) == plain


def test_exhaustive_violations_are_the_per_instance_violations(monkeypatch):
    # at K2 = 1/16, four times every distance puts ratios below 1 at m=3;
    # the recheck's kernel call, through cube's binding, sees the same distances
    real = sweep.stack_block_weights

    def far(tables, partitions):
        var, weights = real(tables, partitions)
        return var, [(cross, 4 * dists) for cross, dists in weights]

    monkeypatch.setattr(sweep, "stack_block_weights", far)
    monkeypatch.setattr(cube_module, "stack_block_weights", far)
    constants = Constants(k2=Fraction(1, 16))
    batch = sweep.corollary2_exhaustive(3, constants)
    assert batch.violations and batch == corollary2_per_instance(3, constants)
