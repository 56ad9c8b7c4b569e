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
CSV rows on random report sequences, and the exhaustive corollary check's
batch fold must give the per-instance Fraction fold's result and CSV bytes.
"""

import functools
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
    decimal_reference,
    dyadic_function,
    naive_fourier,
    product_distribution,
    random_rv_reference,
    rv_moments,
    sign_matrix,
    sq_mass,
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
def test_butterfly_is_the_sign_matrix_product(m, rows, dtype, seed):
    # odd and even m, so the radix-4 passes end with and without a radix-2 stage;
    # fixed-width entries are as wide as their dtype lets every stage be
    n = 1 << m
    rng = np.random.default_rng(seed)
    if dtype is object:
        table = rng.integers(-(2**62), 2**62, (rows, n)).astype(object) << 40
    else:
        peak = (2 ** (8 * np.dtype(dtype).itemsize - 1) - 1) >> m
        table = rng.integers(-peak, peak + 1, (rows, n), dtype=dtype)
    before = table.copy()
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
@example(16, 3, 0)
def test_butterfly_is_exact_on_int8_sign_rows(m, rows, seed):
    # the all-ones row reaches 2^s after s stages in every order of stages, and
    # the alternating row (chi on x_1) ends at c_1 = 2^m: the int8 stages stop
    # where 2^7 would overflow (m = 6, 7), and rows of 2^9 or more entries
    # move their 4 low bits (m = 8, 9, 10)
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
                sweep._random_rv(ours, support, value_range, denom_cap)
            assert str(raised.value) == str(exc)
            break
        assert sweep._random_rv(ours, support, value_range, denom_cap) == expected
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
    fact1 = sweep._fact1_target(ScriptedRng(words[: 1 + 3 * n]), None, 0)
    assert (fact1.lhs, fact1.rhs) == (sq_l2_dist(f, g) + sq_l2_dist(g, h), sq_l2_dist(f, h) / 2)
    fact8 = sweep._fact8_target(ScriptedRng(words[: 1 + 2 * n]), None, 0)
    assert (fact8.lhs, fact8.rhs) == (variance(f), variance(g) / 2 - sq_l2_dist(f, g))
    assert fact1.witness == fact8.witness == {"m": m}


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

    outcomes = []
    for fold in (sweep._accumulate, accumulate_reference):
        rows = []
        calls = [functools.partial(case, i, item) for i, item in enumerate(cases)]
        outcomes.append((fold("t", calls, scale, rows.append), rows))
    assert outcomes[0] == outcomes[1]


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
