"""Property tests: the cube's partition measures against the naive oracle.

Random Boolean tables on m = 2..6 variables and random partitions with at
least two blocks; every measure must equal the exact sum of squared naive
Fourier coefficients over the right family of sets.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fknlab.bounds import corollary2_apply
from fknlab.cube import BooleanFunction, Partition, cross_partition_weight, variance

from conftest import naive_fourier

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


def within(subset: int, mask: int) -> bool:
    return subset & ~mask == 0


def sq_mass(coeffs: list[Fraction], keep) -> Fraction:
    return sum((c * c for s, c in enumerate(coeffs) if keep(s)), Fraction(0))


@PROPERTY_SETTINGS
@given(boolean_with_partition())
def test_cross_weight_is_mass_inside_no_block(case):
    f, partition = case
    coeffs = naive_fourier(f.table, f.m)
    masks = [partition.mask(j) for j in range(len(partition.blocks))]
    expected = sq_mass(coeffs, lambda s: not any(within(s, mask) for mask in masks))
    weight = cross_partition_weight(f, partition)
    assert isinstance(weight, Fraction) and weight == expected


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
