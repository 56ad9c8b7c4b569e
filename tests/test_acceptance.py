"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check here is exact (==); there are no float tolerances anywhere.
Run with -s to see the per-criterion PASS lines.
"""

from fractions import Fraction

import numpy as np
import pytest

from fknlab.bounds import Constants, claim6_example, tribes_example
from fknlab.cli import main
from fknlab.cube import (
    BooleanFunction,
    RealFunction,
    _butterfly,
    balance_extend,
    sq_l2_dist,
    variance,
    wht,
)
from fknlab.rv import (
    abs_rv,
    center,
    convolve,
    expectation,
    mix,
    two_point_decompose,
    var_abs_shifted,
    variance_rv,
)
from fknlab.sweep import (
    SweepConfig,
    corollary2_exhaustive,
    empirical_constant,
    enumerate_boolean_functions,
    random_real_function,
    random_rv,
    run_sweep,
)

from conftest import dyadic_function, naive_fourier, sign_matrix, values

F = Fraction
SEED = 20260810


def _report(criterion: int, message: str) -> None:
    print(f"[acceptance {criterion}] PASS: {message}")


def _kv(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_criterion_1_claim6_exactness(tmp_path, capsys):
    """check lemma5 on the claim6 pair: exact 3/4 and 1, threshold at 4/3."""
    assert main(["example", "claim6", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    x_path = str(tmp_path / "claim6_x.rv")
    y_path = str(tmp_path / "claim6_y.rv")

    code = main(["check", "lemma5", x_path, y_path])
    values = _kv(capsys.readouterr().out)
    assert code == 0
    assert values["lhs"] == "3/4"  # Var|X+Y|
    assert values["witness.max_abs_var"] == "1"  # Var|X|
    assert values["witness.required_k0"] == "4/3"  # the exact threshold ratio

    code_weak = main(["check", "lemma5", x_path, y_path, "--K0", "1.33"])
    capsys.readouterr()
    assert code_weak == 2

    code_tight = main(["check", "lemma5", x_path, y_path, "--K0", "4/3"])
    capsys.readouterr()
    assert code_tight == 0
    with capsys.disabled():
        _report(1, "lemma5 on claim6: lhs 3/4, Var|X| 1, threshold 4/3; 1.33 fails, 4/3 passes")


def test_criterion_2_tribes_exactness(capsys):
    """Distance to X+Y-1 is 4*2^(-2m) and Var f = 4p(1-p), m = 1..10."""
    for m in range(1, 11):
        f, _ = tribes_example(m)
        # independent reconstruction of the AND blocks from raw bits
        points = np.arange(1 << (2 * m), dtype=np.int64)
        x_mask = (1 << m) - 1
        x_and = np.where((points & x_mask) == x_mask, -1, 1)
        y_and = np.where((points & (x_mask << m)) == (x_mask << m), -1, 1)
        linear_sum = RealFunction(2 * m, x_and + y_and - 1)
        assert F(sq_l2_dist(f, linear_sum)) == F(4, 4**m)
        p = 1 - (1 - F(1, 2**m)) ** 2
        assert F(variance(f)) == 4 * p * (1 - p)
    with capsys.disabled():
        _report(2, "tribes m=1..10: ||f-(X+Y-1)||^2 = 4*2^(-2m) and Var f = 4p(1-p), exactly")


def test_criterion_3_corollary2_exhaustive(capsys):
    """Zero violations on all non-constant f, m <= 3, all 2-block partitions.

    The dist identity (coefficient sum vs pointwise distance) is enforced
    exactly inside corollary2_apply on every instance; a mismatch would raise.
    """
    counts = {}
    for m in (2, 3):
        result = corollary2_exhaustive(m)
        assert result.violations == ()
        counts[m] = result.instances_run
    assert counts[2] == 14
    assert counts[3] == 254 * 3
    with capsys.disabled():
        _report(3, f"corollary2 exhaustive m<=3: {sum(counts.values())} instances, 0 violations")


def test_criterion_3_optional_m4(capsys):
    """The m=4 exhaustive corollary check (458738 instances, a few seconds)."""
    result = corollary2_exhaustive(4)
    assert result.violations == ()
    assert result.instances_run == 65534 * 7
    # pinned from the per-function corollary2_apply path
    assert result.empirical_constant == F(63, 16)
    assert result.min_ratio_witness == (
        "instance=5979 table=---+-+-+--++++++;partition=2,3|1,4;k=0;epsilon=1/7"
    )
    with capsys.disabled():
        _report(3, f"optional m=4 exhaustive: {result.instances_run} instances, 0 violations")


@pytest.mark.parametrize(
    "target", ["lemma7", "lemma5", "lemma4", "claim8", "claim9", "theorem1"]
)
def test_criterion_4_sweeps(target, capsys):
    """10^4 exact random instances per inequality at the proved constants."""
    cfg = SweepConfig(target=target, n=10_000, seed=SEED, support_max=5)
    result = run_sweep(cfg)
    assert result.instances_run == 10_000
    assert result.errors == ()
    assert result.violations == ()
    assert result.min_ratio is not None and result.min_ratio >= 1
    with capsys.disabled():
        _report(4, f"{target}: 10^4 instances, 0 violations (min ratio {float(result.min_ratio):.3g})")


def test_criterion_5_empirical_constant_bracket(capsys):
    """Smallest working lemma7 constant over the sweep + claim6 is in [4/3, 4]."""
    value = empirical_constant(
        "lemma7",
        SweepConfig(target="lemma7", n=3000, seed=SEED, include_claim6=True),
    )
    assert F(4, 3) <= value <= 4
    with capsys.disabled():
        _report(5, f"empirical lemma7 constant {value} = {float(value):.4f} in [4/3, 4]")


def test_criterion_6_facts_suite(capsys):
    """Facts 1,4,6,7,8 on 10^3 random instances; Facts 2,3,5 as exact
    identities on all Boolean f with m <= 3 and 10^3 random real functions."""
    # Fact 1: relaxed triangle on random real-function triples
    for i in range(1000):
        f = random_real_function(2, SEED + 3 * i)
        g = random_real_function(2, SEED + 3 * i + 1)
        h = random_real_function(2, SEED + 3 * i + 2)
        assert sq_l2_dist(f, g) + sq_l2_dist(g, h) >= sq_l2_dist(f, h) / 2

    # Fact 8: variance transfer on random pairs
    for i in range(1000):
        f = random_real_function(2, SEED + 9000 + 2 * i)
        g = random_real_function(2, SEED + 9000 + 2 * i + 1)
        assert variance(f) >= variance(g) / 2 - sq_l2_dist(f, g)

    # Fact 4: Var X = (1/2) E (x1 - x2)^2 on random RVs, exactly
    for i in range(1000):
        rv = random_rv(1 + i % 5, SEED + i)
        pair = sum(
            p1 * p2 * (v1 - v2) ** 2 for v1, p1 in rv.atoms for v2, p2 in rv.atoms
        )
        assert variance_rv(rv) == pair / 2

    # Facts 6 and 7: the mean minimizes the squared distance, over a grid
    for i in range(1000):
        rv = random_rv(1 + i % 4, SEED + 40_000 + i)
        mean, var = expectation(rv), variance_rv(rv)
        for e in (mean, 0, 1, F(-5, 3), mean + F(2, 7)):
            second = sum(p * (v - e) ** 2 for v, p in rv.atoms)
            assert second >= var
            if e == mean:
                assert second == var
        f = random_real_function(2, SEED + 60_000 + i)
        var_f, mean_f = variance(f), f.mean()
        for c in (mean_f, 0, F(-3, 4), mean_f + F(1, 2)):
            dist = sq_l2_dist(f, dyadic_function(2, [c] * 4))
            assert dist >= var_f
            if c == mean_f:
                assert dist == var_f

    # Facts 2, 3, 5: exhaustive Boolean m <= 3, every quantity in units of 4^-m
    # (tables over 1, coefficient numerators over 2^m)
    for m in (1, 2, 3):
        tables = np.stack([f.table for f in enumerate_boolean_functions(m)]).astype(np.int64)
        coeffs = np.stack([wht(BooleanFunction(m, t)).coeffs for t in tables])
        n = 1 << m
        point_dists = ((tables[:, None, :] - tables[None, :, :]) ** 2).sum(-1) * n
        coeff_dists = ((coeffs[:, None, :] - coeffs[None, :, :]) ** 2).sum(-1)
        assert np.array_equal(point_dists, coeff_dists)  # Fact 2
        sums = tables.sum(-1)
        variances = n * (tables**2).sum(-1) - sums**2
        assert np.array_equal(variances, (coeffs**2)[:, 1:].sum(-1))  # Fact 3
        dist_to_mean = ((n * tables - sums[:, None]) ** 2).sum(-1)  # n times the units
        assert np.array_equal(n * variances, dist_to_mean)  # Fact 5

    # Facts 2, 3, 5 on random real functions
    for i in range(1000):
        f = random_real_function(3, SEED + 80_000 + 2 * i)
        g = random_real_function(3, SEED + 80_000 + 2 * i + 1)
        cf, cg = values(wht(f)), values(wht(g))
        assert sq_l2_dist(f, g) == sum((a - b) ** 2 for a, b in zip(cf, cg))
        assert variance(f) == sum(c * c for c in cf[1:])
        assert variance(f) == sq_l2_dist(f, dyadic_function(3, [f.mean()] * 8))
    with capsys.disabled():
        _report(6, "facts 1,4,6,7,8 x 10^3 random; facts 2,3,5 exhaustive m<=3 + 10^3 random")


def test_criterion_7_balancing_transform(capsys):
    """balance_extend on every Boolean f, m <= 4: balanced, coefficient map,
    and exact level-(<=1) weight transfer.  Per m, the tables and their
    extensions are transformed as two stacks, row r of each the r-th f."""
    checked = 0
    for m in (1, 2, 3, 4):
        fs = list(enumerate_boolean_functions(m))
        gs = [balance_extend(f) for f in fs]
        # f's numerators are over 2^m and g's over 2^(m+1): doubled, f's are over g's
        fc = _butterfly(np.stack([f.table for f in fs])).astype(np.int64) << 1
        gc = _butterfly(np.stack([g.table for g in gs])).astype(np.int64)
        for r in (0, -1):  # a stack row is the one-row transform
            fe, ge = wht(fs[r]), wht(gs[r])
            assert ge.k - fe.k == 1
            assert np.array_equal(fc[r], fe.coeffs << 1) and np.array_equal(gc[r], ge.coeffs)
        singles = [1 << b for b in range(m)]
        assert not gc[:, 0].any()
        assert np.array_equal(gc[:, singles], fc[:, singles])
        assert np.array_equal(gc[:, 1 << m], fc[:, 0])
        level1_g = (gc[:, singles + [1 << m]] ** 2).sum(axis=1)
        level01_f = (fc[:, [0] + singles] ** 2).sum(axis=1)
        assert np.array_equal(level1_g, level01_f)
        checked += len(gs)
    assert checked == 4 + 16 + 256 + 65536
    with capsys.disabled():
        _report(7, f"balance_extend exact on all {checked} functions with m <= 4")


def test_criterion_8_two_point_decomposition(capsys):
    """10^3 random balanced RVs: exact reconstruction, component shape, and
    the convexity inequality Var|X+Y+E| >= sum_a w_a Var|X+Y_a+E|."""
    for i in range(1000):
        ybar = center(random_rv(1 + i % 5, SEED + i))
        components = two_point_decompose(ybar)
        assert sum(w for w, _ in components) == 1
        for _, comp in components:
            atoms = comp.to_rv().atoms
            assert len(atoms) <= 2
            assert expectation(comp.to_rv()) == 0
        assert mix([(w, c.to_rv()) for w, c in components]).atoms == ybar.atoms
        xbar = center(random_rv(1 + (i * 7) % 3, SEED + 500_000 + i))
        e = F((i % 11) - 5, 3)
        lhs = var_abs_shifted(convolve(xbar, ybar), e)
        mixture = sum(
            w * var_abs_shifted(convolve(xbar, comp.to_rv()), e)
            for w, comp in components
        )
        assert lhs >= mixture
    with capsys.disabled():
        _report(8, "two-point decomposition exact on 10^3 balanced RVs incl. convexity")


def test_criterion_9_transform_oracle(capsys):
    """Butterfly transform == naive O(4^m) Fourier sum, exactly."""
    for m in (1, 2, 3):
        for f in enumerate_boolean_functions(m):
            assert values(wht(f)) == naive_fourier(f.table, m)
    h10 = sign_matrix(10)
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        table = rng.choice([-1, 1], size=1024).astype(np.int8)
        f = BooleanFunction(10, table)
        naive = h10 @ table.astype(np.int64)  # numerators over 2^10
        expansion = wht(f)
        assert expansion.k == 10 and np.array_equal(expansion.coeffs, naive)
    with capsys.disabled():
        _report(9, "fast transform == naive sum for all m <= 3 and 100 random f at m = 10")
