"""Exact random-variable operations and their identities."""

from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from fknlab.bounds import Constants, claim6_example, lemma7_bound
from fknlab.errors import AtomLimitError, BalanceError, ParseError, StructureError
from fknlab.rv import (
    ConstAbsRV,
    DiscreteRV,
    TwoPointBalancedRV,
    abs_rv,
    center,
    const_abs_approx,
    convolve,
    expectation,
    format_rv,
    format_rv_inline,
    mix,
    negate,
    parse_rv,
    shift,
    two_point_decompose,
    var_abs_shifted,
    var_abs_sum,
    variance_rv,
)
from fknlab.sweep import SweepConfig, random_rv

from conftest import rv_moments

F = Fraction

UNIFORM = DiscreteRV.from_atoms([(-1, F(1, 2)), (1, F(1, 2))])


def random_balanced(seed: int, support: int = 4) -> DiscreteRV:
    return center(random_rv(support, seed))


class TestType:
    def test_merge_and_sort(self):
        rv = DiscreteRV.from_atoms([(1, F(1, 4)), (-1, F(1, 2)), (1, F(1, 4))])
        assert rv.atoms == ((F(-1), F(1, 2)), (F(1), F(1, 2)))

    def test_rejects_bad_mass(self):
        with pytest.raises(StructureError):
            DiscreteRV.from_atoms([(0, F(1, 2)), (1, F(0))])
        with pytest.raises(StructureError):
            DiscreteRV.from_atoms([(0, F(3, 4)), (1, F(1, 2))])
        with pytest.raises(StructureError):
            DiscreteRV(())

    def test_stores_canonical_integers(self):
        rv = DiscreteRV((0, 1), (1, 1), 2, 2)  # 0 and 1/2, each with mass 1/2
        assert rv == DiscreteRV.from_atoms([(F(1, 2), F(2, 4)), (0, F(1, 2))])
        assert rv.atoms == ((F(0), F(1, 2)), (F(1, 2), F(1, 2)))
        for values, masses, scale, den in [
            ((0, 2), (1, 1), 4, 2),  # values share 2 with the scale
            ((0, 1), (2, 2), 2, 4),  # masses share 2
            ((1, 0), (1, 1), 2, 2),  # values not increasing
            ((0, 1), (1, 2), 2, 2),  # masses sum to 3, not 2
            ((0, 1), (2, 0), 2, 2),  # a zero mass
        ]:
            with pytest.raises(StructureError):
                DiscreteRV(values, masses, scale, den)

    def test_init_validates_once_per_construction(self, monkeypatch):
        # DiscreteRV writes its fields itself, then runs the one validation;
        # equality, hash, repr, replace and frozenness are the dataclass's
        validate, calls = DiscreteRV.__post_init__, []

        def counted(rv):
            calls.append(rv)
            validate(rv)

        monkeypatch.setattr(DiscreteRV, "__post_init__", counted)
        rv = DiscreteRV((0, 1), (1, 1), 2, 2)
        same = DiscreteRV(values=(0, 1), masses=(1, 1), scale=2, den=2)
        other = DiscreteRV((0, 1), (1, 1), 3, 2)
        assert len(calls) == 3
        assert rv == same and rv != other
        assert hash(rv) == hash(same) == hash(((0, 1), (1, 1), 2, 2))
        assert repr(rv) == "DiscreteRV(values=(0, 1), masses=(1, 1), scale=2, den=2)"
        assert DiscreteRV((3,), (1,)) == DiscreteRV((3,), (1,), 1, 1) and len(calls) == 5
        assert replace(rv, scale=3) == other and len(calls) == 6
        with pytest.raises(StructureError, match="lowest terms"):
            replace(rv, values=(0, 2))
        assert len(calls) == 7
        with pytest.raises(FrozenInstanceError):
            rv.scale = 3

    def test_two_point_from_rv(self):
        rv = DiscreteRV.from_atoms([(-1, F(2, 3)), (2, F(1, 3))])
        tp = TwoPointBalancedRV.from_rv(rv)
        assert (tp.d, tp.p) == (F(2, 3), F(1, 3))
        assert tp.to_rv().atoms == rv.atoms

    def test_two_point_rejects_unbalanced(self):
        with pytest.raises(BalanceError):
            TwoPointBalancedRV.from_rv(DiscreteRV.from_atoms([(0, F(1, 2)), (1, F(1, 2))]))

    def test_two_point_from_a_constant_zero_and_from_three_atoms(self):
        tp = TwoPointBalancedRV.from_rv(DiscreteRV.from_atoms([(0, F(1))]))
        assert (tp.d, tp.p) == (0, F(1, 2))
        assert tp.to_rv().atoms == ((F(0), F(1)),)
        x, _ = claim6_example()  # balanced on {-2, 0, 2}
        with pytest.raises(StructureError, match="^support size must be at most 2$"):
            TwoPointBalancedRV.from_rv(x)

    def test_two_atom_field_checks(self):
        with pytest.raises(StructureError, match="^d must be >= 0$"):
            TwoPointBalancedRV(F(-1), F(1, 2))
        for p in (F(0), F(1), F(3, 2)):
            with pytest.raises(StructureError, match="^p must lie strictly between 0 and 1$"):
                TwoPointBalancedRV(F(1), p)
        with pytest.raises(StructureError, match="^magnitude must be >= 0$"):
            ConstAbsRV(F(-1, 2), F(1, 2))
        for p in (F(-1, 3), F(4, 3)):
            with pytest.raises(StructureError, match=r"^p must lie in \[0, 1\]$"):
                ConstAbsRV(F(1), p)

    def test_const_abs_to_rv(self):
        assert ConstAbsRV(F(0), F(1, 2)).to_rv().atoms == ((F(0), F(1)),)
        assert ConstAbsRV(F(3), F(0)).to_rv().atoms == ((F(-3), F(1)),)

    def test_two_point_rejects_a_float_field(self):
        with pytest.raises(StructureError, match=r"^p must be an exact rational, got 0\.3$"):
            TwoPointBalancedRV(F(1), 0.3)
        with pytest.raises(StructureError, match=r"^d must be an exact rational, got 0\.5$"):
            TwoPointBalancedRV(0.5, F(1, 3))

    def test_const_abs_rejects_a_float_field(self):
        with pytest.raises(StructureError, match=r"^magnitude must be an exact rational, got 0\.5$"):
            ConstAbsRV(0.5, F(1, 3))
        with pytest.raises(StructureError, match=r"^p must be an exact rational, got 0\.25$"):
            ConstAbsRV(F(1), 0.25)

    @pytest.mark.parametrize(
        "build, name, value",
        [
            (lambda: Constants(k2=0.1), "k2", "0.1"),
            (lambda: SweepConfig(target="lemma4", value_lo=-0.1), "value_lo", "-0.1"),
            (lambda: SweepConfig(target="lemma4", value_hi=0.5), "value_hi", "0.5"),
            (lambda: DiscreteRV.from_atoms([(0.1, F(1, 2)), (1, F(1, 2))]), "value", "0.1"),
            (lambda: DiscreteRV.from_atoms([(0, 0.5), (1, F(1, 2))]), "probability", "0.5"),
            (lambda: lemma7_bound(UNIFORM, UNIFORM, e=0.1), "E", "0.1"),
        ],
    )
    def test_every_rational_input_rejects_a_float(self, build, name, value):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
        message = f"{name} must be an exact rational, got {value}"
        with pytest.raises(StructureError) as raised:
            build()
        assert str(raised.value) == message

    def test_a_malformed_rational_string_is_a_structure_error(self):
        # these raised ZeroDivisionError or ValueError, which are not package errors
        cases = [
            (lambda: DiscreteRV.from_atoms([("1/0", 1)]), "value must be an exact rational, got '1/0'"),
            (lambda: Constants(k0="abc"), "k0 must be an exact rational, got 'abc'"),
            (lambda: SweepConfig(target="lemma4", value_lo="zz"), "value_lo must be an exact rational, got 'zz'"),
            (lambda: random_rv(2, 0, ("1/0", 3)), "value must be an exact rational, got '1/0'"),
        ]
        for build, message in cases:
            with pytest.raises(StructureError) as raised:
                build()
            assert str(raised.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Constants(k0=None), "k0 must be an exact rational, got None"),
            (lambda: DiscreteRV.from_atoms([([1], 1)]), "value must be an exact rational, got [1]"),
        ],
    )
    def test_a_value_of_another_type_is_a_structure_error(self, build, message):
        # these raised TypeError, which is not a package error
        with pytest.raises(StructureError) as raised:
            build()
        assert str(raised.value) == message

    def test_two_atom_fields_are_stored_as_fractions(self):
        tp, ca = TwoPointBalancedRV(2, "1/3"), ConstAbsRV("3/2", 1)
        assert (tp.d, tp.p, ca.magnitude, ca.p) == (F(2), F(1, 3), F(3, 2), F(1))
        assert all(type(v) is F for v in (tp.d, tp.p, ca.magnitude, ca.p))
        assert tp.to_rv().atoms == ((F(-3), F(2, 3)), (F(6), F(1, 3)))
        assert ca.to_rv().atoms == ((F(3, 2), F(1)),)


class TestConvolve:
    def test_uniform_pair(self):
        got = convolve(UNIFORM, UNIFORM)
        assert got.atoms == ((F(-2), F(1, 4)), (F(0), F(1, 2)), (F(2), F(1, 4)))

    def test_claim6_sum_magnitudes(self):
        x, y = claim6_example()
        total = abs_rv(convolve(x, y))
        assert total.atoms == ((F(1), F(3, 4)), (F(3), F(1, 4)))

    def test_constant_is_identity(self):
        x, _ = claim6_example()
        assert convolve(x, DiscreteRV.constant(0)).atoms == x.atoms

    def test_atom_cap(self):
        with pytest.raises(AtomLimitError):
            convolve(UNIFORM, UNIFORM, atom_cap=3)

    def test_kernel_cap_message_is_convolves(self):
        x, y = claim6_example()
        with pytest.raises(AtomLimitError) as chain:
            convolve(x, y, atom_cap=5)
        with pytest.raises(AtomLimitError) as kernel:
            var_abs_sum((x, y), F(1, 3), atom_cap=5)
        assert str(kernel.value) == str(chain.value) == "convolution would touch 6 atoms (cap 5)"
        assert var_abs_sum((x, y), 0, atom_cap=6) == F(3, 4)
        assert var_abs_sum((x,), 5, atom_cap=1) == var_abs_shifted(x, 5)  # one variable: no merge

    def test_kernel_cap_counts_merged_partial_support(self):
        # 0/1 coins: X + Y has 3 atoms (not 4), so only the second merge, 3 * 3, trips cap 8
        coin = DiscreteRV.from_atoms([(0, F(1, 2)), (1, F(1, 2))])
        z = DiscreteRV.from_atoms([(-1, F(1, 3)), (0, F(1, 3)), (1, F(1, 3))])
        partial = convolve(coin, coin, atom_cap=8)
        assert partial.support_size == 3
        with pytest.raises(AtomLimitError) as chain:
            convolve(partial, z, atom_cap=8)
        with pytest.raises(AtomLimitError) as kernel:
            var_abs_sum((coin, coin, z), 0, atom_cap=8)
        assert str(kernel.value) == str(chain.value) == "convolution would touch 9 atoms (cap 8)"
        total = convolve(partial, z, atom_cap=9)
        assert var_abs_sum((coin, coin, z), 0, atom_cap=9) == variance_rv(abs_rv(total))


def chained_var_abs(xs, e=0, atom_cap=10**6):
    """Var|X1 + ... + Xn + E| through convolve, shift and abs_rv."""
    total = xs[0]
    for x in xs[1:]:
        total = convolve(total, x, atom_cap)
    return variance_rv(abs_rv(shift(total, e)))


class TestVarAbsSumLastFold:
    """The last variable is folded in by prefix sums, not merged."""

    X = DiscreteRV.from_atoms([(-1, F(1, 2)), (2, F(1, 2))])
    Y = DiscreteRV.from_atoms([(0, F(1, 3)), (F(1, 2), F(1, 3)), (5, F(1, 3))])
    Z = DiscreteRV.from_atoms([(-3, F(1, 4)), (F(-1, 3), F(1, 4)), (1, F(1, 4)), (7, F(1, 4))])

    def test_only_the_last_step_trips_the_cap(self):
        # X + Y has 6 atoms, so the steps touch 2 * 3 = 6 and then 6 * 4 = 24
        xs = (self.X, self.Y, self.Z)
        partial = convolve(self.X, self.Y, atom_cap=23)
        with pytest.raises(AtomLimitError) as chain:
            convolve(partial, self.Z, atom_cap=23)
        with pytest.raises(AtomLimitError) as kernel:
            var_abs_sum(xs, F(1, 5), atom_cap=23)
        assert str(kernel.value) == str(chain.value) == "convolution would touch 24 atoms (cap 23)"
        assert var_abs_sum(xs, F(1, 5), atom_cap=24) == chained_var_abs(xs, F(1, 5))

    def test_partial_point_at_minus_a_last_value(self):
        # -1 + 1 = 0 and 2 + (-2) = 0: sums landing on 0 count 0 on either side of the bisection
        y = DiscreteRV.from_atoms([(-2, F(1, 5)), (1, F(4, 5))])
        assert var_abs_sum((self.X, y)) == chained_var_abs((self.X, y)) == F(9, 4)
        for e in (F(-1), F(0), F(1, 2), F(3)):
            assert var_abs_sum((self.X, y, self.Z), e) == chained_var_abs((self.X, y, self.Z), e)

    def test_constant_last_variable(self):
        c = DiscreteRV.constant(F(-7, 3))
        assert var_abs_sum((self.Y, c), F(1, 2)) == var_abs_shifted(self.Y, F(-11, 6))
        assert var_abs_sum((self.X, self.Z, c)) == chained_var_abs((self.X, self.Z, c))

    def test_no_variables_is_the_constant_e(self):
        assert var_abs_sum((), F(5, 3)) == var_abs_sum(()) == 0


class TestMoments:
    def test_uniform(self):
        assert expectation(UNIFORM) == 0
        assert variance_rv(UNIFORM) == 1

    def test_claim6_x(self):
        x, _ = claim6_example()
        assert expectation(x) == 0
        assert variance_rv(x) == 2

    def test_constant(self):
        c = DiscreteRV.constant(F(5, 3))
        assert expectation(c) == F(5, 3)
        assert variance_rv(c) == 0

    def test_fact4_two_evaluation_identity(self):
        for seed in range(60):
            rv = random_rv(4, seed)
            pair_mean = sum(
                p1 * p2 * (v1 - v2) ** 2
                for v1, p1 in rv.atoms
                for v2, p2 in rv.atoms
            )
            assert variance_rv(rv) == pair_mean / 2

    def test_fact7_expectation_minimizes(self):
        for seed in range(40):
            rv = random_rv(3, seed)
            var = variance_rv(rv)
            mean = expectation(rv)
            grid = [mean, 0, 1, F(-3, 2), mean + F(1, 7), mean - 2]
            for e in grid:
                second_moment = sum(p * (v - e) ** 2 for v, p in rv.atoms)
                assert second_moment >= var
                if e == mean:
                    assert second_moment == var

    def test_variance_additive_under_convolution(self):
        for seed in range(40):
            x = random_rv(3, seed)
            y = random_rv(4, seed + 500)
            assert variance_rv(convolve(x, y)) == variance_rv(x) + variance_rv(y)


class TestAbsCenterShift:
    def test_abs_uniform_constant(self):
        assert abs_rv(UNIFORM).atoms == ((F(1), F(1)),)

    def test_abs_nonnegative_unchanged(self):
        rv = DiscreteRV.from_atoms([(0, F(1, 2)), (2, F(1, 2))])
        assert abs_rv(rv).atoms == rv.atoms

    def test_abs_never_gains_variance(self):
        for seed in range(60):
            rv = random_rv(5, seed)
            assert variance_rv(abs_rv(rv)) <= variance_rv(rv)

    def test_center_examples(self):
        assert center(DiscreteRV.constant(5)).atoms == ((F(0), F(1)),)
        stepped = DiscreteRV.from_atoms([(0, F(1, 2)), (2, F(1, 2))])
        assert center(stepped).atoms == ((F(-1), F(1, 2)), (F(1), F(1, 2)))
        assert center(UNIFORM).atoms == UNIFORM.atoms

    def test_center_preserves_variance(self):
        for seed in range(40):
            rv = random_rv(4, seed)
            assert variance_rv(center(rv)) == variance_rv(rv)
            assert expectation(center(rv)) == 0

    def test_var_abs_shifted(self):
        assert var_abs_shifted(UNIFORM, 0) == 0
        assert var_abs_shifted(UNIFORM, 1) == 1
        x, _ = claim6_example()
        assert var_abs_shifted(x, 0) == 1

    def test_negate(self):
        x, _ = claim6_example()
        skewed = shift(x, F(1, 3))
        back = negate(negate(skewed))
        assert back.atoms == skewed.atoms
        mean, var = rv_moments(negate(skewed).atoms)
        assert mean == -expectation(skewed)
        assert var == variance_rv(skewed)


class TestConstAbsApprox:
    def test_uniform(self):
        approx = const_abs_approx(UNIFORM, 0)
        assert (approx.magnitude, approx.p) == (F(1), F(1, 2))

    def test_shifted_two_point(self):
        rv = DiscreteRV.from_atoms([(-2, F(1, 2)), (2, F(1, 2))])
        approx = const_abs_approx(rv, 1)
        assert (approx.magnitude, approx.p) == (F(2), F(1, 2))
        assert approx.to_rv().atoms == ((F(-2), F(1, 2)), (F(2), F(1, 2)))

    def test_sign_zero_is_positive(self):
        approx = const_abs_approx(DiscreteRV.constant(0), -3)
        assert (approx.magnitude, approx.p) == (F(3), F(0))
        zero_case = const_abs_approx(DiscreteRV.constant(0), 0)
        assert (zero_case.magnitude, zero_case.p) == (F(0), F(1))


class TestTwoPointDecompose:
    def test_uniform_is_its_own_component(self):
        comps = two_point_decompose(UNIFORM)
        assert len(comps) == 1
        weight, comp = comps[0]
        assert weight == 1
        assert comp.to_rv().atoms == UNIFORM.atoms

    def test_already_two_point(self):
        rv = DiscreteRV.from_atoms([(-1, F(2, 3)), (2, F(1, 3))])
        comps = two_point_decompose(rv)
        assert len(comps) == 1
        assert comps[0][0] == 1
        assert comps[0][1].to_rv().atoms == rv.atoms

    def test_four_atom_example(self):
        rv = DiscreteRV.from_atoms(
            [(-3, F(1, 6)), (-1, F(1, 3)), (1, F(1, 3)), (3, F(1, 6))]
        )
        comps = two_point_decompose(rv)
        assert [(w, c.to_rv().atoms) for w, c in comps] == [
            (F(2, 3), ((F(-1), F(1, 2)), (F(1), F(1, 2)))),
            (F(1, 3), ((F(-3), F(1, 2)), (F(3), F(1, 2)))),
        ]

    def test_zero_atom_component(self):
        rv = DiscreteRV.from_atoms([(-1, F(1, 4)), (0, F(1, 2)), (1, F(1, 4))])
        comps = two_point_decompose(rv)
        zero = [c for c in comps if c[1].d == 0]
        assert len(zero) == 1 and zero[0][0] == F(1, 2)

    def test_requires_balance(self):
        with pytest.raises(BalanceError):
            two_point_decompose(DiscreteRV.constant(1))

    def test_reconstruction_and_shape(self):
        for seed in range(80):
            rv = random_balanced(seed, support=5)
            comps = two_point_decompose(rv)
            assert sum(w for w, _ in comps) == 1
            assert all(w > 0 for w, _ in comps)
            assert len(comps) <= max(1, rv.support_size - 1) + 1
            for _, comp in comps:
                atoms = comp.to_rv().atoms
                assert len(atoms) <= 2
                assert expectation(comp.to_rv()) == 0
            assert mix([(w, c.to_rv()) for w, c in comps]).atoms == rv.atoms

    def test_convexity_of_abs_variance(self):
        for seed in range(30):
            xbar = random_balanced(seed, support=3)
            ybar = random_balanced(seed + 999, support=4)
            e = F(seed - 15, 4)
            lhs = var_abs_shifted(convolve(xbar, ybar), e)
            mixture = sum(
                w * var_abs_shifted(convolve(xbar, comp.to_rv()), e)
                for w, comp in two_point_decompose(ybar)
            )
            assert lhs >= mixture


class TestFormat:
    def test_parse_claim6_text(self):
        text = "# a comment\n0 1/2\n-2 0.25\n2 1/4\n"
        rv = parse_rv(text)
        x, _ = claim6_example()
        assert rv.atoms == x.atoms

    def test_round_trip(self):
        for seed in range(20):
            rv = random_rv(4, seed)
            assert parse_rv(format_rv(rv, comments=["demo"])).atoms == rv.atoms

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_rv("0 1/2\n1\n")
        with pytest.raises(ParseError, match="sum"):
            parse_rv("0 1/2\n1 1/4\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_rv("0 1/2\n0 1/2\n")
        with pytest.raises(ParseError):
            parse_rv("# only a comment\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_rv("0 x\n")

    def test_parse_rejects_a_nonpositive_probability(self):
        for p in ("0", "-1/2"):
            with pytest.raises(ParseError, match=f"^line 2: probability {p} must be positive$"):
                parse_rv(f"-1 1/2\n0 {p}\n1 1/2\n")

    def test_inline(self):
        assert format_rv_inline(UNIFORM) == "(-1:1/2,1:1/2)"
