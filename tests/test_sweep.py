"""Sweep engine: generators, determinism, exhaustive checks, probe."""

import csv
import hashlib
import re
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import fknlab.cube as cube_module
import fknlab.sweep as sweep_module
from fknlab.bounds import (
    BoundReport,
    Constants,
    corollary2_apply,
    tribes_example,
)
from fknlab.cli import main
from fknlab.cube import BooleanFunction, Partition, format_partition, format_table_row
from fknlab.errors import (
    CapacityError,
    ParseError,
    SearchSpaceError,
    StructureError,
    VerificationError,
)
from fknlab.sweep import (
    TARGETS,
    SweepConfig,
    _claim8_instance,
    _corollary2_report,
    _randint,
    _random_numerators,
    _rng_for,
    config_from_settings,
    conjecture_probe,
    corollary2_exhaustive,
    empirical_constant,
    enumerate_boolean_functions,
    random_real_function,
    random_rv,
    read_settings,
    run_sweep,
    tightness_scan,
    two_block_partitions,
)

from conftest import profile_constants

F = Fraction


class TestEnumeration:
    @pytest.mark.parametrize("m,count", [(1, 4), (2, 16)])
    def test_counts(self, m, count):
        functions = list(enumerate_boolean_functions(m))
        assert len(functions) == count
        tables = {tuple(int(v) for v in f.table) for f in functions}
        assert len(tables) == count

    def test_m4_count(self):
        assert sum(1 for _ in enumerate_boolean_functions(4)) == 65536

    def test_table_integer_order(self):
        first, second = list(enumerate_boolean_functions(1))[:2]
        assert list(first.table) == [1, 1]  # integer 0: no -1 entries
        assert list(second.table) == [-1, 1]  # bit 0 set -> table[0] = -1

    def test_rejects_large_m(self):
        with pytest.raises(StructureError):
            next(enumerate_boolean_functions(5))

    @pytest.mark.parametrize("m", [-1, 0])
    def test_rejects_m_below_1(self, m):
        # m=-1 used to end in "ValueError: negative shift count", m=0 in CapacityError
        with pytest.raises(StructureError, match="1 <= m <= 4"):
            list(enumerate_boolean_functions(m))

    def test_two_block_partition_counts(self):
        assert len(list(two_block_partitions(2))) == 1
        assert len(list(two_block_partitions(3))) == 3
        assert len(list(two_block_partitions(4))) == 7
        for m in range(2, 7):
            assert all(m in partition.blocks[1] for partition in two_block_partitions(m))


class TestRandomRV:
    def test_deterministic(self):
        assert random_rv(4, seed=11).atoms == random_rv(4, seed=11).atoms
        assert random_rv(4, seed=11).atoms != random_rv(4, seed=12).atoms

    def test_support_one_is_constant(self):
        rv = random_rv(1, seed=3)
        assert rv.support_size == 1

    def test_denominator_bounds(self):
        for seed in range(50):
            rv = random_rv(5, seed, denom_cap=12)
            assert rv.support_size == 5
            for value, prob in rv.atoms:
                assert value.denominator <= 12
                assert prob.denominator <= 12
            assert sum(p for _, p in rv.atoms) == 1

    def test_value_range(self):
        lo, hi = F(-2), F(2)
        for seed in range(30):
            rv = random_rv(3, seed, value_range=(lo, hi))
            assert all(lo <= v <= hi for v, _ in rv.atoms)

    def test_real_function_deterministic(self):
        a = random_real_function(3, 5)
        b = random_real_function(3, 5)
        assert np.array_equal(a.table, b.table)

    @pytest.mark.parametrize("m", [-1, 0, 27])
    def test_real_function_m_is_checked_before_any_draw(self, m, monkeypatch):
        # m=-1 used to end in "ValueError: negative shift count", and m=27 drew
        # 2^27 numerators before RealFunction refused it
        class NoWords:
            def getrandbits(self, k):
                raise AssertionError("a word was drawn")

        monkeypatch.setattr(sweep_module, "_rng_for", lambda seed, index: NoWords())
        with pytest.raises(CapacityError, match=rf"^m={m} outside supported range 1\.\.26$"):
            random_real_function(m, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 2**31 + 1])
    def test_randint_draws_as_random_randint(self, n):
        # twin generators: the same values and the same state after every draw
        for seed in range(50):
            ours, theirs = _rng_for(seed, 0), _rng_for(seed, 0)
            for lo in (-n // 2, 0, 7):
                for _ in range(20):
                    assert _randint(ours, lo, lo + n - 1) == theirs.randint(lo, lo + n - 1)
                    assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("m", [0, 1, 3, 5])
    def test_numerators_draw_as_random_randint(self, m):
        for seed in range(200):
            ours, theirs = _rng_for(seed, 0), _rng_for(seed, 0)
            for _ in range(3):
                expected = [theirs.randint(-32, 32) for _ in range(1 << m)]
                assert _random_numerators(ours, m) == expected
                assert ours.getstate() == theirs.getstate()

    def test_support_size_below_one_raises(self):
        with pytest.raises(StructureError, match="^support_size must be >= 1$"):
            random_rv(0, 0)

    def test_empty_ranges_raise(self):
        # random.randint(1, 0) raised ValueError, which is not a package error
        with pytest.raises(StructureError, match="empty range 1..0"):
            random_rv(2, 0, denom_cap=0)
        with pytest.raises(StructureError, match="empty range"):
            _randint(_rng_for(0, 0), 5, 3)

    def test_a_range_with_no_multiple_of_the_cap_is_refused_for_every_seed(self):
        # 1/3 is in the range, but 1/5 has no multiple there: every seed raises, before any draw
        for seed in range(200):
            with pytest.raises(StructureError, match=r"^no multiple of 1/5 in \[1/3, 7/20\]$"):
                random_rv(1, seed, (F(1, 3), F(7, 20)), 5)

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seeds_outside_32_bits_raise(self, seed):
        for draw in (lambda: random_rv(2, seed), lambda: random_real_function(2, seed)):
            with pytest.raises(StructureError, match=r"seed must lie in 0\.\.4294967295"):
                draw()
        with pytest.raises(StructureError, match="seed must lie"):
            SweepConfig(target="lemma4", seed=seed)
        assert random_rv(3, 2**32 - 1) != random_rv(3, 0)

    def test_streams_stay_distinct_below_2_to_the_40_instances(self):
        # index + 1 = 2^40 reaches the seed's bits: instance 2^40 of seed 5 is instance 0 of seed 4
        assert _rng_for(5, 2**40).getstate() == _rng_for(4, 0).getstate()
        assert SweepConfig(target="lemma4", n=2**40 - 2, include_claim6=True).n == 2**40 - 2
        for settings in ({"n": 2**40}, {"n": 2**40 - 1, "include_claim6": True}):
            with pytest.raises(StructureError, match=r"<= 1099511627775 \(2\^40 - 1\)$"):
                SweepConfig(target="lemma4", **settings)


class TestRunSweep:
    def test_lemma7_clean(self):
        result = run_sweep(SweepConfig(target="lemma7", n=400, seed=1))
        assert result.instances_run == 400
        assert result.violations == ()
        assert result.errors == ()
        assert result.min_ratio is not None and result.min_ratio >= 1

    def test_claim8_stratified_clean(self):
        result = run_sweep(SweepConfig(target="claim8", n=800, seed=2))
        assert result.violations == ()
        assert result.empirical_constant is not None
        assert result.empirical_constant <= 4

    def test_claim8_strata_cover_cases_and_boundaries(self):
        cfg = SweepConfig(target="claim8", n=1, seed=2)
        seen = {"p_half": 0, "p_quarter": 0, "x1_boundary": 0, 0: 0, 1: 0, 2: 0, 3: 0}
        for i in range(2000):
            case = i % 4
            x1, x2, ybar = _claim8_instance(_rng_for(cfg.seed, i), case, cfg)
            assert abs(x2) <= abs(x1)
            if case == 0:
                assert ybar.p >= F(1, 2)
                seen["p_half"] += ybar.p == F(1, 2)
            elif case == 1:
                assert F(1, 4) <= ybar.p < F(1, 2)
                seen["p_quarter"] += ybar.p == F(1, 4)
            else:
                assert ybar.p < F(1, 4)
                boundary = 2 * ybar.d / (1 - ybar.p)
                if case == 2:
                    assert x1 <= boundary
                    seen["x1_boundary"] += x1 == boundary and ybar.d > 0
                else:
                    assert x1 > boundary
            seen[case] += 1
        assert all(seen[c] == 500 for c in range(4))
        assert seen["p_half"] > 0 and seen["p_quarter"] > 0 and seen["x1_boundary"] > 0

    def test_claim8_p_ranges_hold_past_float_precision(self, monkeypatch):
        cap = 2**60 + 1  # b / 2 and b / 4 round down as floats

        class EdgeRng:
            """Every denominator draw takes the cap, every other draw one end of its range."""

            def __init__(self, end):
                self.end = end

            def random(self):
                return 0.9  # d > 0, and p is drawn rather than fixed at 1/2 or 1/4

        def edge_randint(rng, lo, hi):
            return hi if hi == cap or rng.end == "hi" else lo

        monkeypatch.setattr(sweep_module, "_randint", edge_randint)
        cfg = SweepConfig(target="claim8", n=1, denom_cap=cap)
        for end in ("lo", "hi"):
            for case, (low, high) in enumerate([(F(1, 2), 1), (F(1, 4), F(1, 2)), (0, F(1, 4))]):
                _, _, ybar = _claim8_instance(EdgeRng(end), case, cfg)
                assert ybar.p.denominator == cap and low <= ybar.p < high, (end, case, ybar.p)

    def test_violations_with_weak_constant(self):
        cfg = SweepConfig(
            target="lemma7",
            n=200,
            seed=7,
            k0=1,
            include_claim6=True,
        )
        result = run_sweep(cfg)
        assert result.instances_run == 201
        assert len(result.violations) >= 1
        assert result.min_ratio is not None and result.min_ratio < 1
        assert any("instance=0" in v for v in result.violations)

    def test_claim6_instance_ratio(self):
        cfg = SweepConfig(
            target="lemma7",
            n=1,
            seed=7,
            k0=F(4, 3),
            include_claim6=True,
        )
        result = run_sweep(cfg)
        assert result.violations == ()
        # the claim6 instance realizes max-side/lhs = 4/3 exactly
        assert result.empirical_constant >= F(4, 3)

    def test_determinism(self):
        cfg = SweepConfig(target="claim9", n=150, seed=42)
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        assert first == second

    def test_rows_collected(self):
        lines = []
        run_sweep(SweepConfig(target="lemma4", n=10, seed=3), lines.append)
        rows = list(csv.reader(lines))
        assert len(lines) == len(rows) == 10 and all(line.endswith("\r\n") for line in lines)
        assert rows[0][0] == "0"
        assert all(len(row) == 6 for row in rows)

    def test_violation_invariant(self):
        # violations empty <-> min ratio >= 1 (when a ratio exists)
        for seed in (1, 2):
            for k0 in (F(4), F(1)):
                cfg = SweepConfig(
                    target="lemma7",
                    n=120,
                    seed=seed,
                    k0=k0,
                    include_claim6=True,
                )
                result = run_sweep(cfg)
                assert (len(result.violations) == 0) == (result.min_ratio >= 1)

    @pytest.mark.parametrize("target", ["lemma4", "corollary2"])
    def test_a_report_off_its_folded_sides_raises(self, monkeypatch, target):
        # a named report built with twice its lhs: its sides no longer
        # cross-multiply to the integer sides the fold read
        name = "_corollary2_report" if target == "corollary2" else "_with_inputs"
        real = getattr(sweep_module, name)

        def doubled(*args):
            report = real(*args)
            return replace(report, lhs=2 * report.lhs)

        monkeypatch.setattr(sweep_module, name, doubled)
        pattern = r"^instance 0: sides (\S+), (\S+) are not the folded (\d+) : (\d+)$"
        with pytest.raises(VerificationError, match=pattern) as raised:
            run_sweep(SweepConfig(target=target, **({} if target == "corollary2" else {"n": 5})))
        lhs, rhs, a, b = map(F, re.match(pattern, str(raised.value)).groups())
        assert lhs / rhs == 2 * a / b

    # each evaluator with its lowered constant, so that some instances are violations
    EVALUATED = [
        ("lemma4", "lemma4_bound", {"k1": F(1, 10**4)}),
        ("lemma5", "lemma5_bound", {"k0": F(1, 10)}),
        ("lemma7", "lemma7_bound", {"k0": F(1, 10)}),
        ("claim8", "claim8_check", {}),
        ("claim9", "claim9_bound", {}),
        ("theorem1", "theorem1_check", {"k2": F(1, 10**4)}),
    ]

    @pytest.mark.parametrize(
        "target, evaluator, lowered",
        EVALUATED,
        ids=[t for t, *_ in EVALUATED],
    )
    def test_witnesses_are_built_only_for_the_named_instances(
        self, monkeypatch, target, evaluator, lowered
    ):
        # the evaluator's witness builder runs, without CSV rows, for each
        # violation and each new running minimum alone, as the Fraction fold
        # over every row names them; with rows, once for every instance
        real, built = getattr(sweep_module, evaluator), []

        def counted(*args):
            report, index = real(*args), len(calls)
            calls.append(index)

            def witness():
                built.append(index)
                return report.witness

            return BoundReport(report.lhs, report.rhs, witness)

        monkeypatch.setattr(sweep_module, evaluator, counted)
        cfg = SweepConfig(target=target, n=80, seed=4, **lowered)
        rows, calls = [], []
        result = run_sweep(cfg, rows.append)
        assert built == calls == list(range(80))
        named, least = [], None
        for i, lhs, rhs, *_ in csv.reader(rows):
            lhs, rhs = F(lhs), F(rhs)
            lower = rhs > 0 and (least is None or lhs / rhs < least)
            if lhs < rhs or lower:
                named.append(int(i))
            least = lhs / rhs if lower else least
        built.clear()
        calls.clear()
        assert run_sweep(cfg) == result and built == named and len(calls) == 80
        assert 0 < len(named) < 80 and bool(result.violations) == bool(lowered)

    def test_unread_setting_checked_first(self):
        # the reads rule runs before SweepConfig's own range checks
        with pytest.raises(StructureError, match="^fact1 does not read support_max$"):
            SweepConfig(target="fact1", support_max=0)
        with pytest.raises(StructureError, match="^corollary2 does not read n$"):
            config_from_settings(read_settings("target=corollary2\nexhaustive_m=9\nn=0\n"))

    def test_package_errors_are_data(self):
        cfg = SweepConfig(target="theorem1", n=50, atom_cap=1)
        result = run_sweep(cfg)
        assert result.instances_run == 50
        assert len(result.errors) == 49
        assert all("AtomLimitError" in message for _, message in result.errors)

    @pytest.mark.parametrize("exc", [VerificationError("identity failed"), RuntimeError("bug")])
    def test_other_failures_propagate(self, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(sweep_module, "lemma7_bound", broken)
        with pytest.raises(type(exc)):
            run_sweep(SweepConfig(target="lemma7", n=3))

    def test_corollary2_verification_error_propagates(self, monkeypatch):
        # the recheck's kernel call goes through cube's binding
        def broken(*args, **kwargs):
            raise VerificationError("coefficient route mismatch")

        monkeypatch.setattr(cube_module, "stack_block_weights", broken)
        with pytest.raises(VerificationError, match="^coefficient route mismatch$"):
            corollary2_exhaustive(2)

    def test_corollary2_pointwise_route_mismatch_raises(self, monkeypatch):
        real = cube_module._pointwise_sq_dist
        monkeypatch.setattr(cube_module, "_pointwise_sq_dist", lambda *a: real(*a) + 1)
        with pytest.raises(VerificationError, match="coefficient route != pointwise"):
            corollary2_exhaustive(2)

    @pytest.mark.parametrize(
        "cross_factor,dist_factor,match",
        [
            (1, 10**6, "batch reported 'instance=0 lhs="),  # every instance a false violation
            (2, 1, "batch reported 'instance=0 table="),  # the witness's epsilon is off
            (1, 2, "batch reported 'instance=0 lhs="),  # same witness text, sides off
        ],
    )
    def test_corollary2_unconfirmed_report_raises(
        self, monkeypatch, cross_factor, dist_factor, match
    ):
        real = sweep_module.stack_block_weights

        def skewed(tables, partitions):
            var, weights = real(tables, partitions)
            return var, [(cross * cross_factor, dists * dist_factor) for cross, dists in weights]

        monkeypatch.setattr(sweep_module, "stack_block_weights", skewed)
        with pytest.raises(VerificationError, match=match):
            corollary2_exhaustive(2)


class TestFactSweeps:
    def test_build_no_real_function(self, monkeypatch):
        # fact1 and fact8 sum on drawn numerators; a RealFunction is built by neither
        real, built = cube_module.RealFunction.__post_init__, []

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(cube_module.RealFunction, "__post_init__", counted)
        for target in ("fact1", "fact8"):
            result = run_sweep(SweepConfig(target=target, n=200))
            assert result.instances_run == 200 and result.violations == ()
        assert built == []
        random_real_function(2, 0)  # the counter sees a construction
        assert len(built) == 1


class TestTargets:
    def test_names_and_flags(self):
        assert tuple(TARGETS) == (
            "fact1", "fact8", "lemma4", "lemma5", "lemma7", "claim8", "claim9", "theorem1", "corollary2"
        )
        assert [n for n, t in TARGETS.items() if t.scale is None] == ["fact8"]
        assert {n: t.files for n, t in TARGETS.items() if t.check} == {
            "lemma4": 2, "lemma5": 2, "lemma7": 2, "claim8": 1, "claim9": 2, "theorem1": 0
        }
        assert [n for n, t in TARGETS.items() if t.instance is None] == ["corollary2"]
        rv = {"n", "seed", "support_min", "support_max", "value_lo", "value_hi"}
        rv |= {"denom_cap", "atom_cap"}
        pair = rv | {"include_claim6"}
        assert {n: t.reads for n, t in TARGETS.items()} == {
            "fact1": {"n", "seed"},
            "fact8": {"n", "seed"},
            "lemma4": pair | {"k1"},
            "lemma5": pair | {"k0"},
            "lemma7": pair | {"E", "k0"},
            "claim8": {"n", "seed", "denom_cap", "x1", "x2"},
            "claim9": pair | {"E"},
            "theorem1": rv | {"rv_count_max", "k2"},
            "corollary2": {"exhaustive_m", "k2"},
        }

    def test_include_claim6_only_where_eligible(self):
        # only a target with a pair reads include_claim6
        for name in ("fact1", "fact8", "claim8", "theorem1", "corollary2"):
            with pytest.raises(StructureError, match=f"^{name} does not read include_claim6$"):
                SweepConfig(target=name, include_claim6=True)
        cfg = SweepConfig(target="lemma4", n=2, include_claim6=True)
        assert run_sweep(cfg).instances_run == 3

    def test_corollary2_constant_is_max_dist_over_epsilon(self):
        expected = F(0)
        for f in enumerate_boolean_functions(3):
            if len(set(f.table.tolist())) == 1:
                continue
            for partition in two_block_partitions(3):
                outcome = corollary2_apply(f, partition)
                if outcome.cross_weight > 0:
                    expected = max(expected, outcome.dist / outcome.epsilon)
        assert corollary2_exhaustive(3).empirical_constant == expected


class TestEmpiricalConstant:
    # Each inequality's own constant, written out here apart from the registry;
    # C gives each read constant a value apart from every default (K0 4, K1
    # 20480, K2 61440, which the unread ones keep), so a scale reading the
    # wrong one shows.
    C = Constants(k0=F(3), k1=F(5), k2=F(7))

    @pytest.mark.parametrize(
        "target, scale",
        [
            ("lemma4", C.k1),
            ("lemma5", C.k0),
            ("lemma7", C.k0),
            ("claim8", 4),
            ("claim9", 16),
            ("theorem1", C.k2),
            ("fact1", 2),
            ("corollary2", C.k2 + 2),
        ],
        ids=str,
    )
    def test_constant_is_largest_scale_rhs_over_lhs(self, target, scale):
        drawn = {} if target == "corollary2" else {"n": 60, "seed": 11}
        read = {k: getattr(self.C, k) for k in ("k0", "k1", "k2") if k in TARGETS[target].reads}
        rows = []
        result = run_sweep(SweepConfig(target=target, **read, **drawn), rows.append)
        assert result.errors == ()  # an instance with lhs 0 < rhs would be one
        sides = [(F(row[1]), F(row[2])) for row in csv.reader(rows)]
        needed = [scale * rhs / lhs for lhs, rhs in sides if rhs > 0]
        assert needed and result.empirical_constant == max(needed)

    def test_lemma7_bracket_with_claim6(self):
        value = empirical_constant(
            "lemma7",
            SweepConfig(target="lemma7", n=300, seed=5, include_claim6=True),
        )
        assert F(4, 3) <= value <= 4

    def test_degenerate_sweep_returns_zero(self):
        value = empirical_constant(
            "lemma7",
            SweepConfig(target="lemma7", n=20, seed=5, support_min=1, support_max=1),
        )
        assert value == 0

    def test_lhs_zero_is_a_violation_not_an_error(self, monkeypatch, capsys):
        # lhs 0 < rhs on every instance: no finite constant fits, yet each one was evaluated
        monkeypatch.setattr(sweep_module, "lemma7_bound", lambda *args: BoundReport(F(0), F(1)))
        cfg = SweepConfig(target="lemma7", n=3)
        result = run_sweep(cfg)
        assert len(result.violations) == 3 and result.errors == ()
        assert result.min_ratio == 0 and result.empirical_constant is None
        with pytest.raises(StructureError, match="instance=0 "):
            empirical_constant("lemma7", cfg)
        assert main(["sweep", "--target", "lemma7", "--n", "3"]) == 2
        out = capsys.readouterr().out
        assert "errors=" not in out and "empirical_constant=" not in out

    def test_claim8_at_most_four(self):
        value = empirical_constant(
            "claim8", SweepConfig(target="claim8", n=400, seed=6)
        )
        assert 0 < value <= 4

    def test_config_built_from_overrides_or_retargeted(self):
        own = SweepConfig(target="lemma5", n=60, seed=11)
        expected = empirical_constant("lemma5", own)
        other = SweepConfig(target="lemma7", n=60, seed=11)
        assert empirical_constant("lemma5", other) == expected
        assert empirical_constant("lemma7", other) != expected
        # retargeting used to run lemma7 and drop the K1 it does not read
        with pytest.raises(StructureError, match="^lemma7 does not read k1$"):
            empirical_constant("lemma7", SweepConfig(target="lemma4", n=5, k1=7))

    def test_not_ratio_form(self):
        with pytest.raises(StructureError):
            empirical_constant("fact8", SweepConfig(target="fact8", n=5))

    def test_errored_instances_are_input_errors(self):
        cfg = SweepConfig(target="lemma4", n=3, atom_cap=1)
        with pytest.raises(StructureError) as info:
            empirical_constant("lemma4", cfg)
        assert not isinstance(info.value, VerificationError)
        assert str(info.value).startswith(
            "cannot estimate the constant: errors=3, first at instance 0:"
            " AtomLimitError: convolution would touch "
        )


class TestCorollary2Exhaustive:
    def test_m2_instances_and_clean(self):
        result = corollary2_exhaustive(2)
        assert result.instances_run == 14  # 14 non-constant functions x 1 partition
        assert result.violations == ()
        assert result.min_ratio is not None and result.min_ratio >= 1
        assert result.empirical_constant > 0

    def test_m3_clean(self):
        result = corollary2_exhaustive(3)
        assert result.instances_run == 254 * 3
        assert result.violations == ()

    def test_rejects_large_m(self):
        with pytest.raises(StructureError):
            corollary2_exhaustive(5)

    @pytest.mark.parametrize("m", [-1, 0, 1])
    def test_rejects_small_m(self, m):
        # m=1 used to evaluate no instance and m=-1 to end in a ValueError
        with pytest.raises(StructureError):
            corollary2_exhaustive(m)

    def test_true_violations_are_kept(self):
        # K2 = 1/16 puts the corollary constant K2 + 2 below the m=4 empirical
        # 63/16, so the batch reports violations and the recheck confirms each
        result = corollary2_exhaustive(4, Constants(k2=F(1, 16)))
        assert len(result.violations) == 5824
        assert result.violations[0] == (
            "instance=2226 lhs=55/112 rhs=19/32"
            " table=------++-+++++++;partition=1,2,3|4;k=1;epsilon=5/21"
        )
        # the whole result, byte for byte as the parent of the one-fold change gave it
        counts = result.min_ratio, result.empirical_constant, result.instances_run
        text = "\n".join((*result.violations, result.min_ratio_witness, *map(str, counts)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ccd6312d0fb159e57efd5682e7e24642a5fcb5dc9ff5e556761e94d5149203d0"
        )

    def test_recheck_finds_the_instance_by_its_number(self, monkeypatch):
        # instance i is table i // P and partition i % P: the witness's report
        # is corollary2_apply's on that pair, and a batch whose rows are rolled
        # by one gives instance 9 the sides of the table before it, which the
        # recheck, on the named tables through cube's binding, does not confirm
        result = corollary2_exhaustive(3)
        tables, partitions = cube_module.boolean_tables(3)[1:-1], list(two_block_partitions(3))
        P = len(partitions)
        i = int(result.min_ratio_witness.split(" ", 1)[0].removeprefix("instance="))
        f, partition = BooleanFunction(3, tables[i // P]), partitions[i % P]
        outcome = corollary2_apply(f, partition)
        sides = outcome.bound, outcome.dist, outcome.epsilon
        report = _corollary2_report(
            format_table_row(f), format_partition(partition), outcome.k, *sides
        )
        assert report.ratio == result.min_ratio
        assert result.min_ratio_witness == f"instance={i} {report.witness_text()}"
        real = sweep_module.stack_block_weights

        def rolled(tables, partitions):
            var, weights = real(tables, partitions)
            return np.roll(var, 1), [(np.roll(c, 1), np.roll(d, 1, axis=0)) for c, d in weights]

        monkeypatch.setattr(sweep_module, "stack_block_weights", rolled)
        line = "instance=9 table=++-+++++;partition=1,2|3;k=0;epsilon="
        message = f"batch reported '{line}1/3'; the recheck gives '{line}3/7'"
        with pytest.raises(VerificationError, match=f"^{re.escape(message)}$"):
            corollary2_exhaustive(3)

    @pytest.mark.parametrize("factor", [1, 4])
    def test_reports_only_the_instances_it_names(self, monkeypatch, factor):
        # the fold asks for a report per violation and per new running
        # minimum, and the recheck one more per instance the fold asked about,
        # from exactly one kernel call on their tables; the CSV writer builds
        # one table-less report per distinct row text, fewer than its rows;
        # at K2 = 1/16, four times every distance turns most m=3 instances
        # into violations
        real, rechecks, reports, asked, expected = cube_module.stack_block_weights, [], [], [], []

        def scaled(tables, partitions):
            var, weights = real(tables, partitions)
            return var, [(cross, factor * dists) for cross, dists in weights]

        def recheck(tables, partitions):
            rechecks.append(len(tables))
            return scaled(tables, partitions)

        def counted(*args):
            reports.append(args)
            return real_report(*args)

        def fold(name, sides, report, scale, errors):
            sides, least = list(sides), None
            for i, a, b in sides:  # the instances the fold names, on Fractions
                lower = b > 0 and (least is None or F(a, b) < least)
                if a < b or lower:
                    expected.append(i)
                least = F(a, b) if lower else least

            def asking(i):
                asked.append(i)
                return report(i)

            return real_fold(name, sides, asking, scale, errors)

        real_report, real_fold = sweep_module._corollary2_report, sweep_module._fold
        monkeypatch.setattr(sweep_module, "stack_block_weights", scaled)
        monkeypatch.setattr(cube_module, "stack_block_weights", recheck)
        monkeypatch.setattr(sweep_module, "_corollary2_report", counted)
        monkeypatch.setattr(sweep_module, "_fold", fold)
        rows = []
        result = corollary2_exhaustive(3, Constants(k2=F(1, 16)), rows.append)
        assert bool(result.violations) == (factor > 1)
        assert asked == expected
        named = [args for args in reports if args[0]]  # the row texts' reports have no table
        cells = list(csv.reader(rows))
        texts = {(*row[1:5], row[5].split(";", 1)[1]) for row in cells}  # each row but id, table
        assert len(named) == 2 * len(asked) and len(rows) == 254 * 3
        assert len(texts) <= len(reports) - len(named) < len(rows)
        assert rechecks == [len(asked)]

    def test_the_fold_flags_only_bounds_that_fail(self, monkeypatch):
        # every report made to hold: the first of the 5,824 violations the
        # integer fold finds at K2 = 1/16 no longer fails, and raises
        real = sweep_module._corollary2_report

        def holding(*args):
            report = real(*args)
            return replace(report, lhs=max(report.lhs, report.rhs))

        monkeypatch.setattr(sweep_module, "_corollary2_report", holding)
        with pytest.raises(
            VerificationError, match="^instance 2226: the fold flags a bound that holds$"
        ):
            corollary2_exhaustive(4, Constants(k2=F(1, 16)))

    def test_the_witness_ratio_is_the_batch_min_ratio(self, monkeypatch):
        # the witness's report, with both sides negated, still cross-multiplies
        # to the folded sides, but its rhs is negative: it has no ratio
        min_ratio = corollary2_exhaustive(2).min_ratio
        real = sweep_module._corollary2_report

        def negated(*args):
            report = real(*args)
            return replace(report, lhs=-report.lhs, rhs=-report.rhs)

        monkeypatch.setattr(sweep_module, "_corollary2_report", negated)
        with pytest.raises(
            VerificationError, match=f"^batch min ratio {min_ratio} not confirmed$"
        ):
            corollary2_exhaustive(2)

    def test_run_sweep_dispatch(self):
        via_sweep = run_sweep(SweepConfig(target="corollary2", exhaustive_m=2))
        assert via_sweep.instances_run == 14
        assert via_sweep.violations == ()


class TestProfileConstants:
    # the corollary constant of each block profile, brute force over every
    # table and every partition of two or more blocks
    EXPECTED = {
        2: {(1, 1): F(3, 2)},
        3: {(1, 2): F(2), (1, 1, 1): F(3)},
        4: {(1, 3): F(399, 160), (2, 2): F(63, 16), (1, 1, 2): F(3), (1, 1, 1, 1): F(3)},
    }

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_per_profile_constants(self, m):
        assert profile_constants(m) == self.EXPECTED[m]

    @pytest.mark.parametrize("m", [2, 3])
    def test_two_block_maximum_is_the_exhaustive_constant(self, m):
        two_blocks = max(c for profile, c in profile_constants(m).items() if len(profile) == 2)
        assert corollary2_exhaustive(m).empirical_constant == two_blocks


class TestTightnessScan:
    def test_pinned_rows(self):
        rows = tightness_scan(3)
        assert [(m, r.var_f, r.cross_weight, r.dist) for m, r in enumerate(rows, 1)] == [
            (1, F(3, 4), F(1, 4), F(1, 2)),
            (2, F(63, 64), F(9, 64), F(9, 16)),
            (3, F(735, 1024), F(49, 1024), F(49, 128)),
        ]

    def test_brackets_hold_through_m6(self):
        rows = tightness_scan(6)
        for m, row in enumerate(rows[1:], 2):
            assert F(1, 8) <= (row.cross_weight / row.var_f) * 2**m <= 32
            assert F(1, 8) <= row.dist * 2**m <= 32

    @pytest.mark.parametrize(
        "skew, match",
        [
            (lambda r: {"cross_weight": 1000 * r.cross_weight}, "^m=1: cross weight 250 != 1/4$"),
            # dist is the least block distance
            (
                lambda r: {"block_dists": tuple(1000 * d for d in r.block_dists)},
                "^m=1: distance 500 != 1/2$",
            ),
        ],
        ids=["cross_weight", "dist"],
    )
    def test_a_value_outside_its_bracket_raises(self, monkeypatch, skew, match):
        real = sweep_module.corollary2_apply

        def scaled(f, partition):
            outcome = real(f, partition)
            return replace(outcome, **skew(outcome))

        monkeypatch.setattr(sweep_module, "corollary2_apply", scaled)
        with pytest.raises(VerificationError, match=match):
            tightness_scan(2)

    def test_range_validation(self):
        with pytest.raises(StructureError):
            tightness_scan(0)
        with pytest.raises(StructureError):
            tightness_scan(14)


class TestConjectureProbe:
    def test_tribes_recovers_composition(self):
        f, partition = tribes_example(2)
        g, hs, dist = conjecture_probe(f, partition)
        assert dist == 0
        # blocks feed an OR (-1 true) of two ANDs
        assert list(g.table) == [1, -1, -1, -1]
        for h in hs:
            assert list(h.table) == [1, 1, 1, -1]

    def test_dictator_projection(self):
        f = BooleanFunction(2, [1, -1, 1, -1])
        partition = Partition.from_blocks(2, [[1], [2]])
        _, _, dist = conjecture_probe(f, partition)
        assert dist == 0

    def test_cross_block_parity(self):
        table = [1 - 2 * (bin(x).count("1") % 2) for x in range(16)]
        f = BooleanFunction(4, table)
        partition = Partition.from_blocks(4, [[1, 2], [3, 4]])
        g, hs, dist = conjecture_probe(f, partition)
        assert dist == 0
        assert list(g.table) == [1, -1, -1, 1]  # parity of the block outputs

    def test_budget_guard(self):
        f, partition = tribes_example(3)
        with pytest.raises(SearchSpaceError):
            conjecture_probe(f, partition, budget=10)

    def test_block_size_guard(self):
        f, partition = tribes_example(4)
        with pytest.raises(SearchSpaceError):
            conjecture_probe(f, partition)

    def test_partition_over_another_m(self):
        f = BooleanFunction(2, [1, -1, 1, -1])
        with pytest.raises(StructureError, match="^partition does not match the function$"):
            conjecture_probe(f, Partition.from_blocks(3, [[1], [2, 3]]))


class TestConfigParsing:
    def test_round_trip_keys(self):
        settings = read_settings(
            """
            # demo config
            target=lemma7
            n=123
            seed=9
            support_max=4
            value_lo=-2
            value_hi=5/2
            include_claim6=true
            k0=4/3
            """
        )
        cfg = config_from_settings(settings)
        assert cfg.target == "lemma7"
        assert cfg.n == 123
        assert cfg.seed == 9
        assert cfg.support_max == 4
        assert cfg.value_lo == -2 and cfg.value_hi == F(5, 2)
        assert cfg.include_claim6 is True
        assert cfg.constants.k0 == F(4, 3)
        assert cfg.constants.k1 == 20480

    def test_unknown_key(self):
        with pytest.raises(ParseError) as info:
            config_from_settings(read_settings("target=lemma7\nbogus=1\n"))
        assert info.value.line == 2

    def test_missing_target(self):
        with pytest.raises(StructureError):
            config_from_settings(read_settings("n=10\n"))

    def test_nonpositive_constant(self):
        with pytest.raises(StructureError, match="constants must be positive"):
            config_from_settings(read_settings("target=lemma7\nk0=0\n"))

    def test_config_validation(self):
        with pytest.raises(StructureError):
            SweepConfig(target="nope")
        with pytest.raises(StructureError):
            SweepConfig(target="lemma7", n=0)
        with pytest.raises(StructureError):
            SweepConfig(target="lemma7", value_lo=F(2), value_hi=F(2))
        # atom_cap < 1 used to send every instance into AtomLimitError
        with pytest.raises(StructureError, match="atom_cap"):
            SweepConfig(target="theorem1", atom_cap=0)
        with pytest.raises(StructureError, match="atom_cap"):
            config_from_settings(read_settings("target=lemma4\natom_cap=-4\n"))

    @pytest.mark.parametrize("m", [-1, 1, 5])
    def test_exhaustive_m_range(self, m):
        with pytest.raises(StructureError, match="exhaustive_m"):
            SweepConfig(target="corollary2", exhaustive_m=m)
        with pytest.raises(StructureError, match="exhaustive_m"):
            config_from_settings(read_settings(f"target=corollary2\nexhaustive_m={m}\n"))

    def test_settings_then_config(self):
        settings = read_settings("target=lemma4\nn=5\nk1=7\nseed=3\n")
        assert settings == {"target": "lemma4", "n": 5, "k1": F(7), "seed": 3}
        cfg = config_from_settings(settings)
        assert (cfg.n, cfg.seed, cfg.constants.k1) == (5, 3, 7)
        assert cfg.constants.k0 == 4
        with pytest.raises(StructureError, match="target"):
            config_from_settings({"n": 5})
        # n is the one spelling of the instance count
        with pytest.raises(ParseError, match="^line 2: unknown key 'instance_count'$") as info:
            read_settings("target=lemma4\ninstance_count=5\n")
        assert info.value.line == 2

    # one value off the default for each config key but target, valid by itself
    ONE_OFF = {
        "n": ("5", 5),
        "seed": ("1", 1),
        "support_min": ("2", 2),
        "support_max": ("4", 4),
        "value_lo": ("-2", F(-2)),
        "value_hi": ("5/2", F(5, 2)),
        "denom_cap": ("6", 6),
        "k0": ("4/3", F(4, 3)),
        "k1": ("7", F(7)),
        "k2": ("1/16", F(1, 16)),
        "include_claim6": ("true", True),
        "exhaustive_m": ("4", 4),
        "rv_count_max": ("3", 3),
        "atom_cap": ("100", 100),
    }

    def test_fields_are_the_config_keys(self):
        names = [f.name for f in fields(SweepConfig)]
        assert names == list(sweep_module._CONFIG_KEYS) == ["target", *self.ONE_OFF]

    @pytest.mark.parametrize("key", ONE_OFF)
    @pytest.mark.parametrize("target", TARGETS)
    def test_constructor_and_config_file_apply_one_reads_rule(self, target, key):
        # the constructor used to check no constant: a Constants is not a setting
        text, value = self.ONE_OFF[key]

        def outcome(build):
            try:
                return build()
            except StructureError as exc:
                return str(exc)

        built = outcome(lambda: SweepConfig(target=target, **{key: value}))
        config = f"target={target}\n{key}={text}\n"
        assert built == outcome(lambda: config_from_settings(read_settings(config)))
        if key in TARGETS[target].reads:
            assert getattr(built, key) == value
        else:
            assert built == f"{target} does not read {key}"

    def test_key_given_twice(self):
        # the second n used to replace the first, so the sweep ran 7 instances
        with pytest.raises(ParseError, match="line 3: n given twice"):
            read_settings("target=lemma4\nn=5\nN=7\n")

    def test_support_bounds_out_of_order(self):
        with pytest.raises(StructureError, match="^need 1 <= support_min <= support_max$"):
            SweepConfig(target="lemma4", support_min=3, support_max=2)

    def test_a_value_range_with_no_multiple_of_the_cap_is_refused_once(self, monkeypatch):
        # refused by the config, before any value is drawn
        drawn = []
        real = sweep_module._draw_ratio
        monkeypatch.setattr(sweep_module, "_draw_ratio", lambda *a: drawn.append(a) or real(*a))
        with pytest.raises(StructureError, match=r"^no multiple of 1/5 in \[1/3, 7/20\]$"):
            SweepConfig(target="lemma4", value_lo=F(1, 3), value_hi=F(7, 20), denom_cap=5)
        assert drawn == []
        # the same range holds a multiple of 1/6, and the defaults always pass
        SweepConfig(target="lemma4", value_lo=F(1, 3), value_hi=F(7, 20), denom_cap=6)
        SweepConfig(target="corollary2")

    def test_a_sweep_builds_its_value_grid_once(self, monkeypatch):
        # 50 lemma7 instances draw 100 variables and 50 shifts E, all on the config's grid
        built = []
        real = sweep_module._value_grid
        monkeypatch.setattr(sweep_module, "_value_grid", lambda *a: built.append(a) or real(*a))
        result = run_sweep(SweepConfig(target="lemma7", n=50))
        assert result.instances_run == 50
        assert built == [(F(-3), F(3), 12)]

    def test_a_settings_line_needs_an_equals_sign(self):
        with pytest.raises(ParseError, match="^line 2: expected key=value, got 'n 5'$") as info:
            read_settings("target=lemma4\nn 5\n")
        assert info.value.line == 2

    def test_rv_count_max_below_two(self):
        # used to reach theorem1's generator and end in a ValueError traceback
        with pytest.raises(StructureError, match="rv_count_max"):
            config_from_settings(read_settings("target=theorem1\nrv_count_max=1\n"))
