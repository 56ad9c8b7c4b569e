"""Enumeration and randomized sweep engine for the inequality evaluators.

All generated instances are exact rationals with bounded denominators, so a
reported violation is a real violation and never a rounding artifact.  Every
sweep is a deterministic function of its config: instance i draws from its
own RNG stream derived from (seed, i), which keeps results independent of
evaluation order.  Seeds are 32-bit, so no two seeds share a stream.
Every bounded integer is one `_below` draw straight from `getrandbits`, word
for word as `random.Random.randint` draws it (and a variable's mass cuts as
`random.Random.sample` draws them), and the reports are folded on integer
cross products of their sides.

Every target lives in one `Target` entry of TARGETS: adding an inequality
means adding one entry there, and both `fknlab sweep` and `fknlab check`
pick it up, `check` through the entry's `check` and `files`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from . import cube
from .bounds import (
    DEFAULT_CONSTANTS,
    BoundReport,
    Constants,
    CorollaryReport,
    TwoPointBalancedRV,
    claim6_example,
    claim8_check,
    claim9_bound,
    corollary2_apply,
    lemma4_bound,
    lemma5_bound,
    lemma7_bound,
    theorem1_check,
    tribes_example,
)
from .cube import (
    BooleanFunction,
    Partition,
    RealFunction,
    _frozen,
    boolean_tables,
    data_lines,
    format_partition,
    format_table_rows,
    parse_fraction,
    stack_block_weights,
)
from .errors import (
    FknLabError,
    ParseError,
    SearchSpaceError,
    StructureError,
    VerificationError,
)
from .rv import DEFAULT_ATOM_CAP, DiscreteRV, _exact_field, _q, center


@dataclass(frozen=True)
class SweepConfig:
    target: str
    instance_count: int = 10_000
    seed: int = 0
    support_min: int = 1
    support_max: int = 5
    value_lo: Fraction = Fraction(-3)
    value_hi: Fraction = Fraction(3)
    denom_cap: int = 12
    constants: Constants = DEFAULT_CONSTANTS
    include_claim6: bool = False
    exhaustive_m: int = 3
    rv_count_max: int = 4
    atom_cap: int = DEFAULT_ATOM_CAP

    def __post_init__(self):
        # the reads rule first, on every non-default setting (one Constants serves all)
        changed = [f.name for f in fields(self) if getattr(self, f.name) != f.default]
        check_reads(self.target, ["n" if name == "instance_count" else name for name in changed])
        if self.instance_count < 1:
            raise StructureError("n must be >= 1")
        _check_seed(self.seed)
        if not 1 <= self.support_min <= self.support_max:
            raise StructureError("need 1 <= support_min <= support_max")
        if _exact_field(self, "value_lo") >= _exact_field(self, "value_hi"):
            raise StructureError("value grid is empty")
        need = max(2, self.support_max) if "support_max" in TARGETS[self.target].reads else 2
        if self.denom_cap < need:
            raise StructureError(f"denom_cap must be >= {need}")
        _cap_grid(self.value_lo, self.value_hi, self.denom_cap)  # one error, not one per instance
        if self.rv_count_max < 2:
            raise StructureError("rv_count_max must be >= 2 (theorem1 sums at least two)")
        if self.atom_cap < 1:
            raise StructureError("atom_cap must be >= 1")
        if not 2 <= self.exhaustive_m <= 4:
            raise StructureError("exhaustive_m must lie in 2..4")


@dataclass(frozen=True)
class SweepResult:
    target: str
    instances_run: int
    violations: tuple[str, ...]
    min_ratio: Fraction | None
    min_ratio_witness: str | None
    empirical_constant: Fraction | None
    errors: tuple[tuple[int, str], ...] = ()


SEED_MAX = 0xFFFFFFFF


def _check_seed(seed: int) -> None:
    """Seeds are 32-bit: _rng_for shifts the seed above 40 bits of instance
    index, so two seeds in this range never share a stream."""
    if not 0 <= seed <= SEED_MAX:
        raise StructureError(f"seed must lie in 0..{SEED_MAX}")


def _rng_for(seed: int, index: int) -> random.Random:
    return random.Random((seed << 40) ^ (index + 1))


def _below(draw: Callable[[int], int], n: int) -> int:
    """The one bounded draw: a `draw` (getrandbits) word below n >= 1, drawn as
    random's _randbelow draws it: k = n.bit_length() bits, redrawn while >= n."""
    k = n.bit_length()
    r = draw(k)
    while r >= n:
        r = draw(k)
    return r


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi) with the same draws: lo plus the one draw `_below` of
    n = hi - lo + 1."""
    n = hi - lo + 1
    if n <= 0:  # no word is below n: the draw would never end
        raise StructureError(f"empty range {lo}..{hi}")
    return lo + _below(rng.getrandbits, n)


def enumerate_boolean_functions(m: int) -> Iterator[BooleanFunction]:
    """All 2^(2^m) truth tables on m = 1..4 variables, one per row of
    `boolean_tables(m)`, in its table-integer order."""
    return (BooleanFunction(m, table) for table in boolean_tables(m))


def _cap_grid(lo: Fraction, hi: Fraction, cap: int) -> tuple[int, int]:
    """ceil(lo cap) and floor(hi cap), the numerators of the least and the
    greatest multiple of 1/cap in [lo, hi]; a range with none is refused."""
    cap_lo, cap_hi = -(-lo.numerator * cap // lo.denominator), hi.numerator * cap // hi.denominator
    if cap_lo > cap_hi:
        raise StructureError(f"no multiple of 1/{cap} in [{lo}, {hi}]")
    return cap_lo, cap_hi


def _ratio_drawer(
    rng: random.Random, lo: Fraction, hi: Fraction, cap: int
) -> Callable[[], tuple[int, int]]:
    """Draws (numerator, denominator) of a random rational in [lo, hi], not
    reduced: the denominator drawn in 1..cap, or cap when no multiple of its
    inverse lies in [lo, hi], then the numerator, each with the words of
    rng.randint.  The bounds are read once per drawer, not once per draw, and
    a range with no multiple of 1/cap is refused then, before any draw."""
    if cap < 1:  # no word is below cap: the first draw would never end
        raise StructureError(f"empty range 1..{cap}")
    lo_n, lo_d, hi_n, hi_d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    cap_lo, cap_hi = _cap_grid(lo, hi, cap)
    draw = rng.getrandbits

    def ratio() -> tuple[int, int]:
        den = _below(draw, cap) + 1
        lo_num, hi_num = -(-lo_n * den // lo_d), hi_n * den // hi_d
        if lo_num > hi_num:
            den, lo_num, hi_num = cap, cap_lo, cap_hi
        return lo_num + _below(draw, hi_num - lo_num + 1), den

    return ratio


def random_rv(
    support_size: int,
    seed: int,
    value_range: tuple[Fraction, Fraction] = (Fraction(-3), Fraction(3)),
    denom_cap: int = 12,
) -> DiscreteRV:
    """Deterministic random variable: distinct bounded-denominator values and
    probabilities k/D with D <= denom_cap."""
    _check_seed(seed)
    return _random_rv(_rng_for(seed, 0), support_size, value_range, denom_cap)


def _random_rv(
    rng: random.Random,
    support_size: int,
    value_range: tuple[Fraction, Fraction],
    denom_cap: int,
) -> DiscreteRV:
    """The draws mirror `random.Random`, word for word: each value is a
    `_ratio_drawer` draw, kept in lowest terms until support_size distinct
    ones are drawn, then D = randint(support_size, max(denom_cap,
    support_size)) and the masses are the gaps between the sorted cuts
    `rng.sample(range(1, D), support_size - 1)` (`_sample_cuts`).

    The variable is built canonical: over scale = lcm of the value
    denominators, distinct reduced values already have gcd(scale, *values)
    = 1, so only the masses are divided by their gcd.
    """
    if support_size < 1:
        raise StructureError("support_size must be >= 1")
    ratio = _ratio_drawer(rng, _q(value_range[0]), _q(value_range[1]), denom_cap)
    values: set[tuple[int, int]] = set()  # (numerator, denominator) in lowest terms
    attempts = 0
    while len(values) < support_size:
        num, den = ratio()
        g = math.gcd(num, den)
        values.add((num // g, den // g))
        attempts += 1
        if attempts > 1000 * support_size:
            raise StructureError("value grid too small for requested support")
    if support_size == 1:
        ((num, den),) = values
        return DiscreteRV((num,), (1,), den)
    d = _randint(rng, support_size, max(denom_cap, support_size))
    cuts = _sample_cuts(rng, d, support_size - 1)
    masses = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    h = math.gcd(*masses)
    scale = math.lcm(*(den for _, den in values))
    scaled = sorted(num * (scale // den) for num, den in values)
    return DiscreteRV(tuple(scaled), tuple(m // h for m in masses), scale, d // h)


def _sample_cuts(rng: random.Random, d: int, k: int) -> list[int]:
    """sorted(rng.sample(range(1, d), k)) with the same getrandbits words.
    While the population n = d - 1 fits sample's small-set size, sample
    swap-removes from a pool, drawn here without its per-draw frames; past
    it, sample itself runs its set route."""
    n, draw = d - 1, rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize:
        return sorted(rng.sample(range(1, d), k))
    pool, cuts = list(range(1, d)), []
    for size in range(n, n - k, -1):
        j = _below(draw, size)
        cuts.append(pool[j])
        pool[j] = pool[size - 1]
    cuts.sort()
    return cuts


def random_real_function(m: int, seed: int) -> RealFunction:
    """Random dyadic table: entries k/16 with |k| <= 32."""
    _check_seed(seed)
    return RealFunction(m, _random_numerators(_rng_for(seed, 0), m), 4)


def _random_numerators(rng: random.Random, m: int) -> list[int]:
    """The 2^m numerators of a random table, each uniform on -32..32:
    `_randint(rng, -32, 32)` for each entry."""
    draw = rng.getrandbits
    return [_below(draw, 65) - 32 for _ in range(1 << m)]


def _random_raw(rng: random.Random, cfg: SweepConfig) -> DiscreteRV:
    size = _randint(rng, cfg.support_min, cfg.support_max)
    return _random_rv(rng, size, (cfg.value_lo, cfg.value_hi), cfg.denom_cap)


def _claim8_instance(
    rng: random.Random, case: int, cfg: SweepConfig
) -> tuple[Fraction, Fraction, TwoPointBalancedRV]:
    """Stratified (x1, x2, Y) generator covering the four case-analysis
    regions of the quarter-gap claim, boundaries included."""
    cap = cfg.denom_cap
    if rng.random() < 0.0625:
        d = Fraction(0)
    else:
        den = _randint(rng, 1, cap)
        d = Fraction(_randint(rng, 1, 3 * den), den)
    if case == 0:  # p >= 1/2
        if rng.random() < 0.125:
            p = Fraction(1, 2)
        else:
            b = _randint(rng, 2, cap)
            p = Fraction(_randint(rng, -(-b // 2), b - 1), b)
    elif case == 1:  # 1/4 <= p < 1/2
        if rng.random() < 0.125:
            p = Fraction(1, 4)
        else:
            b = _randint(rng, 4, max(4, cap))
            p = Fraction(_randint(rng, -(-b // 4), -(-b // 2) - 1), b)
    else:  # p < 1/4
        b = _randint(rng, 5, max(5, cap))
        p = Fraction(_randint(rng, 1, -(-b // 4) - 1), b)
    ybar = TwoPointBalancedRV(d, p)
    if case <= 1:
        den = _randint(rng, 1, cap)
        x1 = Fraction(_randint(rng, 0, 3 * den), den)
    else:
        boundary = 2 * d / (1 - p)
        den = _randint(rng, 1, cap)
        if case == 2:  # x1 <= 2d/(1-p), endpoint included
            x1 = boundary * Fraction(_randint(rng, 0, den), den)
        else:  # x1 > 2d/(1-p)
            x1 = boundary + Fraction(_randint(rng, 1, 3 * den), den)
    den = _randint(rng, 1, cap)
    x2 = x1 * Fraction(_randint(rng, 0, den), den)
    if rng.random() < 0.5:
        x2 = -x2
    return x1, x2, ybar


Instance = Callable[[random.Random, SweepConfig, int], BoundReport]
PairEvaluator = Callable[[DiscreteRV, DiscreteRV, Fraction, Constants, int], BoundReport]
Check = Callable[[list[DiscreteRV], dict[str, object], Constants], BoundReport]
Scale = Callable[[Constants], Fraction]


@dataclass(frozen=True)
class Target:
    """One inequality the sweep and the CLI know about.

    instance(rng, cfg, index) draws and evaluates one instance; it is None for
    an exhaustive target.  scale(constants) is the constant the right side is
    divided by (None if none), so the smallest one that would have sufficed is
    scale * rhs / lhs.  check(xs, given, constants), None if absent, evaluates
    it on `files` random variables xs (0: two or more) and the check settings
    given (E, default 0, x1, x2).  reads: every setting (SETTINGS) it uses, no other.
    """

    instance: Instance | None
    scale: Scale | None
    check: Check | None = None
    files: int = 0
    reads: frozenset[str] = frozenset()


def _with_inputs(report: BoundReport, inputs: dict[str, object]) -> BoundReport:
    return BoundReport(report.lhs, report.rhs, {**inputs, **report.witness})


# Randomized targets read n and seed; those that draw and convolve variables, their settings too.
_DRAWN = frozenset({"n", "seed"})
_RV = _DRAWN | {"support_min", "support_max", "value_lo", "value_hi", "denom_cap", "atom_cap"}


def _pair_target(pair: PairEvaluator, scale: Scale, reads: set[str]) -> Target:
    """Two random variables per instance; a target that reads E centers both
    and draws a shift E as well.  Only these targets read include_claim6."""

    def instance(rng, cfg, index):
        e = Fraction(0)
        if cfg.include_claim6 and index == 0:
            x, y = claim6_example()
        else:
            x, y = _random_raw(rng, cfg), _random_raw(rng, cfg)
            if "E" in reads:
                x, y = center(x), center(y)
                e = Fraction(*_ratio_drawer(rng, cfg.value_lo, cfg.value_hi, cfg.denom_cap)())
        report = pair(x, y, e, cfg.constants, cfg.atom_cap)
        return _with_inputs(report, {"x": x, "y": y})

    def check(xs, given, constants):
        return pair(*xs, given.get("E", Fraction(0)), constants, DEFAULT_ATOM_CAP)

    return Target(instance, scale, check, 2, _RV | {"include_claim6", *reads})


def _claim8_target(rng, cfg, index):
    x1, x2, ybar = _claim8_instance(rng, index % 4, cfg)
    report = claim8_check(x1, x2, ybar)
    return _with_inputs(report, {"case": index % 4})


def _claim8_check(xs, given, constants):
    if "x1" not in given or "x2" not in given:
        raise StructureError("claim8 requires --x1 and --x2")
    return claim8_check(given["x1"], given["x2"], TwoPointBalancedRV.from_rv(xs[0]))


def _theorem1_target(rng, cfg, index):
    xs = [_random_raw(rng, cfg) for _ in range(_randint(rng, 2, cfg.rv_count_max))]
    report = theorem1_check(xs, cfg.constants, cfg.atom_cap)
    return _with_inputs(report, {f"x{i}": x for i, x in enumerate(xs)})


# fact1 and fact8 draw the tables of `random_real_function` (numerators over
# 2^4) as numerator lists and sum on them, with no RealFunction: with n = 2^m,
# cube.sq_l2_dist is D(a, b) / (n 2^8) and cube.variance is V(a) / (n^2 2^8).
def _sq_dist(a: list[int], b: list[int]) -> int:
    """D(a, b) = sum_x (a_x - b_x)^2."""
    return sum([(x - y) * (x - y) for x, y in zip(a, b)])


def _spread(a: list[int]) -> int:
    """V(a) = n sum_x a_x^2 - (sum_x a_x)^2."""
    total = sum(a)
    return len(a) * sum([x * x for x in a]) - total * total


def _fact1_target(rng, cfg, index):
    m = _randint(rng, 1, 3)
    f, g, h = (_random_numerators(rng, m) for _ in range(3))
    lhs = Fraction(_sq_dist(f, g) + _sq_dist(g, h), 1 << m + 8)
    return BoundReport(lhs, Fraction(_sq_dist(f, h), 1 << m + 9), {"m": m})


def _fact8_target(rng, cfg, index):
    m = _randint(rng, 1, 3)
    f, g = (_random_numerators(rng, m) for _ in range(2))
    n = 1 << m
    lhs = Fraction(_spread(f), n * n << 8)
    rhs = Fraction(_spread(g) - 2 * n * _sq_dist(f, g), n * n << 9)
    return BoundReport(lhs, rhs, {"m": m})


def _corollary2_report(
    table: str, partition: str, k: int, bound: Fraction, dist: Fraction, epsilon: Fraction
) -> BoundReport:
    """lhs = bound = (K2+2) epsilon, rhs = dist, so (K2+2) rhs / lhs is dist/epsilon."""
    witness = {"table": table, "partition": partition, "k": k, "epsilon": epsilon}
    return BoundReport(bound, dist, witness)


# Evaluators are called through this module's globals, never stored, so a
# wrapper installed on the module (a tracer, a test double) sees every call.
TARGETS: dict[str, Target] = {
    "fact1": Target(_fact1_target, lambda c: 2, reads=_DRAWN),
    "fact8": Target(_fact8_target, None, reads=_DRAWN),
    "lemma4": _pair_target(lambda x, y, e, c, a: lemma4_bound(x, y, c, a), lambda c: c.k1, {"k1"}),
    "lemma5": _pair_target(lambda x, y, e, c, a: lemma5_bound(x, y, c, a), lambda c: c.k0, {"k0"}),
    "lemma7": _pair_target(
        lambda x, y, e, c, a: lemma7_bound(x, y, e, c, a), lambda c: c.k0, {"E", "k0"}
    ),
    "claim8": Target(
        _claim8_target, lambda c: 4, _claim8_check, 1, _DRAWN | {"denom_cap", "x1", "x2"}
    ),
    "claim9": _pair_target(lambda x, y, e, c, a: claim9_bound(x, y, e, a), lambda c: 16, {"E"}),
    "theorem1": Target(
        _theorem1_target,
        lambda c: c.k2,
        lambda xs, given, c: theorem1_check(xs, c),
        reads=_RV | {"rv_count_max", "k2"},
    ),
    "corollary2": Target(None, lambda c: c.corollary_k, reads=frozenset({"exhaustive_m", "k2"})),
}


def check_reads(target: str, names: Iterable[str]) -> None:
    """The one rule for every setting in SETTINGS: one `target` does not read is an error."""
    if target not in TARGETS:
        raise StructureError(f"unknown target {target!r}; one of {tuple(TARGETS)}")
    for name in names:
        if name in SETTINGS and name not in TARGETS[target].reads:
            raise StructureError(f"{target} does not read {name}")


def read_constants(target: str, settings: dict[str, object]) -> Constants:
    """Constants from the k0..k2 entries of `settings`, after check_reads."""
    check_reads(target, settings)
    constants = {k: settings[k] for k in ("k0", "k1", "k2") if k in settings}
    return replace(DEFAULT_CONSTANTS, **constants)


OnRow = Callable[[list[str]], object]


def _line(i: int, report: BoundReport, violation: bool) -> str:
    """How a result names instance i: a violation with its sides."""
    head = f"instance={i} lhs={report.lhs} rhs={report.rhs}" if violation else f"instance={i}"
    return f"{head} {report.witness_text()}"


def _constant(
    scale: Fraction | None, min_ratio: Fraction | None, evaluated: bool
) -> Fraction | None:
    """The empirical constant, the largest scale * rhs / lhs, is scale / min_ratio:
    None without a scale, when no instance was evaluated, or when min_ratio is
    0 (lhs 0 < rhs), and 0 when no rhs is positive (min_ratio None)."""
    if scale is None or not evaluated or min_ratio == 0:
        return None
    return Fraction(0) if min_ratio is None else scale / min_ratio


def _fold(
    name: str,
    sides: Iterable[tuple[int, int, int]],
    report: Callable[[int], BoundReport],
    scale: Fraction | None,
    errors: list[tuple[int, str]],
) -> SweepResult:
    """The one sweep fold, on integers: each (i, a, b) of `sides` is an evaluated
    instance with lhs/rhs = a/b and b of the sign of rhs, and `errors` holds
    every instance that raised once `sides` ends.  A violation has a < b, a
    ratio needs b > 0, and one running minimum a_min/b_min is kept by cross
    multiplication, its first instance the witness.  `report(i)`, asked while
    i is the latest side, and only for a violation or a new minimum, is
    checked: a flagged report must fail, the witness's ratio must be the
    minimum.  `_constant` takes the empirical constant from that minimum."""
    violations: list[str] = []
    a_min, b_min = 1, 0  # 1/0: above every ratio, so the first b > 0 replaces it
    least: tuple[int, BoundReport] | None = None  # its line is written once, at the end
    evaluated = 0
    for i, a, b in sides:
        evaluated += 1
        lower = b > 0 and a * b_min < a_min * b  # strict: the first of equal ratios stays
        if a < b or lower:
            named = report(i)
            if a < b:
                if named.holds:
                    raise VerificationError(f"instance {i}: the fold flags a bound that holds")
                violations.append(_line(i, named, violation=True))
            if lower:
                a_min, b_min, least = a, b, (i, named)
    min_ratio = None if least is None else Fraction(a_min, b_min)
    if least is not None and least[1].ratio != min_ratio:
        raise VerificationError(f"batch min ratio {min_ratio} not confirmed")
    return SweepResult(
        target=name,
        instances_run=evaluated + len(errors),
        violations=tuple(violations),
        min_ratio=min_ratio,
        min_ratio_witness=None if least is None else _line(*least, violation=False),
        empirical_constant=_constant(scale, min_ratio, evaluated > 0),
        errors=tuple(errors),
    )


def _accumulate(
    name: str,
    cases: Iterable[Callable[[], BoundReport]],
    scale: Fraction | None,
    on_row: OnRow | None = None,
) -> SweepResult:
    """Evaluate every case in order and `_fold` the reports, handing each
    evaluated instance's CSV row to `on_row` as it comes.  A package error
    (FknLabError) is recorded as that instance's error; a VerificationError
    or any other exception is a bug and propagates.  A report folds as a =
    lhs.numerator * rhs.denominator and b = rhs.numerator * lhs.denominator:
    denominators are positive, so lhs/rhs is a/b."""
    errors: list[tuple[int, str]] = []
    report: BoundReport | None = None  # the latest evaluated case's

    def sides() -> Iterator[tuple[int, int, int]]:
        nonlocal report
        for i, case in enumerate(cases):
            try:
                report = case()
            except VerificationError:
                raise
            except FknLabError as exc:
                errors.append((i, f"{type(exc).__name__}: {exc}"))
                continue
            if on_row is not None:
                on_row(report.csv_row(i))
            lhs, rhs = report.lhs, report.rhs
            yield i, lhs.numerator * rhs.denominator, rhs.numerator * lhs.denominator

    return _fold(name, sides(), lambda i: report, scale, errors)


def run_sweep(cfg: SweepConfig, on_row: OnRow | None = None) -> SweepResult:
    """Evaluate cfg.target on every generated instance, exact throughout;
    each instance's CSV row goes to `on_row` as it is evaluated."""
    target = TARGETS[cfg.target]
    if target.instance is None:
        return corollary2_exhaustive(cfg.exhaustive_m, cfg.constants, on_row)
    n = cfg.instance_count + int(cfg.include_claim6)  # the claim6 pair comes first
    cases = (functools.partial(target.instance, _rng_for(cfg.seed, i), cfg, i) for i in range(n))
    scale = None if target.scale is None else target.scale(cfg.constants)
    return _accumulate(cfg.target, cases, scale, on_row)


def empirical_constant(target: str, cfg: SweepConfig) -> Fraction:
    """Smallest constant that would make `target` hold on the instances cfg
    draws, retargeted to `target` (scale / min lhs/rhs; instances with rhs 0
    skipped, 0 if all are)."""
    if cfg.target != target:
        cfg = replace(cfg, target=target)
    if TARGETS[target].scale is None:
        raise StructureError(f"{target!r} is not a ratio-form inequality")
    result = run_sweep(cfg)
    if result.errors:  # package errors from the inputs; a VerificationError never gets here
        index, message = result.errors[0]
        raise StructureError(
            f"cannot estimate the constant: errors={len(result.errors)},"
            f" first at instance {index}: {message}"
        )
    if result.empirical_constant is None:  # the smallest ratio is 0
        raise StructureError(f"no constant fits lhs 0 < rhs at {result.min_ratio_witness}")
    return result.empirical_constant


def two_block_partitions(m: int) -> Iterator[Partition]:
    """All partitions of {1..m} into exactly two nonempty blocks."""
    full = (1 << m) - 1
    for mask in range(1, full):
        if mask < (full ^ mask):
            continue  # each {A, B} pair visited once, via its larger mask
        yield Partition.from_blocks(
            m,
            [
                [i + 1 for i in range(m) if not (mask >> i) & 1],
                [i + 1 for i in range(m) if (mask >> i) & 1],
            ],
        )


def corollary2_exhaustive(
    m: int, constants: Constants = DEFAULT_CONSTANTS, on_row: OnRow | None = None
) -> SweepResult:
    """Check the partition corollary on every non-constant function on m = 2..4
    variables against every 2-block partition; also records the largest
    observed dist/epsilon, an empirical constant for two blocks only: 2 at
    m=3, while its witness ---+-+++ has dist/epsilon 3 against 1|2|3.

    One `stack_block_weights` call weighs the stack of tables against every
    partition; instance i is table i // P and partition i % P (P partitions).
    With K2+2 = p/q its lhs/rhs is a/b, a = p cross 4^m and b = q Var f dist,
    and `_fold` folds those sides; with `on_row`, each CSV row gets a report.
    Every instance the fold asks about is then rechecked: one more kernel
    call, through `cube`'s binding, weighs their tables, and each report made
    from it must equal the fold's by value.  That confirms which table and
    partition each row holds and the fold; the kernel's arithmetic is
    refereed by its per-row identities and by the `naive_fourier` tests.
    """
    if not 2 <= m <= 4:
        raise StructureError("exhaustive check supported only for 2 <= m <= 4")
    tables = boolean_tables(m)[1:-1]  # the two constant tables come first and last
    partitions = list(two_block_partitions(m))
    scale = TARGETS["corollary2"].scale(constants)
    rows, texts = format_table_rows(tables), [format_partition(p) for p in partitions]
    count = len(partitions)

    @functools.cache  # few distinct numerators: each Fraction is built once
    def fractions(var: int, cross: int, dist: int) -> tuple[Fraction, Fraction, Fraction]:
        epsilon = Fraction(cross, var)
        return scale * epsilon, Fraction(dist, 1 << 2 * m), epsilon

    def reports(rows, var, weights) -> tuple[Callable[[int], BoundReport], list[int], list[int]]:
        """report(i) on one kernel call's output for the tables of `rows`, and
        the sides cross 4^m and Var f dist of each instance."""
        # one column per partition: the first nearest block, as corollary2_apply picks it
        k = np.stack([dists.argmin(axis=1) for _, dists in weights], axis=1)
        dist = np.stack([dists.min(axis=1) for _, dists in weights], axis=1)
        cross = np.stack([c for c, _ in weights], axis=1)

        def report(i: int) -> BoundReport:
            t, p = divmod(i, count)
            sides = fractions(int(var[t]), int(cross[t, p]), int(dist[t, p]))
            return _corollary2_report(rows[t], texts[p], int(k[t, p]), *sides)

        a, b = cross << 2 * m, var[:, None] * dist  # int64: each factor is at most 4^m
        return report, a.ravel().tolist(), b.ravel().tolist()

    report, a, b = reports(rows, *stack_block_weights(tables, partitions))
    if on_row is not None:
        for i in range(len(a)):
            on_row(report(i).csv_row(i))
    num, den = scale.numerator, scale.denominator
    sides = zip(itertools.count(), [num * x for x in a], [den * y for y in b])
    named: dict[int, BoundReport] = {}  # each report the fold asks for
    result = _fold("corollary2", sides, lambda i: named.setdefault(i, report(i)), scale, [])
    at = [i // count for i in named]  # row j rechecks the j-th named instance
    again, _, _ = reports([rows[t] for t in at], *cube.stack_block_weights(tables[at], partitions))
    for j, (i, batch) in enumerate(named.items()):
        if (recheck := again(j * count + i % count)) != batch:
            # the lines show their sides for a violation, or when only the sides differ
            shown = not batch.holds or recheck.witness == batch.witness
            said, found = _line(i, batch, shown), _line(i, recheck, shown)
            raise VerificationError(f"batch reported {said!r}; the recheck gives {found!r}")
    return result


def tightness_scan(max_m: int) -> tuple[CorollaryReport, ...]:
    """corollary2_apply on the tribes table for m = 1..max_m, row i at m = i+1.

    Each report must equal tribes' closed forms, with q = 2^-m the chance
    that one block's AND is true and p = 2q - q^2 that f is: dist = 4q(1-q)^2,
    cross = 4q^2(1-q)^2, Var f = 4p(1-p) and dist/epsilon = 4(2-q)(1-q)^2.
    """
    if not 1 <= max_m <= 13:
        raise StructureError("tightness scan supports 1 <= max_m <= 13")
    rows = []
    for m in range(1, max_m + 1):
        outcome = corollary2_apply(*tribes_example(m))
        q = Fraction(1, 1 << m)
        p = 2 * q - q * q
        for name, value, expected in (
            ("distance", outcome.dist, 4 * q * (1 - q) ** 2),
            ("cross weight", outcome.cross_weight, 4 * q * q * (1 - q) ** 2),
            ("Var f", outcome.var_f, 4 * p * (1 - p)),
            ("dist/epsilon", outcome.dist / outcome.epsilon, 4 * (2 - q) * (1 - q) ** 2),
        ):
            if value != expected:
                raise VerificationError(f"m={m}: {name} {value} != {expected}")
        rows.append(outcome)
    return tuple(rows)


def conjecture_probe(
    f: BooleanFunction, partition: Partition, budget: int = 10**7
) -> tuple[BooleanFunction, list[BooleanFunction], Fraction]:
    """Exhaustive search for the best composition g(h_1, ..., h_n) of Boolean
    per-block functions approximating f.  Exploratory only: the result is a
    minimizer over a finite family and proves nothing beyond itself.

    g's j-th variable is the output of block j (blocks in partition order,
    variables inside a block in increasing order).
    """
    blocks = partition.blocks
    if len(blocks) > 4 or any(len(b) > 3 for b in blocks):
        raise SearchSpaceError("probe supports at most 4 blocks of at most 3 variables")
    if partition.m != f.m:
        raise StructureError("partition does not match the function")
    # each h is fixed to +1 at the all-(+1) point; g absorbs the lost signs
    combos = 1
    for b in blocks:
        combos *= 1 << ((1 << len(b)) - 1)
    if combos * (1 << f.m) > budget:
        raise SearchSpaceError(f"search touches {combos * (1 << f.m)} points (budget {budget})")
    points = np.arange(1 << f.m, dtype=np.int64)
    local_indices = []
    for block in blocks:
        local = np.zeros_like(points)
        for t, var in enumerate(sorted(block)):
            local |= ((points >> (var - 1)) & 1) << t
        local_indices.append(local)
    n_blocks = len(blocks)
    f_neg = f.table < 0
    best: tuple[Fraction, tuple[int, ...], np.ndarray] | None = None
    h_choices = [range(0, 1 << (1 << len(b)), 2) for b in blocks]
    for combo in itertools.product(*h_choices):
        z = np.zeros_like(points)
        for j, (t_j, local) in enumerate(zip(combo, local_indices)):
            z |= ((t_j >> local) & 1) << j
        neg_counts = np.bincount(z[f_neg], minlength=1 << n_blocks)
        pos_counts = np.bincount(z[~f_neg], minlength=1 << n_blocks)
        mismatches = np.minimum(neg_counts, pos_counts).sum()
        dist = Fraction(4 * int(mismatches), 1 << f.m)
        if best is None or dist < best[0]:
            # majority vote per fiber; ties and empty fibers resolve to +1
            g_table = np.where(neg_counts > pos_counts, -1, 1).astype(np.int8)
            best = (dist, combo, g_table)
            if dist == 0:
                break
    assert best is not None
    dist, combo, g_table = best
    hs = []
    for t_j, block in zip(combo, blocks):
        size = 1 << len(block)
        bits = (t_j >> np.arange(size, dtype=np.int64)) & 1
        hs.append(BooleanFunction(len(block), _frozen((1 - 2 * bits).astype(np.int8))))
    g = BooleanFunction(n_blocks, _frozen(g_table))
    return g, hs, dist


# ---------------------------------------------------------------------------
# key=value config files


def _config_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad integer {text!r}") from None


_CONFIG_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _config_bool(text: str) -> bool:
    try:
        return _CONFIG_BOOLS[text.lower()]
    except KeyError:
        raise ParseError(f"bad boolean {text!r}; use true/false/yes/no/1/0") from None


_CONFIG_KEYS: dict[str, Callable[[str], object]] = {
    "target": str,
    "n": _config_int,
    "seed": _config_int,
    "support_min": _config_int,
    "support_max": _config_int,
    "value_lo": parse_fraction,
    "value_hi": parse_fraction,
    "denom_cap": _config_int,
    "k0": parse_fraction,
    "k1": parse_fraction,
    "k2": parse_fraction,
    "include_claim6": _config_bool,
    "exhaustive_m": _config_int,
    "rv_count_max": _config_int,
    "atom_cap": _config_int,
}
# Every setting check_reads knows: the config keys, and check's E, x1, x2.
SETTINGS = (*(key for key in _CONFIG_KEYS if key != "target"), "E", "x1", "x2")


def read_settings(text: str) -> dict[str, object]:
    """Parse 'key=value' lines ('#' comments allowed), each key once, by _CONFIG_KEYS."""
    settings: dict[str, object] = {}
    for lineno, stripped in data_lines(text):
        if "=" not in stripped:
            raise StructureError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise StructureError(f"line {lineno}: unknown key {key!r}")
        if key in settings:
            raise ParseError(f"{key} given twice", lineno)
        try:
            settings[key] = _CONFIG_KEYS[key](value.strip())
        except ParseError as exc:
            raise ParseError(f"{key}: {exc}", lineno) from None
    return settings


def config_from_settings(settings: dict[str, object]) -> SweepConfig:
    """SweepConfig from settings (n sets instance_count), read_constants checking them first."""
    if "target" not in settings:
        raise StructureError("no sweep target given: need target=<name> or --target")
    constants = read_constants(settings["target"], settings)
    rename = {"n": "instance_count"}
    given = {rename.get(k, k): v for k, v in settings.items() if k not in ("k0", "k1", "k2")}
    return SweepConfig(**given, constants=constants)  # type: ignore[arg-type]


def parse_sweep_config(text: str) -> SweepConfig:
    """Build a SweepConfig from 'key=value' lines ('#' comments allowed)."""
    return config_from_settings(read_settings(text))
