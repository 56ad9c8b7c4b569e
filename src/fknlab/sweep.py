"""Enumeration and randomized sweep engine for the inequality evaluators.

All generated instances are exact rationals with bounded denominators, so a
reported violation is a real violation and never a rounding artifact.  Every
sweep is a deterministic function of its config: instance i draws from its
own RNG stream derived from (seed, i), which keeps results independent of
evaluation order.  Seeds are 32-bit and index + 1 stays below 2^40, so no two
seeds share a stream.  One generator per sweep is reseeded to each stream in
turn: an instance ends its draws before it returns, and its report builder
never draws.  A bounded integer is drawn from `getrandbits` word for word as
`_below` and `random.Random.randint` draw it (a variable's mass cuts as
`random.Random.sample` draws them).  Each instance yields integer sides
(a, b) with lhs/rhs = a/b, folded by cross multiplication, and the function
that builds its report: a report is built only for a line the sweep prints
and for a CSV row.

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
    np,
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
    """The sweep settings: each field is the config key of its name, parsed by
    its type (`_PARSERS`).  Every field off its default must be one the target
    reads, k0..k2 included.  `constants` is built from k0..k2 once, and `grid`
    (`_value_grid`) from value_lo, value_hi and denom_cap once."""

    target: str
    n: int = 10_000
    seed: int = 0
    support_min: int = 1
    support_max: int = 5
    value_lo: Fraction = Fraction(-3)
    value_hi: Fraction = Fraction(3)
    denom_cap: int = 12
    k0: Fraction = DEFAULT_CONSTANTS.k0
    k1: Fraction = DEFAULT_CONSTANTS.k1
    k2: Fraction = DEFAULT_CONSTANTS.k2
    include_claim6: bool = False
    exhaustive_m: int = 3
    rv_count_max: int = 4
    atom_cap: int = DEFAULT_ATOM_CAP

    def __post_init__(self):
        changed = [f.name for f in fields(self) if getattr(self, f.name) != f.default]
        check_reads(self.target, changed)
        constants = Constants(*(_exact_field(self, k) for k in ("k0", "k1", "k2")))
        object.__setattr__(self, "constants", constants)  # an attribute: every instance reads it
        if self.n < 1:
            raise StructureError("n must be >= 1")
        if self.n + self.include_claim6 > INSTANCES_MAX:
            raise StructureError(f"n plus the claim6 pair must be <= {INSTANCES_MAX} (2^40 - 1)")
        _check_seed(self.seed)
        if not 1 <= self.support_min <= self.support_max:
            raise StructureError("need 1 <= support_min <= support_max")
        if _exact_field(self, "value_lo") >= _exact_field(self, "value_hi"):
            raise StructureError("value grid is empty")
        need = max(2, self.support_max) if "support_max" in TARGETS[self.target].reads else 2
        if self.denom_cap < need:
            raise StructureError(f"denom_cap must be >= {need}")
        grid = _value_grid(self.value_lo, self.value_hi, self.denom_cap)
        object.__setattr__(self, "grid", grid)  # one grid, read by every draw
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
INSTANCES_MAX = (1 << 40) - 1  # index + 1 fills the 40 bits below the seed


def _check_seed(seed: int) -> None:
    """Seeds are 32-bit: _rng_for puts the seed above 40 bits of index + 1 (at
    most INSTANCES_MAX), so two seeds in this range never share a stream."""
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


def _value_grid(lo: Fraction, hi: Fraction, cap: int) -> tuple[int, ...]:
    """The multiples of 1/D in [lo, hi], D in 1..cap, as (lo_n, lo_d, hi_n,
    hi_d, cap, cap_lo, cap_hi): cap_lo = ceil(lo cap) and cap_hi = floor(hi
    cap).  An empty 1..cap or a range with no multiple of 1/cap is refused."""
    if cap < 1:  # no word is below cap: the first draw would never end
        raise StructureError(f"empty range 1..{cap}")
    lo_n, lo_d, hi_n, hi_d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    cap_lo, cap_hi = -(-lo_n * cap // lo_d), hi_n * cap // hi_d
    if cap_lo > cap_hi:
        raise StructureError(f"no multiple of 1/{cap} in [{lo}, {hi}]")
    return lo_n, lo_d, hi_n, hi_d, cap, cap_lo, cap_hi


def _draw_ratio(draw: Callable[[int], int], grid: tuple[int, ...]) -> tuple[int, int]:
    """(numerator, denominator) of a random rational on `grid`, not reduced,
    from `draw` (getrandbits) words as rng.randint takes them: the denominator
    drawn in 1..cap, or cap when no multiple of its inverse lies in [lo, hi],
    then the numerator.  Both draws run `_below`'s loop inline."""
    lo_n, lo_d, hi_n, hi_d, cap, cap_lo, cap_hi = grid
    k = cap.bit_length()
    while (den := draw(k) + 1) > cap:
        pass
    lo_num, hi_num = -(-lo_n * den // lo_d), hi_n * den // hi_d
    if lo_num > hi_num:
        den, lo_num, hi_num = cap, cap_lo, cap_hi
    n = hi_num - lo_num + 1
    k = n.bit_length()
    while (r := draw(k)) >= n:
        pass
    return lo_num + r, den


def random_rv(
    support_size: int,
    seed: int,
    value_range: tuple[Fraction, Fraction] = (Fraction(-3), Fraction(3)),
    denom_cap: int = 12,
) -> DiscreteRV:
    """Deterministic random variable: distinct bounded-denominator values and
    probabilities k/D with D <= denom_cap."""
    _check_seed(seed)
    grid = _value_grid(_q(value_range[0]), _q(value_range[1]), denom_cap)
    return _random_rv(_rng_for(seed, 0), support_size, grid)


def _random_rv(rng: random.Random, support_size: int, grid: tuple[int, ...]) -> DiscreteRV:
    """The draws mirror `random.Random`, word for word: each value is a
    `_draw_ratio` draw on `grid` (`_value_grid`), kept in lowest terms until
    support_size distinct ones are drawn, then D = randint(support_size,
    max(cap, support_size)), cap the grid's, and the masses are the gaps
    between the sorted cuts `rng.sample(range(1, D), support_size - 1)`
    (`_sample_cuts`).

    The variable is built canonical: over scale = lcm of the value
    denominators, distinct reduced values already have gcd(scale, *values)
    = 1, so only the masses are divided by their gcd.
    """
    if support_size < 1:
        raise StructureError("support_size must be >= 1")
    draw = rng.getrandbits
    values: set[tuple[int, int]] = set()  # (numerator, denominator) in lowest terms
    attempts = 0
    while len(values) < support_size:
        num, den = _draw_ratio(draw, grid)
        g = math.gcd(num, den)
        values.add((num // g, den // g))
        attempts += 1
        if attempts > 1000 * support_size:
            raise StructureError("value grid too small for requested support")
    if support_size == 1:
        ((num, den),) = values
        return DiscreteRV((num,), (1,), den)
    d = _randint(rng, support_size, max(grid[4], support_size))
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
    """The 2^m numerators of a random table, each uniform on -32..32 and
    drawn as `_randint(rng, -32, 32)` draws it: 7 bits, redrawn while >= 65."""
    draw, numerators = rng.getrandbits, []
    for _ in range(1 << m):
        while (r := draw(7)) >= 65:
            pass
        numerators.append(r - 32)
    return numerators


def _random_raw(rng: random.Random, cfg: SweepConfig) -> DiscreteRV:
    size = _randint(rng, cfg.support_min, cfg.support_max)
    return _random_rv(rng, size, cfg.grid)


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


Sides = tuple[int, int, Callable[[], BoundReport]]
Instance = Callable[[random.Random, SweepConfig, int], Sides]
PairEvaluator = Callable[[DiscreteRV, DiscreteRV, Fraction, Constants, int], BoundReport]
Check = Callable[[list[DiscreteRV], dict[str, object], Constants], BoundReport]
Scale = Callable[[Constants], Fraction]


@dataclass(frozen=True)
class Target:
    """One inequality the sweep and the CLI know about.

    instance(rng, cfg, index) draws and evaluates one instance as its Sides:
    integers a, b with lhs/rhs = a/b and b of the sign of rhs, and the function
    that builds its report; it is None for an exhaustive target.
    scale(constants) is the constant the right side is divided by (None if
    none), so the smallest one that would have sufficed is scale * rhs / lhs.
    check(xs, given, constants), None if absent, evaluates it on `files`
    random variables xs (0: two or more) and the check settings given (E,
    default 0, x1, x2).  reads: every setting (SETTINGS) it uses, no other.
    """

    instance: Instance | None
    scale: Scale | None
    check: Check | None = None
    files: int = 0
    reads: frozenset[str] = frozenset()


def _with_inputs(report: BoundReport, inputs: dict[str, object]) -> BoundReport:
    return BoundReport(report.lhs, report.rhs, {**inputs, **report.witness})


def _sides(report: BoundReport, inputs: dict[str, object]) -> Sides:
    """An evaluator's report as Sides: a = lhs.numerator * rhs.denominator and
    b = rhs.numerator * lhs.denominator (denominators are positive, so lhs/rhs
    is a/b), the report to build `_with_inputs`."""
    lhs, rhs = report.lhs, report.rhs
    a, b = lhs.numerator * rhs.denominator, rhs.numerator * lhs.denominator
    return a, b, lambda: _with_inputs(report, inputs)


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
                e = Fraction(*_draw_ratio(rng.getrandbits, cfg.grid))
        return _sides(pair(x, y, e, cfg.constants, cfg.atom_cap), {"x": x, "y": y})

    def check(xs, given, constants):
        return pair(*xs, given.get("E", Fraction(0)), constants, DEFAULT_ATOM_CAP)

    return Target(instance, scale, check, 2, _RV | {"include_claim6", *reads})


def _claim8_target(rng, cfg, index):
    x1, x2, ybar = _claim8_instance(rng, index % 4, cfg)
    return _sides(claim8_check(x1, x2, ybar), {"case": index % 4})


def _claim8_check(xs, given, constants):
    if "x1" not in given or "x2" not in given:
        raise StructureError("claim8 requires --x1 and --x2")
    return claim8_check(given["x1"], given["x2"], TwoPointBalancedRV.from_rv(xs[0]))


def _theorem1_target(rng, cfg, index):
    xs = [_random_raw(rng, cfg) for _ in range(_randint(rng, 2, cfg.rv_count_max))]
    report = theorem1_check(xs, cfg.constants, cfg.atom_cap)
    return _sides(report, {f"x{i}": x for i, x in enumerate(xs)})


# fact1 and fact8 draw the tables of `random_real_function` (numerators over
# 2^4) as numerator lists and sum on them, with no RealFunction: with n = 2^m,
# cube.sq_l2_dist is D(a, b) / (n 2^8) and cube.variance is V(a) / (n^2 2^8).
# Their sides are those sums, over one power of two, so they fold on the sums.
def _sq_dist(a: list[int], b: list[int]) -> int:
    """D(a, b) = sum_x (a_x - b_x)^2."""
    return sum([(x - y) * (x - y) for x, y in zip(a, b)])


def _spread(a: list[int]) -> int:
    """V(a) = n sum_x a_x^2 - (sum_x a_x)^2."""
    total = sum(a)
    return len(a) * sum([x * x for x in a]) - total * total


def _fact1_target(rng, cfg, index):
    """lhs = (D(f, g) + D(g, h)) / 2^(m+8) and rhs = D(f, h) / 2^(m+9)."""
    m = _randint(rng, 1, 3)
    f, g, h = (_random_numerators(rng, m) for _ in range(3))
    near, far = _sq_dist(f, g) + _sq_dist(g, h), _sq_dist(f, h)

    def report() -> BoundReport:
        return BoundReport(Fraction(near, 1 << m + 8), Fraction(far, 1 << m + 9), {"m": m})

    return 2 * near, far, report


def _fact8_target(rng, cfg, index):
    """lhs = V(f) / (n^2 2^8) and rhs = (V(g) - 2n D(f, g)) / (n^2 2^9)."""
    m = _randint(rng, 1, 3)
    f, g = (_random_numerators(rng, m) for _ in range(2))
    n = 1 << m
    spread, rest = _spread(f), _spread(g) - 2 * n * _sq_dist(f, g)

    def report() -> BoundReport:
        return BoundReport(Fraction(spread, n * n << 8), Fraction(rest, n * n << 9), {"m": m})

    return 2 * spread, rest, report


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
    """Constants from the k0..k2 entries of `settings`, after check_reads: the
    route of `check` and `analyze`, which take no SweepConfig."""
    check_reads(target, settings)
    constants = {k: settings[k] for k in ("k0", "k1", "k2") if k in settings}
    return replace(DEFAULT_CONSTANTS, **constants)


OnRow = Callable[[str], object]  # takes each CSV line, as BoundReport.csv_row writes it


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
    checked: a flagged report must fail, its sides must cross-multiply to
    (a, b), and the witness's ratio must be the minimum.  `_constant` takes
    the empirical constant from that minimum."""
    violations: list[str] = []
    a_min, b_min = 1, 0  # 1/0: above every ratio, so the first b > 0 replaces it
    least: tuple[int, BoundReport] | None = None  # its line is written once, at the end
    evaluated = 0
    for i, a, b in sides:
        evaluated += 1
        lower = b > 0 and a * b_min < a_min * b  # strict: the first of equal ratios stays
        if a < b or lower:
            named = report(i)
            if a < b and named.holds:
                raise VerificationError(f"instance {i}: the fold flags a bound that holds")
            if named.lhs * b != named.rhs * a:
                raise VerificationError(
                    f"instance {i}: sides {named.lhs}, {named.rhs} are not the folded {a} : {b}"
                )
            if a < b:
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


def run_sweep(cfg: SweepConfig, on_row: OnRow | None = None) -> SweepResult:
    """Evaluate cfg.target on every generated instance, exact throughout, and
    `_fold` its sides; each evaluated instance's CSV row goes to `on_row` as it
    comes, and its report is built only for that row or when the fold asks.  A
    package error (FknLabError) is that instance's error; a VerificationError
    or any other exception is a bug and propagates."""
    target = TARGETS[cfg.target]
    if target.instance is None:
        return corollary2_exhaustive(cfg.exhaustive_m, cfg.constants, on_row)
    rng, base = random.Random(), cfg.seed << 40
    reseed = super(random.Random, rng).seed  # Random.seed but for gauss_next, which no draw sets
    errors: list[tuple[int, str]] = []
    build: Callable[[], BoundReport] | None = None  # the latest evaluated instance's
    built: BoundReport | None = None  # its report, built once

    def sides() -> Iterator[tuple[int, int, int]]:
        nonlocal build, built
        for i in range(cfg.n + int(cfg.include_claim6)):  # the claim6 pair comes first
            reseed(base ^ (i + 1))  # instance i draws from the state of _rng_for(cfg.seed, i)
            try:
                a, b, build = target.instance(rng, cfg, i)
            except VerificationError:
                raise
            except FknLabError as exc:
                errors.append((i, f"{type(exc).__name__}: {exc}"))
                continue
            built = None
            if on_row is not None:
                built = build()
                on_row(built.csv_row(i))
            yield i, a, b

    def report(i: int) -> BoundReport:
        nonlocal built
        if built is None:
            built = build()
        return built

    scale = None if target.scale is None else target.scale(cfg.constants)
    return _fold(cfg.target, sides(), report, scale, errors)


def empirical_constant(target: str, cfg: SweepConfig) -> Fraction:
    """Smallest constant that would make `target` hold on the instances cfg
    draws, retargeted to `target` (scale / min lhs/rhs; instances with rhs 0
    skipped, 0 if all are).  The retargeted config obeys the reads rule: a
    setting of cfg that `target` does not read, such as k1 for lemma7, is
    refused, not dropped."""
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
    for mask in range(1 << (m - 1), (1 << m) - 1):  # each {A, B} once: B holds variable m
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
    and `_fold` folds those sides.  With `on_row`, each CSV row is written from
    the text of its (Var f, cross, dist, k, partition), built once per
    distinct value, and its table.
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

    @functools.cache  # few distinct values: a row's text but its id and table is built once
    def row_text(var: int, cross: int, dist: int, k: int, p: int) -> tuple[str, str]:
        """The row's text before and after its table, which is + and - only,
        so the table never changes how the witness cell is quoted."""
        line = _corollary2_report("", texts[p], k, *fractions(var, cross, dist)).csv_row(0)
        before, after = line.removeprefix("0,").split("table=", 1)
        return before + "table=", after

    def stacked(rows, var, weights) -> tuple:
        """What report() reads of one kernel call's output for the tables of
        `rows`: their rows, Var f, and per partition a column of cross, the
        nearest distance and its block, the first nearest as corollary2_apply picks it."""
        cross = np.stack([c for c, _ in weights], axis=1)
        dist = np.stack([dists.min(axis=1) for _, dists in weights], axis=1)
        k = np.stack([dists.argmin(axis=1) for _, dists in weights], axis=1)
        return rows, var, cross, dist, k

    def report(i: int, rows, var, cross, dist, k) -> BoundReport:
        t, p = divmod(i, count)
        sides = fractions(int(var[t]), int(cross[t, p]), int(dist[t, p]))
        return _corollary2_report(rows[t], texts[p], int(k[t, p]), *sides)

    swept = stacked(rows, *stack_block_weights(tables, partitions))
    _, var, cross, dist, k = swept
    if on_row is not None:
        numerators = zip(rows, var.tolist(), cross.tolist(), dist.tolist(), k.tolist())
        for t, (row, v, *columns) in enumerate(numerators):
            for p, key in enumerate(zip(*columns)):
                before, after = row_text(v, *key, p)
                on_row(f"{t * count + p},{before}{row}{after}")
    a = (cross << 2 * m).ravel().tolist()  # int64: each factor is at most 4^m
    b = (var[:, None] * dist).ravel().tolist()
    num, den = scale.numerator, scale.denominator
    sides = zip(itertools.count(), [num * x for x in a], [den * y for y in b])
    named: dict[int, BoundReport] = {}  # each report the fold asks for
    result = _fold("corollary2", sides, lambda i: named.setdefault(i, report(i, *swept)), scale, [])
    at = [i // count for i in named]  # row j rechecks the j-th named instance
    again = stacked([rows[t] for t in at], *cube.stack_block_weights(tables[at], partitions))
    for j, (i, batch) in enumerate(named.items()):
        if (recheck := report(j * count + i % count, *again)) != batch:
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


# Each SweepConfig field is the config key of its name, parsed by its type.
_PARSERS = {"str": str, "int": _config_int, "Fraction": parse_fraction, "bool": _config_bool}
_CONFIG_KEYS = {f.name: _PARSERS[f.type] for f in fields(SweepConfig)}
# Every setting check_reads knows: the config keys, and check's E, x1, x2.
SETTINGS = (*(key for key in _CONFIG_KEYS if key != "target"), "E", "x1", "x2")


def read_settings(text: str) -> dict[str, object]:
    """Parse 'key=value' lines ('#' comments allowed), each key once, by _CONFIG_KEYS."""
    settings: dict[str, object] = {}
    for lineno, stripped in data_lines(text):
        if "=" not in stripped:
            raise ParseError(f"expected key=value, got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown key {key!r}", lineno)
        if key in settings:
            raise ParseError(f"{key} given twice", lineno)
        try:
            settings[key] = _CONFIG_KEYS[key](value.strip())
        except ParseError as exc:
            raise ParseError(f"{key}: {exc}", lineno) from None
    return settings


def config_from_settings(settings: dict[str, object]) -> SweepConfig:
    """SweepConfig(**settings), check_reads refusing even a setting at its default."""
    if "target" not in settings:
        raise StructureError("no sweep target given: need target=<name> or --target")
    check_reads(settings["target"], settings)
    return SweepConfig(**settings)  # type: ignore[arg-type]
