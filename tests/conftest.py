"""Shared independent oracles for the test suite.

These deliberately avoid the library's fast paths: the Fourier oracle is the
literal O(4^m) definition over exact Fractions (or a sign-matrix product for
larger m), so it can referee the butterfly transform.  `values` and
`dyadic_function` move between cube tables (integer numerators over 2^k)
and the Fractions they stand for.  `accumulate_reference` is the sweep
fold on Fractions, each report's verdict and ratio taken from BoundReport,
the referee of the integer fold in `sweep.run_sweep`'s loop, and
`sweep_reference` is a random sweep that builds every instance's report
and folds them through it, the referee of `sweep.run_sweep`'s sides and
reports built on demand.
`corollary2_per_instance` is the exhaustive corollary check with one
report per instance through it, the referee of the batch's integer fold.
`profile_constants` is the corollary constant of each block profile by brute
force over every table and every partition of 2+ blocks (`set_partitions`).
`random_rv_reference` draws a random variable on Fractions with random's own
`randint` and `sample`, the referee of `sweep._random_rv`'s integer draws.
`two_atom_reference` builds the variable of a two-point or constant-magnitude
description through `DiscreteRV.from_atoms`, the referee of both `to_rv`s,
and `claim8_reference` is claim 8's double loop over Fraction atoms, the
referee of `claim8_check`'s integer sides.  `decimal_reference` is the
`.15g` text of a rational built from integers and one exact rounding, the
referee of `format_value`'s `--decimal` rendering.  `csv_row_reference` is
a report's six cells, its ratio and verdict from Fractions and its witness
from `format_value` and each variable's `atoms`, written by `csv.writer`:
the referee of `BoundReport.csv_row`, and the row `accumulate_reference`
writes.
"""

import csv
import functools
import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fknlab import sweep
from fknlab.bounds import DEFAULT_CONSTANTS, BoundReport, format_value
from fknlab.cube import (
    Partition,
    RealFunction,
    boolean_tables,
    format_partition,
    format_table_rows,
    stack_block_weights,
)
from fknlab.errors import FknLabError, StructureError, VerificationError
from fknlab.rv import DiscreteRV, TwoPointBalancedRV


def cube_point(index: int, m: int) -> tuple[int, ...]:
    """Index -> point, bit b set meaning x_{b+1} = -1."""
    return tuple(-1 if (index >> b) & 1 else 1 for b in range(m))


def chi(subset_mask: int, point: tuple[int, ...]) -> int:
    value = 1
    for b, x in enumerate(point):
        if (subset_mask >> b) & 1:
            value *= x
    return value


def naive_fourier(table, m: int) -> list[Fraction]:
    """Exact coefficients straight from the definition, O(4^m); entries are
    integers or Fractions."""
    n = 1 << m
    entries = [v if isinstance(v, Fraction) else int(v) for v in table]
    return [
        Fraction(sum(entries[i] * chi(s, cube_point(i, m)) for i in range(n)), n)
        for s in range(n)
    ]


def values(f) -> list[Fraction]:
    """Entries of a cube table, or coefficients of an expansion, as Fractions."""
    numerators = f.coeffs if hasattr(f, "coeffs") else f.table
    return [Fraction(int(v), 1 << getattr(f, "k", 0)) for v in numerators]


def dyadic_function(m: int, entries) -> RealFunction:
    """RealFunction of dyadic rational entries, over their largest denominator."""
    entries = [Fraction(v) for v in entries]
    den = max(v.denominator for v in entries)
    return RealFunction(m, [int(v * den) for v in entries], den.bit_length() - 1)


def within(subset: int, mask: int) -> bool:
    return subset & ~mask == 0


def sq_mass(coeffs: list[Fraction], keep) -> Fraction:
    return sum((c * c for s, c in enumerate(coeffs) if keep(s)), Fraction(0))


def set_partitions(items: list[int]):
    """Every partition of `items` into nonempty blocks (Bell-many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield [[first], *blocks]
        for j in range(len(blocks)):
            yield [*blocks[:j], [first, *blocks[j]], *blocks[j + 1 :]]


def sign_matrix(m: int, subsets=None) -> np.ndarray:
    """H[s, x] = chi_s(x) as a +-1 matrix, a row per s in `subsets` (every
    subset by default), built from parity, not butterflies."""
    n = 1 << m
    parity = np.array([bin(v).count("1") & 1 for v in range(n)], dtype=np.int64)
    rows = np.arange(n) if subsets is None else np.asarray(subsets)
    return 1 - 2 * parity[np.bitwise_and.outer(rows, np.arange(n))]


def rv_moments(atoms):
    """(mean, variance) of [(value, prob), ...] by direct summation."""
    mean = sum(v * p for v, p in atoms)
    return mean, sum(p * (v - mean) ** 2 for v, p in atoms)


def product_distribution(*atom_lists):
    """Sorted atoms of the sum of independent variables, straight from the
    product measure: every tuple of atoms adds its probability to its sum."""
    masses = {}
    for combo in itertools.product(*atom_lists):
        total = sum(v for v, _ in combo)
        masses[total] = masses.get(total, 0) + math.prod(p for _, p in combo)
    return tuple(sorted(masses.items()))


def random_rv_reference(rng, support_size: int, value_range, denom_cap: int) -> DiscreteRV:
    """`sweep._random_rv` on Fractions: a range with no multiple of
    1/denom_cap is refused before any draw; each value is k/den with den =
    randint(1, denom_cap), or denom_cap when no k/den lies in the range, and k
    uniform over those that do; masses are the gaps between sorted
    `rng.sample` cuts of 1..D-1, and `DiscreteRV.from_atoms` (the merge) puts
    it in lowest terms."""
    if support_size < 1:
        raise StructureError("support_size must be >= 1")
    lo, hi = Fraction(value_range[0]), Fraction(value_range[1])
    if math.ceil(lo * denom_cap) > math.floor(hi * denom_cap):
        raise StructureError(f"no multiple of 1/{denom_cap} in [{lo}, {hi}]")
    values: set[Fraction] = set()
    attempts = 0
    while len(values) < support_size:
        den = rng.randint(1, denom_cap)
        if math.ceil(lo * den) > math.floor(hi * den):
            den = denom_cap
        values.add(Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den))
        attempts += 1
        if attempts > 1000 * support_size:
            raise StructureError("value grid too small for requested support")
    if support_size == 1:
        return DiscreteRV.constant(values.pop())
    d = rng.randint(support_size, max(denom_cap, support_size))
    cuts = sorted(rng.sample(range(1, d), support_size - 1))
    masses = [Fraction(b - a, d) for a, b in zip([0] + cuts, cuts + [d])]
    return DiscreteRV.from_atoms(zip(sorted(values), masses))


def two_atom_reference(variable) -> DiscreteRV:
    """`to_rv` of a TwoPointBalancedRV (d/p w.p. p, -d/(1-p) else) or a
    ConstAbsRV (+magnitude w.p. p, -magnitude else) on Fractions: the merge
    joins the two atoms of d = 0 or magnitude 0, and a mass-0 atom is left out."""
    if isinstance(variable, TwoPointBalancedRV):
        q = 1 - variable.p
        atoms = [(variable.d / variable.p, variable.p), (-variable.d / q, q)]
    else:
        atoms = [(variable.magnitude, variable.p), (-variable.magnitude, 1 - variable.p)]
    return DiscreteRV.from_atoms((v, p) for v, p in atoms if p > 0)


def claim8_reference(x1, x2, ybar: TwoPointBalancedRV) -> BoundReport:
    """`bounds.claim8_check` on Fractions: E(|x1+Y1| - |x2+Y2|)^2 over every
    pair of atoms of two independent copies of Y, against (|x1| - |x2|)^2 / 4."""
    x1, x2 = Fraction(x1), Fraction(x2)
    atoms = two_atom_reference(ybar).atoms
    lhs = Fraction(0)
    for y1, p1 in atoms:
        for y2, p2 in atoms:
            lhs += p1 * p2 * (abs(x1 + y1) - abs(x2 + y2)) ** 2
    rhs = Fraction(1, 4) * (abs(x1) - abs(x2)) ** 2
    return BoundReport(lhs, rhs, {"x1": x1, "x2": x2, "d": ybar.d, "p": ybar.p})


def decimal_reference(value: Fraction) -> str:
    """15 significant digits of a rational, rounded half-even from the exact
    value and laid out as `.15g`: the decimal exponent x of |value| from the
    digit counts of its numerator and denominator and one comparison, the
    digits as `round`, Python's exact half-even rounding of a Fraction, and
    a carry when the digits reach 10^15."""
    if not value:
        return "0"
    a = abs(value)
    x = len(str(a.numerator)) - len(str(a.denominator))  # |value| < 10^(x+1)
    if a < Fraction(10) ** x:
        x -= 1
    digits = round(a * Fraction(10) ** (14 - x))
    if digits == 10**15:
        digits, x = 10**14, x + 1
    text = str(digits)  # 15 digits: d.dddddddddddddd times 10^x
    sign = "-" if value < 0 else ""
    if -4 <= x < 15:
        whole, rest = (text[: x + 1], text[x + 1 :]) if x >= 0 else ("0", "0" * (-x - 1) + text)
        rest = rest.rstrip("0")
        return sign + whole + ("." + rest if rest else "")
    mantissa = (text[0] + "." + text[1:]).rstrip("0").rstrip(".")
    return f"{sign}{mantissa}e{'-' if x < 0 else '+'}{abs(x):02d}"


def rv_inline_reference(x: DiscreteRV) -> str:
    return "(" + ",".join(f"{v}:{p}" for v, p in x.atoms) + ")"


def csv_row_reference(report: BoundReport, i: int) -> str:
    """The CSV line of instance i: its cells written by csv.writer."""
    ratio = report.lhs / report.rhs if report.rhs > 0 else None
    witness = ";".join(
        f"{k}={rv_inline_reference(v) if isinstance(v, DiscreteRV) else format_value(v)}"
        for k, v in report.witness.items()
    )
    cells = [str(i), str(report.lhs), str(report.rhs), "" if ratio is None else str(ratio)]
    out = io.StringIO()
    csv.writer(out).writerow([*cells, "true" if report.lhs >= report.rhs else "false", witness])
    return out.getvalue()


def accumulate_reference(name, cases, scale, on_row=None) -> sweep.SweepResult:
    """`sweep.run_sweep`'s loop on Fractions, over `cases` in place of drawn
    instances: a report is a violation when it does not hold, and the first
    instance of least `report.ratio` is the witness."""
    violations, errors = [], []
    min_ratio, least = None, None
    count = 0
    for i, case in enumerate(cases):
        count += 1
        try:
            report = case()
        except VerificationError:
            raise
        except FknLabError as exc:
            errors.append((i, f"{type(exc).__name__}: {exc}"))
            continue
        if on_row is not None:
            on_row(csv_row_reference(report, i))
        if not report.holds:
            violations.append(sweep._line(i, report, violation=True))
        ratio = report.ratio
        if ratio is not None and (min_ratio is None or ratio < min_ratio):
            min_ratio, least = ratio, (i, report)
    return sweep.SweepResult(
        target=name,
        instances_run=count,
        violations=tuple(violations),
        min_ratio=min_ratio,
        min_ratio_witness=None if least is None else sweep._line(*least, violation=False),
        empirical_constant=sweep._constant(scale, min_ratio, len(errors) < count),
        errors=tuple(errors),
    )


def sweep_reference(cfg: sweep.SweepConfig, on_row=None) -> sweep.SweepResult:
    """`sweep.run_sweep` on a randomized target, with every instance's report
    built and folded on Fractions by `accumulate_reference`; the instances'
    integer sides are not read."""
    target = sweep.TARGETS[cfg.target]
    scale = None if target.scale is None else target.scale(cfg.constants)

    def report(i: int) -> BoundReport:
        _, _, build = target.instance(sweep._rng_for(cfg.seed, i), cfg, i)
        return build()

    cases = (functools.partial(report, i) for i in range(cfg.n + int(cfg.include_claim6)))
    return accumulate_reference(cfg.target, cases, scale, on_row)


def corollary2_per_instance(m: int, constants=DEFAULT_CONSTANTS, on_row=None) -> sweep.SweepResult:
    """`sweep.corollary2_exhaustive` without its integer fold or recheck: each
    partition runs `sweep.stack_block_weights` on the raw tables, and one
    BoundReport per instance (table-major, as the batch numbers them) goes
    through `accumulate_reference`."""
    tables = boolean_tables(m)[1:-1]
    partitions = list(sweep.two_block_partitions(m))
    scale = sweep.TARGETS["corollary2"].scale(constants)

    @functools.cache
    def sides(var: int, cross: int, dist: int) -> tuple[Fraction, Fraction, Fraction]:
        epsilon = Fraction(cross, var)
        return scale * epsilon, Fraction(dist, 1 << 2 * m), epsilon

    columns = []
    for partition in partitions:
        var, [(cross, dists)] = sweep.stack_block_weights(tables, [partition])
        k = dists.argmin(axis=1)
        dist = dists[np.arange(len(k)), k]
        numerators = (var.tolist(), cross.tolist(), k.tolist(), dist.tolist())
        columns.append((format_partition(partition), *numerators))
    report = sweep._corollary2_report
    cases = (
        functools.partial(report, row, text, k[t], *sides(var[t], cross[t], dist[t]))
        for t, row in enumerate(format_table_rows(tables))
        for text, var, cross, k, dist in columns
    )
    return accumulate_reference("corollary2", cases, scale, on_row)


def profile_constants(m: int) -> dict[tuple[int, ...], Fraction]:
    """The largest dist/epsilon = dist Var f / cross over every non-constant
    table on m variables and every partition of 1..m into two or more blocks
    with cross > 0, per block profile (the sorted block sizes), from one
    `stack_block_weights` call over all the tables and partitions."""
    tables = boolean_tables(m)[1:-1]
    blocks = [b for b in set_partitions(list(range(1, m + 1))) if len(b) >= 2]
    partitions = [Partition.from_blocks(m, b) for b in blocks]
    var, weights = stack_block_weights(tables, partitions)
    best: dict[tuple[int, ...], Fraction] = {}
    for b, (cross, dists) in zip(blocks, weights):
        keep = cross > 0  # numerators over 4^m: dist/epsilon = dist var / (cross 4^m)
        pairs = set(zip((dists.min(axis=1) * var)[keep].tolist(), (cross[keep] << 2 * m).tolist()))
        profile = tuple(sorted(map(len, b)))
        best[profile] = max([Fraction(x, y) for x, y in pairs] + [best.get(profile, Fraction(0))])
    return best


@pytest.fixture
def rng_seed():
    return 20240813
