"""Evaluators for the variance inequalities, their witnesses, and the two
extremal example generators.

Each evaluator computes both sides of one inequality exactly and reports
lhs, rhs, holds (lhs >= rhs) and witness data.  Inequality ids used across
the package and the CLI:

    lemma7    Var|X+Y+E| >= max(Var|X+E|, Var|Y+E|) / K0        (X, Y balanced)
    lemma5    Var|X+Y|   >= max(Var|X+EY|, Var|Y+EX|) / K0      (any X, Y)
    lemma4    Var|X+Y|   >= V min(VarX, VarY) / (K1 (V + E^2))
    theorem1  Var|sum Xi| >= V Var(sum_{i != k} Xi) / (K2 (V + E^2))  for some k
    claim8    E(|x1+y1| - |x2+y2|)^2 >= (|x1| - |x2|)^2 / 4     (y two-point)
    claim9    the constant-absolute-value reduction of lemma4's small case
    corollary2  cross-free Boolean functions are near one block's restriction
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from typing import Callable, Sequence

from .cube import BooleanFunction, Partition, _frozen, _sum_sq, np, stack_block_weights
from .errors import BalanceError, StructureError, VerificationError
from .rv import (
    DEFAULT_ATOM_CAP,
    DiscreteRV,
    Rational,
    TwoPointBalancedRV,
    _centered,
    _exact_field,
    _mass_moment,
    _moment_sums,
    _q,
    _ratio_text,
    abs_rv,
    const_abs_approx,
    convolve,
    expectation,
    format_rv_inline,
    negate,
    var_abs_shifted,
    var_abs_sum,
    variance_rv,
)


@dataclass(frozen=True)
class Constants:
    """Universal constants of the bounds; defaults are the proved values.
    Every constant must be positive."""

    k0: Fraction = Fraction(4)
    k1: Fraction = Fraction(20480)
    k2: Fraction = Fraction(61440)

    def __post_init__(self):
        for name in ("k0", "k1", "k2"):
            if (value := _exact_field(self, name)) <= 0:
                raise StructureError(f"constants must be positive, got {name}={value}")

    @property
    def corollary_k(self) -> Fraction:
        return self.k2 + 2


DEFAULT_CONSTANTS = Constants()


_DIGITS_15 = Context(prec=15, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)


def format_value(value: object, decimal: bool = False) -> str:
    """Text of one reported value: exact by default; with `decimal`, a rational
    rounded half-even from its exact value to 15 significant digits, laid out
    as `.15g`; a variable inline."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, DiscreteRV):
        return format_rv_inline(value)
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if decimal and isinstance(value, Fraction):
        q = _DIGITS_15.divide(Decimal(value.numerator), Decimal(value.denominator))
        q = _DIGITS_15.normalize(q)  # no trailing zeros: 1E+14, 6.1033950617284
        x = q.adjusted()
        return f"{q:f}" if -4 <= x < 15 else f"{_DIGITS_15.scaleb(q, -x):f}e{x:+03d}"
    return str(value)


Witness = dict[str, object]

# values whose exact type prints as format_value prints it: as str() does
_PLAIN = frozenset({Fraction, int, str})


def _csv_cell(text: str) -> str:
    """One CSV cell as csv.writer's default QUOTE_MINIMAL writes it: quoted,
    each '"' doubled, when the text holds a ',', '"', '\\r' or '\\n'."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@dataclass(frozen=True, init=False)
class BoundReport:
    """Evaluated left/right sides of one inequality instance; the verdict
    and the ratio follow from the sides.  The witness may be given as the
    function that builds it, which runs on the first read of `witness`: a
    sweep reads the witness of only the instances it prints.  Equality
    compares the built witnesses."""

    lhs: Fraction
    rhs: Fraction
    # built on first read from the function given in its place; a non-data
    # descriptor, so a witness given as a dict shadows it
    witness: Witness = functools.cached_property(lambda self: self.__dict__.pop("_build")())

    def __init__(
        self, lhs: Fraction, rhs: Fraction, witness: Witness | Callable[[], Witness] | None = None
    ):
        fields = self.__dict__  # frozen: each set once, here or on the witness's first read
        fields["lhs"], fields["rhs"] = lhs, rhs
        if callable(witness):
            fields["_build"] = witness
        else:
            fields["witness"] = {} if witness is None else witness

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def ratio(self) -> Fraction | None:
        return self.lhs / self.rhs if self.rhs > 0 else None

    def kv_lines(self, decimal: bool = False) -> list[str]:
        ratio = self.ratio
        return [
            f"lhs={format_value(self.lhs, decimal)}",
            f"rhs={format_value(self.rhs, decimal)}",
            f"ratio={format_value(ratio, decimal) if ratio is not None else ''}",
            f"holds={format_value(self.holds)}",
            *(f"witness.{k}={format_value(v, decimal)}" for k, v in self.witness.items()),
        ]

    def witness_text(self) -> str:
        return ";".join(
            f"{k}={v}" if type(v) in _PLAIN else f"{k}={format_value(v)}"
            for k, v in self.witness.items()
        )

    def csv_row(self, instance_id: int) -> str:
        """The instance's CSV line as csv.writer writes it, CRLF-ended:
        id, lhs, rhs, ratio, holds and the witness.  ratio and holds come
        from a = lhs.num rhs.den and b = rhs.num lhs.den, with lhs/rhs = a/b."""
        lhs, rhs = self.lhs, self.rhs
        a, b = lhs.numerator * rhs.denominator, rhs.numerator * lhs.denominator
        ratio = _ratio_text(a, b) if b > 0 else ""
        holds = "true" if a >= b else "false"
        return f"{instance_id},{lhs},{rhs},{ratio},{holds},{_csv_cell(self.witness_text())}\r\n"


def _require_balanced(x: DiscreteRV, y: DiscreteRV) -> None:
    for label, rv in (("X", x), ("Y", y)):
        if _mass_moment(rv):
            raise BalanceError(f"{label} has mean {expectation(rv)}, expected exactly 0")


def lemma7_bound(
    xbar: DiscreteRV,
    ybar: DiscreteRV,
    e: Rational = 0,
    constants: Constants = DEFAULT_CONSTANTS,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> BoundReport:
    """Var|X+Y+E| >= max(Var|X+E|, Var|Y+E|) / K0 for balanced X, Y."""
    _require_balanced(xbar, ybar)
    e = _q(e, "E")
    vx = var_abs_shifted(xbar, e)
    vy = var_abs_shifted(ybar, e)
    lhs = var_abs_sum((xbar, ybar), e, atom_cap)
    max_side = max(vx, vy)

    def witness() -> Witness:
        built: Witness = {"e": e, "max_side": "x" if vx >= vy else "y", "max_abs_var": max_side}
        if lhs > 0:
            built["required_k0"] = max_side / lhs
        return built

    return BoundReport(lhs, max_side / constants.k0, witness)


def lemma5_bound(
    x: DiscreteRV,
    y: DiscreteRV,
    constants: Constants = DEFAULT_CONSTANTS,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> BoundReport:
    """The unbalanced form: center both variables and take E = E[X+Y]."""
    sx, sy = _mass_moment(x), _mass_moment(y)  # each mean over its den * scale
    ux, uy = x.den * x.scale, y.den * y.scale
    e = Fraction(sx * uy + sy * ux, ux * uy)
    return lemma7_bound(_centered(x, sx), _centered(y, sy), e, constants, atom_cap)


def claim8_check(x1: Rational, x2: Rational, ybar: TwoPointBalancedRV) -> BoundReport:
    """Two evaluations of X+E keep a quarter of their absolute-value gap
    after adding an independent balanced two-point variable.

    On one scale S for x1, x2 and Y's values v (masses m over D), with
    a = |X1 + v| and b = |X2 + v|: sum m m' (a - b')^2 = D sum m a^2
    - 2 (sum m a)(sum m b) + D sum m b^2, over (D S)^2."""
    x1, x2 = _q(x1, "x1"), _q(x2, "x2")
    y = ybar.to_rv()
    scale = math.lcm(x1.denominator, x2.denominator, y.scale)
    n1, n2 = x1.numerator * (scale // x1.denominator), x2.numerator * (scale // x2.denominator)
    f = scale // y.scale
    a1 = a2 = b1 = b2 = 0
    for v, m in zip(y.values, y.masses):
        a, b = abs(n1 + v * f), abs(n2 + v * f)
        a1 += m * a
        a2 += m * a * a
        b1 += m * b
        b2 += m * b * b
    lhs = Fraction(y.den * (a2 + b2) - 2 * a1 * b1, (y.den * scale) ** 2)
    rhs = Fraction((abs(n1) - abs(n2)) ** 2, 4 * scale * scale)
    return BoundReport(lhs, rhs, {"x1": x1, "x2": x2, "d": ybar.d, "p": ybar.p})


def claim9_bound(
    xbar: DiscreteRV, ybar: DiscreteRV, e: Rational = 0, atom_cap: int = DEFAULT_ATOM_CAP
) -> BoundReport:
    """Constant-absolute-value case: Var|X'+Y'-E| >= VarX' VarY' / (16 (VarX + E^2)).

    The underlying case analysis fixes an orientation: E >= 0 and
    E|X+E| >= E|Y+E|.  Both normalizations are applied (and recorded) before
    evaluating; without them the literal formula fails on valid inputs.
    """
    _require_balanced(xbar, ybar)
    e = _q(e, "E")
    flipped = e < 0
    if flipped:
        xbar, ybar, e = negate(xbar), negate(ybar), -e
    x_approx = const_abs_approx(xbar, e)
    y_approx = const_abs_approx(ybar, e)
    swapped = y_approx.magnitude > x_approx.magnitude
    if swapped:
        xbar, ybar = ybar, xbar
        x_approx, y_approx = y_approx, x_approx
    x_rv, y_rv = x_approx.to_rv(), y_approx.to_rv()
    var_x_approx, var_y_approx = variance_rv(x_rv), variance_rv(y_rv)
    lhs = var_abs_sum((x_rv, y_rv), -e, atom_cap)
    denominator = 16 * (variance_rv(xbar) + e * e)
    rhs = var_x_approx * var_y_approx / denominator if denominator > 0 else Fraction(0)
    approx = dict(dx=x_approx.magnitude, px=x_approx.p, dy=y_approx.magnitude, py=y_approx.p)
    witness = dict(e=e, flipped=flipped, swapped=swapped, **approx)
    witness.update(var_x_approx=var_x_approx, var_y_approx=var_y_approx)
    return BoundReport(lhs, rhs, witness)


def lemma4_bound(
    x: DiscreteRV,
    y: DiscreteRV,
    constants: Constants = DEFAULT_CONSTANTS,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> BoundReport:
    """Var|X+Y| >= V min(VarX, VarY) / (K1 (V + E^2)) for any independent X, Y."""
    variances, mean, unit = _moment_sums((x, y))
    total, least = sum(variances), min(variances)
    lhs = var_abs_sum((x, y), 0, atom_cap)
    rhs = _scaled_side(total, least, mean, unit, constants.k1)

    def witness() -> Witness:
        v, e = Fraction(total, unit * unit), Fraction(mean, unit)
        built: Witness = {"v": v, "e": e, "m_xy": Fraction(least, unit * unit)}
        if total or mean:
            # branch parameter of the two-case analysis behind the bound, V / (2560 (V + E^2))
            built["a"] = Fraction(total, 2560 * (total + mean * mean))
        return built

    return BoundReport(lhs, rhs, witness)


def _scaled_side(total: int, part: int, mean: int, unit: int, k: Fraction) -> Fraction:
    """V W / (K (V + E^2)) as one Fraction, with V = total / u^2, W = part / u^2
    and E = mean / u: for K = p/q that is total part q / (p (total + mean^2) u^2).
    0 when V + E^2 = 0."""
    scale = total + mean * mean
    if not scale:
        return Fraction(0)
    return Fraction(total * part * k.denominator, k.numerator * scale * unit * unit)


def partition_split(variances: Sequence[Rational]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split indices into (A, B) with both variance sums in [V/3, 2V/3].

    Requires every variance <= 2V/3 (callers with a heavier variable must use
    the single-heavy-variable branch instead).  Indices are 0-based.
    """
    variances = [v if isinstance(v, int) else _q(v) for v in variances]
    total = sum(variances)
    if total <= 0:
        raise StructureError("total variance must be positive")
    for i, v in enumerate(variances):
        if v < 0:
            raise StructureError(f"negative variance at index {i}")
        if 3 * v > 2 * total:
            raise StructureError(f"variance at index {i} exceeds 2V/3; split precondition violated")
    for i, v in enumerate(variances):
        if 3 * v > total:  # v in (V/3, 2V/3]: a singleton works
            a = (i,)
            b = tuple(j for j in range(len(variances)) if j != i)
            return a, b
    running = 0
    chosen: list[int] = []
    for i, v in enumerate(variances):
        chosen.append(i)
        running += v
        if 3 * running >= total:
            break
    a = tuple(chosen)
    b = tuple(j for j in range(len(variances)) if j not in set(chosen))
    return a, b


def theorem1_check(
    xs: Sequence[DiscreteRV],
    constants: Constants = DEFAULT_CONSTANTS,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> BoundReport:
    """Var|sum Xi| >= V Var(sum_{i != k} Xi) / (K2 (V + E^2)), with k chosen
    as the argmax-variance index (ties to the lowest index)."""
    if len(xs) < 2:
        raise StructureError("need at least two variables")
    variances, mean, unit = _moment_sums(xs)  # variances over unit^2, their sum's mean over unit
    total = sum(variances)
    k = variances.index(max(variances))
    lhs = var_abs_sum(xs, 0, atom_cap)
    rhs = _scaled_side(total, total - variances[k], mean, unit, constants.k2)

    def witness() -> Witness:  # partition_split's preconditions are checked here: it cannot raise
        v, e = Fraction(total, unit * unit), Fraction(mean, unit)
        rest_var = Fraction(total - variances[k], unit * unit)
        built: Witness = {"k": k, "v": v, "e": e, "rest_var": rest_var}
        if total > 0 and all(3 * var <= 2 * total for var in variances):
            built["split_a"], built["split_b"] = partition_split(variances)
        return built

    return BoundReport(lhs, rhs, witness)


@dataclass(frozen=True)
class CorollaryReport:
    """Outcome of the partition corollary on one (f, partition) instance."""

    var_f: Fraction
    cross_weight: Fraction
    coeff_empty: Fraction
    block_dists: tuple[Fraction, ...]
    corollary_k: Fraction

    @property
    def dist(self) -> Fraction:
        """The least block distance."""
        return min(self.block_dists)

    @property
    def k(self) -> int:
        """0-based index of the first block at the least distance."""
        return self.block_dists.index(self.dist)

    @property
    def epsilon(self) -> Fraction:
        """cross_weight / Var f, the tightest epsilon of the premise."""
        return self.cross_weight / self.var_f

    @property
    def bound(self) -> Fraction:
        return self.epsilon * self.corollary_k

    @property
    def holds(self) -> bool:
        return self.dist <= self.bound


def corollary2_apply(
    f: BooleanFunction, partition: Partition, constants: Constants = DEFAULT_CONSTANTS
) -> CorollaryReport:
    """Find the block whose restriction (plus the empty coefficient) is
    nearest to f and compare against (K2+2) * epsilon, where epsilon is
    cross_weight / Var f: any epsilon the premise allows is at least that,
    so a larger one would only loosen the bound."""
    var, [(cross, dists)] = stack_block_weights(f.table[None], [partition])
    unit = 1 << 2 * f.m
    var_f = Fraction(int(var[0]), unit)
    if var_f == 0:
        raise StructureError("variance zero: constant function has no epsilon")
    return CorollaryReport(
        var_f=var_f,
        cross_weight=Fraction(int(cross[0]), unit),
        coeff_empty=Fraction(int(f.table.sum(dtype=np.int32)), 1 << f.m),
        block_dists=tuple(Fraction(d, unit) for d in dists[0].tolist()),
        corollary_k=constants.corollary_k,
    )


def tribes_example(m: int) -> tuple[BooleanFunction, Partition]:
    """OR of two ANDs on disjoint m-variable blocks (-1 plays "true").

    Checked on construction, with q = 2^-m: distance to the sum X+Y-1 is
    exactly 4*2^(-2m), Var f = 4p(1-p) with p = 1 - (1 - q)^2, and the cross
    weight is 4q^2(1-q)^2.
    """
    if not 1 <= m <= 13:
        raise StructureError("tribes blocks support 1 <= m <= 13 (2m <= 26)")
    n = 2 * m
    # A block's AND is true (-1) only at its all-(-1) point, local index 2^m - 1.
    # Table index = y * 2^m + x with x the first block, so tables are outer products.
    block_and = np.ones(1 << m, dtype=np.int8)
    block_and[-1] = -1
    f = BooleanFunction(n, _frozen(np.minimum.outer(block_and, block_and).ravel()))
    partition = Partition.from_blocks(n, [range(1, m + 1), range(m + 1, n + 1)])
    # The checks sum int8 tables in int64 (`_sum_sq`), with no int64 table copy.
    diff = np.add.outer(block_and, block_and)
    diff -= 1 + f.table.reshape(diff.shape)  # X + Y - 1 - f, entries 0 or -2
    dist_to_sum = Fraction(int(_sum_sq(diff.reshape(1, -1))[0]), diff.size)
    if dist_to_sum != Fraction(4, 4**m):
        raise VerificationError(f"tribes distance {dist_to_sum} != 4*2^(-2m)")
    q = Fraction(1, 2**m)
    p = 1 - (1 - q) ** 2
    size, total = f.table.size, int(f.table.sum())
    var_f = Fraction(size * int(_sum_sq(f.table[None])[0]) - total * total, size * size)
    if var_f != 4 * p * (1 - p):
        raise VerificationError("tribes variance != 4p(1-p)")
    # cross = size^2 + total^2 - 2^m (sum R1^2 + sum R2^2) over size^2, R_j block j's margin
    square = f.table.reshape(1 << m, 1 << m)
    margins = np.stack([square.sum(axis=0, dtype=np.int64), square.sum(axis=1, dtype=np.int64)])
    sq_margins = int(_sum_sq(margins).sum()) << m
    cross = Fraction(size * size + total * total - sq_margins, size * size)
    if cross != 4 * q * q * (1 - q) ** 2:
        raise VerificationError(f"tribes cross weight {cross} != 4q^2(1-q)^2")
    return f, partition


def claim6_example() -> tuple[DiscreteRV, DiscreteRV]:
    """Balanced pair witnessing that the lemma7/lemma5 constant must be >= 4/3:
    X on {0: 1/2, +-2: 1/4 each}, Y uniform on {+-1}; Var|X+Y| = (3/4) Var|X|."""
    x = DiscreteRV.from_atoms([(0, Fraction(1, 2)), (-2, Fraction(1, 4)), (2, Fraction(1, 4))])
    y = DiscreteRV.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])
    if expectation(x) != 0 or expectation(y) != 0:
        raise VerificationError("claim6 variables must be balanced")
    if variance_rv(abs_rv(convolve(x, y))) != Fraction(3, 4):
        raise VerificationError("claim6 Var|X+Y| != 3/4")
    if variance_rv(abs_rv(x)) != 1:
        raise VerificationError("claim6 Var|X| != 1")
    return x, y
