"""Finite-support random variables with exact rational atoms.

`DiscreteRV` stores value numerators over one scale and mass numerators over
one denominator, in lowest terms, so equal distributions compare equal.
Every operation reads those Python ints (no fixed width, no numpy) and builds
one `Fraction` per result; `atoms` gives the Fractions.  The bounds downstream
have huge constants and tiny slacks, so nothing here rounds.

`var_abs_sum`, the hot path behind every Var|X1+...+Xn+E| of two or more
variables the bounds need, shifts the first variable by E, merges each next
one but the last over one common value scale (integer sums merge exactly
when the rational ones do), then folds the last variable in without
merging: power sums give the second moment, and prefix sums over the sorted
partial support, bisected at each last value's negation, give the first
absolute moment.

One shifted variable takes one pass: `_abs_sums` gives sum m s^2, sum m |s|
and the mass of s >= 0 over its shifted numerators s.  `_var_abs_terms`
turns them into Var|X+E| as an unreduced integer pair, which the bounds
compare by cross-multiplying; `var_abs_shifted` and `const_abs_approx`
build their Fractions from the same pass.

Maps that keep the values distinct and in order build no merge: `shift` and
`center` move the value numerators and divide out one gcd (the masses stay
as they are), and the two-atom `to_rv` of `TwoPointBalancedRV` and
`ConstAbsRV` write their canonical variable straight from the numerators
and denominators of their fields.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cube import data_lines
from .errors import AtomLimitError, BalanceError, ParseError, StructureError

Rational = Fraction | int | str

DEFAULT_ATOM_CAP = 10**6


def _q(x: Rational, name: str = "value") -> Fraction:
    """x as a Fraction; a float (Fraction(0.3) is not 3/10), a string that is
    no rational ('1/0', 'abc') or a value of another type (None, [1]) is a
    StructureError naming `name`.  A Fraction passes through unchecked."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, float):
        try:
            return Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise StructureError(f"{name} must be an exact rational, got {x!r}")


def _exact_field(obj: object, name: str) -> Fraction:
    """Store field `name` of a frozen dataclass as a Fraction, by `_q`."""
    exact = _q(getattr(obj, name), name)
    object.__setattr__(obj, name, exact)
    return exact


@dataclass(frozen=True)
class DiscreteRV:
    """Atom i is (values[i] / scale, masses[i] / den): values strictly
    increasing, masses positive and summing to den, both in lowest terms
    (gcd(scale, *values) = gcd(*masses) = 1)."""

    values: tuple[int, ...]
    masses: tuple[int, ...] = ()
    scale: int = 1
    den: int = 1

    def __init__(self, values, masses=(), scale=1, den=1):
        fields = self.__dict__  # frozen: each set once, here, without object.__setattr__
        fields["values"], fields["masses"] = values, masses
        fields["scale"], fields["den"] = scale, den
        self.__post_init__()

    def __post_init__(self):
        values, masses = self.values, self.masses
        if not values:
            raise StructureError("random variable needs at least one atom")
        if len(masses) != len(values) or min(masses) <= 0 or self.scale < 1:
            raise StructureError("need a positive mass per value and a positive scale")
        if not all(map(operator.lt, values, values[1:])):
            raise StructureError("atom values must be strictly increasing")
        if sum(masses) != self.den:
            raise StructureError(f"probabilities sum to {sum(masses)}/{self.den}, not 1")
        if math.gcd(self.scale, *values) != 1 or math.gcd(*masses) != 1:
            raise StructureError("values and masses must be in lowest terms")

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[Rational, Rational]]) -> "DiscreteRV":
        """Merge (value, probability) pairs on the lattice of their denominators."""
        pairs = [(_q(v), _q(p, "probability")) for v, p in pairs]
        scale = math.lcm(*(v.denominator for v, _ in pairs))
        den = math.lcm(*(p.denominator for _, p in pairs))
        return _merge([((v * scale).numerator, (p * den).numerator) for v, p in pairs], scale, den)

    @classmethod
    def constant(cls, value: Rational) -> "DiscreteRV":
        value = _q(value)
        return cls((value.numerator,), (1,), value.denominator)

    @functools.cached_property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(value, probability) Fractions, values increasing."""
        pairs = zip(self.values, self.masses)
        return tuple((Fraction(v, self.scale), Fraction(m, self.den)) for v, m in pairs)

    @property
    def support_size(self) -> int:
        return len(self.values)


def _merge(pairs: Iterable[tuple[int, int]], scale: int, den: int) -> DiscreteRV:
    """The one merge of atoms: (value numerator over scale, mass numerator
    over den) pairs, equal values merged, sorted and put in lowest terms."""
    merged: dict[int, int] = {}
    for v, m in pairs:
        merged[v] = merged.get(v, 0) + m
    values = sorted(merged)
    g, h = math.gcd(scale, *values), math.gcd(den, *merged.values())
    masses = tuple(merged[v] // h for v in values)
    return DiscreteRV(tuple(v // g for v in values), masses, scale // g, den // h)


@dataclass(frozen=True)
class TwoPointBalancedRV:
    """Mean-zero variable on {d/p, -d/(1-p)}, or the constant 0 when d = 0."""

    d: Fraction
    p: Fraction

    def __post_init__(self):
        if _exact_field(self, "d") < 0:
            raise StructureError("d must be >= 0")
        if not 0 < _exact_field(self, "p") < 1:
            raise StructureError("p must lie strictly between 0 and 1")

    @classmethod
    def from_rv(cls, rv: DiscreteRV) -> "TwoPointBalancedRV":
        if expectation(rv) != 0:
            raise BalanceError("two-point component must have mean exactly 0")
        if rv.support_size == 1:  # mean 0: the constant 0
            return cls(Fraction(0), Fraction(1, 2))
        if rv.support_size != 2:
            raise StructureError("support size must be at most 2")
        _, (pos, p_pos) = rv.atoms  # mean 0: one negative atom, one positive
        return cls(pos * p_pos, p_pos)

    def to_rv(self) -> DiscreteRV:
        """With d = n/k and p = a/b: mass (b-a)/b on -d/(1-p) and a/b on d/p,
        the values -n b a and n b (b-a) over k a (b-a); d = 0 is the constant 0."""
        n, k = self.d.numerator, self.d.denominator
        a, b = self.p.numerator, self.p.denominator
        if not n:
            return DiscreteRV((0,), (1,))
        scale = k * a * (b - a)
        g = math.gcd(scale, n * b)  # gcd(a, b - a) = 1, so n b divides both values
        return DiscreteRV((-(n * b // g) * a, (n * b // g) * (b - a)), (b - a, a), scale // g, b)


@dataclass(frozen=True)
class ConstAbsRV:
    """Constant-absolute-value variable: +magnitude w.p. p, -magnitude else."""

    magnitude: Fraction
    p: Fraction

    def __post_init__(self):
        if _exact_field(self, "magnitude") < 0:
            raise StructureError("magnitude must be >= 0")
        if not 0 <= _exact_field(self, "p") <= 1:
            raise StructureError("p must lie in [0, 1]")

    def to_rv(self) -> DiscreteRV:
        """With magnitude n/k and p = a/b: mass (b-a)/b on -n/k and a/b on n/k,
        one atom when magnitude 0 or p is 0 or 1."""
        n, k = self.magnitude.numerator, self.magnitude.denominator
        a, b = self.p.numerator, self.p.denominator
        if not n or a == b:
            return DiscreteRV((n,), (1,), k)
        if not a:
            return DiscreteRV((-n,), (1,), k)
        return DiscreteRV((-n, n), (b - a, a), k, b)


def _moment_sums(xs: Sequence[DiscreteRV]) -> tuple[list[int], int, int]:
    """Moments of xs over one unit u = lcm(D_i L_i), from their integers:
    each variance as a numerator over u^2, and the sum of the means over u."""
    unit = math.lcm(*(x.den * x.scale for x in xs))
    variances, mean = [], 0
    for x in xs:
        s1 = s2 = 0
        for v, m in zip(x.values, x.masses):
            s1 += m * v
            s2 += m * v * v
        f = unit // (x.den * x.scale)
        variances.append((x.den * s2 - s1 * s1) * f * f)
        mean += s1 * f
    return variances, mean, unit


def _mass_moment(rv: DiscreteRV) -> int:
    """sum m v: the mean's numerator over den * scale."""
    return sum(map(operator.mul, rv.masses, rv.values))


def expectation(rv: DiscreteRV) -> Fraction:
    return Fraction(_mass_moment(rv), rv.den * rv.scale)


def variance_rv(rv: DiscreteRV) -> Fraction:
    return Fraction(_moment_sums((rv,))[0][0], (rv.den * rv.scale) ** 2)


def _check_atoms(pairs: int, atom_cap: int) -> None:
    if pairs > atom_cap:
        raise AtomLimitError(f"convolution would touch {pairs} atoms (cap {atom_cap})")


def convolve(x: DiscreteRV, y: DiscreteRV, atom_cap: int = DEFAULT_ATOM_CAP) -> DiscreteRV:
    """Distribution of X + Y for independent X, Y; equal sums merged exactly."""
    _check_atoms(x.support_size * y.support_size, atom_cap)
    scale = math.lcm(x.scale, y.scale)
    fx, fy = scale // x.scale, scale // y.scale
    ys = [(v * fy, m) for v, m in zip(y.values, y.masses)]
    sums = ((vx * fx + vy, mx * my) for vx, mx in zip(x.values, x.masses) for vy, my in ys)
    return _merge(sums, scale, x.den * y.den)


def _shift_terms(rv: DiscreteRV, num: int, den: int) -> tuple[int, int, int]:
    """(L, f, add): X + num/den (den > 0, not necessarily in lowest terms)
    has the value numerators v f + add over L = lcm(scale, den)."""
    scale = math.lcm(rv.scale, den)
    return scale, scale // rv.scale, num * (scale // den)


def _with_values(values: list[int], rv: DiscreteRV, scale: int) -> DiscreteRV:
    """rv's masses on new distinct increasing value numerators over `scale`:
    the masses are in lowest terms already, so only the values are reduced."""
    g = math.gcd(scale, *values)
    if g > 1:
        values, scale = [v // g for v in values], scale // g
    return DiscreteRV(tuple(values), rv.masses, scale, rv.den)


def shift(rv: DiscreteRV, c: Rational) -> DiscreteRV:
    """X + c: adding a constant keeps the values distinct and in order."""
    c = _q(c)
    scale, f, add = _shift_terms(rv, c.numerator, c.denominator)
    return _with_values([v * f + add for v in rv.values], rv, scale)


def negate(rv: DiscreteRV) -> DiscreteRV:
    return DiscreteRV(tuple(-v for v in reversed(rv.values)), rv.masses[::-1], rv.scale, rv.den)


def abs_rv(rv: DiscreteRV) -> DiscreteRV:
    """Pushforward under v -> |v|, equal magnitudes merged."""
    return _merge(((abs(v), m) for v, m in zip(rv.values, rv.masses)), rv.scale, rv.den)


def center(rv: DiscreteRV) -> DiscreteRV:
    """Subtract the mean; the result has mean exactly 0 and equal variance."""
    return _centered(rv, _mass_moment(rv))


def _centered(rv: DiscreteRV, moment: int) -> DiscreteRV:
    """X - E[X] from moment = sum m v: the values (D v - moment) over D L."""
    return _with_values([rv.den * v - moment for v in rv.values], rv, rv.den * rv.scale)


def var_abs_sum(
    xs: Sequence[DiscreteRV], e: Rational = 0, atom_cap: int = DEFAULT_ATOM_CAP
) -> Fraction:
    """Var |X1 + ... + Xn + E| for independent Xi, on the integer lattice.

    With values s/L and masses w/D (D the product of the D_i) this is
    (D sum w s^2 - (sum w |s|)^2) / (D^2 L^2).  As in chained `convolve`
    calls, each variable after the first raises AtomLimitError when its merge
    would touch more than `atom_cap` atoms.  The last merge builds no atoms: its
    two sums come from the sorted partial sum by prefix sums.  With no
    variables the sum is the constant E, of variance 0.
    """
    if not xs:
        return Fraction(0)
    if type(e) is not int:  # an int is its own numerator over 1: no Fraction built
        e = _q(e, "E")
    scale = math.lcm(e.denominator, *(x.scale for x in xs))
    shift = e.numerator * (scale // e.denominator)
    support, mass_den = {shift: 1}, 1
    for i, x in enumerate(xs):
        if i:
            _check_atoms(len(support) * x.support_size, atom_cap)
        f, mass_den = scale // x.scale, mass_den * x.den
        if not i and len(xs) > 1:  # E plus distinct values: a shift, no merge
            support = dict(zip([v * f + shift for v in x.values], x.masses))
            continue
        atoms = [(v * f, m) for v, m in zip(x.values, x.masses)]
        if i == len(xs) - 1:
            break
        merged: dict[int, int] = {}
        get = merged.get
        for s, w in support.items():
            for v, m in atoms:
                t = s + v
                merged[t] = get(t, 0) + w * m
        support = merged
    sum_sq, sum_abs = _fold_last(support, atoms)
    return Fraction(mass_den * sum_sq - sum_abs * sum_abs, (mass_den * scale) ** 2)


def _fold_last(support: dict[int, int], atoms: list[tuple[int, int]]) -> tuple[int, int]:
    """(sum w m (s+v)^2, sum w m |s+v|) over partial atoms (s, w) and last
    atoms (v, m), without the merged sum.  The squares expand into the power
    sums of both sides.  For the absolute values, bisect the sorted s at -v:
    sum w |s+v| is the total sum w (s+v) less twice its part below -v, read
    from prefix sums of w and w s (an s+v = 0 counts 0 on either side)."""
    points = sorted(support)
    lower_w, lower_ws = [0], [0]  # sums over points[:j]
    a0 = a1 = a2 = 0
    for s in points:
        w = support[s]
        a0 += w
        a1 += w * s
        a2 += w * s * s
        lower_w.append(a0)
        lower_ws.append(a1)
    b0 = b1 = b2 = sum_abs = 0
    for v, m in atoms:
        b0 += m
        b1 += m * v
        b2 += m * v * v
        j = bisect.bisect_left(points, -v)
        sum_abs += m * (a1 + v * a0 - 2 * (lower_ws[j] + v * lower_w[j]))
    return b0 * a2 + 2 * a1 * b1 + a0 * b2, sum_abs


def _abs_sums(rv: DiscreteRV, f: int, add: int) -> tuple[int, int, int]:
    """(sum m s^2, sum m |s|, mass of s >= 0) over the numerators s = v f + add,
    in one pass."""
    sq = total = nonnegative = 0
    for v, m in zip(rv.values, rv.masses):
        s = v * f + add
        sq += m * s * s
        if s >= 0:
            total += m * s
            nonnegative += m
        else:
            total -= m * s
    return sq, total, nonnegative


def _var_abs_terms(rv: DiscreteRV, num: int, den: int) -> tuple[int, int]:
    """Var |X + num/den| as the unreduced pair (D sum m s^2 - (sum m |s|)^2, (D L)^2)
    over the numerators s of X + num/den over L, from one pass."""
    scale, f, add = _shift_terms(rv, num, den)
    sq, total, _ = _abs_sums(rv, f, add)
    return rv.den * sq - total * total, (rv.den * scale) ** 2


def var_abs_shifted(rv: DiscreteRV, e: Rational) -> Fraction:
    """Var |X + E|."""
    e = _q(e, "E")
    return Fraction(*_var_abs_terms(rv, e.numerator, e.denominator))


def const_abs_approx(rv: DiscreteRV, e: Rational) -> ConstAbsRV:
    """Nearest constant-magnitude variable to X + E: sign(X+E) * E|X+E|.

    Coupled on the same sample space, E[((X+E) - X')^2] = Var|X+E| exactly.
    """
    e = _q(e)
    scale, f, add = _shift_terms(rv, e.numerator, e.denominator)
    _, total, nonnegative = _abs_sums(rv, f, add)
    return ConstAbsRV(Fraction(total, scale * rv.den), Fraction(nonnegative, rv.den))


def two_point_decompose(rv: DiscreteRV) -> list[tuple[Fraction, TwoPointBalancedRV]]:
    """Write a balanced variable as a mixture of balanced <=2-point variables.

    Deterministic pairing: the smallest remaining positive value against the
    smallest-magnitude remaining negative value, extracting the largest
    mean-zero two-point block each round; a zero atom becomes a constant-0
    component of its own mass.  Terminates in at most support-1 rounds and
    the weighted mixture reconstructs the input exactly.
    """
    if expectation(rv) != 0:
        raise BalanceError("two_point_decompose requires mean exactly 0")
    zero = TwoPointBalancedRV(Fraction(0), Fraction(1, 2))
    components = [(p, zero) for v, p in rv.atoms if v == 0]
    # [|v|, first moment |v| p left] per atom, magnitudes ascending; both sides hold the same total
    positives = [[v, v * p] for v, p in rv.atoms if v > 0]
    negatives = [[-v, -v * p] for v, p in reversed(rv.atoms) if v < 0]
    i = j = 0
    while i < len(positives) and j < len(negatives):
        (pos, pos_moment), (neg, neg_moment) = positives[i], negatives[j]
        moment = min(pos_moment, neg_moment)  # the block takes mass moment/pos and moment/neg
        weight = moment / pos + moment / neg
        components.append((weight, TwoPointBalancedRV(moment / weight, moment / pos / weight)))
        positives[i][1] -= moment
        negatives[j][1] -= moment
        i += positives[i][1] == 0
        j += negatives[j][1] == 0
    return components


def mix(components: Sequence[tuple[Fraction, DiscreteRV]]) -> DiscreteRV:
    """Exact mixture of weighted variables (weights must sum to 1)."""
    components = [(_q(w) / rv.den, rv) for w, rv in components]  # weight per mass numerator
    scale = math.lcm(*(rv.scale for _, rv in components))
    den = math.lcm(*(w.denominator for w, _ in components))
    atoms = [(w, rv.scale, v, m) for w, rv in components for v, m in zip(rv.values, rv.masses)]
    return _merge([(v * (scale // s), (w * m * den).numerator) for w, s, v, m in atoms], scale, den)


# ---------------------------------------------------------------------------
# text format: one atom per line, "value probability", '#' comments allowed


def parse_rv(text: str) -> DiscreteRV:
    atoms: dict[Fraction, Fraction] = {}
    for lineno, stripped in data_lines(text):
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ParseError("expected 'value probability'", lineno)
        try:
            value, prob = Fraction(tokens[0]), Fraction(tokens[1])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational in {stripped!r}", lineno) from None
        if value in atoms:
            raise ParseError(f"duplicate value {value}", lineno)
        if prob <= 0:
            raise ParseError(f"probability {prob} must be positive", lineno)
        atoms[value] = prob
    if not atoms:
        raise ParseError("no atoms found")
    total = sum(atoms.values())
    if total != 1:
        raise ParseError(f"probabilities sum to {total}, expected exactly 1")
    return DiscreteRV.from_atoms(atoms.items())


def format_rv(rv: DiscreteRV, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{v} {p}" for v, p in rv.atoms)
    return "\n".join(lines) + "\n"


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) without building the Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_rv_inline(rv: DiscreteRV) -> str:
    """(v1:p1,v2:p2,...): each atom's value and probability as str(Fraction) prints them."""
    scale, den = rv.scale, rv.den
    atoms = [f"{_ratio_text(v, scale)}:{_ratio_text(m, den)}" for v, m in zip(rv.values, rv.masses)]
    return "(" + ",".join(atoms) + ")"
