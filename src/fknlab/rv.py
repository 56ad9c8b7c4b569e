"""Finite-support random variables with exact rational atoms.

`DiscreteRV` holds `fractions.Fraction` atoms, and `convolve`, `abs_rv` and
`variance_rv` act on it atom by atom.  The variance bounds downstream have
huge constants and tiny slacks, so float noise would turn real violations
and rounding artifacts into the same thing; nothing here rounds.

`var_abs_sum` is the hot path behind every Var|X1+...+Xn+E| the bounds need.
It works on an integer lattice: every value becomes an integer over one
common scale L, each variable's masses become integers over their own
denominator D_i, the sum is convolved on Python ints (never a fixed width),
and one `Fraction` is built per result.  Integer sums merge exactly when the
rational ones do, so it is exact for any rational input and equals
`variance_rv(abs_rv(shift(...)))` of the convolved sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .cube import RealFunction, data_lines
from .errors import AtomLimitError, BalanceError, ParseError, StructureError

Rational = Fraction | int | str

DEFAULT_ATOM_CAP = 10**6


def _q(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class DiscreteRV:
    """Atoms (value, probability), values strictly increasing, probs > 0, sum 1."""

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise StructureError("random variable needs at least one atom")
        total = Fraction(0)
        prev = None
        for value, prob in self.atoms:
            if prob <= 0:
                raise StructureError(f"atom ({value}, {prob}) has nonpositive mass")
            if prev is not None and value <= prev:
                raise StructureError("atom values must be strictly increasing")
            prev = value
            total += prob
        if total != 1:
            raise StructureError(f"probabilities sum to {total}, not 1")

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[Rational, Rational]]) -> "DiscreteRV":
        """Coerce to Fraction, merge equal values, sort: the one merge of atoms."""
        merged: dict[Fraction, Fraction] = {}
        for value, prob in pairs:
            value, prob = _q(value), _q(prob)
            merged[value] = merged[value] + prob if value in merged else prob
        return cls(tuple(sorted(merged.items())))

    @classmethod
    def constant(cls, value: Rational) -> "DiscreteRV":
        return cls(((_q(value), Fraction(1)),))

    @property
    def support_size(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class TwoPointBalancedRV:
    """Mean-zero variable on {d/p, -d/(1-p)}, or the constant 0 when d = 0."""

    d: Fraction
    p: Fraction

    def __post_init__(self):
        if self.d < 0:
            raise StructureError("d must be >= 0")
        if not 0 < self.p < 1:
            raise StructureError("p must lie strictly between 0 and 1")

    @classmethod
    def from_rv(cls, rv: DiscreteRV) -> "TwoPointBalancedRV":
        if expectation(rv) != 0:
            raise BalanceError("two-point component must have mean exactly 0")
        if rv.support_size == 1:
            if rv.atoms[0][0] != 0:
                raise BalanceError("single-atom balanced variable must be 0")
            return cls(Fraction(0), Fraction(1, 2))
        if rv.support_size != 2:
            raise StructureError("support size must be at most 2")
        (neg, _), (pos, p_pos) = rv.atoms
        if not neg < 0 < pos:
            raise StructureError("a balanced two-point variable straddles 0")
        return cls(pos * p_pos, p_pos)

    def to_rv(self) -> DiscreteRV:
        q = 1 - self.p  # d = 0 merges both atoms into the constant 0
        return DiscreteRV.from_atoms([(self.d / self.p, self.p), (-self.d / q, q)])


@dataclass(frozen=True)
class ConstAbsRV:
    """Constant-absolute-value variable: +magnitude w.p. p, -magnitude else."""

    magnitude: Fraction
    p: Fraction

    def __post_init__(self):
        if self.magnitude < 0:
            raise StructureError("magnitude must be >= 0")
        if not 0 <= self.p <= 1:
            raise StructureError("p must lie in [0, 1]")

    def to_rv(self) -> DiscreteRV:
        atoms = [(self.magnitude, self.p), (-self.magnitude, 1 - self.p)]
        return DiscreteRV.from_atoms((v, p) for v, p in atoms if p > 0)


def expectation(rv: DiscreteRV) -> Fraction:
    return sum((v * p for v, p in rv.atoms), Fraction(0))


def variance_rv(rv: DiscreteRV) -> Fraction:
    mean = expectation(rv)
    return sum((p * (v - mean) ** 2 for v, p in rv.atoms), Fraction(0))


def _check_atoms(pairs: int, atom_cap: int) -> None:
    if pairs > atom_cap:
        raise AtomLimitError(f"convolution would touch {pairs} atoms (cap {atom_cap})")


def convolve(x: DiscreteRV, y: DiscreteRV, atom_cap: int = DEFAULT_ATOM_CAP) -> DiscreteRV:
    """Distribution of X + Y for independent X, Y; equal sums merged exactly."""
    _check_atoms(x.support_size * y.support_size, atom_cap)
    return DiscreteRV.from_atoms((vx + vy, px * py) for vx, px in x.atoms for vy, py in y.atoms)


def shift(rv: DiscreteRV, c: Rational) -> DiscreteRV:
    c = _q(c)
    return DiscreteRV(tuple((v + c, p) for v, p in rv.atoms))


def negate(rv: DiscreteRV) -> DiscreteRV:
    return DiscreteRV(tuple((-v, p) for v, p in reversed(rv.atoms)))


def abs_rv(rv: DiscreteRV) -> DiscreteRV:
    """Pushforward under v -> |v|, equal magnitudes merged."""
    return DiscreteRV.from_atoms((abs(v), p) for v, p in rv.atoms)


def center(rv: DiscreteRV) -> DiscreteRV:
    """Subtract the mean; the result has mean exactly 0 and equal variance."""
    return shift(rv, -expectation(rv))


def var_abs_sum(
    xs: Sequence[DiscreteRV], e: Rational = 0, atom_cap: int = DEFAULT_ATOM_CAP
) -> Fraction:
    """Var |X1 + ... + Xn + E| for independent Xi, on the integer lattice.

    With values s/L and masses w/D (D the product of the D_i) this is
    (D sum w s^2 - (sum w |s|)^2) / (D^2 L^2).  As in chained `convolve`
    calls, each merge after the first raises AtomLimitError when it would
    touch more than `atom_cap` atoms.
    """
    e = _q(e)
    scale = math.lcm(e.denominator, *(v.denominator for x in xs for v, _ in x.atoms))
    support = {e.numerator * (scale // e.denominator): 1}
    mass_den = 1
    for i, x in enumerate(xs):
        if i:
            _check_atoms(len(support) * x.support_size, atom_cap)
        den = math.lcm(*(p.denominator for _, p in x.atoms))
        atoms = [
            (v.numerator * (scale // v.denominator), p.numerator * (den // p.denominator))
            for v, p in x.atoms
        ]
        merged: dict[int, int] = {}
        for s, w in support.items():
            for v, m in atoms:
                merged[s + v] = merged.get(s + v, 0) + w * m
        support = merged
        mass_den *= den
    sum_sq = sum(w * s * s for s, w in support.items())
    sum_abs = sum(w * abs(s) for s, w in support.items())
    return Fraction(mass_den * sum_sq - sum_abs * sum_abs, (mass_den * scale) ** 2)


def var_abs_shifted(rv: DiscreteRV, e: Rational) -> Fraction:
    """Var |X + E|."""
    return var_abs_sum((rv,), e)


def _sign(v: Fraction) -> int:
    # sign(0) := +1; a zero value contributes the same squared distance
    # either way, so any fixed choice preserves the coupling identity.
    return 1 if v >= 0 else -1


def const_abs_approx(rv: DiscreteRV, e: Rational) -> ConstAbsRV:
    """Nearest constant-magnitude variable to X + E: sign(X+E) * E|X+E|.

    Coupled on the same sample space, E[((X+E) - X')^2] = Var|X+E| exactly.
    """
    shifted = shift(rv, e)
    magnitude = sum((abs(v) * p for v, p in shifted.atoms), Fraction(0))
    p_pos = sum((p for v, p in shifted.atoms if _sign(v) > 0), Fraction(0))
    return ConstAbsRV(magnitude, p_pos)


def approx_coupling_distance(rv: DiscreteRV, e: Rational) -> Fraction:
    """E[((X+E) - X')^2] with X' = const_abs_approx coupled pointwise."""
    shifted = shift(rv, e)
    magnitude = const_abs_approx(rv, e).magnitude
    return sum(
        (p * (v - _sign(v) * magnitude) ** 2 for v, p in shifted.atoms), Fraction(0)
    )


def two_point_decompose(
    rv: DiscreteRV,
) -> list[tuple[Fraction, TwoPointBalancedRV]]:
    """Write a balanced variable as a mixture of balanced <=2-point variables.

    Deterministic pairing: the smallest remaining positive value against the
    smallest-magnitude remaining negative value, extracting the largest
    mean-zero two-point block each round; a zero atom becomes a constant-0
    component of its own mass.  Terminates in at most support-1 rounds and
    the weighted mixture reconstructs the input exactly.
    """
    if expectation(rv) != 0:
        raise BalanceError("two_point_decompose requires mean exactly 0")
    components: list[tuple[Fraction, TwoPointBalancedRV]] = []
    positives = [[v, p] for v, p in rv.atoms if v > 0]
    negatives = [[v, p] for v, p in reversed(rv.atoms) if v < 0]  # |v| ascending
    for v, p in rv.atoms:
        if v == 0:
            components.append((p, TwoPointBalancedRV(Fraction(0), Fraction(1, 2))))
    i = j = 0
    while i < len(positives) and j < len(negatives):
        pos_value, pos_mass = positives[i]
        neg_value, neg_mass = negatives[j]
        scale = min(pos_mass / -neg_value, neg_mass / pos_value)
        w_pos = scale * -neg_value
        w_neg = scale * pos_value
        weight = w_pos + w_neg
        components.append((weight, TwoPointBalancedRV(pos_value * w_pos / weight, w_pos / weight)))
        positives[i][1] -= w_pos
        negatives[j][1] -= w_neg
        if positives[i][1] == 0:
            i += 1
        if negatives[j][1] == 0:
            j += 1
    return components


def mix(components: Sequence[tuple[Fraction, DiscreteRV]]) -> DiscreteRV:
    """Exact mixture of weighted variables (weights must sum to 1)."""
    return DiscreteRV.from_atoms((v, w * p) for w, rv in components for v, p in rv.atoms)


def pushforward(f: RealFunction) -> DiscreteRV:
    """Distribution of f(x) under uniform x; numerator n is the value n / 2^k."""
    values, counts = np.unique(f.table, return_counts=True)
    masses = [Fraction(c, f.table.size) for c in counts.tolist()]
    return DiscreteRV.from_atoms(zip([Fraction(n, 1 << f.k) for n in values.tolist()], masses))


def nearest_boolean_distance(rv: DiscreteRV) -> Fraction:
    """E[(|Z| - 1)^2]: squared distance to the nearest +-1-valued variable."""
    return sum((p * (abs(v) - 1) ** 2 for v, p in rv.atoms), Fraction(0))


# ---------------------------------------------------------------------------
# text format: one atom per line, "value probability", '#' comments allowed


def parse_rv(text: str) -> DiscreteRV:
    atoms = []
    seen: set[Fraction] = set()
    for lineno, stripped in data_lines(text):
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ParseError("expected 'value probability'", lineno)
        try:
            value = Fraction(tokens[0])
            prob = Fraction(tokens[1])
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational in {stripped!r}", lineno) from None
        if value in seen:
            raise ParseError(f"duplicate value {value}", lineno)
        if prob <= 0:
            raise ParseError(f"probability {prob} must be positive", lineno)
        seen.add(value)
        atoms.append((value, prob))
    if not atoms:
        raise ParseError("no atoms found")
    total = sum(p for _, p in atoms)
    if total != 1:
        raise ParseError(f"probabilities sum to {total}, expected exactly 1")
    return DiscreteRV(tuple(sorted(atoms)))


def format_rv(rv: DiscreteRV, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.extend(f"{v} {p}" for v, p in rv.atoms)
    return "\n".join(lines) + "\n"


def format_rv_inline(rv: DiscreteRV) -> str:
    return "(" + ",".join(f"{v}:{p}" for v, p in rv.atoms) + ")"
