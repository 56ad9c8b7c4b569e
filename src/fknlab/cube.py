"""Functions on the hypercube {-1,+1}^m and their Fourier expansions.

Point indexing: bit b of a table index encodes variable x_{b+1}, with the
bit SET meaning x_{b+1} = -1 and clear meaning +1.  Coefficient indexing
uses the same packing: bit b of a subset mask S means variable b+1 is in S.

Every table holds integers: a Boolean truth table is int8, and a real table
(`RealFunction`) or an expansion (`FourierExpansion`) holds numerators n_x
over 2^k, k its field `k`.  Transforms and measures compute on numerators
and build one exact `Fraction` per result.  Numerators are int64 while
2^m N <= L (N = max |n_x|) and Python ints (an object array) past it,
decided once at construction: a wide table is slower, never refused or
rounded.  Every butterfly stage holds at most 2^m N.  For a table L = 2^30:
2^m times a sum of 2^m squares is at most (2^m N)^2 <= 2^60, which bounds
both terms of `variance`, and the squared differences of two int64 tables
over one 2^k sum to at most 2^m (2N)^2 <= 2^62 in `sq_l2_dist`.  For an
expansion, which only `inverse_wht` reads, L = 2^62, so `wht` of a Boolean
table stays int64 (N <= 2^m, and 2^m N <= 2^52 for m <= 26).

Partition weights of Boolean functions come from one kernel,
`stack_block_weights`, one call per stack of tables and list of partitions
(one table and one partition for `bounds.corollary2_apply`; every table
of `boolean_tables` and every two-block partition for the exhaustive
check), in int64 numerators over 4^m; the cross weight is its `cross`
column.  With N = 2^m, the butterfly gives c_S = N * fhat(S), |c_S| <= N,
and an entry of a +-1 row is at most 2^s after s stages, so the one transform
runs its first six stages in int8 and the rest in int32; c_S^2 and their
sums are at most N^2 = 2^2m.  The check of each block distance needs
no transform: the mass of c inside block B is 2^|B| times the sum of
squares of the table's margin on B (the sums R of f over the variables
outside B, |R| <= 2^(m-|B|)), which is at most N^2 <= 2^52 as well, so the
whole kernel is int64 for every m <= M_MAX.

The one table text is the Boolean truth table ('m=<int>', then a '+'/'-'
row); a `RealFunction` is built from its numerators in code.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    DimensionMismatchError,
    ParseError,
    StructureError,
    VerificationError,
)

M_MAX = 26
_INT64_LIMIT = 1 << 30  # a table is int64 while 2^m max |n_x| stays inside it
_CHUNK = 1 << 16  # entries of a row that one butterfly step takes


def _checked_m(m: int) -> None:
    if not 1 <= m <= M_MAX:
        raise CapacityError(f"m={m} outside supported range 1..{M_MAX}")


def _checked_length(m: int, n: int) -> None:
    _checked_m(m)
    if n != 1 << m:
        raise StructureError(f"table length {n} != 2^{m}")


def _numerators(m: int, values, k: int, limit: int = _INT64_LIMIT) -> np.ndarray:
    """Read-only integer numerators over 2^k: int64 while 2^m max |n_x| <= limit,
    Python ints past it.  A non-integer entry is a StructureError, never cast."""
    if not isinstance(k, int) or k < 0:
        raise StructureError(f"the denominator 2^k needs an integer k >= 0, got {k!r}")
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        _checked_length(m, values.size)
        peak = max(int(values.max()), -int(values.min()))
    else:  # a list or an array of another dtype: entries checked one by one
        values = list(values.flat if isinstance(values, np.ndarray) else values)
        _checked_length(m, len(values))
        try:
            values = [operator.index(v) for v in values]
        except TypeError:
            raise StructureError("numerators must be integers") from None
        peak = max(map(abs, values))
    a = np.asarray(values, dtype=object if peak << m > limit else np.int64)
    return _frozen(a.copy() if a is values and a.flags.writeable else a)


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only: constructors copy writable arrays, so fresh ones are frozen first."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BooleanFunction:
    """Truth table of a {-1,+1}-valued function on {-1,+1}^m."""

    m: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table)
        _checked_length(self.m, table.size)
        if not np.all(np.abs(table) == 1):  # on the entries as given
            raise StructureError("Boolean table entries must be exactly +1 or -1")
        copy = table is self.table and table.flags.writeable  # the caller's array
        object.__setattr__(self, "table", _frozen(table.astype(np.int8, copy=copy)))

    def as_real(self) -> "RealFunction":
        return RealFunction(self.m, self.table)


@dataclass(frozen=True, eq=False)
class RealFunction:
    """Dyadic table on {-1,+1}^m: entry x is table[x] / 2^k."""

    m: int
    table: np.ndarray
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "table", _numerators(self.m, self.table, self.k))

    def as_real(self) -> "RealFunction":
        return self

    def mean(self) -> Fraction:
        return Fraction(int(self.table.sum()), self.table.size << self.k)


@dataclass(frozen=True, eq=False)
class FourierExpansion:
    """Coefficients indexed by subset bitmask: the weight of chi_S is coeffs[S] / 2^k."""

    m: int
    coeffs: np.ndarray
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _numerators(self.m, self.coeffs, self.k, 1 << 62))


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of the variable set {1, ..., m} by nonempty blocks."""

    m: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        if not self.blocks:
            raise StructureError("partition needs at least one block")
        for block in self.blocks:
            if not block:
                raise StructureError("empty partition block")
            for i in block:
                if not 1 <= i <= self.m:
                    raise StructureError(f"variable index {i} outside 1..{self.m}")
                if i in seen:
                    raise StructureError(f"variable {i} appears in two blocks")
                seen.add(i)
        if len(seen) != self.m:
            missing = sorted(set(range(1, self.m + 1)) - seen)
            raise StructureError(f"partition does not cover variables {missing}")

    @classmethod
    def from_blocks(cls, m: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Blocks given as index lists; an index repeated inside one is refused."""
        blocks = [list(b) for b in blocks]
        repeats = [i for block in blocks for i in block if block.count(i) > 1]
        if repeats:
            raise StructureError(f"variable {repeats[0]} appears twice in one block")
        return cls(m, tuple(map(frozenset, blocks)))

    def mask(self, j: int) -> int:
        """Bitmask of block j (0-based)."""
        mask = 0
        for i in self.blocks[j]:
            mask |= 1 << (i - 1)
        return mask


CubeFunction = BooleanFunction | RealFunction


def _passes(a: np.ndarray, h: int, stop: int) -> None:
    """Butterfly stages on the index bits log2(h) .. log2(stop) - 1 of the
    last axis of `a`, in place.  Each pass does two stages at once (radix 4,
    on bits b and b+1) while two bits remain, then one radix-2 stage when an
    odd number is left.  A pass goes through each row about _CHUNK entries at
    a time, so that its temporaries stay small and in cache."""
    shape, n = a.shape, a.shape[-1]
    while h < stop:
        radix = 4 if 4 * h <= stop else 2
        groups = n // (radix * h)
        x = a.reshape(*shape[:-1], groups, radix, h)
        step, width = max(1, _CHUNK // (radix * h)), min(h, _CHUNK // radix)
        for g in range(0, groups, step):
            for k in range(0, h, width):
                part = x[..., g : g + step, :, k : k + width]
                if radix == 2:
                    x0, x1 = part[..., 0, :], part[..., 1, :]
                    diff = x0 - x1
                    x0 += x1
                    x1[...] = diff
                else:  # y_k = (x0 +- x1) +- (x2 +- x3), the signs of chi on bits b, b+1
                    x0, x1, x2, x3 = (part[..., i, :] for i in range(4))
                    s, d, t, u = x0 + x1, x0 - x1, x2 + x3, x2 - x3
                    np.add(s, t, out=x0)
                    np.add(d, u, out=x1)
                    np.subtract(s, t, out=x2)
                    np.subtract(d, u, out=x3)
        h *= radix


def _butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis; exact
    on Python ints, on fixed-width integers inside their dtype, and on int8
    rows of entries -1, 0 and 1 (the kernel's +-1 tables).

    Works on one copy of `values` and returns it at least int32 wide.  The
    stages commute, so they run in any order, in segments of `_passes`:
    - int8: after s stages an entry is at most 2^s, so the first six stages
      run in int8 (2^6 <= 127), and the copy widens once to int32 for the
      rest;
    - rows of 2^9 entries or more: a transpose moves the 4 lowest index bits
      to the slow end, where their stages run on long contiguous runs (on
      int8 the two top bits' stages run there too, for six int8 stages), and
      a second transpose, which is also the widening copy, moves them back.
      On shorter rows the moves cost more than the short runs they avoid;
    - every other dtype runs each stage in np.promote_types(dtype, int32).
    """
    shape, n = values.shape, values.shape[-1]
    wide = np.promote_types(values.dtype, np.int32)
    narrow = values.dtype == np.int8
    first = values.dtype if narrow else wide  # the dtype of the first segment
    if n >= 1 << 9:
        lead = n >> (6 if narrow else 4)  # the moved bits, and on int8 two more
        a = values.reshape(*shape[:-1], n >> 4, 16).swapaxes(-1, -2)
        a = np.ascontiguousarray(a, first).reshape(shape)
        _passes(a, lead, n)
        a = a.reshape(*shape[:-1], 16, n >> 4).swapaxes(-1, -2).astype(wide, order="C")
        a = a.reshape(shape)
        _passes(a, 16, lead << 4)
        return a
    top = min(n, 1 << 6) if narrow else n
    a = values.astype(first)
    _passes(a, 1, top)
    a = a.astype(wide, copy=False)
    _passes(a, top, n)
    return a


def wht(f: CubeFunction) -> FourierExpansion:
    """Fourier transform: fhat(S) = 2^-m sum_x f(x) chi_S(x), as numerators over 2^(k+m)."""
    f = f.as_real()
    return FourierExpansion(f.m, _frozen(_butterfly(f.table)), f.k + f.m)


def inverse_wht(expansion: FourierExpansion) -> RealFunction:
    """Evaluate an expansion back to a point table; exact round trip with wht."""
    return RealFunction(expansion.m, _frozen(_butterfly(expansion.coeffs)), expansion.k)


def sq_l2_dist(f: CubeFunction, g: CubeFunction) -> Fraction:
    """Squared L2 semidistance E[(f-g)^2].

    Equals the coefficient-space sum of squared coefficient differences, and
    4 Pr[f != g] for a Boolean pair.
    """
    if f.m != g.m:
        raise DimensionMismatchError(f"m={f.m} vs m={g.m}")
    f, g = f.as_real(), g.as_real()
    k = max(f.k, g.k)
    if f.k == g.k:
        diff = f.table - g.table
    else:  # over the larger 2^k, in Python ints
        diff = (f.table.astype(object) << k - f.k) - (g.table.astype(object) << k - g.k)
    return Fraction(int(np.dot(diff, diff)), diff.size << 2 * k)


def variance(f: CubeFunction) -> Fraction:
    """Var f = E[f^2] - (E f)^2 = sum of squared coefficients over S != 0."""
    f = f.as_real()
    n, total = f.table.size, int(f.table.sum())
    return Fraction(n * int(np.dot(f.table, f.table)) - total * total, n * n << 2 * f.k)


def restriction(f: CubeFunction, block: Iterable[int]) -> RealFunction:
    """Part of f's expansion supported on the nonempty subsets of `block`.

    The result is a mean-zero real function of the block variables only
    (constant along all others), with coefficients copied from f.
    """
    mask = 0
    for i in frozenset(block):
        if not 1 <= i <= f.m:
            raise StructureError(f"variable index {i} outside 1..{f.m}")
        mask |= 1 << (i - 1)
    subsets = np.arange(1 << f.m)
    keep = ((subsets & ~mask) == 0) & (subsets != 0)
    expansion = wht(f)
    kept = _frozen(np.where(keep, expansion.coeffs, 0))
    return inverse_wht(FourierExpansion(f.m, kept, expansion.k))


def boolean_tables(m: int) -> np.ndarray:
    """All 2^(2^m) Boolean truth tables on m = 1..4 variables, one per row of
    a read-only int8 array, in table-integer order: bit i of the row number
    set means table[i] = -1."""
    if not 1 <= m <= 4:
        raise StructureError(f"exhaustive enumeration supported only for 1 <= m <= 4, got m={m}")
    n = 1 << m
    bits = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    return _frozen((1 - 2 * bits).astype(np.int8))


def _sum_sq(c: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """Sum of squares of each row, in int64, over the columns the boolean
    `keep` marks (all by default), with no copy of the selected columns."""
    if keep is None:
        return np.einsum("ij,ij->i", c, c, dtype=np.int64)
    return np.einsum("ij,ij,j->i", c, c, keep, dtype=np.int64)


def _submasks(mask: int) -> np.ndarray:
    """The 2^|mask| subsets of a bitmask, as indices."""
    subsets = np.zeros(1, dtype=np.int64)
    for b in range(mask.bit_length()):
        if mask >> b & 1:
            subsets = np.concatenate([subsets, subsets | 1 << b])
    return subsets


def _pointwise_sq_dist(f: np.ndarray, mask: int) -> np.ndarray:
    """||f - g||^2 per row of the +-1 tables f, as int64 numerators
    over 4^m, where g = E[f | x_B] for the block B of bitmask `mask`: with
    N = 2^m and R the margin of f on B (the sums of f over the variables
    outside B), it is N^2 - 2^|B| sum R^2.  It reads f alone, never the
    coefficients, so a faulty transform cannot feed both sides of the
    distance check.  Each row is laid out as (2, ..., 2), bit b on axis m - b
    (axis 0 holds the rows), so the margin sums the other axes in place.
    """
    rows, n = f.shape
    m = n.bit_length() - 1
    outside = tuple(a for a in range(1, m + 1) if not mask >> m - a & 1)
    inside = m - len(outside)
    margin = f.reshape(rows, *(2,) * m).sum(axis=outside, dtype=np.int32)
    return n * n - (_sum_sq(margin.reshape(rows, 1 << inside)) << inside)


def stack_block_weights(
    tables: np.ndarray, partitions: Sequence[Partition]
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Var f and, per partition in order, (cross, dists) of a stack of Boolean
    tables on m variables, one row of 2^m entries per function, as int64
    numerators over 4^m: the cross weight and, in column j of dists, the
    distance to block j's restriction plus the empty coefficient.  The stack
    is checked and transformed once for all the partitions, the only
    transform run.

    With N = 2^m and c = N * coefficients, inside_j is the squared mass on
    the 2^|B_j| subsets of block j, gathered by index, dist_j is
    N^2 - inside_j, and the cross weight is summed over the sets in no block.
    Checked on every row, as VerificationError: Parseval, the sum of c^2
    against N^2 (a +-1 row's squares sum to N), Var f from the table against
    the coefficients, the cross weight against the identity
    N^2 - c_0^2 - sum_j (inside_j - c_0^2), and each distance against
    `_pointwise_sq_dist`, which reads the tables and not c.
    """
    n = tables.shape[-1]
    m = n.bit_length() - 1
    _checked_m(m)
    if tables.ndim != 2 or n != 1 << m:
        raise DimensionMismatchError(f"{m} variables, tables of shape {tables.shape}")
    if not np.all(np.abs(tables) == 1):  # on the entries as given
        raise StructureError("Boolean table entries must be exactly +1 or -1")
    c = _butterfly(tables)
    total = _sum_sq(c)
    if np.any(total != n * n):
        raise VerificationError("Parseval fails on the stack")
    c0_sq = c[:, 0].astype(np.int64) ** 2
    var = total - c0_sq
    if np.any(n * n - tables.sum(axis=1) ** 2 != var):
        raise VerificationError("table and coefficient variances differ on the stack")
    weights = []
    for partition in partitions:
        if partition.m != m:
            raise DimensionMismatchError(f"partition over {partition.m} variables, stack over {m}")
        inside_some = np.zeros(n, dtype=bool)
        block_var_total = np.zeros_like(var)
        dists = np.empty((len(tables), len(partition.blocks)), dtype=np.int64)
        for j in range(len(partition.blocks)):
            mask = partition.mask(j)
            subsets = _submasks(mask)
            inside = _sum_sq(c[:, subsets])
            dists[:, j] = total - inside
            block_var_total += inside - c0_sq
            inside_some[subsets] = True
            if np.any(_pointwise_sq_dist(tables, mask) != dists[:, j]):
                raise VerificationError(f"block {j}: coefficient route != pointwise on the stack")
        cross = _sum_sq(c, ~inside_some)
        if np.any(cross != n * n - c0_sq - block_var_total):
            raise VerificationError("cross weight mismatch on the stack")
        weights.append((cross, dists))
    return var, weights


def balance_extend(f: BooleanFunction) -> BooleanFunction:
    """Append variable m+1 to make f balanced while keeping it as close to
    linear: g(x, x_{m+1}) = x_{m+1} * f(x_{m+1} x_1, ..., x_{m+1} x_m).

    Odd-size coefficient sets are unchanged; even-size sets (including the
    empty set) move to S + {m+1}, so the new first-level weight equals the
    old weight on levels 0 and 1.
    """
    if f.m + 1 > M_MAX:
        raise CapacityError(f"cannot extend beyond m={M_MAX}")
    # x_{m+1} = +1 half copies f; the -1 half is -f at the fully flipped point.
    extended = np.concatenate([f.table, -f.table[::-1]])
    return BooleanFunction(f.m + 1, _frozen(extended))


# ---------------------------------------------------------------------------
# text formats


def data_lines(text: str) -> list[tuple[int, str]]:
    """Non-empty, non-comment lines with their 1-based numbers."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((lineno, stripped))
    return out


def parse_fraction(token: str) -> Fraction:
    """Exact rational from 'p/q' or decimal text."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {token!r}") from None


def parse_boolean_function(text: str) -> BooleanFunction:
    lines = data_lines(text)
    if not lines:
        raise ParseError("empty input")
    lineno, header = lines[0]
    if not header.startswith("m="):
        raise ParseError("expected header 'm=<int>'", lineno)
    try:
        m = int(header[2:])
    except ValueError:
        raise ParseError(f"bad variable count {header[2:]!r}", lineno) from None
    _checked_m(m)
    if len(lines) != 2:
        raise ParseError("expected exactly one table line after the header")
    lineno, row = lines[1]
    if len(row) != 1 << m:
        raise ParseError(f"table line has {len(row)} chars, expected {1 << m}", lineno)
    # one byte per character, non-Latin-1 ones as '?'; '+' is 43 and '-' is 45,
    # so (byte - 43) & 0xFD is 0 for those two alone, and 44 - byte is the entry
    raw = np.frombuffer(row.encode("latin-1", "replace"), dtype=np.uint8)
    work = raw - 43
    work &= 0xFD
    if work.any():
        i = int(work.nonzero()[0][0])
        raise ParseError(f"bad table character {row[i]!r} at position {i}", lineno)
    return BooleanFunction(m, _frozen(np.subtract(44, raw, out=work).view(np.int8)))


def format_boolean_function(f: BooleanFunction, comments: Sequence[str] = ()) -> str:
    head = [f"# {c}" for c in comments]
    return "\n".join(head + [f"m={f.m}", format_table_row(f)]) + "\n"


def format_table_row(f: BooleanFunction) -> str:
    """The truth table as one '+'/'-' row, entry 0 first."""
    return format_table_rows(f.table)[0]


def format_table_rows(tables: np.ndarray) -> list[str]:
    """One '+'/'-' row per +-1 table along the last axis, entry 0 first:
    the byte of entry e is 44 - e ('+' is 43, '-' is 45)."""
    n = tables.shape[-1]
    text = np.subtract(44, tables, dtype=np.int8).view(np.uint8).tobytes().decode("ascii")
    return [text[i : i + n] for i in range(0, len(text), n)]


def parse_partition(text: str, m: int) -> Partition:
    blocks = []
    for chunk in text.strip().split("|"):
        if not chunk:
            raise ParseError(f"empty block in partition {text!r}")
        try:
            blocks.append([int(tok) for tok in chunk.split(",")])
        except ValueError:
            raise ParseError(f"bad index in partition block {chunk!r}") from None
    try:
        return Partition.from_blocks(m, blocks)
    except StructureError as exc:
        raise ParseError(str(exc)) from None


def format_partition(partition: Partition) -> str:
    return "|".join(
        ",".join(str(i) for i in sorted(block)) for block in partition.blocks
    )
