"""Cell counts, row sums and alternating sums of the {4,q} triangle.

Counts and sums are each a Triple (a, b, s) of kind-A, kind-B and whole-row
figures, computed by three independent routes that must agree exactly:

  * the coupled first-order system that the growing rule induces
    (triangle.count_system, triangle.sum_system), advanced n - 1 rows at
    once as a matrix power by repeated squaring (linrec.advance),
  * the ternary recurrence obtained by eliminating the coupling, streamed
    term by term and read by the cross-checks alone,
  * the closed form, evaluated by _closed in exact quadratic-field arithmetic.

Counts (a_n kind-A cells, b_n kind-B cells, s_n = a_n + b_n + 2 cells in
row n) obey x[n] = (q-1)x[n-1] - (q-1)x[n-2] + x[n-3]; their closed form
lives in Q(sqrt(q^2-4q)).  Row sums obey x[n] = q x[n-1] - (q+1)x[n-2]
+ 2 x[n-3] with closed form in Q(sqrt(q^2-2q-7)).

alt_triple_from_row reads a row of any q; the other alternating-sum
helpers are specific to q = 5, where the signed row sum stabilises: it is
1 for row 0, vanishes for rows of even length (n = 3t+1) and for n = 2,
is -2 for n = 3, and equals 2 from n = 5 on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from .linrec import advance
from .quadfield import QuadElem
from .triangle import Row, _check_q, count_system, part_sums, sum_system


class DegenerateDiscriminant(ValueError):
    """q = 4 makes the counting discriminant vanish; no closed form."""


class Triple(NamedTuple):
    """A row figure over kind-A cells, kind-B cells and the whole row: the
    cell counts or the value sums, by any route."""

    a: int
    b: int
    s: int


class AltTriple(NamedTuple):
    """Signed sums over kind-A cells, kind-B cells, and the whole row.

    Cell i has sign (-1)**i; the wingers, cells 0 and L-1, count in total
    only.
    """

    a_part: int
    b_part: int
    total: int


def _check_args(q: int, n: int) -> None:
    _check_q(q)
    if n < 1:
        raise ValueError(f"row index must be at least 1, got {n}")


def counts_coupled(q: int, n: int) -> Triple:
    _check_args(q, n)
    a, b = advance(count_system(q), n - 1)
    return Triple(a, b, a + b + 2)


def sums_coupled(q: int, n: int) -> Triple:
    _check_args(q, n)
    a, b = advance(sum_system(q), n - 1)
    return Triple(a, b, a + b + 2)


def _ternary(initial: tuple[int, int, int], c1: int, c2: int, c3: int) -> Iterator[int]:
    """Terms x_1, x_2, ... of x[n] = c1 x[n-1] + c2 x[n-2] + c3 x[n-3] from x_1..x_3."""
    x1, x2, x3 = initial
    while True:
        yield x1
        x1, x2, x3 = x2, x3, c1 * x3 + c2 * x2 + c3 * x1


def _count_streams(q: int) -> list[Iterator[int]]:
    """Ternary streams of a, b and s over rows 1, 2, ..."""
    seeds = ((0, 1, 2), (0, 0, q - 4), (2, 3, q))  # rows 1..3
    return [_ternary(x, q - 1, -(q - 1), 1) for x in seeds]


def _sum_streams(q: int) -> list[Iterator[int]]:
    """Ternary streams of the A, B and whole-row sums over rows 1, 2, ..."""
    seeds = ((0, 2, 6), (0, 0, 2 * (q - 4)), (2, 4, 2 * q))  # rows 1..3
    return [_ternary(x, q, -(q + 1), 2) for x in seeds]


# counts_ternary and sums_ternary run each stream to row n on its own: stepping
# the three together, a triple per row, is slower on the `sequences` benchmark
def counts_ternary(q: int, n: int) -> Triple:
    _check_args(q, n)
    return Triple(*(next(islice(s, n - 1, None)) for s in _count_streams(q)))


def sums_ternary(q: int, n: int) -> Triple:
    _check_args(q, n)
    return Triple(*(next(islice(s, n - 1, None)) for s in _sum_streams(q)))


def _closed(n: int, d: int, growth: Fraction, coefs: tuple, shifts: tuple) -> Triple:
    """The Triple of coef g^n + its conjugate + shift, for g = growth + sqrt(d)/2."""
    p = QuadElem(growth, Fraction(1, 2), d) ** n
    twice = (2 * (c.re * p.re + c.rt * p.rt * d) for c in coefs)  # coef g^n + its conjugate
    return Triple(*(QuadElem(t + k).as_integer() for t, k in zip(twice, shifts)))


def counts_closed(q: int, n: int) -> Triple:
    _check_args(q, n)
    if q == 4:
        raise DegenerateDiscriminant("counting closed form needs q >= 5")
    d = q * q - 4 * q
    coefs = (
        QuadElem(Fraction(2 - q, 2), Fraction(q * q - 4 * q + 2, 2 * q * (q - 4)), d),
        QuadElem(Fraction(q - 3, 2), Fraction(1 - q, 2 * q), d),
        QuadElem(Fraction(-1, 2), Fraction(q - 2, 2 * q * (q - 4)), d),
    )
    return _closed(n, d, Fraction(q - 2, 2), coefs, (1, -1, 2))


def sums_closed(q: int, n: int) -> Triple:
    _check_args(q, n)
    d = q * q - 2 * q - 7  # nonnegative for every q >= 4
    coefs = (
        QuadElem(Fraction(1 - q, 2), Fraction(q * q - 2 * q - 3, 2 * d), d),
        QuadElem(Fraction(q - 2, 2), Fraction(-(q * q - 3 * q - 2), 2 * d), d),
        QuadElem(Fraction(-1, 2), Fraction(q - 1, 2 * d), d),
    )
    return _closed(n, d, Fraction(q - 1, 2), coefs, (2, -2, 2))


# ---------------------------------------------------------------------------
# parity, alternating and weighted sums: q = 5 only, but alt_triple_from_row
# ---------------------------------------------------------------------------


def parity_s(n: int) -> int:
    """s_n mod 2 for q = 5: even exactly when n = 3t + 1."""
    if n < 1:
        raise ValueError("row index must be at least 1")
    return 0 if n % 3 == 1 else 1


def alt_sum(n: int) -> int:
    """Alternating row sum for q = 5."""
    if n < 0:
        raise ValueError("row index must be nonnegative")
    if n == 0:
        return 1
    if n % 3 == 1:
        return 0
    if n == 2:
        return 0
    if n == 3:
        return -2
    return 2


def alt_triple_from_row(row: Row) -> AltTriple:
    """The AltTriple of a row of any q, or of one slice of it: triangle.part_sums
    at weights 1 and -1."""
    return AltTriple(*part_sums(row, 1, -1))


def alt_step(a_part: int, b_part: int) -> tuple[int, int]:
    """Advance the signed (A-part, B-part) subsums by three rows (q = 5).

    Valid along rows of odd length, i.e. starting from n with
    n mod 3 in {0, 2}; even-length rows have both subsums zero by
    symmetry and are not stepped through.
    """
    return (-4 * a_part - 8 * b_part - 6, 2 * a_part + 4 * b_part + 2)


def weighted_sum(n: int, v: int, w: int) -> int:
    """Row sum with weight v on even positions and w on odd ones (q = 5).

    Equals (s^ + s~)/2 * v + (s^ - s~)/2 * w where s^ is the plain row
    sum, from the coupled route, and s~ the alternating one; both halves
    are integers.  Row 0 is one cell of value 1, in an even column.
    """
    if n < 0:
        raise ValueError("row index must be nonnegative")
    if n == 0:
        return v
    total = sums_coupled(5, n).s
    alt = alt_sum(n)
    if (total + alt) % 2:
        raise ArithmeticError(f"row sum and alternating sum disagree mod 2 at n={n}")
    return ((total + alt) // 2) * v + ((total - alt) // 2) * w
