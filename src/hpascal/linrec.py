"""Collapse a coupled affine pair of sequences into one recurrence.

Given two sequences tied together by

    x[n+1] = a1*x[n] + b1*y[n] + c1
    y[n+1] = a2*x[n] + b2*y[n] + c2

both x and y individually satisfy the ternary recurrence

    z[n+3] = (a1+b2+1)*z[n+2] + (a2*b1 - a1*b2 - a1 - b2)*z[n+1]
             + (a1*b2 - a2*b1)*z[n]

and, when c1 = c2 = 0, already the binary one

    z[n+2] = (a1+b2)*z[n+1] + (a2*b1 - a1*b2)*z[n].

The quadratic factor of the characteristic polynomial is exactly the
characteristic polynomial of the coupling matrix [[a1, b1], [a2, b2]],
and the extra root 1 absorbs the constants, so no nonvanishing
hypothesis on the coefficients is needed; degenerate couplings
(a2*b1 = 0) simply satisfy shorter recurrences as well.  Coefficients
are kept as exact rationals throughout, but for `advance`, which steps an
integer system k times in O(log k) products of ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence


@dataclass(frozen=True)
class CoupledSystem:
    a1: Fraction
    b1: Fraction
    c1: Fraction
    a2: Fraction
    b2: Fraction
    c2: Fraction

    def __post_init__(self) -> None:
        for name in ("a1", "b1", "c1", "a2", "b2", "c2"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    def step(self, x, y) -> tuple[Fraction, Fraction]:
        """One forward application of the coupled map."""
        return (
            self.a1 * x + self.b1 * y + self.c1,
            self.a2 * x + self.b2 * y + self.c2,
        )


def advance(system: tuple[int, ...], k: int) -> tuple[int, int]:
    """(x, y) after k steps of the integer system (a1, b1, c1, a2, b2, c2) from (0, 0).

    The affine matrix [[a1, b1, c1], [a2, b2, c2], [0, 0, 1]] is raised to
    the k-th power from the top bit of k down: one squaring per lower bit,
    then, on a set bit, one step of the system, whose entries are small.
    Its last row stays (0, 0, 1), so only the six entries above it are
    kept; (x, y) is the power's last column.
    """
    if k < 0:
        raise ValueError(f"step count must be nonnegative, got {k}")
    if k == 0:
        return 0, 0
    a1, b1, c1, a2, b2, c2 = p = system
    for bit in bin(k)[3:]:
        x1, y1, z1, x2, y2, z2 = p
        cross, trace = y1 * x2, x1 + y2
        p = (x1 * x1 + cross, y1 * trace, x1 * z1 + y1 * z2 + z1,
             x2 * trace, y2 * y2 + cross, x2 * z1 + y2 * z2 + z2)
        if bit == "1":
            x1, y1, z1, x2, y2, z2 = p
            p = (a1 * x1 + b1 * x2, a1 * y1 + b1 * y2, a1 * z1 + b1 * z2 + c1,
                 a2 * x1 + b2 * x2, a2 * y1 + b2 * y2, a2 * z1 + b2 * z2 + c2)
    return p[2], p[5]


class TernaryCoeffs(NamedTuple):
    """z[n+3] = a*z[n+2] + b*z[n+1] + c*z[n]."""

    a: Fraction
    b: Fraction
    c: Fraction


def eliminate(sys: CoupledSystem) -> TernaryCoeffs:
    a1, b1, a2, b2 = sys.a1, sys.b1, sys.a2, sys.b2
    return TernaryCoeffs(
        a1 + b2 + 1,
        -a1 * b2 + a2 * b1 - a1 - b2,
        a1 * b2 - a2 * b1,
    )


def eliminate_homogeneous(sys: CoupledSystem) -> tuple[Fraction, Fraction]:
    """Binary coefficients (A, B) with z[n+2] = A*z[n+1] + B*z[n]."""
    if sys.c1 != 0 or sys.c2 != 0:
        raise ValueError("system has nonzero constant terms")
    return (sys.a1 + sys.b2, sys.a2 * sys.b1 - sys.a1 * sys.b2)


def check_satisfies(seq: Sequence, coeffs: TernaryCoeffs) -> bool:
    """True iff every length-4 window of seq satisfies the recurrence exactly."""
    if len(seq) < 4:
        raise ValueError("need at least 4 terms to check a ternary recurrence")
    a, b, c = coeffs
    return all(
        seq[n + 3] == a * seq[n + 2] + b * seq[n + 1] + c * seq[n]
        for n in range(len(seq) - 3)
    )
