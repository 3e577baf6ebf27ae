"""Exact arithmetic in a real quadratic extension Q(sqrt(d)).

Elements are pairs of rationals (re, rt) representing re + rt*sqrt(d).
The radicand d is carried on every element and checked whenever two
elements are combined, because the library works with two different
extensions side by side.  There is no floating point anywhere in this
module: quantities that are supposed to be integers must survive
``as_integer`` exactly, with no rounding escape hatch.

No attempt is made to recognise perfect-square radicands; an element
with a nonzero sqrt part is treated as irrational even if d happens to
be a square.
"""

from __future__ import annotations

from fractions import Fraction


class DiscMismatchError(ValueError):
    """Tried to combine elements living in different quadratic extensions."""


class NotRationalError(ValueError):
    """Element has a nonzero sqrt part, so it is not a rational number."""


class NotIntegralError(ValueError):
    """Element is rational but its value is not an integer."""


class QuadElem:
    """re + rt*sqrt(disc) with exact rational re, rt and integer disc >= 0."""

    __slots__ = ("re", "rt", "disc")

    def __init__(self, re, rt=0, disc: int = 0) -> None:
        self.re: Fraction = Fraction(re)
        self.rt: Fraction = Fraction(rt)
        if disc < 0:
            raise ValueError(f"radicand must be nonnegative, got {disc}")
        self.disc: int = int(disc)

    @classmethod
    def sqrt(cls, disc: int) -> QuadElem:
        return cls(0, 1, disc)

    def __repr__(self) -> str:
        return f"QuadElem({self.re!r}, {self.rt!r}, {self.disc})"

    def __str__(self) -> str:
        return f"{self.re} + {self.rt}*sqrt({self.disc})"

    def _coerce(self, other) -> QuadElem | None:
        if isinstance(other, QuadElem):
            if other.disc != self.disc:
                raise DiscMismatchError(
                    f"sqrt({self.disc}) element combined with sqrt({other.disc}) element"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(other, 0, self.disc)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.rt == 0 and self.re == other
        if isinstance(other, QuadElem):
            if self.re != other.re or self.rt != other.rt:
                return False
            # two purely rational values are equal regardless of radicand
            return self.rt == 0 or self.disc == other.disc
        return NotImplemented

    def __add__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.re + o.re, self.rt + o.rt, self.disc)

    __radd__ = __add__

    def __neg__(self) -> QuadElem:
        return QuadElem(-self.re, -self.rt, self.disc)

    def __sub__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.re - o.re, self.rt - o.rt, self.disc)

    def __rsub__(self, other) -> QuadElem:
        return (-self) + other

    def __mul__(self, other) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(
            self.re * o.re + self.rt * o.rt * self.disc,
            self.re * o.rt + self.rt * o.re,
            self.disc,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadElem:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("only nonnegative powers are supported")
        out = QuadElem(1, 0, self.disc)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # no square past the top bit
                base = base * base
        return out

    def conjugate(self) -> QuadElem:
        return QuadElem(self.re, -self.rt, self.disc)

    def as_integer(self) -> int:
        """The element's value as an int, or raise if it is not one."""
        if self.rt != 0:
            raise NotRationalError(f"{self} has a nonzero sqrt part")
        if self.re.denominator != 1:
            raise NotIntegralError(f"{self.re} is not an integer")
        return int(self.re)
