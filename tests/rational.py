"""An exact-rational interval arithmetic: the oracle that the rigorous
enclosures are checked against.

A ``Rational`` is a closed interval whose ends are rationals k / 2^PREC,
kept as the integers k: every operation forms its result's ends exactly
and rounds them outward to the next multiple of 2^-PREC, so an enclosure
is only ever rounded, by at most 2^-PREC per end and operation, and
never approximated.  Square roots round by ``math.isqrt``.  ``lo`` and
``hi`` read the ends back as Fractions.

The type plugs into the package as a third real type: it subclasses
``numerics._Scalar``, so ``certified_sign`` and ``mid`` read it, and its
complex values are ``RationalComplex`` pairs of two of them, whose
operations are the textbook ones on the parts, independent of how the
package forms its own complex enclosures.  ``RationalBackend`` makes its
scalars through the backend protocol, with theta = 1/2 + i sqrt(3)/2 in
the same type, so the unmodified construction and conditions run on it.
"""

import math
from fractions import Fraction

from cakecheck import numerics
from cakecheck.numerics import DomainError, SignVerdict

PREC = 300
_ONE = 1 << PREC


def _ceil_shift(n: int) -> int:
    """ceil(n / 2^PREC)."""
    return -(-n >> PREC)


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


class Rational(numerics._Scalar):
    """The interval [a / 2^PREC, b / 2^PREC] for integers a <= b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    @classmethod
    def exact(cls, x) -> "Rational":
        """The int, float or Fraction x, rounded outward: exact for a
        multiple of 2^-PREC, as is every float of magnitude 2^(52 - PREC) or
        more."""
        n, d = x.as_integer_ratio()
        return cls((n << PREC) // d, -((-n << PREC) // d))

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, _ONE)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, _ONE)

    def __repr__(self):
        return f"Rational({float(self.lo)!r}, {float(self.hi)!r})"

    @staticmethod
    def _lift(x):
        if isinstance(x, Rational):
            return x
        if isinstance(x, (int, float, Fraction)):
            return Rational.exact(x)
        return None

    def range(self) -> "Rational":
        return self

    def mid(self) -> float:
        return float(Fraction(self.a + self.b, 2 * _ONE))

    def sign(self) -> SignVerdict:
        if self.a > 0:
            return SignVerdict.POSITIVE
        return SignVerdict.NEGATIVE if self.b < 0 else SignVerdict.INDETERMINATE

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Rational(-self.b, -self.a)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Rational(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Rational(self.a - o.b, self.b - o.a)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        ends = (self.a * o.a, self.a * o.b, self.b * o.a, self.b * o.b)
        return Rational(min(ends) >> PREC, _ceil_shift(max(ends)))

    __rmul__ = __mul__

    def inv(self) -> "Rational":
        a, b = self.a, self.b
        if a <= 0 <= b:
            raise DomainError("division by an interval containing zero")
        # 1/x falls on either side of 0, so [1/hi, 1/lo], in units of 2^-PREC
        n = _ONE * _ONE
        return Rational(n // b, -(-n // a))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def sqr(self) -> "Rational":
        a, b = self.a, self.b
        lo = 0 if a <= 0 <= b else min(a * a, b * b) >> PREC
        return Rational(lo, _ceil_shift(max(a * a, b * b)))

    def sqrt(self) -> "Rational":
        if self.a < 0:
            raise DomainError(f"sqrt argument enclosure {self!r} is not nonnegative")
        return Rational(math.isqrt(self.a << PREC), _ceil_sqrt(self.b << PREC))


class RationalComplex(numerics._Scalar):
    """The complex box real + i imag of two Rationals."""

    __slots__ = ("real", "imag")

    def __init__(self, real: Rational, imag: Rational):
        self.real, self.imag = real, imag

    def __repr__(self):
        return f"RationalComplex({self.real!r}, {self.imag!r})"

    @staticmethod
    def _lift(x):
        if isinstance(x, RationalComplex):
            return x
        if isinstance(x, complex):
            return RationalComplex(Rational.exact(x.real), Rational.exact(x.imag))
        x = Rational._lift(x)
        return None if x is None else RationalComplex(x, Rational(0, 0))

    def mid(self) -> complex:
        return complex(self.real.mid(), self.imag.mid())

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.real, -self.imag)

    def __neg__(self):
        return RationalComplex(-self.real, -self.imag)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.real - o.real, self.imag - o.imag)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.real, self.imag, o.real, o.imag
        return RationalComplex(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n, d = self * o.conjugate(), (o.real.sqr() + o.imag.sqr()).inv()
        return RationalComplex(n.real * d, n.imag * d)


class RationalBackend:
    """The backend protocol over Rationals."""

    name = "rational"
    rigorous = True

    def __init__(self):
        self.theta = self.complex_(Fraction(1, 2), self.sqrt(3) / 2)  # exp(i*pi/3)

    def real(self, x):
        r = Rational._lift(x)
        if r is None:
            raise TypeError(f"rational backend cannot lift {type(x).__name__} as a real")
        return r

    def complex_(self, re, im=0):
        return RationalComplex(self.real(re), self.real(im))

    def sqrt(self, x):
        return self.real(x).sqrt()


RATIONAL = RationalBackend()
