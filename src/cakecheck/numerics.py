"""Scalar backends: fast complex floating point and rigorous enclosures.

All geometric code in this package is written against a tiny backend
protocol, so the same code path runs on two backends: ordinary double
precision (``FastBackend``, "fast") and rigorous enclosures of functions
of the parameter (``TaylorBackend``), whose reals are Intervals at a point
(radius 0, "rigorous") and Taylor models in the parameter on a range.  A
backend only makes scalars: its protocol is ``real``, ``complex_``,
``theta`` and ``sqrt``, plus the ``name`` and ``rigorous`` flags.  The
scalars carry Python's number protocol, ``z.conjugate()``, ``z.real`` and
``z.imag``, on every backend, and a real enclosure's ``sign()``;
``mid(x)`` reads a plain float or complex from any of them.  Every
enclosure operation encloses the exact result, so a sign decision made on
an enclosure that excludes 0 is certified.

Both enclosure arithmetics round alike.  A midpoint or coefficient is a
float computed in round-to-nearest, and each operation adds to a radius
what its operands' radii spread, gamma_k times the magnitudes of the k
products it summed (Higham 2002), times ``_SLACK``, plus ``_TINY``.  An
``Interval`` is such a ball, a midpoint and a radius (Rump 1999).  Each
Interval operation gives the exact range of its result over its operands'
balls, plus rounding: its midpoint is the float value, moved to the centre
of that range where the range is lopsided about it (a product, quotient or
square root of wide balls), and a point enclosure is a few ulps wide.

A complex enclosure is one object.  On a point it is a ``ComplexBall``,
the midpoints and radii of the two parts' balls (as Arb's acb, Johansson
2017), whose operations do the float operations of the parts' Interval
operations in one step: a rigorous ``verify_all(2.22)`` makes 318 complex
products and 46 ``Interval`` products, and builds 593 ComplexBalls and 183
Intervals.  On a range it is a ``TaylorModel`` with complex coefficients
and a disc for its remainder, which runs through the same code as a real
one; every polynomial product runs through a straight-line kernel for its
pair of factor lengths, built on first use, that sums each coefficient in
the order of the schoolbook loop, to the same bits.  An evaluation on
[2.2, 2.20025] makes 325 complex products and 487 polynomial products
with 14 kernels, and builds 1122 ``TaylorModel``s.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

_INF = math.inf

DEFAULT_ZERO_TOL = 1e-12
MAX_DEPTH = 40  # default bisection depth of certify_on_interval


class DomainError(ValueError):
    """An operation left its mathematical domain (sqrt of a negative, division
    by an interval containing zero, parameter out of range)."""


class SignVerdict(enum.Enum):
    POSITIVE = "certified-positive"
    NEGATIVE = "certified-negative"
    ZERO = "certified-zero"
    INDETERMINATE = "indeterminate"


_nextafter = math.nextafter


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _up(x: float) -> float:
    return _nextafter(x, _INF)


# Rounding model of both arithmetics.  In round-to-nearest, one operation's
# float result is off by at most gamma_1 times its magnitude, and a float
# sum of k products by gamma_k = k u / (1 - k u), u = 2^-53, times the sum
# of their magnitudes (Higham 2002, ch. 3).  Each bound is itself a float
# sum of nonnegative terms; multiplying it by _SLACK and adding _TINY makes
# it an upper bound despite its own rounding and any underflow.
_U = 2.0 ** -53
_GAMMA1 = _U / (1.0 - _U)
_GAMMA2 = 2.0 * _U / (1.0 - 2.0 * _U)
_GAMMA = 2.0 ** -48  # >= gamma_31, for the Taylor coefficients
_SLACK = 1.0 + 2.0 ** -40
_TINY = 2.0 ** -1000
_NARROW = 2.0 ** -27  # a ball this narrow multiplies as in ComplexBall.__mul__

_new = object.__new__


def _ball(m: float, r: float, x: "Interval | None" = None) -> "Interval":
    """The Interval [m - r, m + r], written into x if given; a non-finite m
    or r is an overflow."""
    if not abs(m) + r < _INF:
        raise DomainError(f"enclosure {m!r} +- {r!r} overflowed")
    if x is None:
        x = _new(Interval)
    x.m = m
    x.r = r
    return x


def _times(a: float, ar: float, b: float, br: float):
    """(p, s, w): the exact range of the product of the balls (a, ar) and
    (b, br) is the ball around a b + s of radius w, and p is the float a b.
    If neither ball has 0 inside, s = +-ar br and w = |a| br + ar |b|, else
    s = +-min(|a| br, ar |b|) and w = ar br + max(|a| br, ar |b|); s takes
    the sign of a b, and its float is off by gamma_1 |s|."""
    p = a * b
    A, B = abs(a), abs(b)
    u, v = A * br, ar * B
    if A >= ar and B >= br:
        s, w = ar * br, u + v
    elif u < v:
        s, w = u, ar * br + v
    else:
        s, w = v, ar * br + u
    return p, (s if (a > 0.0) == (b > 0.0) else -s), w


def _around(f: float, s: float, w: float, err: float):
    """(m, r): the ball around f + s of radius w for floats f, s off by err in
    all; the float m = f + s is off by at most gamma_1 |m| and at most |s|."""
    m = f + s
    g, s = _GAMMA1 * abs(m), abs(s)
    return m, (w + err + (g if g < s else s)) * _SLACK + _TINY


def _mul(a: float, ar: float, b: float, br: float):
    """(m, r): the product of the balls (a, ar) and (b, br)."""
    p, s, w = _times(a, ar, b, br)
    return _around(p, s, w, _GAMMA1 * (abs(p) + abs(s)))


def _sqr(a: float, ar: float):
    """(m, r): the square of the ball (a, ar)."""
    a = abs(a)
    if a >= ar:
        return _mul(a, ar, a, ar)
    # [0, (a + ar)^2] as the ball (h, h): for the float s = a + ar,
    # (a + ar)^2 <= (1 + gamma_1)^3 s s <= (1 + 2 gamma_2) s s <= 2 h
    s = a + ar
    h = 0.5 * (s * s)
    h = (h + 2.0 * _GAMMA2 * h) * _SLACK + _TINY
    return h, h


def _quotient(a: float, ar: float, b: float, br: float):
    """(m, r): the quotient of the balls (a, ar) and (b, br)."""
    B = abs(b)
    if not B > br:
        raise DomainError("division by an interval containing zero")
    d = B - br
    if abs(a) < ar:  # [a - ar, a + ar] / (B - br), signed as b
        c = a / d
        return _around(c if b > 0.0 else -c, 0.0, ar / d, _GAMMA2 * abs(c))
    # [|a| - ar, |a| + ar] / [B - br, B + br], signed: the ball around
    # a/b +- q br / (B + br) of radius q B / (B + br), for q = (ar + |a/b|
    # br) / (B - br), which a larger q contains.  q is two ratios, so no
    # underflow is divided by a small d, and |a/b| < |m| + 2^-1074.
    m = a / b
    q = ar / d + (abs(m) + 5e-324) * (br / d)
    s = q * (br / (B + br))
    return _around(m, s if (a > 0.0) == (b > 0.0) else -s, q * (B / (B + br)),
                   _GAMMA1 * abs(m) + _GAMMA * s)


def _parts(x):
    """(m, r) of a real that Interval lifts, an Interval, int or float, and
    None for anything else."""
    if isinstance(x, Interval):
        return x.m, x.r
    return (float(x), 0.0) if isinstance(x, (int, float)) else None


class _Scalar:
    """The reflected operators of an enclosure type, written once: ``k - x``
    and ``k / x`` lift k with the type's own ``_lift`` and apply the forward
    operator."""

    __slots__ = ()

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o - self

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o / self


def mid(x):
    """A plain value of the scalar x: the float of a real, the complex of a
    complex and the midpoint of an enclosure."""
    if isinstance(x, _Scalar):
        return x.mid()
    return x if isinstance(x, complex) else float(x)


class Interval(_Scalar):
    """Closed real interval as a ball: the midpoint ``m`` and the radius
    ``r`` of [m - r, m + r] (Rump, BIT 39, 1999).  Every operation forms
    the exact range of its result as a ball around the float value plus a
    shift (_around), and adds to the radius gamma_k times the magnitudes it
    summed, times _SLACK, plus _TINY: the rounding model of the Taylor
    models.  ``lo`` and ``hi`` read the bounds back, rounded outward."""

    __slots__ = ("m", "r")

    def __init__(self, lo, hi=None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if not lo <= hi:
            raise (ValueError if lo > hi else DomainError)(f"invalid interval [{lo}, {hi}]")
        m = lo if lo == hi else 0.5 * (lo + hi)
        r = max(hi - m, m - lo)
        _ball(m, _up(r) if r else r, self)

    @property
    def lo(self) -> float:
        return _down(self.m - self.r) if self.r else self.m

    @property
    def hi(self) -> float:
        return _up(self.m + self.r) if self.r else self.m

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _lift(x):
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            return _ball(float(x), 0.0)
        return None

    @staticmethod
    def _complex(re, im) -> "ComplexBall | None":
        """re + i im for reals Interval lifts, built from their balls."""
        a, b = _parts(re), _parts(im)
        return None if a is None or b is None else ComplexBall(*a, *b)

    def range(self) -> "Interval":
        return self

    def mid(self) -> float:
        return self.m

    def sign(self) -> SignVerdict:
        if self.m > self.r:
            return SignVerdict.POSITIVE
        return SignVerdict.NEGATIVE if -self.m > self.r else SignVerdict.INDETERMINATE

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return _ball(-self.m, self.r)

    def __add__(self, other):
        o = other if type(other) is Interval else Interval._lift(other)
        if o is None:
            return NotImplemented
        m = self.m + o.m
        return _ball(m, (self.r + o.r + _GAMMA1 * abs(m)) * _SLACK + _TINY)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Interval else Interval._lift(other)
        if o is None:
            return NotImplemented
        m = self.m - o.m
        return _ball(m, (self.r + o.r + _GAMMA1 * abs(m)) * _SLACK + _TINY)

    def __mul__(self, other):
        o = other if type(other) is Interval else Interval._lift(other)
        if o is None:
            return NotImplemented
        return _ball(*_mul(self.m, self.r, o.m, o.r))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Interval._lift(other)
        if o is None:
            return NotImplemented
        return _ball(*_quotient(self.m, self.r, o.m, o.r))

    def sqr(self) -> "Interval":
        return _ball(*_sqr(self.m, self.r))

    def sqrt(self) -> "Interval":
        a, ar = self.m, self.r
        if not a >= ar:
            raise DomainError(
                f"sqrt argument enclosure [{self.lo}, {self.hi}] is not nonnegative"
            )
        m = math.sqrt(a)
        if not ar:
            return _ball(*_around(m, 0.0, 0.0, _GAMMA1 * m))
        # [sqrt(a - ar), sqrt(a + ar)]: its ends are below and above sqrt(a)
        # by the gaps below, each off by a few ulps of itself
        below = ar / (m + math.sqrt(a - ar))
        above = ar / (math.sqrt(a + ar) + m)
        return _ball(*_around(m, 0.5 * (above - below), 0.5 * (above + below), _GAMMA1 * m + _GAMMA * below))

    def inv(self) -> "Interval":
        return 1.0 / self


# ---------------------------------------------------------------------------
# order-n Taylor models with float or complex coefficients
#
# Naive interval evaluation of the configuration suffers severe dependency
# blowup: one parameter t feeds every matrix entry, and the enclosure width
# of the worst condition grows like 1e9 times the width of t.  A Taylor
# model of order n tracks, for a function f of t on [m - rad, m + rad],
#
#     f(m + delta)  in  c0 + c1 delta + ... + cn delta^n + [-r, r]
#
# for all |delta| <= rad, with float coefficients ck and one remainder
# radius r (Makino & Berz 2003; Revol, Makino & Berz 2005).  Its constant
# term and remainder form a ball, as an Interval does.  A complex model has
# complex coefficients and the disc |e| <= r in place of [-r, r]; its real
# and imaginary parts are the real models of the coefficients' parts with
# the same r, and two real models zip into one with remainder ra + rb.
# Coefficients are computed in round-to-nearest, and every operation adds
# to r a bound on what the polynomial part leaves out, in the rounding
# model of the Intervals above.  With |A| = sum |ak| rad^k, the bound of
# the polynomial part of A over the box, |ak| the modulus (abs()), these
# are:
#
#   - rounding: a real coefficient is a float sum of at most n + 1
#     products, off by at most gamma_(n+1) times the sum of their
#     magnitudes.  Each part of a complex one is a float sum of at most
#     2(n + 1) products, and |Re a Re b| + |Im a Im b| <= |a| |b|, so the
#     modulus of its error is at most sqrt(2) gamma_(2(n+1)) sum |ai| |bj|.
#     _GAMMA >= gamma_31 covers both for n <= 9; over all coefficients of
#     a product A*B that is _GAMMA |A| |B|, and _GAMMA |C| for a sum C = A
#     + B or a scaled model C = x A;
#   - truncation: the product terms of degree > n that A*B drops, bounded
#     by sum_{k>n} |pk| rad^k;
#   - remainders: |A| rb + |B| ra + ra rb for A*B;
#   - constants: an Interval constant enters as its midpoint m, with its
#     radius in r, and so does a rounded 1/c0 or sqrt(c0);
#   - series rest: 1/x and sqrt(x) write x = c0 (1 + g) with |g| <= q < 1
#     over the box, sum the first n + 1 terms of the series of 1/(1+g) and
#     sqrt(1+g), and add the Lagrange rest q^(n+1) / (1-q), respectively
#     |binom(1/2, n+1)| q^(n+1) / (1-q)^(n+1/2).
#
# Each bound is multiplied by _SLACK and increased by _TINY, as an
# Interval's radius is; _SLACK also covers the ulp that abs() of a complex
# may be off.  range(), sign(), sqrt() and inv() take real models only.
# range() is the ball of the float bounds of the polynomial part, widened
# by their rounding and the remainder.  The range enclosure has width
# ~ |f'| * 2 rad + O(rad^(n+1)) instead of K * 2 rad for a huge dependency
# constant K, which is what makes range certification feasible.
#
# Complex coefficients are multiplied by CPython's complex product, and
# their moduli come from its abs().  tests/golden/taylor_enclosures.txt
# pins the bits these give on the usual builds; a build that contracts
# the product into fused multiply-adds may move them, within the bound.

TAYLOR_ORDER = 6  # at most 9, where _GAMMA still covers a complex coefficient


def _series_coefficients(a: Fraction, terms: int) -> tuple:
    """binom(a, k) for k < terms, as floats; exact for the dyadic a used."""
    out, s = [], Fraction(1)
    for k in range(terms):
        if float(s) != s:
            raise ValueError(f"binom({a}, {k}) is not a float")
        out.append(float(s))
        s = s * (a - k) / (k + 1)
    return tuple(out)


# series of (1 + g)^-1 and (1 + g)^(1/2), up to the rest term of order 20
_INV_SERIES = _series_coefficients(Fraction(-1), 22)
_SQRT_SERIES = _series_coefficients(Fraction(1, 2), 22)


def _norm(c, pw) -> float:
    """sum |ck| rad^k (before slack): bound of a polynomial part."""
    s = 0.0
    for ck, p in zip(c, pw):
        s += abs(ck) * p
    return s


_KERNELS = {}  # product kernels by the lengths of the factors, built on first use


def _kernel(la: int, lb: int):
    """Straight-line code for the coefficients p[k] = ((0.0 + a0 bk) +
    a1 b(k-1)) + ... of the product of polynomials with la and lb
    coefficients, summed in increasing i as the schoolbook loop sums them,
    so the floats are the loop's, signed zeros included."""
    terms = [[] for _ in range(la + lb - 1)]
    for i in range(la):
        for j in range(lb):
            terms[i + j].append(f"a{i} * b{j}")
    ns = {}
    exec(f"def kernel(a, b):\n"
         f" {''.join(f'a{i}, ' for i in range(la))}= a\n"
         f" {''.join(f'b{j}, ' for j in range(lb))}= b\n"
         f" return [{', '.join('0.0 + ' + ' + '.join(t) for t in terms)}]\n", ns)
    _KERNELS[la, lb] = kernel = ns["kernel"]
    return kernel


def _scaled(m: "TaylorModel", x: float, xr: float):
    """Coefficients and remainder of the model m times a constant known to
    lie within xr of x."""
    na = m._bound()
    if x == 0.0:  # an exact 0, complex if either factor is
        return [0j if complex in (type(x), type(m.c[0])) else 0.0], xr * (na + m.r) * _SLACK + _TINY
    ax = abs(x)
    return [x * ck for ck in m.c], (ax * m.r + xr * (na + m.r) + _GAMMA * ax * na) * _SLACK + _TINY


def _product(x: "TaylorModel", y: "TaylorModel"):
    """Coefficients and remainder of x * y: a constant factor scales the
    other model, and otherwise the kernel's product is truncated to order
    n = len(pw) // 2."""
    a, b = x.c, y.c
    if len(a) == 1:
        return _scaled(y, a[0], x.r)
    if len(b) == 1:
        return _scaled(x, b[0], y.r)
    pw = x.pw
    n = len(pw) // 2
    p = (_KERNELS.get((len(a), len(b))) or _kernel(len(a), len(b)))(a, b)
    dropped = 0.0
    for k in range(n + 1, len(p)):
        dropped += abs(p[k]) * pw[k]
    del p[n + 1:]
    na, nb = x._bound(), y._bound()
    ra, rb = x.r, y.r
    return p, (dropped + _GAMMA * na * nb + na * rb + nb * ra + ra * rb) * _SLACK + _TINY


def _summed(a: list, b: list, r: float, pw: tuple) -> "TaylorModel":
    """The model with polynomial part a + b, whose operands' remainders sum
    to r."""
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, y in enumerate(b):
        c[i] += y
    nc = _norm(c, pw)
    return TaylorModel(c, (r + _GAMMA * nc) * _SLACK + _TINY, pw, nc)


class TaylorModel(_Scalar):
    """Taylor model in one parameter: coefficients ``c`` of a polynomial of
    degree len(c) - 1 <= n in delta = t - mid, and a remainder radius
    ``r``, valid for |delta| <= rad.  Like Python's own numbers, a real
    model has float coefficients and a complex one complex coefficients,
    its constant term complex whenever any term is; a real model's
    remainder is an interval [-r, r], a complex one's the disc |e| <= r.
    ``pw`` holds upward-rounded powers rad^0 .. rad^(2n), shared by all
    models of one backend, whose order n is len(pw) // 2.  A constant has
    one coefficient.  ``nb`` caches the bound |c| of the polynomial part."""

    __slots__ = ("c", "r", "pw", "nb")

    def __init__(self, c: list, r: float, pw: tuple, nb: float | None = None):
        self.c = c
        self.r = r
        self.pw = pw
        self.nb = nb

    def _bound(self) -> float:
        if self.nb is None:
            self.nb = _norm(self.c, self.pw)
        return self.nb

    def __repr__(self):
        return f"TaylorModel({self.c!r}, r={self.r!r})"

    def _const(self, v: float, r: float = 0.0) -> "TaylorModel":
        return TaylorModel([v], r, self.pw)

    def _complex(self, re, im) -> "TaylorModel | None":
        """re + i im for reals the model lifts: their coefficients zipped,
        with the remainder ra + rb, rounded up."""
        x, y = self._lift(re), self._lift(im)
        if x is None or y is None or complex in (type(re), type(im)):
            return None
        r = x.r + y.r
        return TaylorModel([complex(a, b) for a, b in zip_longest(x.c, y.c, fillvalue=0.0)],
                           _up(r) if x.r and y.r else r, self.pw)

    def _lift(self, x):
        if isinstance(x, TaylorModel):
            return x
        if isinstance(x, Interval):
            return self._const(x.m, x.r)
        if isinstance(x, (int, float)):
            return self._const(float(x))
        return self._const(x) if isinstance(x, complex) else None

    @property
    def real(self) -> "TaylorModel":
        if type(self.c[0]) is not complex:
            return self
        return TaylorModel([x.real for x in self.c], self.r, self.pw)

    @property
    def imag(self) -> "TaylorModel":
        if type(self.c[0]) is not complex:
            return self._const(0.0)
        return TaylorModel([x.imag for x in self.c], self.r, self.pw)

    def conjugate(self) -> "TaylorModel":
        if type(self.c[0]) is not complex:
            return self
        return TaylorModel([x.conjugate() for x in self.c], self.r, self.pw, self.nb)

    def range(self) -> Interval:
        """Plain interval enclosure of all values on the parameter interval."""
        c, pw = self.c, self.pw
        lo = hi = c[0]
        mag = abs(lo)
        for k in range(1, len(c)):
            x = c[k] * pw[k]
            mag += abs(x)
            if k & 1:
                lo -= abs(x)
                hi += abs(x)
            elif x > 0.0:
                hi += x
            else:
                lo += x
        m = 0.5 * (lo + hi)
        return _ball(m, (max(hi - m, m - lo) + _GAMMA * mag + self.r) * _SLACK + _TINY)

    def mid(self) -> float | complex:
        if type(self.c[0]) is complex:
            return complex(self.real.mid(), self.imag.mid())
        return self.range().m

    def sign(self) -> SignVerdict:
        return self.range().sign()

    def __neg__(self):
        return TaylorModel([-x for x in self.c], self.r, self.pw, self.nb)

    def _shift(self, v: float) -> "TaylorModel":
        c = list(self.c)
        c[0] += v
        return TaylorModel(c, (self.r + _GAMMA * abs(c[0])) * _SLACK + _TINY, self.pw)

    def __add__(self, other):
        if type(other) is not TaylorModel:
            if isinstance(other, (int, float)):
                return self._shift(float(other))
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return _summed(self.c, other.c, self.r + other.r, self.pw)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not TaylorModel:
            if isinstance(other, (int, float)):
                return self._shift(-float(other))
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return _summed(self.c, [-y for y in other.c], self.r + other.r, self.pw)

    def _scale(self, x: float, xr: float = 0.0) -> "TaylorModel":
        """The model times a constant known to lie in [x - xr, x + xr]."""
        return TaylorModel(*_scaled(self, x, xr), self.pw)

    def __mul__(self, other):
        if type(other) is TaylorModel:
            return TaylorModel(*_product(self, other), self.pw)
        if isinstance(other, (int, float)):
            return self._scale(float(other))
        if isinstance(other, Interval):
            return self._scale(other.m, other.r)
        return self._scale(other) if isinstance(other, complex) else NotImplemented

    __rmul__ = __mul__

    def _series_argument(self, op: str):
        """``(g, q)`` with self = c0 (1 + g) and |g| <= q < 1 on the box."""
        c0 = self.c[0]
        if type(c0) is complex:
            raise TypeError(f"{op} of a complex Taylor model")
        if c0 != 0.0:
            inv0 = 1.0 / c0
            dev = TaylorModel([0.0] + self.c[1:], self.r, self.pw)
            g = dev._scale(inv0, _GAMMA * abs(inv0))
            q = (g._bound() + g.r) * _SLACK
            if q < 1.0:
                return g, q
        G = self.range()
        if G.lo <= 0.0 <= G.hi:
            raise DomainError(f"{op} of a Taylor model whose range [{G.lo}, {G.hi}] contains zero")
        raise DomainError(f"{op}: series argument bound q >= 1 on [{G.lo}, {G.hi}]")

    def _series(self, coeffs, rest: float) -> "TaylorModel":
        """sum_k coeffs[k] self^k by Horner's rule, plus [-rest, rest]."""
        acc = self._const(coeffs[-1])
        for ck in reversed(coeffs[:-1]):
            acc = (acc * self)._shift(ck)
        acc.r = (acc.r + rest) * _SLACK + _TINY
        return acc

    def inv(self) -> "TaylorModel":
        # 1/(c0 (1+g)) = (1/c0) (sum_{k<=n} (-g)^k + (-g)^(n+1) / (1+g))
        g, q = self._series_argument("division")
        n = len(self.pw) // 2
        p = g._series(_INV_SERIES[: n + 1], q ** (n + 1) / (1.0 - q))
        inv0 = 1.0 / self.c[0]
        return p._scale(inv0, _GAMMA * abs(inv0))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if type(o.c[0]) is complex:  # self conj(o) / (Re(o)^2 + Im(o)^2)
            return self * o.conjugate() * (o.real.sqr() + o.imag.sqr()).inv()
        return self * o.inv()

    def sqr(self) -> "TaylorModel":
        return self * self

    def sqrt(self) -> "TaylorModel":
        # sqrt(c0 (1+g)) = sqrt(c0) (sum_{k<=n} binom(1/2, k) g^k + rest)
        g, q = self._series_argument("sqrt")
        c0 = self.c[0]
        if c0 < 0.0:
            G = self.range()
            raise DomainError(f"sqrt argument enclosure [{G.lo}, {G.hi}] is not nonnegative")
        n = len(self.pw) // 2
        rest = abs(_SQRT_SERIES[n + 1]) * q ** (n + 1) / ((1.0 - q) ** n * math.sqrt(1.0 - q))
        p = g._series(_SQRT_SERIES[: n + 1], rest)
        s0 = math.sqrt(c0)
        return p._scale(s0, _GAMMA * s0)


class ComplexBall(_Scalar):
    """Complex point enclosure: the balls (a, ar) of the real part and (b,
    br) of the imaginary part, in one object.  Each operation does the float
    operations of the same operations on the parts as Intervals, to the same
    bits, and builds no Interval in between."""

    __slots__ = ("a", "ar", "b", "br")

    def __init__(self, a: float, ar: float, b: float, br: float):
        if not (abs(a) + ar < _INF and abs(b) + br < _INF):
            raise DomainError(f"enclosure {complex(a, b)!r} +- {max(ar, br)!r} overflowed")
        self.a, self.ar, self.b, self.br = a, ar, b, br

    def __repr__(self):
        return f"ComplexBall({self.real!r}, {self.imag!r})"

    @property
    def real(self) -> Interval:
        return _ball(self.a, self.ar)

    @property
    def imag(self) -> Interval:
        return _ball(self.b, self.br)

    def mid(self) -> complex:
        return complex(self.a, self.b)

    @staticmethod
    def _lift(x):
        if isinstance(x, ComplexBall):
            return x
        if isinstance(x, complex):
            return ComplexBall(x.real, 0.0, x.imag, 0.0)
        x = _parts(x)
        return None if x is None else ComplexBall(*x, 0.0, 0.0)

    def conjugate(self) -> "ComplexBall":
        return ComplexBall(self.a, self.ar, -self.b, self.br)

    def __neg__(self):
        return ComplexBall(-self.a, self.ar, -self.b, self.br)

    def __add__(self, other):
        o = other if type(other) is ComplexBall else self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.a + o.a, self.b + o.b
        return ComplexBall(a, (self.ar + o.ar + _GAMMA1 * abs(a)) * _SLACK + _TINY,
                           b, (self.br + o.br + _GAMMA1 * abs(b)) * _SLACK + _TINY)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is ComplexBall else self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.a - o.a, self.b - o.b
        return ComplexBall(a, (self.ar + o.ar + _GAMMA1 * abs(a)) * _SLACK + _TINY,
                           b, (self.br + o.br + _GAMMA1 * abs(b)) * _SLACK + _TINY)

    def __mul__(self, other):
        """(a c - b d) + i (a d + b c), its products as in _times, its parts as in _around."""
        o = other if type(other) is ComplexBall else self._lift(other)
        if o is None:
            return NotImplemented
        a, ar, b, br = self.a, self.ar, self.b, self.br
        c, cr, d, dr = o.a, o.ar, o.b, o.br
        A, B, C, D = abs(a), abs(b), abs(c), abs(d)
        if ((ar <= _NARROW * A or not a) and (br <= _NARROW * B or not b)
                and (cr <= _NARROW * C or not c) and (dr <= _NARROW * D or not d)):
            # each part's radius is at most 2^-27 of its midpoint, or that is 0:
            # then the ball around a c of radius A cr + ar (C + cr) is the exact
            # range of a product, or wider by 2 ar cr <= 2^-53 |a c|
            ac, bd, ad, bc = a * c, b * d, a * d, b * c
            real = A * cr + ar * (C + cr) + B * dr + br * (D + dr) + _GAMMA2 * (abs(ac) + abs(bd))
            imag = A * dr + ar * (D + dr) + B * cr + br * (C + cr) + _GAMMA2 * (abs(ad) + abs(bc))
            return ComplexBall(ac - bd, real * _SLACK + _TINY, ad + bc, imag * _SLACK + _TINY)
        p1, s1, w1 = _times(a, ar, c, cr)
        p2, s2, w2 = _times(b, br, d, dr)
        p3, s3, w3 = _times(a, ar, d, dr)
        p4, s4, w4 = _times(b, br, c, cr)
        return ComplexBall(*_around(p1 - p2, s1 - s2, w1 + w2, _GAMMA2 * (abs(p1) + abs(p2) + abs(s1) + abs(s2))),
                           *_around(p3 + p4, s3 + s4, w3 + w4, _GAMMA2 * (abs(p3) + abs(p4) + abs(s3) + abs(s4))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self conj(o) times the inverse of |o|^2 = Re(o)^2 + Im(o)^2, each
        step the float operations of the Intervals' sqr, +, 1 / x and *."""
        o = self._lift(other)
        if o is None:
            return NotImplemented
        m, r = _sqr(o.a, o.ar)
        n, nr = _sqr(o.b, o.br)
        m += n
        r = (r + nr + _GAMMA1 * abs(m)) * _SLACK + _TINY
        if not abs(m) + r < _INF:
            raise DomainError(f"enclosure {m!r} +- {r!r} overflowed")
        d, dr = _quotient(1.0, 0.0, m, r)
        n = self * ComplexBall(o.a, o.ar, -o.b, o.br)
        return ComplexBall(*_mul(n.a, n.ar, d, dr), *_mul(n.b, n.br, d, dr))


def certified_sign(x, zero_tol: float = DEFAULT_ZERO_TOL) -> SignVerdict:
    """Sign decision. Enclosures yield a certified verdict only when they
    exclude 0; point values are snapped to zero within ``zero_tol``."""
    if isinstance(x, _Scalar):
        return x.sign()
    x = float(x)
    if x > zero_tol:
        return SignVerdict.POSITIVE
    if x < -zero_tol:
        return SignVerdict.NEGATIVE
    return SignVerdict.ZERO


# ---------------------------------------------------------------------------
# backends


class FastBackend:
    """Plain double-precision complex arithmetic."""

    name = "fast"
    rigorous = False

    def real(self, x):
        if isinstance(x, (int, float)):
            return float(x)
        raise TypeError(f"fast backend cannot lift {type(x).__name__} as a real")

    def complex_(self, re, im=0.0):
        return complex(re, im)

    theta = complex(0.5, math.sqrt(3.0) / 2.0)  # exp(i*pi/3)

    def sqrt(self, x):
        x = float(x)
        if x < 0.0:
            if x > -DEFAULT_ZERO_TOL:
                return 0.0
            raise DomainError(f"sqrt of negative value {x}")
        return math.sqrt(x)


class TaylorBackend:
    """Rigorous enclosures of functions of the parameter t on [mid - rad,
    mid + rad], through the backend protocol.  The backend holds the
    enclosure of t, an Interval on a point (rad = 0) and a Taylor model of
    order ``TAYLOR_ORDER`` on a range, far tighter than naive intervals on
    narrow ranges, and lifts floats and Intervals to reals of its type.
    Their complex values, ComplexBalls on a point and Taylor models with
    complex coefficients on a range, read like Python's."""

    rigorous = True

    def __init__(self, mid: float, rad: float):
        if not rad >= 0.0:
            raise ValueError(f"Taylor model radius must be a nonnegative number, not {rad!r}")
        mid, rad = float(mid), float(rad)
        if rad > 0.0:
            self.name = "rigorous-taylor"
            pw = [1.0]
            for _ in range(2 * TAYLOR_ORDER):
                pw.append(_up(pw[-1] * rad))
            c, r = ([mid, 1.0], 0.0) if TAYLOR_ORDER else ([mid], rad)
            self._t = TaylorModel(c, r, tuple(pw))
        else:
            self.name = "rigorous"
            self._t = Interval(mid)
        self.theta = self.complex_(0.5, Interval(3.0).sqrt() / 2)  # exp(i*pi/3)

    @classmethod
    def for_interval(cls, box: Interval) -> "TaylorBackend":
        return cls(box.m, box.r)

    def variable(self):
        """The parameter itself as an enclosure."""
        return self._t

    def real(self, x):
        r = self._t._lift(x)
        if r is None or isinstance(x, complex):
            raise TypeError(f"{self.name} backend cannot lift {type(x).__name__} as a real")
        return r

    def complex_(self, re, im=0.0):
        z = self._t._complex(re, im)
        if z is None:
            raise TypeError(f"{self.name} backend cannot lift {type(re).__name__}, "
                            f"{type(im).__name__} as a complex")
        return z

    def sqrt(self, x):
        return self.real(x).sqrt()


FAST = FastBackend()
RIGOROUS = TaylorBackend(0.0, 0.0)

BACKENDS = {"fast": FAST, "rigorous": RIGOROUS}
DEFAULT_BACKEND = "fast"


def get_backend(name: str):
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}")


# ---------------------------------------------------------------------------
# interval certification by adaptive bisection


@dataclass(frozen=True)
class CertificateLeaf:
    lo: float
    hi: float
    condition: str
    verdict: str


@dataclass
class Certificate:
    status: str  # "certified" | "counterexample" | "depth-exceeded"
    lo: float
    hi: float
    max_depth: int
    leaves: list = field(default_factory=list)
    failure: tuple | None = None  # (lo, hi, condition) for the offending piece
    evaluations: int = 0

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def certify_on_interval(evaluator, lo: float, hi: float, max_depth: int = MAX_DEPTH) -> Certificate:
    """Adaptive bisection certification.

    ``evaluator(t: Interval)`` must return ``(complete, items)`` where
    ``items`` is a list of ``(condition_id, Interval)`` pairs, each required
    to be positive, and ``complete`` says whether every condition could be
    evaluated on that enclosure.  A subinterval is certified once all items
    are certified positive; an item certified negative (on a subinterval or
    at a midpoint sample) is a counterexample; otherwise the subinterval is
    split until ``max_depth``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"certification interval [{lo}, {hi}] is not finite")
    if not lo < hi:
        raise ValueError("certification interval requires lo < hi")
    if max_depth < 0:
        raise ValueError(f"max_depth {max_depth} is negative")
    cert = Certificate(status="certified", lo=lo, hi=hi, max_depth=max_depth)
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        complete, items = evaluator(Interval(a, b))
        cert.evaluations += 1
        verdicts = [(cid, certified_sign(val)) for cid, val in items]
        bad = [cid for cid, v in verdicts if v is SignVerdict.NEGATIVE]
        if bad:
            cert.status = "counterexample"
            cert.failure = (a, b, bad[0])
            return cert
        if complete and all(v is SignVerdict.POSITIVE for _, v in verdicts):
            for cid, v in verdicts:
                cert.leaves.append(CertificateLeaf(a, b, cid, v.value))
            continue
        # undecided: probe the midpoint for an actual violation
        m = 0.5 * (a + b)
        p_complete, p_items = evaluator(Interval(m, m))
        cert.evaluations += 1
        for cid, val in p_items:
            if certified_sign(val) is SignVerdict.NEGATIVE:
                cert.status = "counterexample"
                cert.failure = (m, m, cid)
                return cert
        if depth >= max_depth:
            undecided = [cid for cid, v in verdicts if v is not SignVerdict.POSITIVE]
            cert.status = "depth-exceeded"
            cert.failure = (a, b, undecided[0] if undecided else "construction")
            return cert
        stack.append((m, b, depth + 1))
        stack.append((a, m, depth + 1))
    cert.leaves.sort(key=lambda leaf: (leaf.lo, leaf.hi, leaf.condition))
    return cert


def replay_certificate(evaluator, cert: Certificate) -> bool:
    """Check that the certificate is "certified" with no failure, that its
    leaf subintervals tile [lo, hi] exactly, that each carries exactly one
    certified-positive leaf for every condition the predicate evaluates
    there, and that re-evaluating the predicate on it reproduces those
    verdicts.  So each condition's leaves tile [lo, hi]."""
    if not cert.certified or cert.failure is not None:
        return False
    recorded = {}
    for leaf in cert.leaves:
        verdicts = recorded.setdefault((leaf.lo, leaf.hi), {})
        if leaf.condition in verdicts:
            return False
        verdicts[leaf.condition] = leaf.verdict
    edge = cert.lo
    for a, b in sorted(recorded):
        if a != edge or not a < b:
            return False
        edge = b
    if edge != cert.hi:
        return False
    positive = SignVerdict.POSITIVE.value
    for (a, b), verdicts in recorded.items():
        complete, items = evaluator(Interval(a, b))
        replayed = {cid: certified_sign(val).value for cid, val in items}
        if not complete or verdicts != replayed or any(v != positive for v in verdicts.values()):
            return False
    return True
