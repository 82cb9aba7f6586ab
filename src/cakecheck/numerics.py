"""Scalar backends: fast complex floating point and rigorous interval enclosures.

All geometric code in this package is written against a tiny backend
protocol, so the same code path runs in two modes: ordinary double
precision ("fast") and outward-rounded interval arithmetic ("rigorous").
In rigorous mode every operation encloses the exact result, so a sign
decision made on an enclosure that excludes 0 is certified.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

_INF = math.inf

DEFAULT_ZERO_TOL = 1e-12


class DomainError(ValueError):
    """An operation left its mathematical domain (sqrt of a negative, division
    by an interval containing zero, parameter out of range)."""


class IndeterminateError(ValueError):
    """An enclosure was too wide to decide a required sign; the caller should
    subdivide the parameter interval."""


class SignVerdict(enum.Enum):
    POSITIVE = "certified-positive"
    NEGATIVE = "certified-negative"
    ZERO = "certified-zero"
    INDETERMINATE = "indeterminate"


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    """Closed real interval with outward rounding after every operation."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            return Interval(float(x))
        return None

    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other):
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0.0 <= o.hi:
            raise DomainError("division by an interval containing zero")
        p = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    def __rtruediv__(self, other):
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sqr(self) -> "Interval":
        if self.lo >= 0.0:
            return Interval(_down(self.lo * self.lo), _up(self.hi * self.hi))
        if self.hi <= 0.0:
            return Interval(_down(self.hi * self.hi), _up(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _up(m * m))

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainError(
                f"sqrt argument enclosure [{self.lo}, {self.hi}] is not nonnegative"
            )
        return Interval(max(0.0, _down(math.sqrt(self.lo))), _up(math.sqrt(self.hi)))


class ComplexBox:
    """Rectangular complex enclosure: a pair of real intervals."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = re if isinstance(re, Interval) else Interval(float(re))
        if im is None:
            im = Interval(0.0)
        self.im = im if isinstance(im, Interval) else Interval(float(im))

    def __repr__(self):
        return f"ComplexBox({self.re!r}, {self.im!r})"

    @staticmethod
    def _coerce(x):
        if isinstance(x, ComplexBox):
            return x
        if isinstance(x, Interval):
            return ComplexBox(x)
        if isinstance(x, (int, float)):
            return ComplexBox(Interval(float(x)))
        if isinstance(x, complex):
            return ComplexBox(Interval(x.real), Interval(x.imag))
        return None

    def mid(self) -> complex:
        return complex(self.re.mid(), self.im.mid())

    def conjugate(self) -> "ComplexBox":
        return ComplexBox(self.re, -self.im)

    def abs2(self) -> Interval:
        return self.re.sqr() + self.im.sqr()

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)

    def __neg__(self):
        return ComplexBox(-self.re, -self.im)

    def __add__(self, other):
        o = ComplexBox._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexBox(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = ComplexBox._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexBox(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = ComplexBox._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = ComplexBox._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexBox(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = ComplexBox._coerce(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        n = self * o.conjugate()
        return ComplexBox(n.re / d, n.im / d)

    def __rtruediv__(self, other):
        o = ComplexBox._coerce(other)
        if o is None:
            return NotImplemented
        return o / self


# ---------------------------------------------------------------------------
# first-order Taylor models (centered forms)
#
# Naive interval evaluation of the configuration suffers severe dependency
# blowup: one parameter t feeds every matrix entry, and the enclosure width
# of the worst condition grows like 1e9 times the width of t.  A first-order
# Taylor model tracks, for a function f of t on [m - rad, m + rad],
#
#     f(m + delta)  in  c + d*delta + rem        for all |delta| <= rad,
#
# with c, d, rem outward-rounded intervals.  The range enclosure
# c + d*[-rad, rad] + rem then has width ~ |f'|*2*rad + O(rad^2) instead of
# K*2*rad for a huge dependency constant K, which is what makes range
# certification feasible.


class TaylorScalar:
    """Real first-order Taylor model in one parameter: value coefficient,
    linear coefficient and rigorous remainder, all intervals, valid for
    parameter offsets |delta| <= rad."""

    __slots__ = ("c", "d", "rem", "rad")

    def __init__(self, c: Interval, d: Interval, rem: Interval, rad: float):
        self.c = c
        self.d = d
        self.rem = rem
        self.rad = rad

    def __repr__(self):
        return f"TaylorScalar({self.c!r}, {self.d!r}, {self.rem!r}, rad={self.rad!r})"

    def _lift(self, x):
        if isinstance(x, TaylorScalar):
            return x
        if isinstance(x, Interval):
            return TaylorScalar(x, Interval(0.0), Interval(0.0), self.rad)
        if isinstance(x, (int, float)):
            return TaylorScalar(Interval(float(x)), Interval(0.0), Interval(0.0), self.rad)
        return None

    def _delta(self) -> Interval:
        return Interval(-self.rad, self.rad)

    def _delta_sq(self) -> Interval:
        return Interval(0.0, _up(self.rad * self.rad))

    def range(self) -> Interval:
        """Plain interval enclosure of all values on the parameter interval."""
        return self.c + self.d * self._delta() + self.rem

    # deviation from the constant coefficient: d*delta + rem
    def _dev(self) -> Interval:
        return self.d * self._delta() + self.rem

    def __neg__(self):
        return TaylorScalar(-self.c, -self.d, -self.rem, self.rad)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TaylorScalar(self.c + o.c, self.d + o.d, self.rem + o.rem, self.rad)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TaylorScalar(self.c - o.c, self.d - o.d, self.rem - o.rem, self.rad)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        # (c1 + d1 D + r1)(c2 + d2 D + r2) =
        #   c1 c2 + (c1 d2 + c2 d1) D
        #   + d1 d2 D^2 + f1 r2 + (c2 + d2 D) r1
        c = self.c * o.c
        d = self.c * o.d + o.c * self.d
        rem = (
            (self.d * o.d) * self._delta_sq()
            + self.range() * o.rem
            + (o.c + o.d * self._delta()) * self.rem
        )
        return TaylorScalar(c, d, rem, self.rad)

    __rmul__ = __mul__

    def inv(self) -> "TaylorScalar":
        # 1/(c+x) = 1/c - x/c^2 + x^2/(c^2 (c+x)), x = d*delta + rem
        G = self.range()
        if G.lo <= 0.0 <= G.hi:
            raise DomainError("division by a Taylor model whose range contains zero")
        c2 = self.c.sqr()
        X = self._dev()
        rem = -self.rem / c2 + X.sqr() / (c2 * G)
        return TaylorScalar(1.0 / self.c, -self.d / c2, rem, self.rad)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def sqr(self) -> "TaylorScalar":
        return self * self

    def sqrt(self) -> "TaylorScalar":
        # sqrt(c+x) = sqrt(c) + x/(2 sqrt(c)) - x^2/(2 sqrt(c) (S + sqrt(c))^2)
        # with S = sqrt(c+x); the last term is the exact Lagrange-style rest.
        G = self.range()
        if G.lo < 0.0:
            raise DomainError(
                f"sqrt argument enclosure [{G.lo}, {G.hi}] is not nonnegative"
            )
        sc = self.c.sqrt()
        S = G.sqrt()
        X = self._dev()
        two_sc = 2.0 * sc
        rem = self.rem / two_sc - X.sqr() / (two_sc * (S + sc).sqr())
        return TaylorScalar(sc, self.d / two_sc, rem, self.rad)


class TaylorComplex:
    """Complex Taylor model: a pair of real ones."""

    __slots__ = ("re", "im")

    def __init__(self, re: TaylorScalar, im: TaylorScalar):
        self.re = re
        self.im = im

    def __repr__(self):
        return f"TaylorComplex({self.re!r}, {self.im!r})"

    def _lift(self, x):
        if isinstance(x, TaylorComplex):
            return x
        if isinstance(x, TaylorScalar):
            return TaylorComplex(x, x._lift(0.0))
        if isinstance(x, complex):
            re = self.re._lift(x.real)
            return TaylorComplex(re, self.re._lift(x.imag))
        lifted = self.re._lift(x)
        if lifted is None:
            return None
        return TaylorComplex(lifted, self.re._lift(0.0))

    def range(self) -> ComplexBox:
        return ComplexBox(self.re.range(), self.im.range())

    def mid(self) -> complex:
        return complex(self.re.range().mid(), self.im.range().mid())

    def conjugate(self) -> "TaylorComplex":
        return TaylorComplex(self.re, -self.im)

    def abs2(self) -> TaylorScalar:
        return self.re.sqr() + self.im.sqr()

    def __neg__(self):
        return TaylorComplex(-self.re, -self.im)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TaylorComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TaylorComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TaylorComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d = o.abs2().inv()
        n = self * o.conjugate()
        return TaylorComplex(n.re * d, n.im * d)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self


def certified_sign(x, zero_tol: float = DEFAULT_ZERO_TOL) -> SignVerdict:
    """Sign decision. Enclosures yield a certified verdict only when they
    exclude 0; point values are snapped to zero within ``zero_tol``."""
    if isinstance(x, TaylorScalar):
        x = x.range()
    if isinstance(x, Interval):
        if x.lo > 0.0:
            return SignVerdict.POSITIVE
        if x.hi < 0.0:
            return SignVerdict.NEGATIVE
        return SignVerdict.INDETERMINATE
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

    @property
    def theta(self) -> complex:
        # exp(i*pi/3)
        return complex(0.5, math.sqrt(3.0) / 2.0)

    def conj(self, z):
        return complex(z).conjugate()

    def re(self, z):
        return complex(z).real

    def im(self, z):
        return complex(z).imag

    def sqrt(self, x):
        x = float(x)
        if x < 0.0:
            if x > -DEFAULT_ZERO_TOL:
                return 0.0
            raise DomainError(f"sqrt of negative value {x}")
        return math.sqrt(x)

    def sign(self, x, zero_tol: float = DEFAULT_ZERO_TOL) -> SignVerdict:
        return certified_sign(float(x), zero_tol)

    def mid(self, z) -> complex:
        return complex(z)

    def mid_real(self, x) -> float:
        return float(x)


class RigorousBackend:
    """Outward-rounded interval arithmetic; reals are Intervals, complex
    values are ComplexBoxes."""

    name = "rigorous"
    rigorous = True

    def real(self, x):
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            return Interval(float(x))
        raise TypeError(f"rigorous backend cannot lift {type(x).__name__} as a real")

    def complex_(self, re, im=0.0):
        return ComplexBox(self.real(re), self.real(im))

    @property
    def theta(self) -> ComplexBox:
        half_sqrt3 = Interval(3.0).sqrt() / 2
        return ComplexBox(Interval(0.5), half_sqrt3)

    def conj(self, z):
        return ComplexBox._coerce(z).conjugate()

    def re(self, z):
        if isinstance(z, Interval):
            return z
        return ComplexBox._coerce(z).re

    def im(self, z):
        if isinstance(z, Interval):
            return Interval(0.0)
        return ComplexBox._coerce(z).im

    def sqrt(self, x):
        return self.real(x).sqrt()

    def sign(self, x, zero_tol: float = DEFAULT_ZERO_TOL) -> SignVerdict:
        return certified_sign(self.real(x))

    def mid(self, z) -> complex:
        if isinstance(z, Interval):
            return complex(z.mid(), 0.0)
        return ComplexBox._coerce(z).mid()

    def mid_real(self, x) -> float:
        return self.real(x).mid()


class TaylorBackend:
    """Interval arithmetic through first-order Taylor models centered at
    ``mid`` with parameter radius ``rad``.  Same enclosure guarantees as the
    plain rigorous backend, but vastly tighter on narrow parameter ranges."""

    name = "rigorous-taylor"
    rigorous = True

    def __init__(self, mid: float, rad: float):
        if rad < 0.0:
            raise ValueError("negative Taylor model radius")
        self._mid = float(mid)
        self._rad = float(rad)

    @classmethod
    def for_interval(cls, box: Interval) -> "TaylorBackend":
        m = box.mid()
        rad = _up(max(m - box.lo, box.hi - m, 0.0))
        return cls(m, rad)

    def variable(self) -> TaylorScalar:
        """The parameter itself as a Taylor model."""
        return TaylorScalar(
            Interval(self._mid), Interval(1.0), Interval(0.0), self._rad
        )

    def _const(self, x) -> TaylorScalar:
        zero = Interval(0.0)
        if isinstance(x, Interval):
            return TaylorScalar(x, zero, zero, self._rad)
        return TaylorScalar(Interval(float(x)), zero, zero, self._rad)

    def real(self, x):
        if isinstance(x, TaylorScalar):
            return x
        if isinstance(x, (Interval, int, float)):
            return self._const(x)
        raise TypeError(f"Taylor backend cannot lift {type(x).__name__} as a real")

    def complex_(self, re, im=0.0):
        return TaylorComplex(self.real(re), self.real(im))

    @property
    def theta(self) -> TaylorComplex:
        half_sqrt3 = Interval(3.0).sqrt() / 2
        return TaylorComplex(self._const(0.5), self._const(half_sqrt3))

    def conj(self, z):
        if isinstance(z, TaylorComplex):
            return z.conjugate()
        return self.complex_(self.real(z))

    def re(self, z):
        if isinstance(z, TaylorComplex):
            return z.re
        return self.real(z)

    def im(self, z):
        if isinstance(z, TaylorComplex):
            return z.im
        return self._const(0.0)

    def sqrt(self, x):
        return self.real(x).sqrt()

    def sign(self, x, zero_tol: float = DEFAULT_ZERO_TOL) -> SignVerdict:
        return certified_sign(self.real(x))

    def mid(self, z) -> complex:
        if isinstance(z, TaylorComplex):
            return z.mid()
        return complex(self.real(z).range().mid(), 0.0)

    def mid_real(self, x) -> float:
        return self.real(x).range().mid()


FAST = FastBackend()
RIGOROUS = RigorousBackend()

_BACKENDS = {"fast": FAST, "rigorous": RIGOROUS}


def get_backend(name: str):
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; expected one of {sorted(_BACKENDS)}")


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


def certify_on_interval(evaluator, lo: float, hi: float, max_depth: int = 40) -> Certificate:
    """Adaptive bisection certification.

    ``evaluator(t: Interval)`` must return ``(complete, items)`` where
    ``items`` is a list of ``(condition_id, Interval)`` pairs, each required
    to be positive, and ``complete`` says whether every condition could be
    evaluated on that enclosure.  A subinterval is certified once all items
    are certified positive; an item certified negative (on a subinterval or
    at a midpoint sample) is a counterexample; otherwise the subinterval is
    split until ``max_depth``.
    """
    if not lo < hi:
        raise ValueError("certification interval requires lo < hi")
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
    """Check that the leaf subintervals tile [lo, hi] exactly, that each
    carries one certified-positive leaf for every condition the predicate
    evaluates there, and that re-evaluating the predicate on it reproduces
    those verdicts.  Since every subinterval carries every condition, each
    condition's leaves tile [lo, hi]."""
    recorded = {}
    for leaf in cert.leaves:
        recorded.setdefault((leaf.lo, leaf.hi), {})[leaf.condition] = leaf.verdict
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
