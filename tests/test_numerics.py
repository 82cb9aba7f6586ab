"""Soundness of the scalar backends: interval enclosures against an exact
rational oracle, Taylor model containment, and the bisection certifier
with its replay."""

import math
import operator
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from cakecheck import numerics
from cakecheck.numerics import (
    FAST,
    RIGOROUS,
    ComplexBall,
    DomainError,
    Interval,
    SignVerdict,
    TaylorBackend,
    TaylorModel,
    certified_sign,
    certify_on_interval,
    get_backend,
    mid,
    replay_certificate,
)
from cakecheck.verification import certify_range, condition_enclosures, verify_all
from rational import RATIONAL, Rational


# ---------------------------------------------------------------------------
# intervals vs exact rational arithmetic


def _hull(x, y):
    return Interval(min(x.lo, y.lo), max(x.hi, y.hi))


def test_interval_ops_enclose_exact_rationals():
    rng = random.Random(20260823)
    for _ in range(400):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        ia = Interval(float(a))
        ib = Interval(float(b))
        # the float seed may be off by an ulp from the rational; widen
        ia = _hull(ia, Interval(math.nextafter(float(a), -1e300),
                                math.nextafter(float(a), 1e300)))
        ib = _hull(ib, Interval(math.nextafter(float(b), -1e300),
                                math.nextafter(float(b), 1e300)))
        checks = [(a + b, ia + ib), (a - b, ia - ib), (a * b, ia * ib)]
        if b != 0:
            checks.append((a / b, ia / ib))
        checks.append((a * a, ia.sqr()))
        for exact, enc in checks:
            assert enc.lo <= float(exact) <= enc.hi or (
                Fraction(enc.lo) <= exact <= Fraction(enc.hi)
            )


def test_interval_sqrt_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        lo = rng.uniform(0.0, 10.0)
        hi = lo + rng.uniform(0.0, 5.0)
        s = Interval(lo, hi).sqrt()
        back = s.sqr()
        assert back.lo <= lo and hi <= back.hi


def test_interval_division_by_zero_interval_raises():
    with pytest.raises(DomainError):
        Interval(1.0) / Interval(-1.0, 1.0)


def test_interval_sqrt_of_negative_raises():
    with pytest.raises(DomainError):
        Interval(-2.0, -1.0).sqrt()


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_complex_box_mul_contains_exact_product():
    rng = random.Random(99)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        bz = RIGOROUS.complex_(z.real, z.imag)
        bw = RIGOROUS.complex_(w.real, w.imag)
        prod = bz * bw
        exact = z * w
        # a few ulps of slack for the float reference product
        assert abs(prod.mid() - exact) <= 1e-12 * max(1.0, abs(exact))
        back = bz / bw * bw
        assert ((back.real.lo <= z.real <= back.real.hi and back.imag.lo <= z.imag <= back.imag.hi)
                or abs(back.mid() - z) < 1e-12)


# ---------------------------------------------------------------------------
# ball arithmetic against the exact range of each operation


EDGE_INTERVALS = [
    Interval(0.0), Interval(-0.0), Interval(-0.0, 0.0), Interval(2.5),
    Interval(0.0, 2.5), Interval(-0.0, 2.5), Interval(-3.0, 0.0), Interval(-3.0, -0.0),
    Interval(-1.5, 2.0), Interval(-5e-324, 5e-324), Interval(5e-324), Interval(1e-310, 3e-308),
    Interval(1e100, 1e101), Interval(-1e150, 1e150),
]


def _random_interval(rng):
    x = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)
    if rng.random() < 0.2:
        return Interval(x)
    y = x + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 2.0) * 10.0 ** rng.randint(-12, 8)
    return Interval(min(x, y), max(x, y))


def _interval_pool():
    rng = random.Random(20261019)
    return EDGE_INTERVALS + [_random_interval(rng) for _ in range(40)]


def _complex_ball(re, im):
    """The ComplexBall whose parts are the balls of the Intervals re, im."""
    return ComplexBall(re.m, re.r, im.m, im.r)


def _ends(x):
    """The exact ends m - r and m + r of a ball."""
    return Fraction(x.m) - Fraction(x.r), Fraction(x.m) + Fraction(x.r)


_FLOAT_MAX = Fraction(2) ** 1024
_GAMMA2_BOUND, _TINY_BOUND = Fraction(2) ** -51, Fraction(2) ** -999
_SLACK = Fraction(numerics._SLACK)


def _within(op, values, summed=None):
    """``op()`` contains every exact value, and its radius is at most the
    half-width of their range plus what rounding adds: 2^-51 >= gamma_2
    (within _SLACK) times the magnitude of the terms summed, by default the
    largest value's, and _TINY.  A value beyond the floats is an overflow,
    a DomainError."""
    top = max(abs(v) for v in values)
    if top >= _FLOAT_MAX:
        with pytest.raises(DomainError, match="overflowed"):
            op()
        return
    x = op()
    lo, hi = _ends(x)
    assert all(lo <= v <= hi for v in values), (x, values)
    # the outward-rounded bounds contain the ball
    assert Fraction(x.lo) <= lo and hi <= Fraction(x.hi)
    bound = ((max(values) - min(values)) / 2 + _GAMMA2_BOUND * (summed or top)) * _SLACK + _TINY_BOUND
    assert Fraction(x.r) <= bound, (x, float(bound))


def test_interval_ops_contain_the_exact_range():
    """Each operation contains the exact results at the ends of its operands'
    balls, which span its exact range (with 0 for the square of a ball that
    has 0 inside), and its radius is that range's half-width plus
    rounding."""
    pool = _interval_pool()
    for a in pool:
        ea = _ends(a)
        assert ((-a).m, (-a).r) == (-a.m, a.r)
        _within(a.sqr, [x * x for x in ea] + ([Fraction(0)] if ea[0] < 0 < ea[1] else []))
        if ea[0] >= 0:
            # sqrt(v) is in [lo, hi] iff lo <= 0 or lo^2 <= v, and v <= hi^2
            s = a.sqrt()
            lo, hi = _ends(s)
            assert all((lo <= 0 or lo * lo <= v) and v <= hi * hi for v in ea)
            # its radius is the half-width of [sqrt(lo), sqrt(hi)] plus
            # rounding, 2^-47 of the larger end, within _SLACK
            top = math.sqrt(a.m + a.r)
            half = (top - math.sqrt(a.m - a.r)) / 2
            assert s.r <= (half + 2.0 ** -47 * top) * numerics._SLACK + 2.0 ** -999
        else:
            with pytest.raises(DomainError):
                a.sqrt()
        for b in pool:
            eb = _ends(b)
            _within(lambda: a + b, [x + y for x in ea for y in eb])
            _within(lambda: a - b, [x - y for x in ea for y in eb])
            _within(lambda: a * b, [x * y for x in ea for y in eb])
            if eb[0] > 0 or eb[1] < 0:
                # the shift of a quotient's midpoint is off by 2^-48 of itself
                q = [x / y for x in ea for y in eb]
                _within(lambda: a / b, q, 10 * max(abs(v) for v in q))
            else:
                with pytest.raises(DomainError, match="containing zero"):
                    a / b


def test_interval_overflow_is_a_domain_error():
    """A non-finite bound, at construction or as a result, is a DomainError:
    an overflow, not an unbounded interval."""
    for lo, hi in ((1.0, math.inf), (-math.inf, 2.0), (math.inf, math.inf), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            Interval(lo, hi)
    with pytest.raises(DomainError, match="overflowed"):
        Interval(math.inf)
    big = Interval(1e200, 1e201)
    for op in (lambda: big * big, lambda: big.sqr(), lambda: big / Interval(1e-200),
               lambda: Interval(1.7e308) + Interval(1.7e308),
               lambda: Interval(-1.7e308) - Interval(1.7e308),
               lambda: _complex_ball(big, big) * _complex_ball(big, Interval(1.0)),
               lambda: ComplexBall(1.0, 0.0, math.inf, 0.0), lambda: ComplexBall(math.nan, 0.0, 1.0, 0.0)):
        with pytest.raises(DomainError, match="overflowed"):
            op()


def _product_range(ex, ey):
    """The exact range of x * y over two balls with ends ``ex`` and ``ey``,
    spanned by the corners."""
    p = [a * c for a in ex for c in ey]
    return min(p), max(p)


def _complex_range(x, y):
    """The exact ranges of the real and imaginary parts of x * y over the
    parts' balls, given as their ends, each with the largest magnitude of
    the two products it sums: each part is a sum of two products of
    independent parts."""
    (xr, xi), (yr, yi) = x, y
    ac, bd = _product_range(xr, yr), _product_range(xi, yi)
    ad, bc = _product_range(xr, yi), _product_range(xi, yr)
    return ([ac[0] - bd[1], ac[1] - bd[0]], max(map(abs, ac)) + max(map(abs, bd)),
            [ad[0] + bc[0], ad[1] + bc[1]], max(map(abs, ad)) + max(map(abs, bc)))


def test_interval_complex_product_contains_the_exact_range():
    """Each part of the complex product of Interval parts contains its exact
    range, with a radius of the range's half-width plus rounding; an
    exact-zero part on either side included."""
    pool = _interval_pool()
    rng = random.Random(5)
    pairs = [_complex_ball(a, b) for a in EDGE_INTERVALS[::2] for b in EDGE_INTERVALS[1::2]]
    pairs += [_complex_ball(rng.choice(pool), rng.choice(pool)) for _ in range(120)]
    z = _complex_ball(Interval(1.5, 2.0), Interval(-3.0, -1.0))
    pairs += [z, _complex_ball(Interval(-0.5, 0.25), Interval(0.0)),
              _complex_ball(Interval(-0.0, 0.0), Interval(4.0, 5.0))]
    ends = [(x, (_ends(x.real), _ends(x.imag))) for x in pairs]
    for x, ex in ends:
        for y, ey in ends[::3] + ends[-3:]:
            real, real_summed, imag, imag_summed = _complex_range(ex, ey)
            _within(lambda: (x * y).real, real, real_summed)
            _within(lambda: (x * y).imag, imag, imag_summed)


# The reference that ComplexBall's product matches to the bit: the complex
# product of two pairs of Intervals, written out on their midpoints and radii.


def _ref_around(f, s, w, err):
    m = f + s
    g, s = numerics._GAMMA1 * abs(m), abs(s)
    return numerics._ball(m, (w + err + (g if g < s else s)) * numerics._SLACK + numerics._TINY)


_NARROW = 2.0 ** -27


def _ref_interval_pair_product(xr, xi, yr, yi):
    _times, _ball = numerics._times, numerics._ball
    _GAMMA2, _SLACK, _TINY = numerics._GAMMA2, numerics._SLACK, numerics._TINY
    a, ar, b, br = xr.m, xr.r, xi.m, xi.r
    c, cr, d, dr = yr.m, yr.r, yi.m, yi.r
    A, B, C, D = abs(a), abs(b), abs(c), abs(d)
    if ((ar <= _NARROW * A or not a) and (br <= _NARROW * B or not b)
            and (cr <= _NARROW * C or not c) and (dr <= _NARROW * D or not d)):
        ac, bd, ad, bc = a * c, b * d, a * d, b * c
        real = A * cr + ar * (C + cr) + B * dr + br * (D + dr) + _GAMMA2 * (abs(ac) + abs(bd))
        imag = A * dr + ar * (D + dr) + B * cr + br * (C + cr) + _GAMMA2 * (abs(ad) + abs(bc))
        return _ball(ac - bd, real * _SLACK + _TINY), _ball(ad + bc, imag * _SLACK + _TINY)
    p1, s1, w1 = _times(a, ar, c, cr)
    p2, s2, w2 = _times(b, br, d, dr)
    p3, s3, w3 = _times(a, ar, d, dr)
    p4, s4, w4 = _times(b, br, c, cr)
    return (_ref_around(p1 - p2, s1 - s2, w1 + w2, _GAMMA2 * (abs(p1) + abs(p2) + abs(s1) + abs(s2))),
            _ref_around(p3 + p4, s3 + s4, w3 + w4, _GAMMA2 * (abs(p3) + abs(p4) + abs(s3) + abs(s4))))


def _ball_bits(*parts):
    return [x.hex() for p in parts for x in (p.m, p.r)]


def _narrow(*parts):
    return all(p.r <= _NARROW * abs(p.m) or not p.m for p in parts)


def _ref_lift(k):
    """k as a pair of Intervals, as the rigorous backend lifted it."""
    if isinstance(k, complex):
        return Interval(k.real), Interval(k.imag)
    return (k if isinstance(k, Interval) else Interval(float(k))), Interval(0.0)


def test_complex_ball_arithmetic_matches_the_interval_parts_bit_for_bit():
    """ComplexBall's product gives the four floats of the reference product
    of its parts as Intervals, in both operand orders (k * x for a lifted k
    is x times k, as it was), through both of its branches, and overflows
    where the reference does; its sum and difference are those of the
    parts.  The pool reaches what the golden files cannot: signed zeros,
    zero midpoints with radii, wide balls and values near overflow."""
    rng = random.Random(20261021)
    # balls of relative radius 2^-50 to 2^-25, about the narrow branch's bound 2^-27
    narrow = [Interval(x, x + abs(x) * 2.0 ** e) for x, e in
              ((2.22, -50), (-0.7, -40), (3e-5, -26.5), (-1e7, -26), (1.5, -27.5), (-4.0, -25))]
    pool = EDGE_INTERVALS + narrow + [Interval(1e154, 2e154), Interval(-1e300, 1e300), Interval(1.3e154),
                                      Interval(-1.7e308)] + [_random_interval(rng) for _ in range(4)]
    xs = [(a, b) for a in pool for b in pool[rng.randrange(2)::2]]
    ys = xs[::29] + [(rng.choice(pool), rng.choice(pool)) for _ in range(6)] + list(zip(narrow, narrow[::-1]))
    ys = [(_complex_ball(*yp), yp) for yp in ys]
    ks = [(k, _ref_lift(k)) for k in (3, -2.5, 0.0, -0.0, 2j, complex(1e-300, -7.0), Interval(0.5, 0.75))]
    seen = {"narrow": 0, "wide": 0, "overflow": 0}
    for xp in xs:
        x = _complex_ball(*xp)
        for y, yp in ys + ks:
            lifted = type(y) is not ComplexBall
            for op, parts in ((lambda: x * y, xp + yp), (lambda: y * x, xp + yp if lifted else yp + xp)):
                try:
                    want = _ball_bits(*_ref_interval_pair_product(*parts))
                except DomainError:
                    seen["overflow"] += 1
                    with pytest.raises(DomainError, match="overflowed"):
                        op()
                    continue
                seen["narrow" if _narrow(*parts) else "wide"] += 1
                z = op()
                assert _ball_bits(z.real, z.imag) == want, parts
            for op in (operator.add, operator.sub) if not lifted else ():
                try:
                    want = _ball_bits(op(xp[0], yp[0]), op(xp[1], yp[1]))
                except DomainError:
                    with pytest.raises(DomainError, match="overflowed"):
                        op(x, y)
                    continue
                z = op(x, y)
                assert _ball_bits(z.real, z.imag) == want, (op, xp, yp)
    assert min(seen.values()) > 1000, seen


def _ref_interval_pair_quotient(xr, xi, yr, yi):
    """x / y on the parts as Intervals: x conj(y) times 1 / |y|^2."""
    d = (yr.sqr() + yi.sqr()).inv()
    real, imag = _ref_interval_pair_product(xr, xi, yr, -yi)
    return real * d, imag * d


def test_complex_ball_division_matches_the_interval_parts_bit_for_bit():
    """ComplexBall's quotient, with either operand lifted, gives the four
    floats of the reference quotient of its parts as Intervals, and fails
    where the reference fails, with the same reason."""
    rng = random.Random(20261022)
    pool = EDGE_INTERVALS + [Interval(1e154, 2e154), Interval(-1e-160, 1e-150), Interval(1.3e154),
                             Interval(3e-200)] + [_random_interval(rng) for _ in range(8)]
    xs = [(a, b) for a in pool for b in pool[rng.randrange(2)::2]]
    ks = [(k, _ref_lift(k)) for k in (3, -2.5, 0.0, 2j, complex(1e-300, -7.0), Interval(0.5, 0.75))]
    seen = {"quotient": 0, "overflowed": 0, "containing zero": 0}
    for xp in xs:
        x = _complex_ball(*xp)
        for y, yp in [(_complex_ball(*yp), yp) for yp in xs[::7]] + ks:
            for op, parts in ((lambda: x / y, xp + yp), (lambda: y / x, yp + xp)):
                try:
                    want = _ball_bits(*_ref_interval_pair_quotient(*parts))
                except DomainError as exc:
                    reason = "overflowed" if "overflowed" in str(exc) else "containing zero"
                    seen[reason] += 1
                    with pytest.raises(DomainError, match=reason):
                        op()
                    continue
                seen["quotient"] += 1
                z = op()
                assert _ball_bits(z.real, z.imag) == want, parts
    assert min(seen.values()) > 100, seen


def test_rigorous_verify_counts_interval_and_complex_products(monkeypatch):
    counts = {"interval": 0, "complex": 0}

    def counted(cls, name, key):
        fn = cls.__dict__[name]

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        monkeypatch.setattr(cls, name, wrapper)

    for name in ("__mul__", "__rmul__"):
        counted(Interval, name, "interval")
        counted(ComplexBall, name, "complex")
    assert verify_all(2.22, "rigorous")["passed"]
    # 1362 Interval products while each complex product formed its parts'
    # products as Intervals; 428 complex products while every inner product
    # and reflection formed G conj(v) afresh and points were built by
    # scaling basis vectors; 60 while each of the 7 complex divisions
    # multiplied its parts by 1 / |o|^2 as Intervals
    assert counts["interval"] == 46
    assert counts["complex"] == 318


def _count_point_scalars(monkeypatch) -> dict:
    """Counts of the Intervals and ComplexBalls built from now on."""
    counts = {Interval: 0, ComplexBall: 0}
    new = numerics._new

    def counted_new(cls):
        counts[cls] += 1
        return new(cls)
    monkeypatch.setattr(numerics, "_new", counted_new)
    for cls in counts:
        init = cls.__init__

        def counted_init(self, *args, init=init, cls=cls):
            counts[cls] += 1
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted_init)
    return counts


def test_rigorous_verify_counts_the_scalars_it_builds(monkeypatch):
    """One rigorous verify_all(2.22) builds 593 complex values, one object
    each, and 183 Intervals: every complex operation, division and lift
    included, writes its result's four floats, and only real operations and
    reads of a complex value's parts build Intervals."""
    counts = _count_point_scalars(monkeypatch)
    assert verify_all(2.22, "rigorous")["passed"]
    # 1331 Intervals and 593 pairs while each complex value was a pair of
    # two Intervals; 335 Intervals while a complex division formed |o|^2,
    # its inverse and the two parts of its result as Intervals and the
    # backend lifted each part of a complex value to an Interval first
    assert counts == {Interval: 183, ComplexBall: 593}


def test_point_probe_counts_the_intervals_it_builds(monkeypatch):
    box = Interval(2.2, 2.2)
    counts = _count_point_scalars(monkeypatch)
    complete, items = condition_enclosures(box)
    assert complete and len(items) == 11
    # 297 while the backend built a unit Interval to lift its reals through
    # besides the enclosure of t; 296 while complex divisions and lifts
    # built Intervals
    assert counts[Interval] == 147


def test_certified_sign_verdicts():
    assert certified_sign(Interval(0.5, 1.0)) is SignVerdict.POSITIVE
    assert certified_sign(Interval(-1.0, -0.5)) is SignVerdict.NEGATIVE
    assert certified_sign(Interval(-1.0, 1.0)) is SignVerdict.INDETERMINATE
    assert certified_sign(2.0) is SignVerdict.POSITIVE
    assert certified_sign(-2.0) is SignVerdict.NEGATIVE
    assert certified_sign(1e-15) is SignVerdict.ZERO


def test_get_backend_names():
    assert get_backend("fast").name == "fast"
    assert get_backend("rigorous").rigorous
    with pytest.raises(ValueError):
        get_backend("exact")


# ---------------------------------------------------------------------------
# Taylor models, at every order from 0 to the shipped one

ORDERS = range(numerics.TAYLOR_ORDER + 1)


def _taylor_backend(monkeypatch, order, mid, rad):
    monkeypatch.setattr(numerics, "TAYLOR_ORDER", order)
    return TaylorBackend(mid, rad)


@pytest.fixture(params=ORDERS)
def order(request, monkeypatch):
    monkeypatch.setattr(numerics, "TAYLOR_ORDER", request.param)
    return request.param


def _taylor_pipeline(x):
    """A dependency-heavy rational/sqrt expression used for containment
    tests; mirrors the kind of reuse the construction performs."""
    y = (x * x - x + 1) / (x + 2)
    z = (2 * y + x) * (y - 3) + x / y
    return (z * z + 5).sqrt() + y - z


def _float_pipeline(x):
    y = (x * x - x + 1) / (x + 2)
    z = (2 * y + x) * (y - 3) + x / y
    return math.sqrt(z * z + 5) + y - z


def _poly_value(model, delta):
    """The polynomial part of ``model`` at parameter offset ``delta``, exactly."""
    return sum(Fraction(c) * delta ** k for k, c in enumerate(model.c))


def _exact_bounds(model, delta):
    """Exact rational bounds of ``model`` at ``delta``: its polynomial part
    there, widened by its remainder."""
    value = _poly_value(model, delta)
    return value - Fraction(model.r), value + Fraction(model.r)


def _encloses(model, delta, exact):
    lo, hi = _exact_bounds(model, delta)
    rng = model.range()
    return lo <= exact <= hi and Fraction(rng.lo) <= exact <= Fraction(rng.hi)


def _encloses_sqrt(model, delta, square):
    """``model`` encloses sqrt(square) at ``delta``, decided exactly by
    comparing squares."""
    lo, hi = _exact_bounds(model, delta)
    rng = model.range()
    return all((a <= 0 or a * a <= square) and b >= 0 and b * b >= square
               for a, b in ((lo, hi), (Fraction(rng.lo), Fraction(rng.hi))))


def _oracle_operands(x):
    """Two models with dependency on x, and their exact rational values as
    functions of t."""
    a = (x * x - x + 1) / (x + 2)
    b = (2 * a + x) * (a - 3) + x / a

    def fa(t):
        return (t * t - t + 1) / (t + 2)

    def fb(t):
        return (2 * fa(t) + t) * (fa(t) - 3) + t / fa(t)

    return a, b, fa, fb


def test_taylor_ops_contain_exact_values(order):
    """+, -, *, / and sqrt enclose the exact rational values at rational
    points inside the box, pointwise for the model and for its range."""
    rng = random.Random(20261018 + order)
    for _ in range(12):
        m = rng.uniform(0.5, 3.0)
        rad = 10.0 ** rng.uniform(-6, -1)
        backend = TaylorBackend(m, rad)
        a, b, fa, fb = _oracle_operands(backend.variable())
        shifted = 3 - a * 0.1 + Interval(0.25, 0.5)
        cases = [
            (a + b, lambda t: fa(t) + fb(t)),
            (a - b, lambda t: fa(t) - fb(t)),
            (a * b, lambda t: fa(t) * fb(t)),
            (a / b, lambda t: fa(t) / fb(t)),
            # an Interval constant stands for each of its points
            (shifted, lambda t: 3 - fa(t) * Fraction(0.1) + Fraction(0.25)),
            (shifted, lambda t: 3 - fa(t) * Fraction(0.1) + Fraction(0.5)),
        ]
        root = (b * b + a).sqrt()
        for k in range(-4, 5):
            delta = Fraction(k, 4) * Fraction(rad)
            t = Fraction(m) + delta
            for model, exact in cases:
                assert _encloses(model, delta, exact(t)), (order, m, rad, k)
            assert _encloses_sqrt(root, delta, fb(t) * fb(t) + fa(t)), (order, m, rad, k)


def test_taylor_rounding_goes_into_remainder(order):
    """Operands that are exact polynomials (remainder 0) with random float
    coefficients: every rounding of a single operation must land in the
    remainder of its result."""
    rng = random.Random(7 + order)
    half = order // 2 + 1  # two such factors multiply without truncation
    for _ in range(40):
        m, rad = rng.uniform(0.5, 3.0), 10.0 ** rng.uniform(-6, -1)
        pw = TaylorBackend(m, rad).variable().pw

        def poly(length, c0):
            return TaylorModel([c0] + [rng.uniform(-1, 1) for _ in range(length - 1)], 0.0, pw)

        a, b = poly(half, rng.uniform(5, 9)), poly(half, rng.uniform(-9, 9))
        def fa(d):
            return _poly_value(a, d)

        def fb(d):
            return _poly_value(b, d)

        x = rng.uniform(-3, 3)
        iv = Interval(x, x + 0.5)
        a_iv = a * iv
        fx = Fraction(x)
        cases = [
            (a + b, lambda d: fa(d) + fb(d)),
            (a - b, lambda d: fa(d) - fb(d)),
            (a * b, lambda d: fa(d) * fb(d)),
            (a + x, lambda d: fa(d) + fx),
            (a * x, lambda d: fa(d) * fx),
            (b / x, lambda d: fb(d) / fx),
            (a_iv, lambda d: fa(d) * fx),
            (a_iv, lambda d: fa(d) * Fraction(iv.hi)),
            (a.inv(), lambda d: 1 / fa(d)),
        ]
        root = a.sqrt()
        for k in range(-4, 5):
            delta = Fraction(k, 4) * Fraction(rad)
            for model, exact in cases:
                assert _encloses(model, delta, exact(delta)), (order, m, rad, k)
            assert _encloses_sqrt(root, delta, fa(delta)), (order, m, rad, k)


def test_taylor_complex_division_contains_exact_values(order):
    rng = random.Random(11 + order)
    m, rad = 2.2, 1e-3
    backend = TaylorBackend(m, rad)
    x = backend.variable()
    z = backend.complex_(x * 2 - 1, x * x)
    w = backend.complex_(x + 3, 1 - x)
    q = z / w
    for _ in range(10):
        delta = Fraction(rng.randint(-1000, 1000), 1000) * Fraction(rad)
        t = Fraction(m) + delta
        zr, zi, wr, wi = 2 * t - 1, t * t, t + 3, 1 - t
        d = wr * wr + wi * wi
        assert _encloses(q.real, delta, (zr * wr + zi * wi) / d)
        assert _encloses(q.imag, delta, (zi * wr - zr * wi) / d)


def test_taylor_complex_product_with_zero_part_contains_exact_values(order):
    """Products where one factor has an exact-zero real or imaginary part
    (a lifted real or imaginary constant) enclose the exact values."""
    rng = random.Random(13 + order)
    m, rad = 2.2, 1e-3
    backend = TaylorBackend(m, rad)
    x = backend.variable()
    z = backend.complex_(x * 2 - 1, x * x)
    real = backend.complex_(x + 3)
    imag = backend.complex_(0, x + 3)
    iv = z * Interval(0.5, 0.75)
    cases = [
        (z * 3, lambda zr, zi, t: (3 * zr, 3 * zi)),
        (3 * z, lambda zr, zi, t: (3 * zr, 3 * zi)),
        (z * 2j, lambda zr, zi, t: (-2 * zi, 2 * zr)),
        # an Interval constant stands for each of its points
        (iv, lambda zr, zi, t: (zr / 2, zi / 2)),
        (iv, lambda zr, zi, t: (zr * 3 / 4, zi * 3 / 4)),
        (real * z, lambda zr, zi, t: ((t + 3) * zr, (t + 3) * zi)),
        (imag * z, lambda zr, zi, t: (-(t + 3) * zi, (t + 3) * zr)),
    ]
    for _ in range(10):
        delta = Fraction(rng.randint(-1000, 1000), 1000) * Fraction(rad)
        t = Fraction(m) + delta
        for prod, exact in cases:
            want_re, want_im = exact(2 * t - 1, t * t, t)
            assert _encloses(prod.real, delta, want_re), (order, delta)
            assert _encloses(prod.imag, delta, want_im), (order, delta)


def _widened(q: Fraction) -> Interval:
    """An Interval that contains the rational ``q``."""
    return Interval(math.nextafter(float(q), -math.inf), math.nextafter(float(q), math.inf))


def test_interval_complex_product_with_zero_part_contains_exact_values():
    """The same on the rigorous backend's Interval-backed pairs, whose
    exact-zero parts are the point interval [0, 0]."""
    rng = random.Random(17)
    for _ in range(100):
        zr, zi, a = (Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3))
        z = RIGOROUS.complex_(_widened(zr), _widened(zi))
        real = RIGOROUS.complex_(_widened(a))
        imag = RIGOROUS.complex_(0, _widened(a))
        assert (real.imag.m, real.imag.r) == (imag.real.m, imag.real.r) == (0.0, 0.0)
        iv = z * Interval(0.5, 0.75)
        cases = [
            (z * 3, (3 * zr, 3 * zi)),
            (3 * z, (3 * zr, 3 * zi)),
            (z * 2j, (-2 * zi, 2 * zr)),
            (iv, (zr / 2, zi / 2)),
            (iv, (zr * 3 / 4, zi * 3 / 4)),
            (real * z, (a * zr, a * zi)),
            (imag * z, (-a * zi, a * zr)),
            (z * imag, (-a * zi, a * zr)),
        ]
        for prod, (want_re, want_im) in cases:
            assert Fraction(prod.real.lo) <= want_re <= Fraction(prod.real.hi), (zr, zi, a)
            assert Fraction(prod.imag.lo) <= want_im <= Fraction(prod.imag.hi), (zr, zi, a)


# ---------------------------------------------------------------------------
# the Taylor product kernels, bit for bit


def _schoolbook(a, b):
    """The coefficients of the product of two polynomials by the nested loop."""
    p = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for k, bj in enumerate(b, i):
            p[k] += ai * bj
    return p


def _ref_scaled(m, x, xr):
    na = numerics._norm(m.c, m.pw)
    if x == 0.0:
        return [0.0], xr * (na + m.r) * numerics._SLACK + numerics._TINY
    ax = abs(x)
    r = ax * m.r + xr * (na + m.r) + numerics._GAMMA * ax * na
    return [x * ck for ck in m.c], r * numerics._SLACK + numerics._TINY


def _ref_product(x, y):
    """x * y with the schoolbook loop: (coefficients, remainder)."""
    a, b, pw = x.c, y.c, x.pw
    if len(a) == 1:
        return _ref_scaled(y, a[0], x.r)
    if len(b) == 1:
        return _ref_scaled(x, b[0], y.r)
    n = len(pw) // 2
    p = _schoolbook(a, b)
    dropped = 0.0
    for k in range(n + 1, len(p)):
        dropped += abs(p[k]) * pw[k]
    na, nb = numerics._norm(a, pw), numerics._norm(b, pw)
    r = dropped + numerics._GAMMA * na * nb + na * y.r + nb * x.r + x.r * y.r
    return p[:n + 1], r * numerics._SLACK + numerics._TINY


def _bits(model):
    if isinstance(model, TaylorModel):
        model = model.c, model.r
    c, r = model
    return [x.hex() for x in c], r.hex()


SPECIAL_COEFFICIENTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308]


def _coefficients(rng, length):
    return [rng.choice(SPECIAL_COEFFICIENTS) if rng.random() < 0.3
            else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(length)]


def test_product_kernels_match_the_schoolbook_loop(monkeypatch):
    monkeypatch.setattr(numerics, "_KERNELS", {})
    rng = random.Random(20261019)
    for la in range(1, 8):
        for lb in range(1, 8):
            kernel = numerics._kernel(la, lb)
            cases = [(_coefficients(rng, la), _coefficients(rng, lb)) for _ in range(30)]
            # signed zeros: the loop's sums start at +0.0
            cases += [([x] * la, [y] * lb) for x in (0.0, -0.0) for y in (0.0, -0.0)]
            # an infinite coefficient, where 0 * inf gives NaN
            for inf in (math.inf, -math.inf):
                a, b = _coefficients(rng, la), _coefficients(rng, lb)
                a[rng.randrange(la)] = inf
                b[rng.randrange(lb)] = 0.0
                cases.append((a, b))
            for a, b in cases:
                want = [x.hex() for x in _schoolbook(a, b)]
                assert [x.hex() for x in kernel(a, b)] == want, (la, lb, a, b)
    assert sorted(numerics._KERNELS) == [(la, lb) for la in range(1, 8) for lb in range(1, 8)]


def _model_pool(rng, pw):
    """Models of every length up to the order, with and without remainder,
    and the exact zeros and constants of lifted reals."""
    n = len(pw) // 2
    pool = [TaylorModel(_coefficients(rng, length), r, pw)
            for length in range(1, n + 2) for r in (0.0, rng.uniform(0.0, 1e-9))]
    pool += [TaylorModel([0.0], 0.0, pw), TaylorModel([-0.0], 0.0, pw),
             TaylorModel([0.0], 1e-12, pw), TaylorModel([2.5], 0.0, pw),
             TaylorModel([rng.uniform(1.0, 2.0) for _ in range(n + 1)], 1e-15, pw)]
    return pool


def test_taylor_product_matches_the_schoolbook_loop(order):
    rng = random.Random(23 + order)
    pw = TaylorBackend(2.2, 1e-3).variable().pw
    pool = _model_pool(rng, pw)
    for x in pool:
        for y in pool:
            assert _bits(x * y) == _bits(_ref_product(x, y)), (x, y)


def test_taylor_evaluation_counts_complex_products_and_models(monkeypatch):
    counts = {"model": 0, "complex": 0}
    init = TaylorModel.__init__

    def counted_init(self, *args):
        counts["model"] += 1
        init(self, *args)
    monkeypatch.setattr(TaylorModel, "__init__", counted_init)
    for name in ("__mul__", "__rmul__"):
        fn = TaylorModel.__dict__[name]

        def wrapper(*args, fn=fn):
            z = fn(*args)
            counts["complex"] += type(z.c[0]) is complex
            return z
        monkeypatch.setattr(TaylorModel, name, wrapper)
    complete, items = condition_enclosures(Interval(2.2, 2.20025))
    assert complete and len(items) == 11
    # 428 and 1989 while G conj(v) was formed afresh for every inner product
    # and reflection; 2857 models while each complex product built its four
    # real products and its two sums as models, 1566 while each of the three
    # reads of the backend's theta lifted its two parts again, 1562 while the
    # backend lifted its reals through a unit model, 1561 while a complex
    # value was a pair of real models and each complex product formed its
    # parts' products; 318 complex products while a quotient multiplied
    # the two parts of self conj(o) by 1 / |o|^2 apart, where each of the
    # 7 divisions now makes one complex product
    assert counts["complex"] == 325
    assert counts["model"] == 1122


def test_kernels_are_built_for_the_shapes_used(monkeypatch):
    code = "from cakecheck import numerics, verification; print(len(numerics._KERNELS))"
    env = {**os.environ, "PYTHONPATH": str(Path(numerics.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.stdout == "0\n", run.stderr
    shapes = set()
    product = numerics._product

    def recording(x, y):
        if len(x.c) > 1 and len(y.c) > 1:
            shapes.add((len(x.c), len(y.c)))
        return product(x, y)
    monkeypatch.setattr(numerics, "_KERNELS", {})
    monkeypatch.setattr(numerics, "_product", recording)
    assert certify_range().evaluations == 4
    assert set(numerics._KERNELS) == shapes
    assert len(shapes) == 14


# ---------------------------------------------------------------------------
# complex Taylor models against the exact-rational oracle


def _part_shapes(backend):
    """The shapes a part of a complex value takes in an evaluation, as the
    model and the oracle's value at t: a non-constant part, one with a
    remainder, a nonzero constant, an exact zero and a 0.0 constant with a
    _TINY-sized radius, which stands for its midpoint here."""
    x = backend.variable()
    return [(x * 2 - 1, lambda t: 2 * t - 1),
            ((x * x - x + 1) / (x + 2), lambda t: (t * t - t + 1) / (t + 2)),
            (backend.real(-2.5), lambda t: Rational.exact(-2.5)),
            (backend.real(0), lambda t: Rational.exact(0)),
            (backend.real(numerics._ball(0.0, numerics._TINY)), lambda t: Rational.exact(0))]


def _holds_real(model, delta, exact) -> bool:
    """The real model at delta, and its range, contain the oracle's interval."""
    lo, hi = _exact_bounds(model, delta)
    rng = model.range()
    return (type(model.c[0]) is float and lo <= exact.lo and exact.hi <= hi
            and Fraction(rng.lo) <= exact.lo and exact.hi <= Fraction(rng.hi))


def _holds_complex(model, delta, exact) -> bool:
    """The disc of the complex model at delta contains the oracle's box."""
    re, im = _poly_value(model.real, delta), _poly_value(model.imag, delta)
    r2 = Fraction(model.r) ** 2
    return type(model.c[0]) is complex and all(
        (re - a) ** 2 + (im - b) ** 2 <= r2
        for a in (exact.real.lo, exact.real.hi) for b in (exact.imag.lo, exact.imag.hi))


def test_complex_taylor_arithmetic_contains_the_rational_enclosures(order):
    """Products, sums, differences, quotients, conjugates and parts of
    complex models, and products and quotients of a real and a complex
    model, built from every pair of part shapes, contain the oracle's
    enclosures of the same quantities at a seeded rational t in the box."""
    rng = random.Random(37 + order)
    m, rad = 2.2, 1e-3
    backend = TaylorBackend(m, rad)
    reals = _part_shapes(backend)
    zs = [(backend.complex_(a, b), lambda t, fa=fa, fb=fb: RATIONAL.complex_(fa(t), fb(t)))
          for a, fa in reals for b, fb in reals]
    nonzero = reals[:3]
    divisors = [z for i, z in enumerate(zs) if i // 5 < 3 or i % 5 < 3]
    cases = []
    for z, fz in zs:
        cases += [(z.conjugate(), lambda t, fz=fz: fz(t).conjugate()),
                  (z.real, lambda t, fz=fz: fz(t).real), (z.imag, lambda t, fz=fz: fz(t).imag)]
        for w, fw in zs:
            cases += [(z * w, lambda t, fz=fz, fw=fw: fz(t) * fw(t)),
                      (z + w, lambda t, fz=fz, fw=fw: fz(t) + fw(t)),
                      (z - w, lambda t, fz=fz, fw=fw: fz(t) - fw(t))]
        for w, fw in divisors:
            cases.append((z / w, lambda t, fz=fz, fw=fw: fz(t) / fw(t)))
        for a, fa in reals:
            cases += [(a * z, lambda t, fa=fa, fz=fz: fa(t) * fz(t)),
                      (z * a, lambda t, fa=fa, fz=fz: fz(t) * fa(t))]
        for a, fa in nonzero:
            cases.append((z / a, lambda t, fa=fa, fz=fz: fz(t) / fa(t)))
    for w, fw in divisors:
        for a, fa in reals:
            cases.append((a / w, lambda t, fa=fa, fw=fw: fa(t) / fw(t)))
    assert len(cases) == 25 * 3 + 25 * 25 * 3 + 25 * 21 + 25 * 5 * 2 + 25 * 3 + 21 * 5
    delta = Fraction(rng.randint(-999, 999), 1000) * Fraction(rad)
    t = Rational.exact(Fraction(m) + delta)
    for model, exact in cases:
        want = exact(t)
        holds = _holds_real if isinstance(want, Rational) else _holds_complex
        assert holds(model, delta, want), (order, model, want)


def test_real_taylor_models_read_as_complex():
    """A real model is its own real part and conjugate, and its imaginary
    part is the exact zero; a complex model's mid is its parts' midpoints."""
    backend = TaylorBackend(2.2, 1e-3)
    x = backend.variable()
    assert x.real is x and x.conjugate() is x
    assert (x.imag.c, x.imag.r) == ([0.0], 0.0)
    z = backend.complex_(x * 2 - 1, x * x)
    assert mid(z) == complex(mid(z.real), mid(z.imag))
    for bad in (z.range, z.sign, z.sqrt, z.inv):
        with pytest.raises(TypeError):
            bad()


def test_taylor_scalar_encloses_true_values(monkeypatch):
    rng = random.Random(3)
    for order in ORDERS:
        for _ in range(50):
            m = rng.uniform(0.5, 3.0)
            rad = 10.0 ** rng.uniform(-6, -2)
            backend = _taylor_backend(monkeypatch, order, m, rad)
            enc = _taylor_pipeline(backend.variable()).range()
            for _ in range(20):
                t = rng.uniform(m - rad, m + rad)
                v = _float_pipeline(t)
                assert enc.lo - 1e-9 <= v <= enc.hi + 1e-9, (order, m, rad, t)


def test_taylor_width_tracks_derivative_not_dependency(monkeypatch):
    # ten reuses of x: naive intervals amplify, the model must not
    naive = Interval(2.0 - 1e-4, 2.0 + 1e-4)
    acc_n = naive
    for _ in range(10):
        acc_n = acc_n * naive - naive
    for order in ORDERS[1:]:
        x = _taylor_backend(monkeypatch, order, 2.0, 1e-4).variable()
        acc = x
        for _ in range(10):
            acc = acc * x - x
        # true derivative of the iterate is ~2047, so |f'| * 2 rad ~ 0.41
        width = acc.range().hi - acc.range().lo
        assert width < 0.5
        assert width < acc_n.hi - acc_n.lo


def test_taylor_higher_order_tightens_remainder(monkeypatch):
    # the quadratic part of x^2 - 4x cancels nothing at order 1 but is
    # carried exactly from order 2 on, where only rounding is left over
    widths = []
    for order in ORDERS[1:]:
        x = _taylor_backend(monkeypatch, order, 2.0, 1e-2).variable()
        f = x * x - 4 * x
        widths.append(f.range().hi - f.range().lo)
        if order >= 2:
            assert f.r < 1e-12
    # true range of (t - 2)^2 - 4 on [1.99, 2.01] is [-4, -3.9999]
    assert widths[0] > 1e-4 and all(w < 1.01e-4 for w in widths[1:])


def test_taylor_complex_division_round_trip(monkeypatch):
    rng = random.Random(11)
    for order in ORDERS:
        backend = _taylor_backend(monkeypatch, order, 2.2, 1e-5)
        x = backend.variable()
        z = backend.complex_(x * 2 - 1, x * x)
        w = backend.complex_(x + 3, 1 - x)
        back = (z / w) * w
        for _ in range(10):
            t = rng.uniform(2.2 - 1e-5, 2.2 + 1e-5)
            want = complex(2 * t - 1, t * t)
            real, imag = back.real.range(), back.imag.range()
            assert real.lo - 1e-9 <= want.real <= real.hi + 1e-9
            assert imag.lo - 1e-9 <= want.imag <= imag.hi + 1e-9


def test_taylor_domain_guards(monkeypatch):
    for order in ORDERS:
        x = _taylor_backend(monkeypatch, order, 0.0, 1.0).variable()
        with pytest.raises(DomainError, match="contains zero"):
            (1 / x)
        with pytest.raises(DomainError, match="not nonnegative"):
            (x - 2).sqrt()
        # 1 + x^2 on [-1, 1]: q = 1, so neither series converges; from
        # order 2 on the range [1, 2] excludes zero and only q rejects it
        y = 1 + x * x
        with pytest.raises(DomainError):
            y.inv()
        with pytest.raises(DomainError):
            y.sqrt()
        if order >= 2:
            assert y.range().lo > 0.0
            with pytest.raises(DomainError, match="series argument"):
                y.inv()
            with pytest.raises(DomainError, match="series argument"):
                y.sqrt()


def test_taylor_backend_protocol_surface(monkeypatch):
    backend = TaylorBackend.for_interval(Interval(2.21, 2.23))
    t = backend.variable()
    assert backend.rigorous
    # the backend holds the enclosure of t and lifts its reals to t's type:
    # Intervals on a point, models on the same powers of rad on a range
    point = TaylorBackend.for_interval(Interval(2.22, 2.22))
    for x in (point.variable(), point.real(2.0), point.real(Interval(1, 2))):
        assert type(x) is Interval
    assert t is backend.variable() and len(t.pw) == 2 * numerics.TAYLOR_ORDER + 1
    for x in (backend.real(2.0), backend.real(Interval(1, 2))):
        assert type(x) is TaylorModel and x.pw is t.pw
    # the real part's type picks the complex type: a ball on a point, a model
    # with complex coefficients on a range
    assert isinstance(RIGOROUS.theta, ComplexBall) and isinstance(backend.theta, TaylorModel)
    assert [type(x) for x in backend.theta.c] == [complex]
    assert isinstance(RIGOROUS, TaylorBackend)
    th = backend.theta
    assert th is backend.theta  # built once, with the backend
    assert abs(mid(th) - complex(0.5, math.sqrt(3) / 2)) < 1e-12
    assert isinstance((th * th.conjugate()).real, TaylorModel)
    assert abs(mid(t) - 2.22) < 1e-12
    assert certified_sign(t) is SignVerdict.POSITIVE
    # at order 0 the range variable is the midpoint, with the radius as remainder
    t = _taylor_backend(monkeypatch, 0, 2.22, 0.01).variable()
    assert (t.c, t.r, t.pw) == ([2.22], 0.01, (1.0,))


@pytest.mark.parametrize(
    "backend", [FAST, RIGOROUS, TaylorBackend(2.2, 1e-4)], ids=lambda b: b.name
)
def test_complex_scalars_read_through_the_number_protocol(backend):
    # every backend's complex scalar answers conjugate(), .real and .imag
    # like a Python complex, and numerics.mid reads it; the backends only
    # make scalars and carry no conj/re/im or mid wrappers
    def holds(x, want):
        return x.range().lo <= want <= x.range().hi if backend.rigorous else x == want

    z = backend.complex_(0.75, -2.5)
    zc = z.conjugate()
    assert holds(z.real, 0.75) and holds(z.imag, -2.5)
    assert holds(zc.real, 0.75) and holds(zc.imag, 2.5)
    one = (backend.theta * backend.theta.conjugate()).real
    assert holds(one, 1.0) if backend.rigorous else abs(one - 1.0) < 1e-15
    assert mid(z) == complex(0.75, -2.5) and mid(zc) == complex(0.75, 2.5)
    assert type(mid(z.real)) is float and mid(z.real) == 0.75
    assert not any(hasattr(backend, name)
                   for name in ("conj", "re", "im", "mid", "mid_real", "_const"))


def test_backends_lift_only_the_reals_they_hold():
    """A backend makes its reals from ints, floats and (on the enclosure
    backend) Intervals; anything else is a TypeError, not a silent cast."""
    for bad in ("2", 1j):
        with pytest.raises(TypeError, match="fast backend cannot lift"):
            FAST.real(bad)
        with pytest.raises(TypeError, match="rigorous backend cannot lift"):
            RIGOROUS.real(bad)
    ranged = TaylorBackend(2.2, 1e-3)
    x = ranged.variable()
    with pytest.raises(TypeError, match="rigorous backend cannot lift TaylorModel"):
        RIGOROUS.real(x)
    assert ranged.real(x) is x
    iv = Interval(0.5, 0.75)
    assert RIGOROUS.real(iv) is iv
    lifted = ranged.real(iv)
    assert isinstance(lifted, TaylorModel) and (lifted.c, lifted.r) == ([iv.m], iv.r)
    assert isinstance(ranged.real(3), TaylorModel) and ranged.real(3).c == [3.0]
    with pytest.raises(TypeError, match="rigorous-taylor backend cannot lift complex"):
        ranged.real(1j)
    for backend in (RIGOROUS, ranged):
        for re, im in (("2", 0.0), (1.0, 1j)):
            with pytest.raises(TypeError, match="backend cannot lift"):
                backend.complex_(re, im)
    for rad in (-1e-3, math.nan):
        with pytest.raises(ValueError, match="radius must be a nonnegative number"):
            TaylorBackend(2.2, rad)


def test_fast_sqrt_snaps_only_rounding_level_negatives():
    assert FAST.sqrt(-1e-13) == 0.0
    assert FAST.sqrt(2.25) == 1.5
    with pytest.raises(DomainError, match="sqrt of negative value"):
        FAST.sqrt(-1e-11)


# ---------------------------------------------------------------------------
# the reflected operators k - x and k / x, written once for all three
# enclosure types


_KS = (3, -2, 0.1, -2.5)


def _holds_pair(z, re, im):
    return (Fraction(z.real.lo) <= re <= Fraction(z.real.hi)
            and Fraction(z.imag.lo) <= im <= Fraction(z.imag.hi))


def _complex_quotient(k, re, im):
    """k / (re + i im) exactly, as a (real, imaginary) pair."""
    kr, ki, n = Fraction(k.real), Fraction(k.imag), re * re + im * im
    return (kr * re + ki * im) / n, (ki * re - kr * im) / n


def test_reflected_interval_operators_contain_the_exact_result():
    """k - x and k / x for an int or float k contain the exact results at
    the ends of x's ball, with the radius of the forward operation; on a
    pair of Intervals, at each corner of the box, for a complex k too."""
    for x in _interval_pool():
        ex = _ends(x)
        for k in _KS:
            q = Fraction(k)
            _within(lambda: k - x, [q - v for v in ex])
            if ex[0] > 0 or ex[1] < 0:
                quotients = [q / v for v in ex]
                _within(lambda: k / x, quotients, 10 * max(map(abs, quotients)))
            else:
                with pytest.raises(DomainError, match="containing zero"):
                    k / x
    pairs = [_complex_ball(Interval(1.5, 2.0), Interval(-3.0, -1.0)),
             _complex_ball(Interval(-0.5, 0.25), Interval(4.0, 5.0)),
             RIGOROUS.complex_(0.75, -2.5), RIGOROUS.complex_(-1.25)]
    for z in pairs:
        for k in _KS + (complex(1.5, -2.0), 3j):
            diff, quot = k - z, k / z
            for re in _ends(z.real):
                for im in _ends(z.imag):
                    assert _holds_pair(diff, Fraction(k.real) - re, Fraction(k.imag) - im), (k, z)
                    assert _holds_pair(quot, *_complex_quotient(k, re, im)), (k, z)


def test_reflected_taylor_operators_contain_the_exact_result(order):
    """The same for Taylor models and pairs of them, pointwise in the box."""
    rng = random.Random(31 + order)
    for _ in range(4):
        m, rad = rng.uniform(0.5, 3.0), 10.0 ** rng.uniform(-6, -2)
        backend = TaylorBackend(m, rad)
        x = backend.variable()
        a, _, fa, _ = _oracle_operands(x)
        z = backend.complex_(x * 2 - 1, x * x)
        for k in _KS:
            q = Fraction(k)
            cases = [(k - a, lambda t: q - fa(t)), (k / a, lambda t: q / fa(t)),
                     (k - z, lambda t: (q - (2 * t - 1), -t * t)),
                     (k / z, lambda t: _complex_quotient(k, 2 * t - 1, t * t))]
            for j in range(-4, 5):
                delta = Fraction(j, 4) * Fraction(rad)
                t = Fraction(m) + delta
                for model, exact in cases:
                    want = exact(t)
                    if type(model.c[0]) is complex:
                        assert _encloses(model.real, delta, want[0]), (order, k, j)
                        assert _encloses(model.imag, delta, want[1]), (order, k, j)
                    else:
                        assert _encloses(model, delta, want), (order, k, j)


@pytest.mark.parametrize("bad", ["2", object()], ids=("str", "object"))
def test_unsupported_operands_raise_type_error(bad):
    """Each enclosure type declines an operand it cannot lift, on either
    side of +, -, * and /, so Python raises TypeError."""
    backend = TaylorBackend(2.2, 1e-3)
    x = backend.variable()
    scalars = [Interval(1.0, 2.0), x, RIGOROUS.complex_(0.75, -2.5), backend.complex_(x, x * x)]
    for s in scalars:
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(s, bad)
            with pytest.raises(TypeError):
                op(bad, s)


# ---------------------------------------------------------------------------
# certification


def _sq_minus_two(t_box):
    return True, [("sq", t_box * t_box - 2)]


def test_certify_positive_predicate():
    cert = certify_on_interval(_sq_minus_two, 1.5, 2.0)
    assert cert.certified
    assert cert.leaves
    # leaves tile [1.5, 2.0]
    spans = sorted((leaf.lo, leaf.hi) for leaf in cert.leaves)
    assert spans[0][0] == 1.5 and spans[-1][1] == 2.0
    assert replay_certificate(_sq_minus_two, cert)


def _two_conditions(t_box):
    # t^2 - 2t + 1/2 > 0 on [1.8, 2], but only after bisection: the interval
    # evaluation loses the dependency between t^2 and 2t
    return True, [("sq", t_box * t_box - 2), ("dep", t_box * t_box - 2 * t_box + 0.5)]


@pytest.mark.parametrize("tamper", ["drop", "shift", "flip", "duplicate", "status", "truncate"])
def test_replay_rejects_tampered_certificate(tamper):
    cert = certify_on_interval(_two_conditions, 1.8, 2.0)
    assert cert.certified and len(cert.leaves) >= 4
    assert replay_certificate(_two_conditions, cert)
    leaves = list(cert.leaves)
    leaf = leaves[2]
    status = cert.status
    if tamper == "drop":
        del leaves[2]
    elif tamper == "shift":
        leaves[2] = replace(leaf, hi=0.5 * (leaf.lo + leaf.hi))
    elif tamper == "flip":
        leaves[2] = replace(leaf, verdict=SignVerdict.NEGATIVE.value)
    elif tamper == "duplicate":
        leaves.insert(3, leaf)
    elif tamper == "truncate":
        # every leaf of the last box goes: the tiling stops short of hi
        last = max((x.lo, x.hi) for x in leaves)
        leaves = [x for x in leaves if (x.lo, x.hi) != last]
    else:
        status = "counterexample"
    assert not replay_certificate(_two_conditions, replace(cert, status=status, leaves=leaves))


def test_certify_finds_counterexample():
    cert = certify_on_interval(_sq_minus_two, 1.0, 2.0)
    assert cert.status == "counterexample"
    lo, hi, cond = cert.failure
    assert cond == "sq" and hi < math.sqrt(2)


def test_certify_depth_exceeded_reported():
    # t^2 - 2 is zero inside; an interval pinned at sqrt(2) can never certify
    def at_root(t_box):
        return True, [("sq", t_box * t_box - 2)]

    cert = certify_on_interval(at_root, math.sqrt(2) - 1e-12, math.sqrt(2) + 1e-12,
                               max_depth=6)
    assert cert.status in ("depth-exceeded", "counterexample")


def test_certify_rejects_bad_range():
    with pytest.raises(ValueError):
        certify_on_interval(_sq_minus_two, 2.0, 1.0)
    for lo, hi in ((2.0, math.inf), (-math.inf, 2.0), (math.nan, 2.0)):
        with pytest.raises(ValueError, match="not finite"):
            certify_on_interval(_sq_minus_two, lo, hi)
    with pytest.raises(ValueError, match="negative"):
        certify_on_interval(_sq_minus_two, 1.0, 2.0, max_depth=-1)
