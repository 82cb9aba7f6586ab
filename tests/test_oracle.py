"""The rigorous enclosures against the exact-rational oracle of
``rational.py``: the unmodified construction and conditions run on both,
and every enclosure the rigorous backend makes, on a point or on a range,
must contain the oracle's enclosure of the same quantity, compared as
Fractions.  The oracle's ends are exact to 2^-300, so a miss is an
enclosure that leaves out the exact value: a fault of the arithmetic."""

import random
from fractions import Fraction

import pytest

from cakecheck.construction import build_configuration
from cakecheck.numerics import RIGOROUS, ComplexBall, DomainError, Interval
from cakecheck.verification import condition_enclosures, condition_items, required_positive
from rational import PREC, RATIONAL, Rational, RationalComplex

POINTS = (1.505, 2.13, 2.22, 2.34, 100.0, 1e9, 2.1228615, 2.343115)
NAMED_POINTS = ("p1", "p2", "p3", "m1", "m2", "m3", "c1", "c2", "c3", "d1", "d2", "d3",
                "b2", "e2", "q1", "q3", "w3")


def _parts(name, x):
    """(name, real) for the real x, or for each part of the complex x."""
    if isinstance(x, (ComplexBall, RationalComplex)):
        return [(f"{name}.re", x.real), (f"{name}.im", x.imag)]
    return [(name, x)]


def _enclosures(cfg) -> dict:
    """Every real enclosure of the configuration and its condition values,
    by name: t1, t2, u, the coordinates of the named points, the entries of
    R1 and R2, and the conditions."""
    out = _parts("t1", cfg.params.t1) + _parts("t2", cfg.params.t2) + _parts("u", cfg.u)
    for name in NAMED_POINTS:
        v = getattr(cfg, name)
        for i, x in enumerate(() if v is None else v.coords):
            out += _parts(f"{name}[{i}]", x)
    for name in ("R1", "R2"):
        for i, row in enumerate(getattr(cfg, name).m):
            for j, x in enumerate(row):
                out += _parts(f"{name}[{i}][{j}]", x)
    for cid, value in condition_items(cfg)[1].items():
        out += _parts(f"condition {cid}", value)
    return dict(out)


def _contains(enclosure, exact: Rational) -> bool:
    """Whether the ball [m - r, m + r] of the Interval enclosure contains
    the oracle's interval; the ball itself, not its outward-rounded ends."""
    m, r = Fraction(enclosure.m), Fraction(enclosure.r)
    return m - r <= exact.lo and exact.hi <= m + r


def test_rational_arithmetic_encloses_exact_results():
    x, y = Rational.exact(Fraction(1, 3)), Rational.exact(-2.5)
    for got, want in ((x + y, Fraction(-13, 6)), (x - y, Fraction(17, 6)),
                      (x * y, Fraction(-5, 6)), (x / y, Fraction(-2, 15)),
                      (1 / x, 3), (y.sqr(), Fraction(25, 4)), (3 - x, Fraction(8, 3))):
        assert got.lo <= want <= got.hi and got.hi - got.lo <= Fraction(16, 2 ** PREC)
    r = RATIONAL.sqrt(2)
    assert r.lo * r.lo <= 2 <= r.hi * r.hi and r.hi - r.lo <= Fraction(1, 2 ** PREC)
    th = RATIONAL.theta * RATIONAL.theta
    assert th.real.lo <= Fraction(-1, 2) <= th.real.hi  # theta^2 = theta - 1
    with pytest.raises(DomainError):
        Rational.exact(-1e-300).sqrt()
    with pytest.raises(DomainError):
        1 / Rational(-1, 1)


@pytest.mark.parametrize("t", POINTS)
def test_point_enclosures_contain_the_rational_enclosures(t):
    """At the exact float t, every enclosure of the rigorous configuration
    contains the oracle's."""
    got = _enclosures(build_configuration(t, RIGOROUS))
    exact = _enclosures(build_configuration(t, RATIONAL))
    assert got.keys() == exact.keys()
    misses = [name for name, x in got.items() if not _contains(x, exact[name])]
    assert len(got) >= 120 and not misses, misses


def test_range_enclosures_contain_the_rational_enclosures():
    """On seeded boxes of [2.13, 2.34], 1e-6 to 1e-2 wide, each condition
    enclosure contains the oracle's enclosure of the condition at seeded
    rational t in the box."""
    rng = random.Random(32)
    checks, misses = 0, []
    for _ in range(8):
        width = 10.0 ** rng.uniform(-6.0, -2.0)
        lo = rng.uniform(2.13, 2.34 - width)
        box = Interval(lo, lo + width)
        complete, items = condition_enclosures(box)
        assert complete and len(items) == 11, box
        for _ in range(3):
            t = Fraction(box.m) + Fraction(box.r) * Fraction(rng.randint(-999, 999), 1000)
            complete, values = condition_items(build_configuration(t, RATIONAL))
            assert complete
            for cid, enclosure in items:
                checks += 1
                if not _contains(enclosure, required_positive(cid, values[cid])):
                    misses.append((box, t, cid))
    assert checks == 8 * 3 * 11 and not misses, misses
