"""Soundness of the scalar backends: interval enclosures against an exact
rational oracle, Taylor model containment, and the bisection certifier
with its replay."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cakecheck.numerics import (
    ComplexBox,
    DomainError,
    Interval,
    SignVerdict,
    TaylorBackend,
    TaylorComplex,
    TaylorScalar,
    certified_sign,
    certify_on_interval,
    get_backend,
    replay_certificate,
)


# ---------------------------------------------------------------------------
# intervals vs exact rational arithmetic


def test_interval_ops_enclose_exact_rationals():
    rng = random.Random(20260823)
    for _ in range(400):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        ia = Interval(float(a))
        ib = Interval(float(b))
        # the float seed may be off by an ulp from the rational; widen
        ia = ia.hull(Interval(math.nextafter(float(a), -1e300),
                              math.nextafter(float(a), 1e300)))
        ib = ib.hull(Interval(math.nextafter(float(b), -1e300),
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
        bz = ComplexBox._coerce(z)
        bw = ComplexBox._coerce(w)
        prod = bz * bw
        exact = z * w
        # a few ulps of slack for the float reference product
        assert abs(prod.mid() - exact) <= 1e-12 * max(1.0, abs(exact))
        assert (bz / bw * bw).contains(z) or abs((bz / bw * bw).mid() - z) < 1e-12


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
# Taylor models


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


def test_taylor_scalar_encloses_true_values():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.uniform(0.5, 3.0)
        rad = 10.0 ** rng.uniform(-6, -2)
        backend = TaylorBackend(m, rad)
        enc = _taylor_pipeline(backend.variable()).range()
        for _ in range(20):
            t = rng.uniform(m - rad, m + rad)
            v = _float_pipeline(t)
            assert enc.lo - 1e-9 <= v <= enc.hi + 1e-9, (m, rad, t)


def test_taylor_width_tracks_derivative_not_dependency():
    # ten reuses of x: naive intervals amplify, the model must not
    backend = TaylorBackend(2.0, 1e-4)
    x = backend.variable()
    acc = x
    for _ in range(10):
        acc = acc * x - x
    # true derivative of the iterate is ~2047, so |f'| * 2 rad ~ 0.41
    assert acc.range().width() < 0.5
    naive = Interval(2.0 - 1e-4, 2.0 + 1e-4)
    acc_n = naive
    for _ in range(10):
        acc_n = acc_n * naive - naive
    assert acc.range().width() < acc_n.width()


def test_taylor_complex_division_round_trip():
    rng = random.Random(11)
    backend = TaylorBackend(2.2, 1e-5)
    x = backend.variable()
    z = TaylorComplex(x * 2 - 1, x * x)
    w = TaylorComplex(x + 3, 1 - x)
    back = (z / w) * w
    for _ in range(10):
        t = rng.uniform(2.2 - 1e-5, 2.2 + 1e-5)
        want = complex(2 * t - 1, t * t)
        got = back.range()
        assert got.re.lo - 1e-9 <= want.real <= got.re.hi + 1e-9
        assert got.im.lo - 1e-9 <= want.imag <= got.im.hi + 1e-9


def test_taylor_domain_guards():
    backend = TaylorBackend(0.0, 1.0)
    x = backend.variable()
    with pytest.raises(DomainError):
        (1 / x)
    with pytest.raises(DomainError):
        (x - 2).sqrt()


def test_taylor_backend_protocol_surface():
    backend = TaylorBackend.for_interval(Interval(2.21, 2.23))
    t = backend.variable()
    assert backend.rigorous
    th = backend.theta
    assert abs(backend.mid(th) - complex(0.5, math.sqrt(3) / 2)) < 1e-12
    assert isinstance(backend.re(th * backend.conj(th)), TaylorScalar)
    assert abs(backend.mid_real(t) - 2.22) < 1e-12
    assert backend.sign(t) is SignVerdict.POSITIVE


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


@pytest.mark.parametrize("tamper", ["drop", "shift", "flip"])
def test_replay_rejects_tampered_certificate(tamper):
    cert = certify_on_interval(_two_conditions, 1.8, 2.0)
    assert cert.certified and len(cert.leaves) >= 4
    assert replay_certificate(_two_conditions, cert)
    leaves = list(cert.leaves)
    leaf = leaves[2]
    if tamper == "drop":
        del leaves[2]
    elif tamper == "shift":
        leaves[2] = replace(leaf, hi=0.5 * (leaf.lo + leaf.hi))
    else:
        leaves[2] = replace(leaf, verdict=SignVerdict.NEGATIVE.value)
    assert not replay_certificate(_two_conditions, replace(cert, leaves=leaves))


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
