"""Property suites for the geometry kernel: reflections, trace identities,
the midpoint-display identities, tance invariance, geodesics, and the
closed-form closest axis point of a loxodromic isometry with the
two-reflection decomposition it gives.  All randomized suites are seeded and
run 1000 trials."""

import cmath
import math
import random

import pytest

from cakecheck.hermitian import (
    GeometryError,
    GramContext,
    Isometry,
    ProjVector,
    closest_axis_point,
    covector,
    mat_det,
    mat_max_abs,
    mat_max_abs_diff,
    projectively_equal,
    reflection,
)
from cakecheck.construction import build_configuration, mirror_construction
from cakecheck.numerics import FAST, RIGOROUS
from helpers import (
    PointClass, classify, form_residual, geodesic_through, half_shift, stationarity_residual,
    trace_identities_check,
)

TRIALS = 1000


def _rand_vec(ctx, rng):
    return ctx.vector(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


def _rand_nonisotropic(ctx, rng, floor=0.05):
    while True:
        v = _rand_vec(ctx, rng)
        if abs(float(ctx.norm2(v))) > floor:
            return v


def _rand_point(ctx, rng, cls):
    while True:
        v = _rand_nonisotropic(ctx, rng)
        if classify(ctx, v) is cls:
            return v


@pytest.fixture(scope="module")
def ctx(cfg222):
    return cfg222.ctx


# ---------------------------------------------------------------------------
# inner products through covectors


def _sum3(x, y, z):
    return (x + y) + z


def _three_sum_inner(ctx, u, v):
    """<u, v> with G conj(v) formed afresh inside the sum."""
    g, cv, uc = ctx.g, [x.conjugate() for x in v.coords], u.coords
    return _sum3(*(uc[i] * _sum3(g[i][0] * cv[0], g[i][1] * cv[1], g[i][2] * cv[2])
                   for i in range(3)))


def _inside(z, ref):
    return all(ref_part.lo <= part.lo and part.hi <= ref_part.hi
               for part, ref_part in ((z.real, ref.real), (z.imag, ref.imag)))


def test_inner_reads_the_covector_formed_once(ctx):
    rng = random.Random(23)
    for _ in range(200):
        u, v = _rand_vec(ctx, rng), _rand_vec(ctx, rng)
        got, want = ctx.inner(u, v), _three_sum_inner(ctx, u, v)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        assert covector(v) is covector(v)
    cfg = build_configuration(2.22, RIGOROUS)
    for c in (ctx, cfg.ctx):
        for j, p in enumerate(c.basis()):
            assert all(a is row[j] for a, row in zip(covector(p), c.g))
    # <p_i, x> = w_i and <x, p_i> = conj(w_i) read no product, so their
    # enclosures lie inside the ones the sum of products gives
    for x in (cfg.m1, cfg.m2, cfg.c1, cfg.c2, cfg.c3, cfg.d3, cfg.b2, cfg.e2):
        for i, p in enumerate((cfg.p1, cfg.p2, cfg.p3)):
            w_i = covector(x)[i]
            assert _inside(w_i, _three_sum_inner(cfg.ctx, p, x))
            assert _inside(w_i.conjugate(), _three_sum_inner(cfg.ctx, x, p))
    with pytest.raises(AttributeError, match="frozen"):
        cfg.c1.coords = cfg.c2.coords


# ---------------------------------------------------------------------------
# reflections


def test_reflection_involution_det_form(ctx):
    rng = random.Random(101)
    probes = [(_rand_vec(ctx, rng), _rand_vec(ctx, rng)) for _ in range(3)]
    for _ in range(TRIALS):
        p = _rand_nonisotropic(ctx, rng)
        r = reflection(p)
        assert (r * r).scalar_residual(1.0) < 1e-9 * max(1.0, mat_max_abs(r.m) ** 2)
        assert abs(complex(mat_det(r.m)) - 1.0) < 1e-9 * max(1.0, mat_max_abs(r.m) ** 3)
        assert form_residual(r, probes) < 1e-9 * max(1.0, mat_max_abs(r.m) ** 2)


def test_reflection_fixes_its_point_and_negates_orthogonals(ctx):
    rng = random.Random(102)
    for _ in range(200):
        p = _rand_nonisotropic(ctx, rng)
        r = reflection(p)
        assert projectively_equal(r.apply(p), p)


def test_reflection_of_isotropic_point_rejected(cfg222):
    assert cfg222.w3 is not None
    with pytest.raises(GeometryError):
        reflection(cfg222.w3)


def test_isotropy_guard_reads_the_rounding_scale_of_the_norm():
    # <p1,p1> = 1 exactly, though Gram entries reach 1e12: the guard scales
    # by sum_ij |p_i| |g_ij| |p_j| = 1, not by |p|^2 max |G|, so R(p1) is built
    cfg = build_configuration(1e12)
    r0 = reflection(cfg.p1)
    assert projectively_equal(r0.apply(cfg.p1), cfg.p1)
    mirror_construction(cfg)
    # an isotropic vector at the same t still raises
    assert cfg.w3 is not None
    with pytest.raises(GeometryError, match="isotropic"):
        reflection(cfg.w3)


# ---------------------------------------------------------------------------
# trace identities


def test_trace_identities_1000_trials(ctx):
    rng = random.Random(103)
    done = 0
    while done < TRIALS:
        x1 = _rand_nonisotropic(ctx, rng, floor=0.1)
        x2 = _rand_nonisotropic(ctx, rng, floor=0.1)
        x3 = _rand_nonisotropic(ctx, rng, floor=0.1)
        r1, r2, r3 = trace_identities_check(x1, x2, x3)
        assert r1 < 1e-10
        assert r2 < 1e-10
        assert r3 < 1e-10
        done += 1


# ---------------------------------------------------------------------------
# the two midpoint displays: with Gram [[1,t1,t],[t1,1,t2*conj(l)],[t,t2*l,1]],
# m1 = (p1-p2)/sqrt(2(t1-1)), m2 = (l p2 - p3)/sqrt(2(t2-1)), both
# Re <p1,m2><m1,m1>/(<m1,m2><p1,m1>) and tr(R(m2)R(m1)R(p1)) reduce to
# explicit rational expressions in t, t1, t2, Re(l)


def _midpoint_display_case(rng):
    t = rng.uniform(1.2, 3.5)
    t1 = rng.uniform(1.2, 3.5)
    t2 = rng.uniform(1.2, 3.5)
    phi = rng.uniform(0.3, 2 * math.pi - 0.3)
    lam = cmath.exp(1j * phi)
    ctx = GramContext(FAST, (
        (1.0, t1, t),
        (t1, 1.0, t2 * lam.conjugate()),
        (t, t2 * lam, 1.0),
    ))
    p1, p2, p3 = ctx.basis()
    m1 = (p1 - p2).scale(1.0 / math.sqrt(2 * (t1 - 1)))
    m2 = (p2.scale(lam) - p3).scale(1.0 / math.sqrt(2 * (t2 - 1)))
    return ctx, p1, m1, m2, t, t1, t2, lam


def test_midpoint_normalization(cfg222):
    ctx = cfg222.ctx
    assert abs(float(ctx.norm2(cfg222.m1)) + 1.0) < 1e-12
    assert abs(float(ctx.norm2(cfg222.m2)) + 1.0) < 1e-12


def test_midpoint_display_identities_1000_trials():
    rng = random.Random(104)
    done = 0
    while done < TRIALS:
        ctx, p1, m1, m2, t, t1, t2, lam = _midpoint_display_case(rng)
        rl = lam.real
        den = (t1 + t2 - 1) ** 2 + t * t - 2 * t * (t1 + t2 - 1) * rl
        if abs(den) < 1e-3:
            continue
        lhs1 = (
            complex(ctx.inner(p1, m2)) * complex(ctx.inner(m1, m1))
            / (complex(ctx.inner(m1, m2)) * complex(ctx.inner(p1, m1)))
        ).real
        rhs1 = 1 + (t * t - t * t1 + t1 * t1 - (t2 - 1) ** 2 + t * t1 * (1 - 2 * rl)) / den
        assert abs(lhs1 - rhs1) < 1e-9 * max(1.0, abs(rhs1))

        lhs2 = complex((reflection(m2) * reflection(m1) * reflection(p1)).trace())
        rhs2 = (
            2 * t * (lam.conjugate() - 1)
            + (2 * t * t1 - t - t1 + 1 - 2 * t2) / (t1 - 1)
            - (t * t - t * t1 + t1 * t1 - (t2 - 1) ** 2
               + t * (t1 + t2 - 1) * (1 - 2 * rl)) / ((t1 - 1) * (t2 - 1))
        )
        assert abs(lhs2 - rhs2) < 1e-9 * max(1.0, abs(rhs2))
        done += 1


# ---------------------------------------------------------------------------
# tance invariance


def test_tance_scale_and_isometry_invariance_1000_trials(ctx, cfg222):
    rng = random.Random(105)
    for _ in range(TRIALS):
        x = _rand_nonisotropic(ctx, rng, floor=0.1)
        y = _rand_nonisotropic(ctx, rng, floor=0.1)
        base = float(ctx.tance(x, y))
        scale = max(1.0, abs(base))
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) + 0.5
        assert abs(float(ctx.tance(x.scale(lam), y)) - base) < 1e-9 * scale
        r = reflection(_rand_nonisotropic(ctx, rng))
        assert abs(float(ctx.tance(r.apply(x), r.apply(y))) - base) < 1e-9 * scale
    # the antilinear generator preserves tance as well
    r3 = cfg222.R3
    for _ in range(50):
        x = _rand_nonisotropic(ctx, rng, floor=0.1)
        y = _rand_nonisotropic(ctx, rng, floor=0.1)
        base = float(ctx.tance(x, y))
        assert abs(float(ctx.tance(r3.apply(x), r3.apply(y))) - base) < 1e-9 * max(1.0, abs(base))


def test_tance_rejects_isotropic(cfg222):
    with pytest.raises(GeometryError):
        cfg222.ctx.tance(cfg222.w3, cfg222.p1)


# ---------------------------------------------------------------------------
# geodesics, closest axis points and the two-reflection decomposition


def test_geodesic_parametrization_round_trip(ctx):
    rng = random.Random(106)
    for _ in range(300):
        a = _rand_point(ctx, rng, PointClass.NEGATIVE)
        b = _rand_point(ctx, rng, PointClass.NEGATIVE)
        if projectively_equal(a, b):
            continue
        geo = geodesic_through(a, b)
        xa, xb = geo.param_of(a), geo.param_of(b)
        assert xa < xb
        assert projectively_equal(geo.point(xa), a)
        assert projectively_equal(geo.point(xb), b)
        # unit-speed normalization of the point map
        x = rng.uniform(xa, xb)
        assert abs(float(ctx.norm2(geo.point(x))) + 1.0) < 1e-9


def _axis_case(ctx, rng):
    """A random loxodromic iso = R(g') R(g) with g, g' on a random geodesic,
    the parameters x < x' of g and g', and its eigenvalue r = (x'/x)^2; None
    when the case is ill conditioned."""
    a = _rand_point(ctx, rng, PointClass.NEGATIVE)
    b = _rand_point(ctx, rng, PointClass.NEGATIVE)
    if float(ctx.tance(a, b)) < 1.1:  # well separated, conditioning
        return None
    try:
        geo = geodesic_through(a, b)
    except GeometryError:
        return None
    # stay between a and b: far outside their span the geodesic points
    # have huge coordinates and the reflections lose precision
    xa, xb = geo.param_of(a), geo.param_of(b)
    u, w = sorted((rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)))
    if w - u < 0.15:
        return None
    x, xp = xa * (xb / xa) ** u, xa * (xb / xa) ** w
    # R(g(y)) sends v1 to v2/y^2 and v2 to y^2 v1, so iso scales v1 by r
    iso = reflection(geo.point(xp)) * reflection(geo.point(x))
    tr = complex(iso.trace())
    assert abs(tr.imag) < 1e-9 * max(1.0, abs(tr))
    assert tr.real > 3.0
    if tr.real < 3.01:  # nearly parabolic: the eigenvectors are ill posed
        return None
    return geo, iso, x, xp, (xp / x) ** 2


def test_closest_point_stationarity_and_grid_minimum_1000_trials(ctx):
    rng = random.Random(107)
    done = 0
    while done < TRIALS:
        case = _axis_case(ctx, rng)
        if case is None:
            continue
        geo, iso, _, _, r = case
        p = _rand_point(ctx, rng, PointClass.POSITIVE)
        # skip near-tangent cases: when the cross-ratio quantity is nearly
        # real the closest point is genuinely ill conditioned
        g1, g2 = geo.point(1.0), geo.point(2.0)
        val = (complex(ctx.inner(g1, p)) * complex(ctx.inner(p, g2))
               / complex(ctx.inner(g1, g2)))
        if abs(val.imag) < 1e-3 * abs(val):
            continue
        y = closest_axis_point(iso, r, p)
        xs = geo.param_of(y)  # raises unless y lies on the axis
        assert stationarity_residual(geo, p, y) < 1e-9
        # grid check: distance objective -ta(g(x), p) is minimal at y
        objective = lambda x: -float(ctx.tance(geo.point(x), p))
        best = objective(xs)
        for k in range(-10, 11):
            assert best <= objective(xs * math.exp(0.07 * k)) + 1e-12
        # y and its half-shift decompose iso
        prod = reflection(half_shift(iso, y)) * reflection(y)
        assert mat_max_abs_diff(prod.m, iso.m) < 1e-8 * max(1.0, mat_max_abs(iso.m))
        done += 1


def test_loxodromic_round_trip_1000_trials(ctx):
    rng = random.Random(108)
    done = 0
    while done < TRIALS:
        case = _axis_case(ctx, rng)
        if case is None:
            continue
        geo, iso, x, xp, r = case
        # the complex geodesic polar to the axis tangent at g meets the axis
        # at g, so g is the closest point and g' its half-shift
        tangent = geo.v1.scale(x) - geo.v2.scale(1.0 / x)
        g2 = closest_axis_point(iso, r, tangent)
        gp2 = half_shift(iso, g2)
        assert projectively_equal(g2, geo.point(x))
        assert projectively_equal(gp2, geo.point(xp))
        prod = reflection(gp2) * reflection(g2)
        assert mat_max_abs_diff(prod.m, iso.m) < 1e-8 * max(1.0, mat_max_abs(iso.m))
        done += 1


# ---------------------------------------------------------------------------
# isometry bookkeeping


def test_antilinear_composition_parity(cfg222):
    r3, r1 = cfg222.R3, cfg222.R1
    assert r3.antilinear
    assert not (r3 * r3).antilinear
    assert (r3 * r1).antilinear
    assert not (r3 * r1 * r3).antilinear


def test_antilinear_scalar_conjugation(cfg222):
    # composing an antilinear map with a scalar conjugates the scalar:
    # T (lam Id) = conj(lam) T at the matrix level
    ctx = cfg222.ctx
    lam = complex(0.3, 0.8)
    scal = Isometry.identity(ctx).scaled(lam)
    left = cfg222.R3 * scal
    expected = tuple(
        tuple(lam.conjugate() * complex(x) for x in row) for row in cfg222.R3.m
    )
    assert mat_max_abs_diff(left.m, expected) < 1e-12


def test_context_mismatch_detected(cfg222):
    from cakecheck.construction import build_configuration
    from cakecheck.hermitian import ContextMismatchError

    other = build_configuration(2.3)
    with pytest.raises(ContextMismatchError):
        cfg222.ctx.inner(cfg222.p1, other.p1)
    with pytest.raises(ContextMismatchError):
        cfg222.R1 * other.R1
    with pytest.raises(ContextMismatchError):
        cfg222.R1.apply(other.p1)
    with pytest.raises(ContextMismatchError):
        cfg222.p1 - other.p1
    with pytest.raises(TypeError):
        cfg222.R1 * 2
    with pytest.raises(ValueError):
        GramContext(FAST, ((1, 0), (0, 1)))
