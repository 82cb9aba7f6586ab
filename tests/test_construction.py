"""Construction invariants: parameter solving, Gram signature, the named
points, the mirror construction, and the angle formulas, at the published
parameter and across a t-grid."""

import math
import random
from dataclasses import replace

import pytest

from cakecheck import construction
from cakecheck.construction import (
    FAST_T_MAX,
    THETA,
    THETA_SQ,
    ParameterDomainError,
    ParameterTriple,
    angles,
    build_configuration,
    build_gram,
    mirror_construction,
    parameter_polynomial,
    parameter_residuals,
    solve_parameters,
)
from cakecheck.hermitian import (
    RESIDUAL_TOL,
    GeometryError,
    Isometry,
    closest_axis_point,
    mat_max_abs,
    mat_max_abs_diff,
    projectively_equal,
    reflection,
)
from cakecheck.numerics import FAST, RIGOROUS, DomainError, Interval, TaylorBackend
from helpers import as_floats, form_residual, half_shift

GRID = [1.6 + (3.0 - 1.6) * k / 49 for k in range(50)]


# ---------------------------------------------------------------------------
# parameters


def test_parameters_at_published_t():
    params = solve_parameters(2.22)
    t, t1, t2 = as_floats(params)
    assert abs(t1 - 2.23) < 0.005
    assert abs(t2 - 3.22) < 0.005
    r1, r2 = parameter_residuals(params)
    assert r1 < 1e-11 and r2 < 1e-11


def test_parameter_polynomial_normalization():
    # f(1) = -3 t^2 pins the polynomial's scale
    for t in (1.7, 2.22, 2.9):
        assert abs(parameter_polynomial(t, 1.0) + 3 * t * t) < 1e-12


def test_parameter_domain_gate():
    with pytest.raises(ParameterDomainError):
        solve_parameters(1.5)
    with pytest.raises(ParameterDomainError):
        solve_parameters(1.2)
    with pytest.raises(ParameterDomainError):
        solve_parameters(Interval(1.49, 1.51), RIGOROUS)
    for backend in (FAST, RIGOROUS, TaylorBackend(2.2, 1e-3)):
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParameterDomainError, match="not finite"):
                solve_parameters(t, backend)


def test_fast_construction_ends_at_its_precision_bound():
    # the fast floats resolve condition 8 to about t 2^-53; past FAST_T_MAX
    # that is a domain error, not a report of float noise
    assert build_configuration(FAST_T_MAX).params.t == FAST_T_MAX
    for t in (math.nextafter(FAST_T_MAX, math.inf), 1e50):
        with pytest.raises(DomainError, match="double precision cannot resolve"):
            build_configuration(t)


def test_parameter_grid_residuals_and_order():
    for t in GRID:
        params = solve_parameters(t)
        r1, r2 = parameter_residuals(params)
        assert r1 < 1e-11, t
        assert r2 < 1e-11, t
        _, t1, t2 = as_floats(params)
        assert t1 > 1.0
        assert t2 > t1, t


def test_gram_signature_check_runs():
    ctx = build_gram(solve_parameters(2.22))
    p1, p2, p3 = ctx.basis()
    assert float(ctx.norm2(p1)) == pytest.approx(1.0)
    assert complex(ctx.inner(p1, p2)) == pytest.approx(complex(ctx.inner(p2, p1)).conjugate())


def test_gram_rejects_a_nonnegative_determinant():
    # t = t1 = t2 = 3: the second minor 1 - 9 is negative, but the
    # determinant 1 - (27 - 27) is not
    with pytest.raises(GeometryError, match=r"^Gram determinant is not negative: "):
        build_gram(ParameterTriple(3.0, 3.0, 3.0, FAST))


# ---------------------------------------------------------------------------
# the configuration


def test_published_point_relations(cfg222):
    ctx = cfg222.ctx
    # c2, c3 are reflection images, and the defining slice relations hold
    assert projectively_equal(cfg222.R1.apply(cfg222.c1), cfg222.c2)
    assert projectively_equal(cfg222.R2.apply(cfg222.c2), cfg222.c3)
    assert projectively_equal(cfg222.R1.apply(cfg222.p1), cfg222.p2)
    assert projectively_equal(cfg222.R2.apply(cfg222.p2.scale(THETA)), cfg222.p3)
    # w3 is isotropic and lies on the c3 slice boundary pairing with d3
    w3 = cfg222.w3
    assert w3 is not None
    scale = max(abs(x) for x in w3.coords) ** 2
    assert abs(float(ctx.norm2(w3))) < 1e-9 * scale


def test_configuration_grid_invariants():
    for t in GRID:
        try:
            cfg = build_configuration(t)
        except (ParameterDomainError, GeometryError):
            continue
        ctx = cfg.ctx
        assert abs(float(ctx.norm2(cfg.m1)) + 1.0) < 1e-10, t
        assert abs(float(ctx.norm2(cfg.m2)) + 1.0) < 1e-10, t
        if cfg.w3 is not None:
            scale = max(abs(x) for x in cfg.w3.coords) ** 2
            assert abs(float(ctx.norm2(cfg.w3))) < 1e-9 * scale, t
        # the holonomy-like product has real trace 2t
        iso = (cfg.R2 * cfg.R1 * reflection(cfg.p1)).scaled(THETA_SQ)
        assert abs(complex(iso.trace()) - 2 * t) < 1e-9, t


def test_mirror_grid_residuals():
    for t in GRID:
        try:
            cfg = build_configuration(t)
            res = mirror_construction(cfg)
        except (ParameterDomainError, GeometryError):
            continue
        assert res["trace_residual"] < 1e-9, t
        assert res["gram_residual"] < 1e-9, t
        assert res["involution_residual"] < 1e-9, t
        assert cfg.R3 is not None and cfg.R3.antilinear
        probes = [(cfg.p1, cfg.p2), (cfg.p2, cfg.p3), (cfg.m1, cfg.c1), (cfg.c2, cfg.d3)]
        assert form_residual(cfg.R3, probes) < 1e-9, t
        # R3 p2 = p2' = -R(m1') p1, both mirrored midpoints are negative, and
        # they decompose the product: R(m2') R(m1') = I
        iso = (cfg.R2 * cfg.R1 * cfg.R0).scaled(THETA_SQ)
        r = (2 * t - 1 + math.sqrt((2 * t - 3) * (2 * t + 1))) / 2
        m1p = closest_axis_point(iso, r, cfg.p1)
        m2p = half_shift(iso, m1p)
        assert projectively_equal(-reflection(m1p).apply(cfg.p1), cfg.R3.apply(cfg.p2))
        assert float(cfg.ctx.norm2(m1p)) < 0.0 and float(cfg.ctx.norm2(m2p)) < 0.0
        prod = reflection(m2p) * reflection(m1p)
        assert mat_max_abs_diff(prod.m, iso.m) < 1e-9 * max(1.0, mat_max_abs(iso.m)), t


@pytest.mark.parametrize("t", [1.5005, 1.501, 1.505])
def test_mirror_resolves_near_three_halves(t):
    # close to t = 3/2, where t1 grows without bound and float loss is largest
    res = mirror_construction(build_configuration(t))
    assert all(v <= RESIDUAL_TOL for v in res.values()), res


def test_mirror_involution_residual_on_log_grid():
    # m1' from t's eigenvalue and I's eigenvectors keeps R3 involutive to
    # rounding level, however far I translates along its axis
    for k in range(61):
        t = 2.0 * 5e5 ** (k / 60)
        res = mirror_construction(build_configuration(t))
        assert res["involution_residual"] <= 1e-13, t


def _only_v_s(iso, r, p):
    # m = a v_r + v_s gives r m - iso(m) = (r - 1/r) v_s: an ideal axis end
    m = closest_axis_point(iso, r, p)
    return m.scale(r) - iso.apply(m)


def _inverted_sqrt_n(iso, r, p):
    # m = a v_r + v_s with a = sqrt(N) = -<m,m>, so the point a v_r / a^2 + v_s
    # takes 1/sqrt(N) in place of sqrt(N): an axis point, but not the closest
    m = closest_axis_point(iso, r, p)
    a = -float(m.ctx.norm2(m))
    im = iso.apply(m)
    return (im - m.scale(1.0 / r)).scale(1.0 / a**2) + m.scale(r) - im


@pytest.mark.parametrize("wrong", [_only_v_s, _inverted_sqrt_n])
def test_wrong_axis_point_is_rejected(wrong, monkeypatch):
    monkeypatch.setattr(construction, "closest_axis_point", wrong)
    with pytest.raises(GeometryError, match="mirrored triangle Gram residual"):
        mirror_construction(build_configuration(2.22))


def test_mirror_rejects_an_r3_that_is_not_an_involution(monkeypatch):
    monkeypatch.setattr(Isometry, "scalar_residual", lambda self, s: 1.0)
    with pytest.raises(GeometryError, match=r"R3\^2 residual"):
        mirror_construction(build_configuration(2.22))


def test_R0_is_built_by_the_mirror_construction():
    cfg = build_configuration(2.22)
    assert cfg.R0 is None
    mirror_construction(cfg)
    assert cfg.R0.m == reflection(cfg.p1).m and not cfg.R0.antilinear


def test_mirror_requires_fast_backend():
    cfg = build_configuration(Interval(2.22), RIGOROUS)
    with pytest.raises(GeometryError):
        mirror_construction(cfg)


def test_determinism():
    a = build_configuration(2.22)
    b = build_configuration(2.22)
    assert as_floats(a.params) == as_floats(b.params)
    for name in ("p1", "c1", "c3", "d1", "w3", "b2", "e2"):
        va, vb = getattr(a, name), getattr(b, name)
        assert va.coords == vb.coords
    assert a.R1.m == b.R1.m


# ---------------------------------------------------------------------------
# angles


def test_angle_sum_at_published_t(cfg222):
    beta = angles(cfg222)
    assert len(beta) == 3
    assert all(-math.pi / 2 < x < math.pi / 2 for x in beta)
    assert abs(sum(beta) - math.pi / 2) < 1e-9


def test_angle_sum_on_grid_where_conditions_certify():
    from cakecheck.verification import evaluate_conditions

    hits = 0
    for t in GRID:
        try:
            cfg = build_configuration(t)
        except (ParameterDomainError, GeometryError):
            continue
        if not evaluate_conditions(cfg).all_positive:
            continue
        assert abs(sum(angles(cfg)) - math.pi / 2) < 1e-9, t
        hits += 1
    assert hits > 5  # the certified band [2.13, 2.34] intersects the grid


def test_angles_reject_a_vertex_outside_the_range(cfg222):
    # <p1, c1> is exactly 0, so with c1 in place of c2, Re z2 = 0.0
    with pytest.raises(GeometryError, match="angle beta2"):
        angles(replace(cfg222, c2=cfg222.c1))


def test_angles_read_the_covectors_condition_7_reads(monkeypatch):
    # <p_i, c> = w_i and <c, p_j> = conj(w_j), in the association
    # (conj(theta) A) B, give the six inner products' angles bit for bit
    def inner_angles(cfg):
        ctx, th_bar = cfg.ctx, THETA.conjugate()
        zs = (ctx.inner(cfg.p2, cfg.c1) * ctx.inner(cfg.c1, cfg.p3),
              th_bar * ctx.inner(cfg.p3, cfg.c2) * ctx.inner(cfg.c2, cfg.p1),
              th_bar * ctx.inner(cfg.p1, cfg.c3) * ctx.inner(cfg.c3, cfg.p2))
        return tuple(math.atan2(z.imag, z.real) for z in zs)

    rng = random.Random(24)
    calls = [0]
    inner = construction.GramContext.inner

    def counting(self, u, v):
        calls[0] += 1
        return inner(self, u, v)

    for _ in range(400):
        cfg = build_configuration(math.exp(rng.uniform(math.log(1.51), math.log(1e11))))
        monkeypatch.setattr(construction.GramContext, "inner", counting)
        beta = angles(cfg)
        monkeypatch.undo()
        assert beta == inner_angles(cfg), cfg.params.t
    assert calls[0] == 0
