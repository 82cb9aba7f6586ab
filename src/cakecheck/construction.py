"""Explicit construction of the triangle-of-bisectors configuration.

Given a single real parameter t > 3/2, solve for the companion parameters
t1, t2, assemble the signature (2,1) Gram matrix, and build the full cast
of points and reflections: the triangle vertices p1, p2, p3, the midpoints
m1, m2 (and the mirrored m1' on the axis of the holonomy-like product
isometry), the slice polar points c_i, d_i, b2, e2, the auxiliary q1, q3,
m3, the isotropic direction w3, and the generating reflections R0..R3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import FAST, DomainError, SignVerdict, certified_sign, mid
from .hermitian import (
    RESIDUAL_TOL,
    GeometryError,
    GramContext,
    Isometry,
    ProjVector,
    closest_axis_point,
    covector,
    reflection,
)

THETA = complex(0.5, math.sqrt(3.0) / 2.0)  # exp(i pi / 3); theta^2 = theta - 1


class ParameterDomainError(DomainError):
    """The parameter t is outside the admissible range t > 3/2."""


@dataclass(frozen=True)
class ParameterTriple:
    """The solved parameter triple (t, t1, t2); scalars live in the backend."""

    t: object
    t1: object
    t2: object
    backend: object


def parameter_polynomial(t, x):
    """f(x) = (2t+1)(2t-3) x^2 - 2(2t+1)(t-1) x - (3t+1)(t-1).

    Its root larger than 1 is t1; satisfies f(1) = -3 t^2.
    """
    a = (2 * t + 1) * (2 * t - 3)
    bb = 2 * (2 * t + 1) * (t - 1)
    c = (3 * t + 1) * (t - 1)
    return (a * x) * x - bb * x - c


def solve_parameters(t, backend=FAST) -> ParameterTriple:
    """Solve the defining equations for t1 and t2 in closed form.

    t1 is the larger root of the parameter polynomial, written in the
    discriminant form that stays manifestly nonnegative for t > 3/2;
    t2 = (2 t t1 - t - t1 + 1)/2.  Raises ParameterDomainError unless
    t > 3/2 is certain, and for a non-finite float t.
    """
    if isinstance(t, (int, float)) and not math.isfinite(t):
        raise ParameterDomainError(f"parameter t = {t} is not finite")
    b = backend
    t = b.real(t)
    if certified_sign(t - 1.5, zero_tol=0.0) is not SignVerdict.POSITIVE:
        raise ParameterDomainError("parameter t must satisfy t > 3/2")
    disc = (2 * t * t - 2 * t - 1) * (t - 1) / (2 * t + 1)
    t1 = (t - 1) / (2 * t - 3) + (2 / (2 * t - 3)) * b.sqrt(disc)
    t2 = (2 * t * t1 - t - t1 + 1) / 2
    return ParameterTriple(t=t, t1=t1, t2=t2, backend=b)


def parameter_residuals(params: ParameterTriple):
    """Residuals of the two defining equations, as plain floats:

    - the parameter polynomial at t1 (should vanish),
    - 2 t2 - (2 t t1 - t - t1 + 1) (should vanish).
    """
    t, t1, t2 = params.t, params.t1, params.t2
    r1 = mid(parameter_polynomial(t, t1))
    r2 = mid(2 * t2 - (2 * t * t1 - t - t1 + 1))
    return (abs(r1), abs(r2))


def build_gram(params: ParameterTriple) -> GramContext:
    """Gram matrix of the form in the basis p1, p2, p3:

        [ 1        t1            t   ]
        [ t1       1      t2 conj(th)]
        [ t     t2 th          1     ]

    with th = exp(i pi/3).  Checks the Sylvester leading-minor signs
    (+, -, -) that pin signature (2,1); the determinant equals
    1 - (t^2 + t1^2 + t2^2 - t t1 t2), so the last check is exactly the
    strict triangle inequality condition on the parameters.
    """
    b = params.backend
    t, t1, t2 = params.t, params.t1, params.t2
    th = b.theta
    one = b.complex_(b.real(1))
    tc = b.complex_(t)
    t1c = b.complex_(t1)
    entries = (
        (one, t1c, tc),
        (t1c, one, b.complex_(t2) * th.conjugate()),
        (tc, b.complex_(t2) * th, one),
    )
    t1t1 = t1 * t1
    minor2 = 1 - t1t1
    det = 1 - (t * t + t1t1 + t2 * t2 - t * t1 * t2)
    if certified_sign(minor2) is not SignVerdict.NEGATIVE:
        raise GeometryError("second leading minor 1 - t1^2 is not negative")
    if certified_sign(det) is not SignVerdict.NEGATIVE:
        raise GeometryError(
            "Gram determinant is not negative: signature is not (2,1) "
            "(the strict quadratic inequality in the parameters fails)"
        )
    return GramContext(b, entries)


@dataclass(eq=False)
class TriangleConfiguration:
    """All named points and reflections of the configuration at one t.

    The generators R0 and R3 are filled in by :func:`mirror_construction`,
    whose closed-form mirror picks the largest adjugate columns and
    therefore runs on the fast backend only; ``w3`` is the isotropic
    direction used by the discal-adjacency conditions and exists only when
    u > 1 is certain.
    """

    params: ParameterTriple
    ctx: GramContext

    p1: ProjVector
    p2: ProjVector
    p3: ProjVector
    m1: ProjVector
    m2: ProjVector
    m3: ProjVector
    c1: ProjVector
    c2: ProjVector
    c3: ProjVector
    d1: ProjVector
    d2: ProjVector
    d3: ProjVector
    b2: ProjVector
    e2: ProjVector
    q1: ProjVector
    q3: ProjVector

    R1: Isometry
    R2: Isometry

    u: object
    w3: ProjVector | None

    R0: Isometry | None = None
    R3: Isometry | None = None

    @property
    def backend(self):
        return self.params.backend

    def reflections(self):
        """The four generators R0..R3; R0 and R3 are None before mirror_construction."""
        return (self.R0, self.R1, self.R2, self.R3)


# condition 8 is the real part of a product 1.7 t times its size: floats lose ~t 2^-53
FAST_T_MAX = 1e12


def build_configuration(t, backend=FAST) -> TriangleConfiguration:
    """The configuration at t.  For a finite t > 3/2 the form has signature
    (2,1) and no norm the construction reflects in or divides by vanishes,
    so a failed sign check or division means rounding or overflow lost the
    construction: a DomainError, not a GeometryError.  So is a fast t above
    FAST_T_MAX, where an enclosure would already have lost it."""
    try:
        params = solve_parameters(t, backend)
        if not backend.rigorous and params.t > FAST_T_MAX:
            raise DomainError(f"fast t above {FAST_T_MAX!r}")
        return _assemble(params)
    except ParameterDomainError:
        raise
    except (DomainError, GeometryError) as exc:
        raise DomainError(
            f"double precision cannot resolve the construction at "
            f"t = {mid(t)!r}"
        ) from exc


def _assemble(params: ParameterTriple) -> TriangleConfiguration:
    ctx = build_gram(params)
    b = params.backend
    t_, t1, t2 = params.t, params.t1, params.t2
    th = b.theta

    p1, p2, p3 = ctx.basis()

    inv_n1 = 1 / b.sqrt(2 * (t1 - 1))
    inv_n2 = 1 / b.sqrt(2 * (t2 - 1))
    m1 = ctx.vector(b.complex_(inv_n1), b.complex_(-inv_n1), 0)
    m2 = ctx.vector(0, b.complex_(inv_n2) * th, b.complex_(-inv_n2))
    m3 = ctx.vector(-1, 0, 1)

    c1 = ctx.vector(b.complex_(-t_), 0, 1)
    b2 = ctx.vector(0, -(b.complex_(t2) * th), 1)
    e2 = ctx.vector(1, b.complex_(-t1), 0)
    d3 = ctx.vector(1, 0, b.complex_(-t_))
    q1 = ctx.vector(1, 1, 0)
    q3 = ctx.vector(1, 0, 1)

    R1 = reflection(m1)
    R2 = reflection(m2)

    c2 = R1.apply(c1)
    c3 = R2.apply(c2)
    d2 = R2.apply(d3)
    d1 = R1.apply(d2)

    u = ctx.tance(c3, d3)
    w3 = None
    if certified_sign(u - 1) is SignVerdict.POSITIVE:
        lam = u + b.sqrt(u * (u - 1))
        coeff = ctx.inner(c3, d3) / ctx.inner(d3, d3)
        w3 = c3.scale(b.complex_(lam)) - d3.scale(coeff)

    return TriangleConfiguration(
        params=params,
        ctx=ctx,
        p1=p1,
        p2=p2,
        p3=p3,
        m1=m1,
        m2=m2,
        m3=m3,
        c1=c1,
        c2=c2,
        c3=c3,
        d1=d1,
        d2=d2,
        d3=d3,
        b2=b2,
        e2=e2,
        q1=q1,
        q3=q3,
        R1=R1,
        R2=R2,
        u=u,
        w3=w3,
    )


THETA_INV_SQ = complex(-0.5, -math.sqrt(3.0) / 2.0)  # theta^{-2} = exp(-2 i pi/3)
THETA_SQ = complex(-0.5, math.sqrt(3.0) / 2.0)


def mirror_construction(cfg: TriangleConfiguration):
    """Construct the antiholomorphic generator R3 (fast backend only).

    The product I = theta^2 R2 R1 R0 is loxodromic with real trace 2t > 3,
    so its eigenvalues are r, 1, 1/r with r + 1/r = 2t - 1, taken from t
    itself.  The mirrored midpoint m1' is the point of I's axis closest to
    the complex geodesic polar to p1 (:func:`closest_axis_point`, a closed
    form in I's eigenvectors).  Then p2' = -R(m1') p1 completes p1, p3 to a
    triangle whose Gram matrix is the entrywise conjugate of the original
    one, and R3 is the antilinear basis map p1 -> p1, p2 -> p2', p3 -> p3.
    That Gram condition is R3's form identity M^T G conj(M) = conj(G),
    checked entrywise relative to max(1, |G_ij|); it and R3^2 = Id reject a
    wrong m1'.

    Fills cfg.R0 = R(p1) and cfg.R3 in place and returns a dict of
    verification residuals.
    """
    ctx = cfg.ctx
    b = ctx.backend
    if b.rigorous:
        raise GeometryError("mirror construction needs branch decisions; use the fast backend")

    R0 = reflection(cfg.p1)
    iso = (cfg.R2 * cfg.R1 * R0).scaled(THETA_SQ)
    t = float(cfg.params.t)
    trace_residual = abs(complex(iso.trace()) - 2.0 * t)

    r = (2.0 * t - 1.0 + math.sqrt((2.0 * t - 3.0) * (2.0 * t + 1.0))) / 2.0
    m1p = closest_axis_point(iso, r, cfg.p1)
    # -R(m1') p1 alone, independent of the scale of m1'
    p2p = cfg.p1 - m1p.scale(2.0 * ctx.inner(cfg.p1, m1p) / ctx.norm2(m1p))

    # p1, p2', p3 must have the conjugated Gram matrix; the basis points p1, p3
    # pair to G's real entries 1 and t exactly (their covectors are G's
    # columns), and <p2',p1>, <p3,p2'> are conjugates of pairings checked here
    defects = [
        (abs(complex(ctx.inner(x, y)) - ctx.g[i][j].conjugate()), max(1.0, abs(ctx.g[i][j])))
        for x, y, i, j in ((cfg.p1, p2p, 0, 1), (p2p, p2p, 1, 1), (p2p, cfg.p3, 1, 2))
    ]
    gram_residual = max(d for d, _ in defects)
    if any(d > RESIDUAL_TOL * scale for d, scale in defects):
        raise GeometryError(
            f"mirrored triangle Gram residual {gram_residual:.3e} exceeds tolerance"
        )

    # antilinear R3: fixes p1 and p3, sends p2 to p2' (columns of the matrix)
    a_, b_, c_ = p2p.coords
    m = (
        (1.0 + 0j, complex(a_), 0j),
        (0j, complex(b_), 0j),
        (0j, complex(c_), 1.0 + 0j),
    )
    R3 = Isometry(ctx, m, antilinear=True)

    ident = R3 * R3
    involution_residual = ident.scalar_residual(1.0)
    if involution_residual > RESIDUAL_TOL:
        raise GeometryError(f"R3^2 residual {involution_residual:.3e} exceeds tolerance")

    cfg.R0 = R0
    cfg.R3 = R3
    return {
        "trace_residual": trace_residual,
        "gram_residual": gram_residual,
        "involution_residual": involution_residual,
    }


def angles(cfg: TriangleConfiguration):
    """The three triangle angles beta1, beta2, beta3 at the vertices,
    read off as arguments of the hermitian products whose positivity is the
    angle-range condition; their sum is pi/2 for the verified range.  Like
    condition 7 they read <p_i, c> = w_i and <c, p_j> = conj(w_j) off the
    covector w of each spine point c."""
    th_bar = THETA.conjugate()
    c1w, c2w, c3w = covector(cfg.c1), covector(cfg.c2), covector(cfg.c3)
    z1 = c1w[1] * c1w[2].conjugate()
    z2 = th_bar * c2w[2] * c2w[0].conjugate()
    z3 = th_bar * c3w[0] * c3w[1].conjugate()
    for k, z in (("1", z1), ("2", z2), ("3", z3)):
        if not z.real > 0.0:
            raise GeometryError(f"angle beta{k} is outside (-pi/2, pi/2): Re = {z.real}")
    return tuple(math.atan2(z.imag, z.real) for z in (z1, z2, z3))
