"""Checks that only the tests call: point classification, the form
residual of an isometry, parametrized geodesics and the geodesic through
two points (the property suites draw random geodesics with them), the
half-shift along a loxodromic axis, the reflection trace identities, the
closest-point stationarity residual and the float parameter triple.  All
run on the fast backend."""

import enum
import math
from dataclasses import dataclass

from cakecheck.hermitian import (
    GeometryError,
    GramContext,
    Isometry,
    ProjVector,
    _coord_scale,
    mat_max_abs,
    reflection,
)
from cakecheck.numerics import SignVerdict, certified_sign, mid


class PointClass(enum.Enum):
    NEGATIVE = "negative"
    ISOTROPIC = "isotropic"
    POSITIVE = "positive"


def classify(ctx, v) -> PointClass:
    scale = _coord_scale(v) * max(1.0, mat_max_abs(ctx.g))
    verdict = certified_sign(float(ctx.norm2(v)), zero_tol=1e-10 * max(scale, 1e-300))
    if verdict is SignVerdict.POSITIVE:
        return PointClass.POSITIVE
    if verdict is SignVerdict.NEGATIVE:
        return PointClass.NEGATIVE
    return PointClass.ISOTROPIC


@dataclass(eq=False)
class GeodesicParam:
    """A geodesic through the ball, parametrized by its two ideal vertices
    v1, v2 normalized to <v1,v2> = -1/2; the point map is
    x -> x v1 + (1/x) v2 for x > 0, and <g(x), g(x)> = -1."""

    v1: ProjVector
    v2: ProjVector

    @property
    def ctx(self) -> GramContext:
        return self.v1.ctx

    def point(self, x: float) -> ProjVector:
        if not x > 0.0:
            raise ValueError("geodesic parameter must be positive")
        return self.v1.scale(x) + self.v2.scale(1.0 / x)

    def param_of(self, v: ProjVector) -> float:
        """Recover x with v projectively equal to g(x)."""
        ctx = self.ctx
        a = complex(ctx.inner(v, self.v1))  # = -s/(2x)
        b = complex(ctx.inner(v, self.v2))  # = -s*x/2
        if abs(a) == 0.0 or abs(b) == 0.0:
            raise GeometryError("point does not lie on the geodesic")
        ratio = b / a
        if abs(ratio.imag) > 1e-8 * max(1.0, abs(ratio)) or ratio.real <= 0.0:
            raise GeometryError("point does not lie on the geodesic")
        return math.sqrt(ratio.real)


def half_shift(iso: Isometry, m1p: ProjVector) -> ProjVector:
    """The axis point m2' with R(m2') R(m1') = iso, for m1' on the axis of
    the loxodromic iso.  With m1' = a v_r + v_s (eigenvalues r, 1/r), the sum
    m1' + iso(m1') = (1 + r)(a v_r + v_s/r) is proportional to the half-shift
    r a v_r + v_s, whatever the scale of m1'."""
    return m1p + iso.apply(m1p)


def geodesic_through(a: ProjVector, b: ProjVector) -> GeodesicParam:
    """The geodesic through two distinct negative (or isotropic) points:
    finds the two isotropic directions in their real span and normalizes
    them to the standard parametrization.  Fast backend only."""
    ctx = a.ctx
    ctx._check(b)
    s = complex(ctx.inner(a, b))
    if abs(s) < 1e-14 * max(_coord_scale(a) * _coord_scale(b), 1e-300):
        raise GeometryError("orthogonal points do not span a real geodesic here")
    # rotate b so <a, b'> is real negative; then the span over R is the geodesic
    mu = -s / abs(s)
    b2 = b.scale(mu)
    A = float(ctx.norm2(a))
    B = -abs(s)
    C = float(ctx.norm2(b2))
    disc = B * B - A * C
    if disc <= 0.0:
        raise GeometryError("restricted form is not of signature (1,1): no real geodesic")
    root = math.sqrt(disc)
    x_plus = (-B + root) / A
    x_minus = (-B - root) / A
    v1 = a.scale(x_plus) + b2
    v2 = a.scale(x_minus) + b2
    w = float(ctx.inner(v1, v2).real)
    if abs(w) < 1e-14:
        raise GeometryError("degenerate vertex pair (coincident points?)")
    v2 = v2.scale(-0.5 / w)
    geo = GeodesicParam(v1, v2)
    xa = geo.param_of(a)
    xb = geo.param_of(b)
    if xa > xb:
        geo = GeodesicParam(v2, v1)
    return geo


def form_residual(iso: Isometry, probes) -> float:
    """Max relative defect of <Tu,Tv> against <u,v> (conjugated for
    antilinear T) over the given probe vector pairs."""
    ctx = iso.ctx
    worst = 0.0
    for u, v in probes:
        lhs = complex(ctx.inner(iso.apply(u), iso.apply(v)))
        rhs = complex(ctx.inner(u, v))
        if iso.antilinear:
            rhs = rhs.conjugate()
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst


def as_floats(params):
    return (mid(params.t), mid(params.t1), mid(params.t2))


def trace_identities_check(x1, x2, x3):
    """Residuals of the three reflection trace identities against direct
    matrix computation:

      <R(x2)x1, x1>      vs (2 ta(x1,x2) - 1) <x1,x1>
      tr(R(x2)R(x1))     vs 4 ta(x1,x2) - 1
      tr(R(x3)R(x2)R(x1)) vs 8 <x1,x2><x2,x3><x3,x1>/(<x1,x1><x2,x2><x3,x3>)
                             - 4 ta(x1,x2) - 4 ta(x2,x3) - 4 ta(x3,x1) + 3
    """
    ctx = x1.ctx
    r1m = reflection(x1)
    r2m = reflection(x2)
    r3m = reflection(x3)

    ta12 = float(ctx.tance(x1, x2))
    ta23 = float(ctx.tance(x2, x3))
    ta31 = float(ctx.tance(x3, x1))

    lhs1 = complex(ctx.inner(r2m.apply(x1), x1))
    rhs1 = (2.0 * ta12 - 1.0) * complex(ctx.inner(x1, x1))
    res1 = abs(lhs1 - rhs1)

    lhs2 = complex((r2m * r1m).trace())
    res2 = abs(lhs2 - (4.0 * ta12 - 1.0))

    num = complex(ctx.inner(x1, x2)) * complex(ctx.inner(x2, x3)) * complex(ctx.inner(x3, x1))
    den = complex(ctx.inner(x1, x1)) * complex(ctx.inner(x2, x2)) * complex(ctx.inner(x3, x3))
    rhs3 = 8.0 * num / den - 4.0 * ta12 - 4.0 * ta23 - 4.0 * ta31 + 3.0
    lhs3 = complex((r3m * r2m * r1m).trace())
    res3 = abs(lhs3 - rhs3)

    return (res1, res2, res3)


def stationarity_residual(geo, p, y) -> float:
    """|Re(<p,g'><y,y> / (<y,g'><p,y>)) - 1| for a probe geodesic point g';
    vanishes exactly at the closest point."""
    ctx = geo.ctx
    gp = geo.point(math.e)  # arbitrary distinct probe point
    num = complex(ctx.inner(p, gp)) * complex(ctx.inner(y, y))
    den = complex(ctx.inner(y, gp)) * complex(ctx.inner(p, y))
    return abs((num / den).real - 1.0)
