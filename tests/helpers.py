"""Checks that only the tests call: point classification, the reflection
trace identities, the closest-point stationarity residual, the float
parameter triple and the 3x3 determinant.  All run on the fast backend."""

import enum
import math

from cakecheck.hermitian import _coord_scale, mat_max_abs, reflection
from cakecheck.numerics import SignVerdict, certified_sign


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


def mat_det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def as_floats(params):
    b = params.backend
    return (b.mid_real(params.t), b.mid_real(params.t1), b.mid_real(params.t2))


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
