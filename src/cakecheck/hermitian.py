"""Geometry kernel for the projective model of the complex hyperbolic plane.

A hermitian form of signature (2,1) on C^3 is fixed by a Gram matrix in a
basis p1,p2,p3; points are projective vectors in that basis, isometries are
3x3 matrices (optionally composed with coordinatewise conjugation for the
antiholomorphic ones).  Everything here is written against the scalar
backend protocol of :mod:`cakecheck.numerics`, so the same formulas run in
fast and rigorous mode; the operations that need branch decisions (the
closest point on an axis and the loxodromic decomposition) are
fast-backend only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# bound on every floating-point residual check: projective equality, the
# relation, angle sum, slice symmetries, mirror and cake identifications
RESIDUAL_TOL = 1e-9


class ContextMismatchError(ValueError):
    """Vectors from different Gram contexts were combined."""


class GeometryError(ValueError):
    """A geometric precondition failed (isotropic argument, no real geodesic,
    non-loxodromic trace, ...)."""


# ---------------------------------------------------------------------------
# small fixed-size matrix helpers (generic over backend scalars)


def mat_identity(one=1.0, zero=0.0):
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def mat_mul(a, b):
    return tuple(
        tuple(sum3(a[i][0] * b[0][j], a[i][1] * b[1][j], a[i][2] * b[2][j]) for j in range(3))
        for i in range(3)
    )


def sum3(x, y, z):
    return (x + y) + z


def mat_vec(m, v):
    return tuple(sum3(m[i][0] * v[0], m[i][1] * v[1], m[i][2] * v[2]) for i in range(3))


def mat_conj(m):
    return tuple(tuple(x.conjugate() for x in row) for row in m)


def vec_conj(v):
    return tuple(x.conjugate() for x in v)


def mat_scale(m, s):
    return tuple(tuple(s * x for x in row) for row in m)


def mat_sub(a, b):
    return tuple(tuple(a[i][j] - b[i][j] for j in range(3)) for i in range(3))


def mat_trace(m):
    return sum3(m[0][0], m[1][1], m[2][2])


def mat_det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def mat_adjugate(m):
    return tuple(
        tuple(
            m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
            - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)
        )
        for i in range(3)
    )


def mat_max_abs(m) -> float:
    return max(abs(complex(x)) for row in m for x in row)


def mat_max_abs_diff(a, b) -> float:
    return max(abs(complex(a[i][j]) - complex(b[i][j])) for i in range(3) for j in range(3))


# ---------------------------------------------------------------------------
# Gram context and projective vectors


class GramContext:
    """The hermitian form, given by its Gram matrix in the working basis.

    The form is linear in the first slot and conjugate-linear in the second
    (forced by linearity of the reflection formula in its argument):
    <u, v> = u^T . G . conj(v).
    """

    def __init__(self, backend, entries):
        self.backend = backend
        self.g = tuple(tuple(row) for row in entries)
        if len(self.g) != 3 or any(len(row) != 3 for row in self.g):
            raise ValueError("Gram matrix must be 3x3")

    def vector(self, a, b, c) -> "ProjVector":
        lift = self._lift_scalar
        return ProjVector((lift(a), lift(b), lift(c)), self)

    def _lift_scalar(self, x):
        if isinstance(x, (int, float)):
            return self.backend.complex_(self.backend.real(x))
        if isinstance(x, complex):
            return self.backend.complex_(x.real, x.imag)
        return x

    def basis(self):
        return (self.vector(1, 0, 0), self.vector(0, 1, 0), self.vector(0, 0, 1))

    def _check(self, *vectors):
        for v in vectors:
            if v.ctx is not self:
                raise ContextMismatchError("vector belongs to a different Gram context")

    def inner(self, u: "ProjVector", v: "ProjVector"):
        self._check(u, v)
        cv = vec_conj(v.coords)
        g = self.g
        return sum3(
            u.coords[0] * sum3(g[0][0] * cv[0], g[0][1] * cv[1], g[0][2] * cv[2]),
            u.coords[1] * sum3(g[1][0] * cv[0], g[1][1] * cv[1], g[1][2] * cv[2]),
            u.coords[2] * sum3(g[2][0] * cv[0], g[2][1] * cv[1], g[2][2] * cv[2]),
        )

    def norm2(self, v: "ProjVector"):
        """<v,v> as a backend real scalar."""
        return self.inner(v, v).real

    def tance(self, x: "ProjVector", y: "ProjVector"):
        """ta(x,y) = <x,y><y,x> / (<x,x><y,y>); scale-invariant, real."""
        xx = self.norm2(x)
        yy = self.norm2(y)
        if not self.backend.rigorous:
            scale_x = _coord_scale(x)
            scale_y = _coord_scale(y)
            gn = mat_max_abs(self.g)
            if abs(float(xx)) <= 1e-12 * gn * scale_x or abs(float(yy)) <= 1e-12 * gn * scale_y:
                raise GeometryError("tance of an isotropic point is undefined")
        xy = self.inner(x, y)
        return (xy * xy.conjugate()).real / (xx * yy)


@dataclass(eq=False)
class ProjVector:
    """A representative of a projective point: 3 coordinates in the working
    basis, interpreted against a Gram context."""

    coords: tuple
    ctx: GramContext

    def __add__(self, other: "ProjVector") -> "ProjVector":
        self.ctx._check(other)
        return ProjVector(tuple(a + b for a, b in zip(self.coords, other.coords)), self.ctx)

    def __sub__(self, other: "ProjVector") -> "ProjVector":
        self.ctx._check(other)
        return ProjVector(tuple(a - b for a, b in zip(self.coords, other.coords)), self.ctx)

    def __neg__(self) -> "ProjVector":
        return ProjVector(tuple(-a for a in self.coords), self.ctx)

    def scale(self, s) -> "ProjVector":
        s = self.ctx._lift_scalar(s)
        return ProjVector(tuple(s * a for a in self.coords), self.ctx)


def _max_abs(coords) -> float:
    return max(abs(complex(c)) for c in coords)


def _coord_scale(v: ProjVector) -> float:
    return _max_abs(v.coords)


def projectively_equal(u: ProjVector, v: ProjVector) -> bool:
    """True iff all 2x2 minors of the 3x2 coordinate matrix vanish to
    ``RESIDUAL_TOL``, scaled by the coordinate magnitudes.  Reads the
    coordinates as plain complex numbers, so only fast-backend vectors are
    accepted; an enclosure coordinate raises ``TypeError``."""
    a = u.coords
    b = v.coords
    scale = max(_max_abs(a), 1e-300) * max(_max_abs(b), 1e-300)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if abs(a[i] * b[j] - a[j] * b[i]) > RESIDUAL_TOL * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# isometries


class Isometry:
    """A 3x3 matrix plus a linear/antilinear flag.

    linear:      v -> m . v
    antilinear:  v -> m . conj(v)
    """

    __slots__ = ("ctx", "m", "antilinear")

    def __init__(self, ctx: GramContext, m, antilinear: bool = False):
        self.ctx = ctx
        self.m = tuple(tuple(row) for row in m)
        self.antilinear = bool(antilinear)

    @classmethod
    def identity(cls, ctx: GramContext) -> "Isometry":
        one = ctx._lift_scalar(1.0)
        zero = ctx._lift_scalar(0.0)
        return cls(ctx, mat_identity(one, zero), False)

    def apply(self, v: ProjVector) -> ProjVector:
        self.ctx._check(v)
        coords = v.coords
        if self.antilinear:
            coords = vec_conj(coords)
        return ProjVector(mat_vec(self.m, coords), self.ctx)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other)).apply(v) == self(other(v))."""
        if other.ctx is not self.ctx:
            raise ContextMismatchError("isometries belong to different Gram contexts")
        om = other.m
        if self.antilinear:
            om = mat_conj(om)
        return Isometry(self.ctx, mat_mul(self.m, om), self.antilinear ^ other.antilinear)

    def __mul__(self, other):
        if not isinstance(other, Isometry):
            return NotImplemented
        return self.compose(other)

    def scaled(self, s) -> "Isometry":
        return Isometry(self.ctx, mat_scale(self.m, self.ctx._lift_scalar(s)), self.antilinear)

    def trace(self):
        return mat_trace(self.m)

    # -- fast-mode residual helpers ---------------------------------------

    def scalar_residual(self, s: complex) -> float:
        """Max-entry distance from s * Id (fast backend)."""
        target = mat_identity(complex(s), 0j)
        return mat_max_abs_diff(self.m, target)

    def scalar_part(self) -> complex:
        """tr/3 -- the scalar when the matrix is (close to) scalar * Id."""
        return complex(self.trace()) / 3.0

    def form_residual(self, probes) -> float:
        """Max relative defect of <Tu,Tv> against <u,v> (conjugated for
        antilinear T) over the given probe vector pairs."""
        ctx = self.ctx
        worst = 0.0
        for u, v in probes:
            lhs = complex(ctx.inner(self.apply(u), self.apply(v)))
            rhs = complex(ctx.inner(u, v))
            if self.antilinear:
                rhs = rhs.conjugate()
            denom = max(abs(rhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / denom)
        return worst


def reflection(p: ProjVector) -> Isometry:
    """R(p): x -> 2 <x,p>/<p,p> p - x.  Involutive, determinant 1; a
    reflection in the point p (p negative) or in the complex geodesic polar
    to p (p positive)."""
    ctx = p.ctx
    pc = p.coords
    cp = vec_conj(pc)
    g = ctx.g
    # w_i = (G conj(p))_i, so <x,p> = sum_i x_i w_i; <p,p> reuses the
    # products that ctx.inner(p, p) would form
    w = tuple(sum3(g[i][0] * cp[0], g[i][1] * cp[1], g[i][2] * cp[2]) for i in range(3))
    pp = sum3(pc[0] * w[0], pc[1] * w[1], pc[2] * w[2])
    if not ctx.backend.rigorous:
        scale = _coord_scale(p) ** 2 * max(1.0, mat_max_abs(g))
        if abs(complex(pp)) <= 1e-12 * max(scale, 1e-300):
            raise GeometryError("reflection in an isotropic point is undefined")
    two_over = 2.0 / pp
    one = ctx._lift_scalar(1.0)
    rows = []
    for i in range(3):
        s = two_over * pc[i]
        rows.append(tuple(s * w[j] - one if i == j else s * w[j] for j in range(3)))
    return Isometry(ctx, tuple(rows), False)


# ---------------------------------------------------------------------------
# geodesics (fast backend)


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


def closest_point_param(geo: GeodesicParam, p: ProjVector) -> float:
    """The parameter x of the unique point geo.point(x) closest to the
    complex geodesic polar to p; requires the geodesic not to meet that
    complex geodesic (the cross-ratio-like quantity <g,p><p,g'>/<g,g'> must
    be non-real)."""
    ctx = geo.ctx
    ctx._check(p)
    g = geo.point(1.0)
    gp = geo.point(2.0)
    val = complex(ctx.inner(g, p)) * complex(ctx.inner(p, gp)) / complex(ctx.inner(g, gp))
    if abs(val.imag) <= 1e-12 * max(abs(val), 1.0):
        raise GeometryError("geodesic meets the complex geodesic: no unique closest point")
    a = abs(complex(ctx.inner(geo.v1, p)))
    b = abs(complex(ctx.inner(geo.v2, p)))
    if a == 0.0 or b == 0.0:
        raise GeometryError("degenerate pairing with a geodesic vertex")
    return math.sqrt(b / a)


def loxodromic_decompose(
    iso: Isometry,
    at_point: ProjVector | None = None,
    closest_to: ProjVector | None = None,
):
    """Write a loxodromic isometry (real trace > 3) as R(g')R(g) with g, g'
    unit points (<g,g> = -1) on its axis.  The point g is either given
    (``at_point``) or the axis point closest to the complex geodesic polar
    to ``closest_to``, at the parameter ``closest_point_param`` returns."""
    if iso.antilinear:
        raise GeometryError("loxodromic decomposition expects a linear isometry")
    if (at_point is None) == (closest_to is None):
        raise ValueError("specify exactly one of at_point / closest_to")
    ctx = iso.ctx
    tr = complex(iso.trace())
    scale = max(1.0, abs(tr))
    if abs(tr.imag) > 1e-9 * scale:
        raise GeometryError(f"trace {tr} is not real")
    if not tr.real > 3.0 + 1e-12:
        raise GeometryError(f"trace {tr.real} is not > 3: not in the loxodromic regime")
    s = tr.real - 1.0
    r = 0.5 * (s + math.sqrt(s * s - 4.0))

    def eigvec(lam: float) -> ProjVector:
        one = ctx._lift_scalar(1.0)
        zero = ctx._lift_scalar(0.0)
        shifted = mat_sub(iso.m, mat_identity(one * lam, zero))
        adj = mat_adjugate(shifted)
        cols = [tuple(adj[i][j] for i in range(3)) for j in range(3)]
        best = max(cols, key=lambda c: max(abs(complex(x)) for x in c))
        if max(abs(complex(x)) for x in best) < 1e-12:
            raise GeometryError("degenerate eigenspace in loxodromic decomposition")
        # refinement: the product of the complementary shifts annihilates the
        # other eigenspaces, damping the adjugate's rounding error
        for mu in (r, 1.0 / r, 1.0):
            if mu != lam:
                best = mat_vec(mat_sub(iso.m, mat_identity(one * mu, zero)), best)
        scale = max(abs(complex(x)) for x in best)
        if scale < 1e-12:
            raise GeometryError("degenerate eigenspace in loxodromic decomposition")
        return ProjVector(tuple(x / scale for x in best), ctx)

    v_r = eigvec(r)
    v_s = eigvec(1.0 / r)
    w = complex(ctx.inner(v_r, v_s))
    if abs(w) < 1e-14:
        raise GeometryError("degenerate axis vertices")
    # conjugate-linear second slot: scaling v_s by lam changes <v_r,v_s> by conj(lam)
    v_s = v_s.scale(-0.5 / w.conjugate())
    geo = GeodesicParam(v_r, v_s)

    if at_point is not None:
        x = geo.param_of(at_point)
    else:
        x = closest_point_param(geo, closest_to)
    g = geo.point(x)

    # R(g(y)) sends v1 to v2/y^2 and v2 to y^2 v1, so R(g(x f)) R(g(x))
    # scales v1 by f^2; iso scales v1 = v_r by r, hence the half-shift sqrt(r)
    gp = geo.point(x * math.sqrt(r))
    prod = reflection(gp) * reflection(g)
    if not mat_max_abs_diff(prod.m, iso.m) < 1e-9 * max(mat_max_abs(iso.m), 1.0):
        raise GeometryError("decomposition residual too large: not R(g')R(g)")
    return g, gp
