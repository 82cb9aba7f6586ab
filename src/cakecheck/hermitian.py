"""Geometry kernel for the projective model of the complex hyperbolic plane.

A hermitian form of signature (2,1) on C^3 is fixed by a Gram matrix in a
basis p1,p2,p3; points are projective vectors in that basis, isometries are
3x3 matrices (optionally composed with coordinatewise conjugation for the
antiholomorphic ones).  Everything here is written against the scalar
backend protocol of :mod:`cakecheck.numerics`, so the same formulas run in
fast and rigorous mode; the one operation that needs branch decisions, the
closest point on the axis of a loxodromic isometry, is fast-backend only.

Every three-term sum is written out as (x0 y0 + x1 y1) + x2 y2, left to
right, on every backend, so floats, Intervals and Taylor models see the same
operations in the same order.  :func:`mat_vec` is the one matrix-vector
product: it applies an isometry to a point, forms the columns of a product
of two isometries (``Isometry.__mul__``), and forms a point's covector
w = G conj(v) once, kept on it (:func:`covector`): <u, v> = u . w,
<p_i, v> = w_i, and the basis point p_j carries column j of G.
:func:`coinciding_pairs` is the one projective-equality test.
"""

from __future__ import annotations


# bound on every floating-point residual check: projective equality, the
# relation, angle sum, slice symmetries, mirror and cake identifications
RESIDUAL_TOL = 1e-9


class ContextMismatchError(ValueError):
    """Vectors from different Gram contexts were combined."""


class GeometryError(ValueError):
    """A geometric precondition failed (isotropic argument, wrong signature,
    residual over tolerance, ...)."""


# ---------------------------------------------------------------------------
# 3x3 kernels over backend scalars: mat_identity, mat_vec, vec_conj, mat_det,
# mat_adjugate (the axis of a loxodromic), and the max-norms of the fast checks.
# The kernels every backend runs (mat_vec, vec_conj, GramContext.inner,
# reflection, Isometry.__mul__) write their backend arithmetic out entry by
# entry, with no loop or generator, and keep the summation order
# (x0*y0 + x1*y1) + x2*y2


def mat_identity(one=1.0, zero=0.0):
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def mat_vec(m, v):
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    v0, v1, v2 = v
    return (m00 * v0 + m01 * v1 + m02 * v2,
            m10 * v0 + m11 * v1 + m12 * v2,
            m20 * v0 + m21 * v1 + m22 * v2)


def vec_conj(v):
    v0, v1, v2 = v
    return (v0.conjugate(), v1.conjugate(), v2.conjugate())


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
        if isinstance(x, (int, float, complex)):
            return self.backend.complex_(x.real, x.imag)
        return x

    def basis(self):
        one, zero = self._lift_scalar(1), self._lift_scalar(0)
        return tuple(ProjVector(e, self, c) for e, c in zip(mat_identity(one, zero), zip(*self.g)))

    def _check(self, *vectors):
        for v in vectors:
            if v.ctx is not self:
                raise ContextMismatchError("vector belongs to a different Gram context")

    def inner(self, u: "ProjVector", v: "ProjVector"):
        self._check(u, v)
        u0, u1, u2 = u.coords
        w0, w1, w2 = covector(v)
        return u0 * w0 + u1 * w1 + u2 * w2

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


class ProjVector:
    """A representative of a projective point: 3 coordinates in the working
    basis, interpreted against a Gram context.  Frozen, so that its cached
    covector ``w`` cannot go stale."""

    def __init__(self, coords: tuple, ctx: GramContext, w: tuple | None = None):
        self.__dict__.update(coords=coords, ctx=ctx, w=w)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name}: a ProjVector is frozen")

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


def covector(v: ProjVector):
    """w = G conj(v), so that <u, v> = u . w; formed on first use and kept."""
    if v.w is None:
        v.__dict__["w"] = mat_vec(v.ctx.g, vec_conj(v.coords))
    return v.w


def _coord_scale(v: ProjVector) -> float:
    return max(abs(complex(c)) for c in v.coords)


def coinciding_pairs(points) -> list:
    """The index pairs (i, j), i < j, ordered by j and then i, of the points
    that are projectively equal: all 2x2 minors of the 3x2 coordinate matrix
    of points[i], points[j] vanish to ``RESIDUAL_TOL``, scaled by the two
    points' coordinate magnitudes, each formed once per point.  Reads the
    coordinates as plain complex numbers, so only fast-backend vectors are
    accepted; an enclosure coordinate raises ``TypeError``."""
    pairs, earlier = [], []
    for j, p in enumerate(points):
        b0, b1, b2 = p.coords
        sb = max(abs(b0), abs(b1), abs(b2), 1e-300)
        for i, ((a0, a1, a2), sa) in enumerate(earlier):
            tol = RESIDUAL_TOL * (sa * sb)
            if not (abs(a0 * b1 - a1 * b0) > tol or abs(a0 * b2 - a2 * b0) > tol
                    or abs(a1 * b2 - a2 * b1) > tol):
                pairs.append((i, j))
        earlier.append((p.coords, sb))
    return pairs


def projectively_equal(u: ProjVector, v: ProjVector) -> bool:
    """True iff u and v are the same projective point (:func:`coinciding_pairs`)."""
    return bool(coinciding_pairs((u, v)))


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
        self.m = m
        self.antilinear = bool(antilinear)

    @classmethod
    def identity(cls, ctx: GramContext) -> "Isometry":
        return cls(ctx, mat_identity(ctx._lift_scalar(1.0), ctx._lift_scalar(0.0)), False)

    def apply(self, v: ProjVector) -> ProjVector:
        self.ctx._check(v)
        coords = v.coords
        if self.antilinear:
            coords = vec_conj(coords)
        return ProjVector(mat_vec(self.m, coords), self.ctx)

    def __mul__(self, other):
        """self after other: (self * other).apply(v) == self.apply(other.apply(v))."""
        if not isinstance(other, Isometry):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise ContextMismatchError("isometries belong to different Gram contexts")
        a = self.m
        b0, b1, b2 = zip(*other.m)  # the columns of the right factor
        if self.antilinear:
            b0, b1, b2 = vec_conj(b0), vec_conj(b1), vec_conj(b2)
        m = tuple(zip(mat_vec(a, b0), mat_vec(a, b1), mat_vec(a, b2)))
        return Isometry(self.ctx, m, self.antilinear ^ other.antilinear)

    def scaled(self, s) -> "Isometry":
        s = self.ctx._lift_scalar(s)
        m = tuple(tuple(s * x for x in row) for row in self.m)
        return Isometry(self.ctx, m, self.antilinear)

    def trace(self):
        m = self.m
        return m[0][0] + m[1][1] + m[2][2]

    # -- fast-mode residual helpers ---------------------------------------

    def scalar_residual(self, s: complex) -> float:
        """Max-entry distance from s * Id (fast backend)."""
        return mat_max_abs_diff(self.m, mat_identity(complex(s), 0j))

    def scalar_part(self) -> complex:
        """tr/3 -- the scalar when the matrix is (close to) scalar * Id."""
        return complex(self.trace()) / 3.0


def reflection(p: ProjVector) -> Isometry:
    """R(p): x -> 2 <x,p>/<p,p> p - x.  Involutive, determinant 1; a
    reflection in the point p (p negative) or in the complex geodesic polar
    to p (p positive)."""
    ctx = p.ctx
    p0, p1, p2 = p.coords
    w0, w1, w2 = covector(p)  # <x,p> = x . w
    pp = p0 * w0 + p1 * w1 + p2 * w2
    if not ctx.backend.rigorous:
        # the rounding-error scale of <p,p>: sum_ij |p_i| |g_ij| |p_j|
        pa, g = (abs(p0), abs(p1), abs(p2)), ctx.g
        scale = sum(pa[i] * abs(g[i][j]) * pa[j] for i in range(3) for j in range(3))
        if abs(complex(pp)) <= 1e-12 * max(scale, 1e-300):
            raise GeometryError("reflection in an isotropic point is undefined")
    two_over = 2.0 / pp
    one = ctx._lift_scalar(1.0)
    s0, s1, s2 = two_over * p0, two_over * p1, two_over * p2
    rows = ((s0 * w0 - one, s0 * w1, s0 * w2),
            (s1 * w0, s1 * w1 - one, s1 * w2),
            (s2 * w0, s2 * w1, s2 * w2 - one))
    return Isometry(ctx, rows, False)


# ---------------------------------------------------------------------------
# the axis of a loxodromic isometry (fast backend)


def closest_axis_point(iso: Isometry, r: float, p: ProjVector) -> ProjVector:
    """The point of the axis of the loxodromic ``iso`` (eigenvalues r, 1,
    1/r) closest to the complex geodesic polar to p, up to scale.

    The axis ends v_r, v_s are the largest adjugate columns of iso - r Id and
    iso - Id/r, with v_s scaled to <v_r,v_s> = -1/2; the axis points are then
    x v_r + v_s/x for x > 0, and the closest one has x^2 = |<v_s,p>|/|<v_r,p>|."""
    ctx = iso.ctx

    def eigvec(lam):
        adj = mat_adjugate(tuple(tuple(x - lam if i == j else x for j, x in enumerate(row))
                                 for i, row in enumerate(iso.m)))
        j = max(range(3), key=lambda c: max(abs(adj[i][c]) for i in range(3)))
        return ProjVector((adj[0][j], adj[1][j], adj[2][j]), ctx)

    v_r = eigvec(r)
    v_s = eigvec(1.0 / r)
    # conjugate-linear second slot: scaling v_s by lam scales <v_r,v_s> by conj(lam)
    v_s = v_s.scale(-0.5 / ctx.inner(v_r, v_s).conjugate())
    return v_r.scale(abs(ctx.inner(v_s, p)) / abs(ctx.inner(v_r, p))) + v_s
