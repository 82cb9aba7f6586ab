"""Verification of every checkable claim about the configuration.

Covers: the strict inequalities (the existence conditions numbered 3-8
in the reports), the seven-letter group relation, the slice symmetry
checks, the Toledo invariant in closed form, the Euler number side test,
the invariant bookkeeping ledger, grid scans, and the rigorous interval
certification of the whole admissible range.

Every claim check returns what it contributes to the report together with
a list of failure strings, and ``verify_all`` only assembles them: a claim
that fails is a ``failure:`` line of a complete report, never an
exception.  The exceptions left are domain errors (a t outside the
construction's reach) and precondition errors, which are plain
``ValueError``s: a check that needs R3 before the mirror construction ran,
or a side test on a report whose 6c is undecided.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import cake, numerics
from .numerics import (
    DEFAULT_BACKEND,
    DEFAULT_ZERO_TOL,
    FAST,
    MAX_DEPTH,
    Certificate,
    DomainError,
    TaylorBackend,
    SignVerdict,
    certified_sign,
    certify_on_interval,
    get_backend,
    mid,
    replay_certificate,
)
from .hermitian import (
    RESIDUAL_TOL,
    GeometryError,
    covector,
    mat_det,
    projectively_equal,
    reflection,
)
from .construction import (
    THETA,
    THETA_INV_SQ,
    THETA_SQ,
    ParameterDomainError,
    TriangleConfiguration,
    angles,
    build_configuration,
    mirror_construction,
    parameter_residuals,
)

CONDITION_IDS = ("3", "4a", "4b", "5", "6a", "6b", "6c", "7a", "7b", "7c", "8")

# the two-decimal values published for t = 2.22, matched within
# PUBLISHED_MATCH_RTOL * max(1, |printed|)
PUBLISHED_MATCH_RTOL = 0.02
PRINTED_VALUES = {
    "t1": 2.23,
    "t2": 3.22,
    "3": 4.33,
    "4a": 1.44,
    "4b": 1.56,
    "5": 1.86,
    "6a": 1.43,
    "6b": complex(-7.63, -4.41),
    "6c": 3.68,
    "7a": 13.11,
    "7b": 29.62,
    "7c": 31.05,
    "8": 248.24,
}

PUBLISHED_T = 2.22
CERTIFIED_RANGE = (2.13, 2.34)  # the t-range certify_range proves by default


# ---------------------------------------------------------------------------
# conditions


# The scalar each condition requires positive, where it is not the value
# itself: (3) v > 1, (5) v < 2, (6a) u > 1 and (6b) z != 0.
INEQUALITIES = {
    "3": lambda v: v - 1,
    "5": lambda v: 2 - v,
    "6a": lambda u: u - 1,
    "6b": lambda z: (z * z.conjugate()).real,
}


def required_positive(cid, value):
    """The backend real scalar that condition ``cid`` requires positive."""
    return INEQUALITIES.get(cid, lambda v: v)(value)


def condition_items(cfg: TriangleConfiguration):
    """Evaluate all condition left-hand sides.

    Returns ``(complete, values)`` where ``values`` maps the condition id to
    the reported quantity (the published normalization), from which
    :func:`required_positive` reads the scalar the condition requires to
    be positive.  ``complete`` is False when the isotropic direction w3 is
    unavailable (u > 1 not certain), which leaves the two w3-dependent
    conditions unevaluated.
    """
    ctx = cfg.ctx
    b = cfg.backend
    t, t1, t2 = cfg.params.t, cfg.params.t1, cfg.params.t2

    tt, t1t1, t2t2, tt1 = t * t, t1 * t1, t2 * t2, t * t1
    v3 = tt + t1t1 + t2t2 - tt1 * t2
    four_tt1t2, four_t2t2 = 4 * tt1 * t2, 4 * t2t2
    values = {
        "3": v3,
        "4a": four_tt1t2 - tt - 4 * t1t1 - four_t2t2 + 4,
        "4b": four_tt1t2 - 4 * tt - t1t1 - four_t2t2 + 4,
        "5": b.sqrt(b.real(3)) * (1 + (v3 - 1) / (((t + 1) * (t1 + 1)) * (t2 + 1))),
        "6a": cfg.u,
    }

    complete = cfg.w3 is not None
    if complete:
        values["6b"] = ctx.inner(reflection(cfg.m3).apply(cfg.w3),
                                 cfg.R1.apply(cfg.R2.apply(cfg.w3)))
        f1 = reflection(cfg.q1).apply(reflection(cfg.q3).apply(cfg.w3))
        values["6c"] = (ctx.inner(cfg.b2, f1) * ctx.inner(f1, cfg.e2)
                        / ctx.inner(cfg.b2, cfg.e2)).imag

    th_bar = b.theta.conjugate()
    # <p_i, x> is entry i of x's covector w, and <x, p_j> is conj(w_j)
    c1w, c2w, c3w = covector(cfg.c1), covector(cfg.c2), covector(cfg.c3)
    z7a = c1w[1] * c1w[2].conjugate()
    z7b = c2w[2] * c2w[0].conjugate()
    values["7a"] = z7a.real
    values["7b"] = (th_bar * z7b).real
    values["7c"] = (th_bar * (c3w[0] * c3w[1].conjugate())).real
    values["8"] = (th_bar * z7a * z7b).real
    return complete, values


@dataclass
class ConditionReport:
    values: dict
    verdicts: dict
    complete: bool

    @property
    def all_positive(self) -> bool:
        return self.complete and all(
            v is SignVerdict.POSITIVE for v in self.verdicts.values()
        )


def evaluate_conditions(cfg: TriangleConfiguration):
    complete, values = condition_items(cfg)
    verdicts = {cid: certified_sign(required_positive(cid, v)) for cid, v in values.items()}
    return ConditionReport(values=values, verdicts=verdicts, complete=complete)


# ---------------------------------------------------------------------------
# group relation


def check_relation(cfg: TriangleConfiguration):
    """The seven-letter relation R3 R1 R2 R3 R2 R1 R0 = theta^-2 Id (two
    antilinear letters, so the word is linear overall), and the PU-level
    square (R3 R1 R2 R3 R2 R1)^2 = theta^2 Id, whose scalar is not 1: the
    relation holds in PU but not in SU, the mechanism behind the
    noninteger Toledo invariant.  Returns the report section and a failure
    string for each claim that fails."""
    if cfg.R3 is None:
        raise ValueError("mirror construction must run before the relation check")
    half = cake.realize_word(cake.subword(6), cfg)
    word = half * cfg.R0
    square = half * half
    scalar = square.scalar_part()
    section = {
        "relation_residual": word.scalar_residual(THETA_INV_SQ),
        "square_scalar": scalar,
        "square_residual": square.scalar_residual(THETA_SQ),
        "square_is_nontrivial_in_su": abs(scalar - 1.0) > 0.5,
    }
    failures = [msg for failed, msg in (
        (word.antilinear, "seven-letter word unexpectedly antilinear"),
        (section["relation_residual"] > RESIDUAL_TOL, "seven-letter relation residual exceeds 1e-9"),
        (section["square_residual"] > RESIDUAL_TOL, "six-letter-word square is not theta^2 Id"),
        (not section["square_is_nontrivial_in_su"], "six-letter-word square is trivial in SU(2,1)"),
    ) if failed]
    return section, failures


# ---------------------------------------------------------------------------
# slice symmetries


def check_slice_symmetries(cfg: TriangleConfiguration):
    """The three assertions about the spine geodesics and the real plane:

    (a) R3 fixes c3 and d1 up to the scalar -theta^-2 (and c1 exactly,
        since c1 has real coordinates);
    (b) q = <c1,c3><c3,c2>/<c1,c2> has Arg = pi/6 mod pi, and <c1,c2>,
        <c3,c2> are real;
    (c) for each i the geodesics through (c_i, c_{i+1}) and (d_i, d_{i+1})
        lie in different complex lines, so share at most one point: for d_i
        or d_{i+1}, |det(c_i, c_{i+1}, d)| > RESIDUAL_TOL |c_i| |c_{i+1}| |d|
        in max norms.

    Returns the report section and a failure string for each assertion
    that fails.
    """
    if cfg.R3 is None:
        raise ValueError("mirror construction must run before the slice symmetry check")
    ctx = cfg.ctx

    def scalar_image_residual(vec):
        img = cfg.R3.apply(vec)
        want = vec.scale(-THETA_INV_SQ)
        scale = max(abs(x) for x in want.coords)
        return max(abs(a - w) for a, w in zip(img.coords, want.coords)) / scale

    # the scalar of an antilinear eigenvector depends on the representative:
    # R3 (lam v) = (conj(lam)/lam) mu (lam v).  The representative
    # conj(theta) c3 realizes the scalar -theta^-2, the same as d1's; any
    # unimodular scalar already certifies membership in the real plane.
    c3_residual = scalar_image_residual(cfg.c3.scale(THETA.conjugate()))
    d1_residual = scalar_image_residual(cfg.d1)
    c1_fixed = projectively_equal(cfg.R3.apply(cfg.c1), cfg.c1)

    # endpoint argument class, in the pairing orientation for which the
    # counterclockwise triangle bounds the disc (conjugate of the first-slot
    # products used elsewhere)
    c13 = complex(ctx.inner(cfg.c1, cfg.c3))
    c32 = complex(ctx.inner(cfg.c3, cfg.c2))
    c12 = complex(ctx.inner(cfg.c1, cfg.c2))
    q = (c13 * c32 / c12).conjugate()
    q_residual = abs(math.atan2(q.imag, q.real) % math.pi - math.pi / 6)

    cs = (cfg.c1, cfg.c2, cfg.c3)
    ds = (cfg.d1, cfg.d2, cfg.d3)
    distinct = []
    for i in range(3):
        frames = [(cs[i].coords, cs[(i + 1) % 3].coords, d.coords)
                  for d in (ds[i], ds[(i + 1) % 3])]
        distinct.append(any(
            abs(mat_det(m)) > RESIDUAL_TOL * math.prod(max(map(abs, row)) for row in m)
            for m in frames
        ))
    section = {
        "r3_c3_residual": c3_residual,
        "r3_d1_residual": d1_residual,
        "r3_c1_fixed": c1_fixed,
        "q_arg_mod_pi_residual": q_residual,
        "segment_geodesics_distinct": distinct,
    }
    failures = [msg for failed, msg in (
        (c3_residual > RESIDUAL_TOL or d1_residual > RESIDUAL_TOL,
         "antilinear generator does not fix the spine points as claimed"),
        (not c1_fixed, "antilinear generator does not fix c1"),
        (q_residual > RESIDUAL_TOL, "endpoint argument class is not pi/6 mod pi"),
        (not abs(c12.imag) < RESIDUAL_TOL * max(1.0, abs(c12)), "<c1,c2> is not real"),
        (not abs(c32.imag) < RESIDUAL_TOL * max(1.0, abs(c32)), "<c3,c2> is not real"),
        (not all(distinct), "segment geodesics coincide"),
    ) if failed]
    return section, failures


# ---------------------------------------------------------------------------
# Toledo invariant


# The endpoint argument class pi/6 mod pi has two branches in the reachable
# window (0, 2 pi), and tau = -(16/pi)(end - pi) on each: 7 pi/6 gives -8/3
# and pi/6 gives 40/3.  |tau| <= |chi| = 4 keeps -8/3 and rejects 40/3.
TOLEDO_BRANCH = Fraction(-8, 3)


def toledo(cfg: TriangleConfiguration):
    """The Toledo invariant in closed form: returns its pre-snap value and a
    failure string for each claim that fails.

    Tracks the argument of h(x) = conj(<c1,x><x,c2>/<c1,c2>) while x runs
    along the real segment x(s) = (1-s) c2 + s y, s in [0, 1], from c2 to
    y = -<c2,c3> c3 (projectively c3; the scale makes <c2,y> real
    negative, so the segment is the geodesic from c2 to c3).  The pairing
    is conjugated because that disc orientation makes the surface relation
    2(chi + e) = 3 tau come out coherent.  Both factors are linear in s,
    so h(s) = h0 + h1 s + h2 s^2 with h0 = <c2,c2> < 0 real, anchoring the
    continuous argument at pi, and Im h(s) = s (a + b s) with a = Im h1,
    b = Im h2.  When a < 0 and a + b < 0, h stays in the open lower half
    plane on (0, 1], so the argument ends in (pi, 2 pi) at the principal
    argument of h(1) plus 2 pi; any other sign pattern fails, with a NaN
    pre-snap value.  The invariant is tau = -(16/pi) V for the argument
    variation V.

    The end argument must lie in the class pi/6 mod pi of the endpoint
    value q = <c1,c3><c3,c2>/<c1,c2> in R theta-bar i: snapping tau to
    the nearest multiple of 2/3 must move it by at most 1e-6, and the
    snapped value must be TOLEDO_BRANCH, the one branch of that class
    that |tau| <= |chi| admits.
    """
    ctx = cfg.ctx
    c1, c2 = cfg.c1, cfg.c2
    y = cfg.c3.scale(-ctx.inner(c2, cfg.c3))
    c12 = ctx.inner(c1, c2)
    # <c1,x> = c12 + l1 s and <x,c2> = c22 + r1 s; Im conj(z) = -Im z
    c22 = ctx.inner(c2, c2)
    c1y = ctx.inner(c1, y)
    yc2 = ctx.inner(y, c2)
    l1 = c1y - c12
    r1 = yc2 - c22
    a = -(r1 + l1 * c22 / c12).imag
    a_plus_b = a - (l1 * r1 / c12).imag
    if not (certified_sign(a) is SignVerdict.NEGATIVE
            and certified_sign(a_plus_b) is SignVerdict.NEGATIVE):
        return math.nan, [
            f"Im h(s) = s (a + b s) with a = {mid(a)}, a + b = "
            f"{mid(a_plus_b)} is not negative on (0, 1]: out-of-regime parameter"
        ]
    h_end = mid((c1y * yc2 / c12).conjugate())
    end_branch = cmath.phase(h_end) + 2.0 * math.pi
    variation = end_branch - math.pi  # anchored at Arg <c2,c2> = pi
    presnap = -16.0 * variation / math.pi
    tau = snap_toledo(presnap)
    if tau is None:
        return presnap, [f"pre-snap Toledo value {presnap} is not within 1e-6 of a multiple of 2/3"]
    if tau != TOLEDO_BRANCH:
        return presnap, [f"closed-form tau {tau} is not the admissible branch {TOLEDO_BRANCH}"]
    return presnap, []


def snap_toledo(presnap: float):
    """The multiple of 2/3 within 1e-6 of ``presnap``; None if there is none."""
    tau = None if math.isnan(presnap) else Fraction(round(presnap * 3 / 2) * 2, 3)
    return tau if tau is not None and abs(presnap - float(tau)) <= 1e-6 else None


# ---------------------------------------------------------------------------
# Euler number side test and ledger


def euler_side_test(report: ConditionReport):
    """Decide the Euler number from the side on which f1 = R(q1)R(q3)w3
    lies: the sign of s = Im(<b2,f1><f1,e2>/<b2,e2>), which is condition
    6c, so its verdict and value are read from the condition report.
    Positive means the trivial bundle (e = 0); negative would mean
    e = -16.  Either outcome is 0 mod 8, the parity constraint on the
    example family.  A report whose 6c is undecided is a ValueError: the
    test runs only after the conditions certify."""
    verdict = report.verdicts.get("6c")
    if verdict is SignVerdict.POSITIVE:
        e = 0
    elif verdict is SignVerdict.NEGATIVE:
        e = -16
    else:
        raise ValueError(f"side test needs a decided 6c, not {verdict}")
    return {"s": mid(report.values["6c"]), "e": e, "verdict": verdict}


def invariant_ledger(e: int):
    """Ledger for the genus-3 surface, whose chi is the cake's (3 - 8 + 1 =
    -4) and whose tau is TOLEDO_BRANCH, with Euler number ``e``: it must
    satisfy 2(chi + e) = 3 tau exactly, in rational arithmetic, and e must
    be 0 mod 8.  Returns a failure string for each that fails."""
    chi = cake.EULER_CHARACTERISTIC
    return [f"invariant ledger fails: {msg}" for failed, msg in (
        (2 * (chi + e) != 3 * TOLEDO_BRANCH,
         f"ledger relation 2(chi+e)=3tau fails: chi={chi}, e={e}, tau={TOLEDO_BRANCH}"),
        (e % 8 != 0, f"e = {e} is not 0 mod 8"),
    ) if failed]


# ---------------------------------------------------------------------------
# published-value comparison


def published_match(cfg: TriangleConfiguration, report: ConditionReport):
    """Compare against the published two-decimal table at t = 2.22."""
    t1, t2 = mid(cfg.params.t1), mid(cfg.params.t2)
    rows = []

    def row(key, computed):
        printed = PRINTED_VALUES[key]
        delta = abs(computed - printed)
        ok = delta <= PUBLISHED_MATCH_RTOL * max(1.0, abs(printed))
        rows.append({"key": key, "printed": printed, "computed": computed, "ok": ok})

    row("t1", t1)
    row("t2", t2)
    for cid in CONDITION_IDS:
        if cid not in report.values:
            rows.append({"key": cid, "printed": PRINTED_VALUES[cid], "computed": None, "ok": False})
            continue
        row(cid, mid(report.values[cid]))
    return rows


# ---------------------------------------------------------------------------
# scans and certification


def scan(lo: float, hi: float, steps: int, backend_name: str = DEFAULT_BACKEND):
    """Evaluate the conditions (plus, on the fast backend, the angle sum and
    the relation residual) on an equispaced grid; per-row errors are
    recorded and the scan continues."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"scan range [{lo}, {hi}] is not finite")
    if steps > 1 and not lo < hi:
        raise ValueError("scan range requires lo < hi")
    backend = get_backend(backend_name)
    rows = []
    for k in range(steps):
        t = lo if steps == 1 else lo + (hi - lo) * k / (steps - 1)
        row = {"t": t, "status": "ok", "error": None, "report": None,
               "angle_sum": None, "relation_residual": None}
        try:
            cfg = build_configuration(t, backend)
            row["report"] = evaluate_conditions(cfg)
            if not backend.rigorous:
                mirror_construction(cfg)
                row["angle_sum"] = math.fsum(angles(cfg))
                row["relation_residual"] = check_relation(cfg)[0]["relation_residual"]
        except (DomainError, GeometryError) as exc:
            row["status"] = "error"
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def condition_enclosures(t_box):
    """Evaluator for certify_on_interval: all conditions on an enclosure of
    t.  On a range it uses Taylor-model (centered form) arithmetic, which
    keeps enclosure widths near |f'| * width(t) instead of blowing up with
    the dependency constant of the naive interval evaluation; on a point it
    computes on Intervals, like the rigorous backend.  Construction failures
    (enclosure too wide for a sqrt or a division, or overflowing) are
    reported as incomplete rather than raised."""
    backend = TaylorBackend.for_interval(t_box)
    try:
        cfg = build_configuration(backend.variable(), backend)
        complete, values = condition_items(cfg)
    except (DomainError, GeometryError):
        return False, []
    return complete, [(cid, required_positive(cid, v).range()) for cid, v in values.items()]


def certify_range(lo: float = CERTIFIED_RANGE[0], hi: float = CERTIFIED_RANGE[1],
                  max_depth: int = MAX_DEPTH) -> Certificate:
    """Certify all conditions over [lo, hi] with the rigorous backend."""
    if not lo > 1.5:
        raise ParameterDomainError(f"certification range [{lo}, {hi}] must have lo > 3/2")
    return certify_on_interval(condition_enclosures, lo, hi, max_depth)


def replay_range_certificate(cert: Certificate) -> bool:
    return replay_certificate(condition_enclosures, cert)


# ---------------------------------------------------------------------------
# full pipeline


def verify_all(t: float = PUBLISHED_T, backend_name: str = DEFAULT_BACKEND):
    """Run the whole verification pipeline at a single t and return a
    structured report (plain dict with stable key order)."""
    backend = get_backend(backend_name)
    report = {
        "schema_version": 4,
        "backend": backend_name,
        "parameters": {},
        "conditions": {},
        "relations": {},
        "invariants": {},
        "tolerances": {
            "zero_tol": DEFAULT_ZERO_TOL,
            "published_rtol": PUBLISHED_MATCH_RTOL,
            "residual_tol": RESIDUAL_TOL,
        },
        "passed": False,
        "failures": [],
    }
    failures = report["failures"]

    cfg = build_configuration(t, backend)
    t1, t2 = mid(cfg.params.t1), mid(cfg.params.t2)
    r1, r2 = parameter_residuals(cfg.params)
    report["parameters"] = {
        "t": t, "t1": t1, "t2": t2,
        "equation_residuals": [r1, r2],
    }

    cond = evaluate_conditions(cfg)
    report["conditions"] = {
        "values": {cid: mid(v) for cid, v in cond.values.items()},
        "verdicts": {cid: v.value for cid, v in cond.verdicts.items()},
        "complete": cond.complete,
    }
    failures += [f"condition {cid} not certified positive" for cid in CONDITION_IDS
                 if cond.verdicts.get(cid) is not SignVerdict.POSITIVE]

    if abs(t - PUBLISHED_T) < 1e-12:
        rows = published_match(cfg, cond)
        report["conditions"]["published_match"] = rows
        for r in rows:
            if not r["ok"]:
                failures.append(f"published value mismatch for {r['key']}")

    if not backend.rigorous and cond.all_positive:
        if mirror_construction(cfg)["trace_residual"] > RESIDUAL_TOL:
            failures.append("mirror construction trace residual exceeds 1e-9")
        relations, relation_failures = check_relation(cfg)
        symmetries, symmetry_failures = check_slice_symmetries(cfg)
        report["relations"] = {**relations, "symmetries": symmetries}
        beta = angles(cfg)
        angle_sum = math.fsum(beta)
        angle_sum_residual = abs(angle_sum - math.pi / 2)
        presnap, toledo_failures = toledo(cfg)
        tau = snap_toledo(presnap)
        e = euler_side_test(cond)["e"]
        failures += relation_failures + symmetry_failures + toledo_failures + invariant_ledger(e)
        if angle_sum_residual > RESIDUAL_TOL:
            failures.append("angle sum differs from pi/2")
        failures += cake.audit(cfg)
        report["invariants"] = {
            "angles": list(beta),
            "angle_sum": angle_sum,
            "angle_sum_residual": angle_sum_residual,
            "toledo": "undetermined" if tau is None else str(tau),
            "toledo_presnap": presnap,
            "euler": e,
            "cake": {
                "vertex_cycles": len(cake.VERTEX_ORBITS),
                "edge_pairs": len(cake.IDENTIFICATIONS),
                "euler_characteristic": cake.EULER_CHARACTERISTIC,
                "genus": cake.GENUS,
            },
        }

    report["passed"] = not failures
    return report


# ---------------------------------------------------------------------------
# rendering


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    return str(v)


def render_report_text(report: dict) -> str:
    lines = []
    lines.append(f"backend: {report['backend']}")
    p = report["parameters"]
    lines.append("[parameters]")
    for k in ("t", "t1", "t2"):
        lines.append(f"  {k} = {_fmt(p[k])}")
    lines.append(f"  equation residuals = {_fmt(p['equation_residuals'][0])}, "
                 f"{_fmt(p['equation_residuals'][1])}")
    lines.append("[conditions]")
    c = report["conditions"]
    for cid in CONDITION_IDS:
        if cid in c["values"]:
            lines.append(f"  ({cid}) {_fmt(c['values'][cid])}  [{c['verdicts'][cid]}]")
        else:
            lines.append(f"  ({cid}) unavailable")
    if "published_match" in c:
        lines.append("  published table match:")
        for row in c["published_match"]:
            mark = "ok" if row["ok"] else "MISMATCH"
            lines.append(f"    {row['key']}: printed {_fmt(row['printed'])} "
                         f"computed {_fmt(row['computed'])} [{mark}]")
    if report["relations"]:
        r = report["relations"]
        lines.append("[relations]")
        lines.append(f"  seven-letter relation residual = {_fmt(r['relation_residual'])}")
        lines.append(f"  square scalar = {_fmt(r['square_scalar'])} "
                     f"(residual {_fmt(r['square_residual'])})")
        sym = r["symmetries"]
        lines.append(f"  spine-point residuals = {_fmt(sym['r3_c3_residual'])}, "
                     f"{_fmt(sym['r3_d1_residual'])}")
        lines.append(f"  endpoint argument class residual = "
                     f"{_fmt(sym['q_arg_mod_pi_residual'])}")
    if report["invariants"]:
        inv = report["invariants"]
        lines.append("[invariants]")
        lines.append(f"  angle sum = {_fmt(inv['angle_sum'])} "
                     f"(residual {_fmt(inv['angle_sum_residual'])})")
        lines.append(f"  Toledo = {inv['toledo']} (pre-snap {_fmt(inv['toledo_presnap'])})")
        lines.append(f"  Euler = {inv['euler']}")
        cake_inv = inv["cake"]
        lines.append(f"  cake: {cake_inv['vertex_cycles']} vertex cycles, "
                     f"{cake_inv['edge_pairs']} edge pairs, "
                     f"chi = {cake_inv['euler_characteristic']}, "
                     f"genus = {cake_inv['genus']}")
    lines.append("[tolerances]")
    for k, v in report["tolerances"].items():
        lines.append(f"  {k} = {_fmt(v)}")
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    for f in report["failures"]:
        lines.append(f"  failure: {f}")
    return "\n".join(lines) + "\n"


def render_report_structured(report: dict) -> str:
    """Deterministic nested key = value rendering with stable key order."""
    lines = []

    def emit(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                emit(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix} = {_fmt(obj)}")

    emit("", report)
    return "\n".join(lines) + "\n"


SCAN_COLUMNS = (
    "t", "cond_3", "cond_4a", "cond_4b", "cond_5", "cond_6a",
    "cond_6b_re", "cond_6b_im", "cond_6c", "cond_7a", "cond_7b", "cond_7c",
    "cond_8", "angle_sum", "relation_residual", "status",
)


def scan_to_csv(rows) -> str:
    out = [",".join(SCAN_COLUMNS)]
    for row in rows:
        rec = {k: "" for k in SCAN_COLUMNS}
        rec["t"] = _fmt(row["t"])
        rec["status"] = row["status"]
        rep = row["report"]
        if rep is not None:
            for cid, value in rep.values.items():
                v = mid(value)
                if cid == "6b":
                    rec["cond_6b_re"] = _fmt(v.real)
                    rec["cond_6b_im"] = _fmt(v.imag)
                else:
                    rec[f"cond_{cid}"] = _fmt(v)
        if row["angle_sum"] is not None:
            rec["angle_sum"] = _fmt(row["angle_sum"])
        if row["relation_residual"] is not None:
            rec["relation_residual"] = _fmt(row["relation_residual"])
        out.append(",".join(rec[k] for k in SCAN_COLUMNS))
    return "\n".join(out) + "\n"


def certificate_lines(cert: Certificate):
    """Line-delimited certificate: a header, then one flat record per leaf.
    Endpoints are written with ``repr``, which reads back as the same float,
    so the file holds exactly the leaves that were certified; ``order`` is
    the Taylor model order of the evaluator."""
    lines = [
        f"# certificate status={cert.status} lo={cert.lo!r} hi={cert.hi!r} "
        f"max_depth={cert.max_depth} order={numerics.TAYLOR_ORDER} "
        f"leaves={len(cert.leaves)} evaluations={cert.evaluations}"
    ]
    if cert.failure is not None:
        lines.append(f"# failure lo={cert.failure[0]!r} hi={cert.failure[1]!r} "
                     f"condition={cert.failure[2]}")
    for leaf in cert.leaves:
        lines.append(f"{leaf.lo!r} {leaf.hi!r} {leaf.condition} {leaf.verdict}")
    return lines
