"""Acceptance gate: the ten primary criteria, one printed pass/fail line
each.  Tolerances are pinned here and intentionally duplicated from the
library defaults, so a silent default change cannot weaken the gate."""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

from cakecheck.construction import (
    THETA_SQ,
    build_configuration,
    mirror_construction,
    parameter_residuals,
    angles,
)
from cakecheck.hermitian import (
    closest_axis_point,
    mat_det,
    mat_max_abs,
    mat_max_abs_diff,
    projectively_equal,
    reflection,
)
from cakecheck import cake
from cakecheck.verification import (
    CONDITION_IDS,
    TOLEDO_BRANCH,
    check_slice_symmetries,
    check_relation,
    certify_range,
    euler_side_test,
    evaluate_conditions,
    invariant_ledger,
    published_match,
    replay_range_certificate,
    toledo,
)
from helpers import (
    PointClass, as_floats, classify, form_residual, geodesic_through, half_shift,
    stationarity_residual, trace_identities_check,
)


def _report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_published_table(cfg222, capsys):
    rep = evaluate_conditions(cfg222)
    rows = published_match(cfg222, rep)
    ok = rep.complete and all(
        r["ok"] and abs(r["computed"] - r["printed"]) <= 0.02 * max(1.0, abs(r["printed"]))
        for r in rows
    )
    _, t1, t2 = as_floats(cfg222.params)
    ok = ok and abs(t1 - 2.23) < 0.005 and abs(t2 - 3.22) < 0.005
    _report(capsys, 1, "published value table reproduced at t = 2.22 "
            "(tolerance 0.02 * max(1, |printed|))", ok)


def test_criterion_02_group_relation(cfg222, capsys):
    rel, failures = check_relation(cfg222)
    ok = rel["relation_residual"] < 1e-9 and failures == []
    rng = random.Random(2)
    for _ in range(20):
        cfg = build_configuration(rng.uniform(2.13, 2.34))
        mirror_construction(cfg)
        rel, failures = check_relation(cfg)
        ok = ok and failures == []
        ok = ok and rel["relation_residual"] < 1e-9
        ok = ok and rel["square_residual"] < 1e-9
        ok = ok and abs(rel["square_scalar"] - THETA_SQ) < 1e-9
    _report(capsys, 2, "seven-letter relation = theta^-2 Id and PU-trivial, "
            "SU-nontrivial square at 2.22 and 20 random t", ok)


def test_criterion_03_angle_sum(capsys):
    ok = True
    for k in range(50):
        t = 1.6 + (3.0 - 1.6) * k / 49
        try:
            cfg = build_configuration(t)
        except ValueError:
            continue
        if not evaluate_conditions(cfg).all_positive:
            continue
        ok = ok and abs(sum(angles(cfg)) - math.pi / 2) < 1e-9
    _report(capsys, 3, "angle sum beta1+beta2+beta3 = pi/2 wherever the "
            "conditions certify (tolerance 1e-9)", ok)


def test_criterion_04_toledo(cfg222, capsys):
    presnap, failures = toledo(cfg222)  # fails unless the snapped value is TOLEDO_BRANCH
    ok = failures == [] and TOLEDO_BRANCH == Fraction(-8, 3)
    ok = ok and abs(presnap - float(TOLEDO_BRANCH)) < 1e-6
    # the class pi/6 mod pi ends at pi/6 or 7 pi/6 in (0, 2 pi), where
    # tau = -16 (end/pi - 1); |tau| <= |chi| keeps one branch of the two
    chi = abs(cake.EULER_CHARACTERISTIC)
    branches = [-16 * (end - 1) for end in (Fraction(1, 6), Fraction(7, 6))]
    ok = ok and [tau for tau in branches if abs(tau) <= chi] == [TOLEDO_BRANCH]
    ok = ok and [tau for tau in branches if abs(tau) > chi] == [Fraction(40, 3)]
    _report(capsys, 4, "Toledo invariant snaps to -8/3 (pre-snap < 1e-6 off), "
            "branch logic rejects 40/3 via |tau| <= 4", ok)


def test_criterion_05_euler_and_ledger(cfg222, capsys):
    side = euler_side_test(evaluate_conditions(cfg222))
    ok = invariant_ledger(side["e"]) == []
    ok = ok and side["e"] == 0 and side["e"] % 8 == 0
    ok = ok and 2 * (cake.EULER_CHARACTERISTIC + side["e"]) == 3 * TOLEDO_BRANCH
    # a double cover doubles chi, e and tau: the genus-2 surface below
    cover_chi, cover_e, cover_tau = (Fraction(cake.EULER_CHARACTERISTIC, 2),
                                     Fraction(side["e"], 2), TOLEDO_BRANCH / 2)
    ok = ok and (cover_chi, cover_e, cover_tau) == (-2, 0, Fraction(-4, 3))
    ok = ok and 2 * (cover_chi + cover_e) == 3 * cover_tau
    _report(capsys, 5, "side test gives e = 0; 2(chi+e) = 3 tau exact for the "
            "genus-3 surface and the genus-2 surface it double-covers; e = 0 mod 8", ok)


def test_criterion_06_range_certification(capsys):
    t0 = time.perf_counter()
    cert = certify_range(2.13, 2.34)
    elapsed = time.perf_counter() - t0
    ok = cert.certified
    for cid in CONDITION_IDS:
        spans = sorted((l.lo, l.hi) for l in cert.leaves if l.condition == cid)
        ok = ok and spans[0][0] == 2.13 and spans[-1][1] == 2.34
        ok = ok and all(b == c for (_, b), (c, _) in zip(spans, spans[1:]))
    ok = ok and replay_range_certificate(cert)
    ok = ok and elapsed < 300.0
    _report(capsys, 6, "all conditions certified over [2.13, 2.34] with a "
            f"replayable bisection certificate ({len(cert.leaves)} leaves, "
            f"{elapsed:.0f} s)", ok)


def test_criterion_07_identity_property_suites(cfg222, capsys):
    ctx = cfg222.ctx
    rng = random.Random(7)

    def rand_vec():
        return ctx.vector(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(3)))

    def rand_nonisotropic(floor=0.1):
        while True:
            v = rand_vec()
            if abs(float(ctx.norm2(v))) > floor:
                return v

    def rand_point(cls):
        while True:
            v = rand_nonisotropic()
            if classify(ctx, v) is cls:
                return v

    ok = True
    # trace identities, 1000 trials, < 1e-10
    for _ in range(1000):
        res = trace_identities_check(rand_nonisotropic(), rand_nonisotropic(),
                                     rand_nonisotropic())
        ok = ok and all(r < 1e-10 for r in res)
    # reflection involution / determinant / form preservation, 1000 trials
    probes = [(rand_vec(), rand_vec()) for _ in range(2)]
    for _ in range(1000):
        p = rand_nonisotropic()
        r = reflection(p)
        big = max(1.0, mat_max_abs(r.m) ** 2)
        ok = ok and (r * r).scalar_residual(1.0) < 1e-9 * big
        ok = ok and abs(complex(mat_det(r.m)) - 1.0) < 1e-9 * big * mat_max_abs(r.m)
        ok = ok and form_residual(r, probes) < 1e-9 * big
    # tance scale- and isometry-invariance, 1000 trials
    for _ in range(1000):
        x, y = rand_nonisotropic(), rand_nonisotropic()
        base = float(ctx.tance(x, y))
        scale = max(1.0, abs(base))
        lam = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        ok = ok and abs(float(ctx.tance(x.scale(lam), y)) - base) < 1e-9 * scale
        r = reflection(rand_nonisotropic())
        ok = ok and abs(float(ctx.tance(r.apply(x), r.apply(y))) - base) < 1e-9 * scale
    # closest axis point and two-reflection decomposition of a loxodromic
    # iso = R(g')R(g): 1000 closest-point checks, 1000 round trips
    done_lox = done_cp = 0
    while done_lox < 1000 or done_cp < 1000:
        a = rand_point(PointClass.NEGATIVE)
        b = rand_point(PointClass.NEGATIVE)
        if float(ctx.tance(a, b)) < 1.1:
            continue
        try:
            geo = geodesic_through(a, b)
        except ValueError:
            continue
        xa, xb = geo.param_of(a), geo.param_of(b)
        u, w = sorted((rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)))
        if w - u < 0.15:
            continue
        x, xp = xa * (xb / xa) ** u, xa * (xb / xa) ** w
        g, gp = geo.point(x), geo.point(xp)
        iso = reflection(gp) * reflection(g)
        if complex(iso.trace()).real < 3.01:
            continue
        r = (xp / x) ** 2
        if done_cp < 1000:
            p = rand_point(PointClass.POSITIVE)
            g1, g2 = geo.point(1.0), geo.point(2.0)
            val = (complex(ctx.inner(g1, p)) * complex(ctx.inner(p, g2))
                   / complex(ctx.inner(g1, g2)))
            if abs(val.imag) < 1e-3 * abs(val):
                continue
            y = closest_axis_point(iso, r, p)
            xs = geo.param_of(y)
            ok = ok and stationarity_residual(geo, p, y) < 1e-9
            best = -float(ctx.tance(y, p))
            for k in range(-5, 6):
                ok = ok and best <= -float(ctx.tance(geo.point(xs * math.exp(0.1 * k)), p)) + 1e-12
            prod = reflection(half_shift(iso, y)) * reflection(y)
            ok = ok and mat_max_abs_diff(prod.m, iso.m) < 1e-8 * max(1.0, mat_max_abs(iso.m))
            done_cp += 1
        if done_lox < 1000:
            g2_ = closest_axis_point(iso, r, geo.v1.scale(x) - geo.v2.scale(1.0 / x))
            gp2 = half_shift(iso, g2_)
            prod = reflection(gp2) * reflection(g2_)
            ok = ok and projectively_equal(g2_, g) and projectively_equal(gp2, gp)
            ok = ok and mat_max_abs_diff(prod.m, iso.m) < 1e-8 * max(1.0, mat_max_abs(iso.m))
            done_lox += 1
    # the two midpoint displays, 1000 trials (delegated formula check)
    from test_hermitian import _midpoint_display_case
    done = 0
    while done < 1000:
        ctx2, p1, m1, m2, t, t1, t2, lam = _midpoint_display_case(rng)
        rl = lam.real
        den = (t1 + t2 - 1) ** 2 + t * t - 2 * t * (t1 + t2 - 1) * rl
        if abs(den) < 1e-3:
            continue
        lhs = (complex(ctx2.inner(p1, m2)) * complex(ctx2.inner(m1, m1))
               / (complex(ctx2.inner(m1, m2)) * complex(ctx2.inner(p1, m1)))).real
        rhs = 1 + (t * t - t * t1 + t1 * t1 - (t2 - 1) ** 2 + t * t1 * (1 - 2 * rl)) / den
        ok = ok and abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
        lhs2 = complex((reflection(m2) * reflection(m1) * reflection(p1)).trace())
        rhs2 = (2 * t * (lam.conjugate() - 1)
                + (2 * t * t1 - t - t1 + 1 - 2 * t2) / (t1 - 1)
                - (t * t - t * t1 + t1 * t1 - (t2 - 1) ** 2
                   + t * (t1 + t2 - 1) * (1 - 2 * rl)) / ((t1 - 1) * (t2 - 1)))
        ok = ok and abs(lhs2 - rhs2) < 1e-9 * max(1.0, abs(rhs2))
        done += 1
    _report(capsys, 7, "identity property suites (trace identities, midpoint "
            "displays, reflections, tance invariance, loxodromic round trip, "
            "closest point), 1000 seeded trials each", ok)


def test_criterion_08_construction_grid(capsys):
    ok = True
    hits = 0
    for k in range(50):
        t = 1.6 + (3.0 - 1.6) * k / 49
        try:
            cfg = build_configuration(t)
            res = mirror_construction(cfg)
        except ValueError:
            continue
        hits += 1
        r1, r2 = parameter_residuals(cfg.params)
        ok = ok and r1 < 1e-11 and r2 < 1e-11
        _, t1, t2 = as_floats(cfg.params)
        ok = ok and t2 > t1
        ctx = cfg.ctx
        ok = ok and abs(float(ctx.norm2(cfg.m1)) + 1.0) < 1e-10
        ok = ok and abs(float(ctx.norm2(cfg.m2)) + 1.0) < 1e-10
        if cfg.w3 is not None:
            scale = max(abs(x) for x in cfg.w3.coords) ** 2
            ok = ok and abs(float(ctx.norm2(cfg.w3))) < 1e-9 * scale
        ok = ok and res["trace_residual"] < 1e-9
        ok = ok and res["gram_residual"] < 1e-9
    ok = ok and hits >= 40
    _report(capsys, 8, "construction invariants on the 50-point grid: equation "
            "residuals < 1e-11, t2 > t1, unit midpoints, isotropic w3, "
            "trace 2t, conjugated mirror Gram", ok)


def test_criterion_09_cake_audit(cfg222, capsys):
    ok = cake.build_cake(cfg222) == []
    ok = ok and (len(cake.IDENTIFICATIONS) == 8 and len(cake.VERTEX_ORBITS) == 3
                 and cake.EULER_CHARACTERISTIC == -4 and cake.GENUS == 3)
    ok = ok and cake.verify_mapping_tables(cfg222) == []
    ok = ok and cake.audit(cfg222) == [] and len(cake.MAPPING_TABLE) == 18
    # the negative control is live: with p2 := p1 its identity holds
    ok = ok and ("mapping-table identity mismatch at W1 C2 = C1 (negative control)"
                 in cake.verify_mapping_tables(replace(cfg222, p2=cfg222.p1)))
    ok = ok and cake.verify_identifications(cfg222) == []
    ok = ok and cake.h5_presentation_check(cfg222) == []
    _report(capsys, 9, "cake audit: 8 edge pairs, 3 vertex cycles, chi = -4, "
            "genus 3; mapping tables, identifications and the five-generator "
            "presentation all verified", ok)


def test_criterion_10_slice_symmetries(cfg222, capsys):
    cor, failures = check_slice_symmetries(cfg222)
    ok = failures == [] and cor["r3_c3_residual"] < 1e-9 and cor["r3_d1_residual"] < 1e-9
    ok = ok and cor["q_arg_mod_pi_residual"] < 1e-9
    ok = ok and cor["segment_geodesics_distinct"] == [True, True, True]
    _report(capsys, 10, "spine fixed points of the antilinear generator, "
            "endpoint argument class pi/6 mod pi, segment geodesics distinct", ok)
