"""Combinatorics of the 16-triangle cake and the five-generator cover.

The relator R3 R1 R2 R3 R2 R1 R3 R1 R2 R3 R2 R1 defines twelve subwords
W_i; the twelve triangles W_i (Delta or Delta'), plus four attachments
W_2 R3, W_5 R3, W_8 R3, W_11 R3, tile the cake.  Its sixteen unglued
boundary sides are paired by eight identification isometries I_1..I_8.
Their 32 ends meet in the 16 corners of the declared table CORNER_CLASSES;
the orbits of those corners under the pairings give the 3 - 8 + 1 = -4
Euler characteristic of a genus 3 surface.  The boundary cycle, orbits,
Euler characteristic and genus follow from the tables alone and are
module constants computed once at import.  A configuration is audited by
``audit``: the corner table, the mapping tables, the identifications and
the five-generator presentation each report their failures as strings.

Slices are represented by their polar points, so every statement reduces
to a projective equality of vectors.
"""

from __future__ import annotations

import math

from .hermitian import RESIDUAL_TOL, Isometry, projectively_equal
from .construction import THETA_INV_SQ, TriangleConfiguration, angles

# generator indices into cfg.reflections()
R0, R1, R2, R3 = 0, 1, 2, 3

RELATOR = (R3, R1, R2, R3, R2, R1, R3, R1, R2, R3, R2, R1)

# bound on the involution residuals X_i^2 - Id of the five-generator cover
H5_INVOLUTION_TOL = 1e-10


def subword(i: int):
    """W_i, the length-i prefix of the relator, as a letter tuple."""
    if not 0 <= i <= 12:
        raise ValueError("subword index must be in 0..12")
    return RELATOR[:i]


def realize_word(letters, cfg: TriangleConfiguration) -> Isometry:
    """Juxtaposition acts on the left: the rightmost letter applies first.

    A word is composed once per configuration, as its prefix times its last
    letter (((Id R_a) R_b) R_c, left to right), and then served from
    ``cfg.cake_memo``; most cake words are relator prefixes, so they share
    the compositions of the shorter ones."""
    letters = tuple(letters)
    iso = cfg.cake_memo.get(letters)
    if iso is None:
        if not letters:
            iso = Isometry.identity(cfg.ctx)
        else:
            gen = cfg.reflections()[letters[-1]]
            if gen is None:
                raise ValueError(f"word uses R{letters[-1]} before the mirror construction ran")
            iso = realize_word(letters[:-1], cfg) * gen
        cfg.cake_memo[letters] = iso
    return iso


# ---------------------------------------------------------------------------
# mapping tables


def _slice_point(cfg, k):
    return (cfg.p1, cfg.p2, cfg.p3)[k - 1]


def _spine_point(cfg, k):
    return (cfg.c1, cfg.c2, cfg.c3)[k - 1]


# the identities of the subword tables: (label, word letters, source
# basis index, target basis index) for W C_src = C_dst
MAPPING_TABLE = (
    ("R1 C1 = C2", (R1,), 1, 2), ("R1 C2 = C1", (R1,), 2, 1),
    ("R2 C2 = C3", (R2,), 2, 3), ("R2 C3 = C2", (R2,), 3, 2),
    ("R3 C1 = C1", (R3,), 1, 1), ("R3 C3 = C3", (R3,), 3, 3),
    *((f"W{i} C1 = C1", subword(i), 1, 1) for i in (1, 6, 7, 12)),
    *((f"W{i} C2 = C1", subword(i), 2, 1) for i in (2, 5, 8, 11)),
    *((f"W{i} C3 = C1", subword(i), 3, 1) for i in (3, 4, 9, 10)),
)


def verify_mapping_tables(cfg: TriangleConfiguration):
    """Each MAPPING_TABLE identity on the slices, checked as W p_src prop
    p_dst, and on the spine points (label in lower case), plus one
    deliberate negative control, an identity absent from the tables.
    Returns a failure string for each mismatch."""
    failures = []
    for label, letters, src, dst in MAPPING_TABLE:
        w = realize_word(letters, cfg)
        for form, point in ((label, _slice_point), (label.replace("C", "c"), _spine_point)):
            if not projectively_equal(w.apply(point(cfg, src)), point(cfg, dst)):
                failures.append(f"mapping-table identity mismatch at {form}")
    if projectively_equal(realize_word(subword(1), cfg).apply(cfg.p2), cfg.p1):
        failures.append("mapping-table identity mismatch at W1 C2 = C1 (negative control)")
    return failures


# ---------------------------------------------------------------------------
# boundary sides and identifications

# each boundary side is (triangle label, begin slice, end slice); a slice is
# (word letters, basis index).  The list order is not the boundary order:
# BOUNDARY_CYCLE walks the sides through CORNER_CLASSES.
W2R3 = subword(2) + (R3,)
W5R3 = subword(5) + (R3,)
W8R3 = subword(8) + (R3,)
W11R3 = subword(11) + (R3,)

BOUNDARY_SIDES = (
    ("Delta12", ((), 2), ((), 3)),
    ("Delta13", (W2R3, 3), (W2R3, 2)),
    ("Delta13", (W2R3, 1), (W2R3, 2)),
    ("Delta4", (subword(4), 2), (subword(4), 1)),
    ("Delta3", (subword(3), 2), (subword(3), 1)),
    ("Delta14", (W5R3, 1), (W5R3, 2)),
    ("Delta14", (W5R3, 3), (W5R3, 2)),
    ("Delta7", (subword(7), 2), (subword(7), 3)),
    ("Delta6", (subword(6), 2), (subword(6), 3)),
    ("Delta15", (W8R3, 3), (W8R3, 2)),
    ("Delta15", (W8R3, 1), (W8R3, 2)),
    ("Delta10", (subword(10), 2), (subword(10), 1)),
    ("Delta9", (subword(9), 2), (subword(9), 1)),
    ("Delta16", (W11R3, 1), (W11R3, 2)),
    ("Delta16", (W11R3, 3), (W11R3, 2)),
    ("Delta1", (subword(1), 2), (subword(1), 3)),
)

# identification isometries: name, word, source side index, target side index
IDENTIFICATIONS = (
    ("I1", subword(2) + (R3, R2), 0, 1),
    ("I2", subword(4) + (R1, R3) + tuple(reversed(subword(2))), 2, 3),
    ("I3", subword(5) + (R3, R1) + tuple(reversed(subword(3))), 4, 5),
    ("I4", subword(7) + (R2, R3) + tuple(reversed(subword(5))), 6, 7),
    ("I5", subword(8) + (R3, R2) + tuple(reversed(subword(6))), 8, 9),
    ("I6", subword(10) + (R1, R3) + tuple(reversed(subword(8))), 10, 11),
    ("I7", subword(11) + (R3, R1) + tuple(reversed(subword(9))), 12, 13),
    ("I8", subword(1) + (R2, R3) + tuple(reversed(subword(11))), 14, 15),
)

# the sixteen triangles: label -> (word letters, primed orientation flag)
TRIANGLES = tuple(
    [(f"Delta{i}", subword(i), i in (1, 2, 3, 7, 8, 9)) for i in range(1, 13)]
    + [("Delta13", W2R3, False), ("Delta14", W5R3, True),
       ("Delta15", W8R3, False), ("Delta16", W11R3, True)]
)


def _slice_vector(cfg, slice_ref):
    # memoized next to the words: a (letters, k) key never equals a word key,
    # whose entries are letters, not tuples
    vec = cfg.cake_memo.get(slice_ref)
    if vec is None:
        letters, k = slice_ref
        vec = realize_word(letters, cfg).apply(_slice_point(cfg, k))
        cfg.cake_memo[slice_ref] = vec
    return vec


def verify_identifications(cfg: TriangleConfiguration):
    """Each identification must preserve the form and send the begin/end
    slices of its source side to the begin/end slices of its target side.
    Returns a failure string for each part that fails."""
    failures = []
    for name, letters, src, dst in IDENTIFICATIONS:
        iso = realize_word(letters, cfg)
        # the inverse-word letters were appended reversed; each letter is an
        # involution, so reversal alone realizes the inverse
        form_res = iso.form_residual([(cfg.p1, cfg.p2), (cfg.p2, cfg.p3), (cfg.c1, cfg.d3)])
        if not form_res < RESIDUAL_TOL:
            failures.append(f"identification {name} form residual "
                            f"{form_res:.3e} exceeds {RESIDUAL_TOL:.0e}")
        ends = zip(("begin", "end"), BOUNDARY_SIDES[src][1:], BOUNDARY_SIDES[dst][1:])
        for end, s_ref, t_ref in ends:
            if not projectively_equal(iso.apply(_slice_vector(cfg, s_ref)),
                                      _slice_vector(cfg, t_ref)):
                failures.append(f"identification {name} {end} endpoint mismatch")
    return failures


# ---------------------------------------------------------------------------
# cake assembly


# the corner coincidences of the published cake: each class is the pair of
# side ends (side index, "begin" | "end") whose slices coincide.  Classes are
# numbered by their first corner in BOUNDARY_SIDES order.
CORNER_CLASSES = (
    ((0, "begin"), (13, "begin")), ((0, "end"), (15, "end")),
    ((1, "begin"), (4, "begin")), ((1, "end"), (2, "end")),
    ((2, "begin"), (15, "begin")), ((3, "begin"), (6, "begin")),
    ((3, "end"), (4, "end")), ((5, "begin"), (8, "begin")),
    ((5, "end"), (6, "end")), ((7, "begin"), (10, "begin")),
    ((7, "end"), (8, "end")), ((9, "begin"), (12, "begin")),
    ((9, "end"), (10, "end")), ((11, "begin"), (14, "begin")),
    ((11, "end"), (12, "end")), ((13, "end"), (14, "end")),
)


def _boundary_cycle():
    # walk the boundary as an undirected cycle from side 0: each corner class
    # joins two sides (the published side orientations follow the pairing
    # declarations, not the boundary orientation)
    neighbours = {si: [] for si in range(len(BOUNDARY_SIDES))}
    for (a, _), (b, _) in CORNER_CLASSES:
        neighbours[a].append(b)
        neighbours[b].append(a)
    cycle = [0]
    while len(cycle) < len(BOUNDARY_SIDES):
        cycle.append(next(si for si in neighbours[cycle[-1]] if si not in cycle))
    return tuple(cycle)


def _vertex_orbits():
    # union corner classes across each pairing (begin with begin, end with
    # end); orbits come out ordered by their least class index
    class_of = {corner: idx for idx, cls in enumerate(CORNER_CLASSES) for corner in cls}
    parent = list(range(len(CORNER_CLASSES)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for _, _, src, dst in IDENTIFICATIONS:
        for end in ("begin", "end"):
            parent[find(class_of[(dst, end)])] = find(class_of[(src, end)])
    orbits = {}
    for idx in range(len(CORNER_CLASSES)):
        orbits.setdefault(find(idx), []).append(idx)
    return tuple(frozenset(v) for v in orbits.values())


BOUNDARY_CYCLE = _boundary_cycle()
VERTEX_ORBITS = _vertex_orbits()
# the cake is one disc: V - E + F with F = 1
EULER_CHARACTERISTIC = len(VERTEX_ORBITS) - len(IDENTIFICATIONS) + 1
GENUS = (2 - EULER_CHARACTERISTIC) // 2


def _corner_vector(cfg, corner):
    side, end = corner
    _, begin_ref, end_ref = BOUNDARY_SIDES[side]
    return _slice_vector(cfg, begin_ref if end == "begin" else end_ref)


def build_cake(cfg: TriangleConfiguration):
    """Check CORNER_CLASSES at a built configuration: the two corners of
    each class coincide (16 projective equalities), and the first corner of
    each class differs from the first corner of every earlier class (120),
    so the table names 16 distinct corner points, each shared by two sides.
    Returns the failure found first, as a one-string list, or []."""
    firsts = []
    for idx, (first, second) in enumerate(CORNER_CLASSES):
        vec = _corner_vector(cfg, first)
        if not projectively_equal(vec, _corner_vector(cfg, second)):
            return [f"corners {first} and {second} of class {idx} do not coincide"]
        for earlier, other in enumerate(firsts):
            if projectively_equal(other, vec):
                return [f"corner classes {earlier} and {idx} coincide"]
        firsts.append(vec)
    return []


# ---------------------------------------------------------------------------
# five-generator presentation


H5_WORDS = (
    ("X1", (R1,)),
    ("X2", (R2,)),
    ("X3", (R3, R2, R3)),
    ("X4", (R3, R1, R3)),
    ("X5", (R0,)),
)


def h5_presentation_check(cfg: TriangleConfiguration):
    """The index-2 cover generators: each X_i is linear (even R3 count) and
    an involution, and X5 X4 X3 X2 X1 is the scalar theta^-2.  Returns a
    failure string for each part that fails."""
    realized = {name: realize_word(letters, cfg) for name, letters in H5_WORDS}
    failures = []
    for name, iso in realized.items():
        if iso.antilinear:
            failures.append(f"five-generator {name} is antilinear")
        residual = (iso * iso).scalar_residual(1.0)
        if not residual < H5_INVOLUTION_TOL:
            failures.append(f"five-generator {name} involution residual "
                            f"{residual:.3e} exceeds {H5_INVOLUTION_TOL:.0e}")
    product = (
        realized["X5"] * realized["X4"] * realized["X3"] * realized["X2"] * realized["X1"]
    )
    residual = product.scalar_residual(THETA_INV_SQ)
    if not residual < RESIDUAL_TOL:
        failures.append(f"five-generator product residual {residual:.3e} "
                        f"exceeds {RESIDUAL_TOL:.0e}")
    return failures


def audit(cfg: TriangleConfiguration):
    """Run the corner, mapping-table, identification and five-generator
    checks.  Returns their counts (report keys) and, in that order, their
    failure strings."""
    failures = build_cake(cfg) + verify_mapping_tables(cfg) + verify_identifications(cfg)
    h5_failures = h5_presentation_check(cfg)
    counts = {
        # each identity in its slice and its point form, plus the control
        "mapping_table_count": 2 * len(MAPPING_TABLE) + 1,
        "identification_count": len(IDENTIFICATIONS),
        "h5_ok": not h5_failures,
    }
    return counts, failures + h5_failures


# ---------------------------------------------------------------------------
# audit dump


def _word_name(letters):
    if not letters:
        return "Id"
    return ".".join(f"R{k}" for k in letters)


def dump(cfg: TriangleConfiguration) -> str:
    """Plain-text audit tables: triangles, boundary sides in cyclic order,
    pairings, vertex orbits, and a summary with the angle residual
    |4 (b1 + b2 + b3) - 2 pi| of the twelve sectors at the central slice."""
    angle_residual = abs(4.0 * sum(angles(cfg)) - 2.0 * math.pi)
    lines = ["[triangles]"]
    for label, letters, primed in TRIANGLES:
        base = "base'" if primed else "base"
        lines.append(f"  {label}: {_word_name(letters)} {base}")
    lines.append("[boundary sides, cyclic order]")
    for si in BOUNDARY_CYCLE:
        label, begin, end = BOUNDARY_SIDES[si]
        lines.append(
            f"  side {si}: {label} "
            f"[{_word_name(begin[0])} C{begin[1]} -> {_word_name(end[0])} C{end[1]}]"
        )
    lines.append("[pairings]")
    for name, letters, src, dst in IDENTIFICATIONS:
        lines.append(f"  {name} = {_word_name(letters)}: side {src} -> side {dst}")
    lines.append("[vertex orbits]")
    for k, orbit in enumerate(VERTEX_ORBITS):
        lines.append(f"  orbit {k}: corner classes {sorted(orbit)}")
    lines.append(
        f"[summary] triangles={len(TRIANGLES)} "
        f"edge_pairs={len(IDENTIFICATIONS)} vertex_cycles={len(VERTEX_ORBITS)} "
        f"chi={EULER_CHARACTERISTIC} genus={GENUS} "
        f"angle_cycle_residual={angle_residual:.3e}"
    )
    return "\n".join(lines) + "\n"
