"""Combinatorics of the 16-triangle cake and the five-generator cover.

The relator R3 R1 R2 R3 R2 R1 R3 R1 R2 R3 R2 R1 defines twelve subwords
W_i; the twelve triangles W_i (Delta or Delta'), plus four attachments
W_2 R3, W_5 R3, W_8 R3, W_11 R3, tile the cake.  Its sixteen unglued
boundary sides are paired by eight identification isometries I_1..I_8.
Their 32 ends meet in the 16 corners of the declared table CORNER_CLASSES;
the orbits of those corners under the pairings give the 3 - 8 + 1 = -4
Euler characteristic of a genus 3 surface.  The boundary cycle, orbits,
Euler characteristic and genus follow from the tables alone and are
module constants computed once at import.

Slices are represented by their polar points.  Every equality the tables
declare follows from the letter rows, R_i^2 = 1 and the relator (which the
relation check checks), and ``normal_form`` derives it, once per table and
process.  At a configuration ``audit`` checks only what does not follow:
the 12 letter rows, 120 separations of the corner points and a negative
control.  Each check returns its failures as strings.
"""

from __future__ import annotations

import functools
import math

from .hermitian import Isometry, coinciding_pairs, projectively_equal
from .construction import TriangleConfiguration, angles

# generator indices into cfg.reflections()
R0, R1, R2, R3 = 0, 1, 2, 3

RELATOR = (R3, R1, R2, R3, R2, R1, R3, R1, R2, R3, R2, R1)


def subword(i: int):
    """W_i, the length-i prefix of the relator, as a letter tuple."""
    if not 0 <= i <= 12:
        raise ValueError("subword index must be in 0..12")
    return RELATOR[:i]


def _generator(cfg, letter):
    gen = cfg.reflections()[letter]
    if gen is None:
        raise ValueError(f"word uses R{letter} before the mirror construction ran")
    return gen


def realize_word(letters, cfg: TriangleConfiguration) -> Isometry:
    """The isometry of a word, composed from the identity left to right
    (((Id R_a) R_b) R_c); juxtaposition acts on the left, so the rightmost
    letter applies first."""
    iso = Isometry.identity(cfg.ctx)
    for letter in letters:
        iso = iso * _generator(cfg, letter)
    return iso


def _slice_vectors(cfg, slice_refs):
    """The polar points of the slices (letters, k): p_k with the letters
    applied one by one, rightmost first.  Within one call each (suffix, k)
    is applied once and shared by the slices that end in it."""
    points = {((), k): p for k, p in enumerate((cfg.p1, cfg.p2, cfg.p3), 1)}

    def point(letters, k):
        if (letters, k) not in points:
            points[letters, k] = _generator(cfg, letters[0]).apply(point(letters[1:], k))
        return points[letters, k]

    return [point(letters, k) for letters, k in slice_refs]


# ---------------------------------------------------------------------------
# mapping tables


# the identities of the subword tables: (label, word letters, source basis
# index, target basis index) for W C_src = C_dst; the letter rows come first:
# R1 swaps C1 and C2, R2 swaps C2 and C3, and R3 fixes C1 and C3
LETTER_ROWS = (
    ("R1 C1 = C2", (R1,), 1, 2), ("R1 C2 = C1", (R1,), 2, 1),
    ("R2 C2 = C3", (R2,), 2, 3), ("R2 C3 = C2", (R2,), 3, 2),
    ("R3 C1 = C1", (R3,), 1, 1), ("R3 C3 = C3", (R3,), 3, 3),
)
MAPPING_TABLE = (
    *LETTER_ROWS,
    *((f"W{i} C1 = C1", subword(i), 1, 1) for i in (1, 6, 7, 12)),
    *((f"W{i} C2 = C1", subword(i), 2, 1) for i in (2, 5, 8, 11)),
    *((f"W{i} C3 = C1", subword(i), 3, 1) for i in (3, 4, 9, 10)),
)


@functools.cache
def _rewriting_rules():
    # (letter, k) -> k' for the letter rows, and each rotation of the relator
    # or of its inverse (the relator reversed) keyed by its first half + 1 letters
    rows = {(letters[0], src): dst for _, letters, src, dst in LETTER_ROWS}
    m, n = len(RELATOR), len(RELATOR) // 2 + 1
    return rows, {rr[i:i + n]: rr[i:i + m] for rr in (RELATOR * 2, RELATOR[::-1] * 2)
                  for i in range(m)}, n


def normal_form(letters, k=None):
    """The slice (letters, C_k), or the word alone for k None, rewritten by the
    first rule that applies until none does: the rightmost letter's letter
    row; cancel the first doubled letter; replace the first subword of over
    half a relator rotation, as long as it matches, by the inverse of the
    rest.  Each rule shortens the word and follows from the presentation, so
    equal normal forms prove two slices equal; the rules are not complete."""
    rows, rotations, n = _rewriting_rules()
    w = tuple(letters)
    while w:
        if (w[-1], k) in rows:
            w, k = w[:-1], rows[w[-1], k]
            continue
        i = next((i for i in range(len(w) - 1) if w[i] == w[i + 1]), None)
        if i is not None:
            w = w[:i] + w[i + 2:]
            continue
        i = next((i for i in range(len(w) - n + 1) if w[i:i + n] in rotations), None)
        if i is None:
            break
        rot, j = rotations[w[i:i + n]], n
        while j < len(rot) and i + j < len(w) and w[i + j] == rot[j]:
            j += 1
        w = w[:i] + rot[j:][::-1] + w[i + j:]
    return w, k


# a slice identity absent from the tables, W1 C2 = C1, in its normal form
NEGATIVE_CONTROL = normal_form(subword(1), 2)


@functools.cache
def _derive_mapping_table(table):
    return tuple(f"mapping-table identity not derived at {label}"
                 for label, letters, src, dst in table if normal_form(letters, src) != ((), dst))


def verify_mapping_tables(cfg: TriangleConfiguration):
    """Each MAPPING_TABLE row derived; at ``cfg`` each letter row on the
    slices, as R p_src prop p_dst, and on the spine points (label in lower
    case), and a negative control absent from the tables, W1 C2 = C1 in its
    normal form R3 C2 = C1.  Returns a failure string for each row not
    derived and each mismatch."""
    failures = list(_derive_mapping_table(MAPPING_TABLE))
    slices, spines = (cfg.p1, cfg.p2, cfg.p3), (cfg.c1, cfg.c2, cfg.c3)
    for label, (letter,), src, dst in LETTER_ROWS:
        gen = _generator(cfg, letter)
        for form, points in ((label, slices), (label.replace("C", "c"), spines)):
            if not projectively_equal(gen.apply(points[src - 1]), points[dst - 1]):
                failures.append(f"mapping-table identity mismatch at {form}")
    if projectively_equal(_slice_vectors(cfg, (NEGATIVE_CONTROL,))[0], cfg.p1):
        failures.append("mapping-table identity mismatch at W1 C2 = C1 (negative control)")
    return failures


# ---------------------------------------------------------------------------
# boundary sides and identifications

# each boundary side is (triangle label, begin slice, end slice); a slice is
# (word letters, basis index).  The list order is not the boundary order:
# BOUNDARY_CYCLE walks the sides through CORNER_CLASSES.
W2R3, W5R3, W8R3, W11R3 = (subword(i) + (R3,) for i in (2, 5, 8, 11))

BOUNDARY_SIDES = (
    ("Delta12", ((), 2), ((), 3)), ("Delta13", (W2R3, 3), (W2R3, 2)),
    ("Delta13", (W2R3, 1), (W2R3, 2)), ("Delta4", (subword(4), 2), (subword(4), 1)),
    ("Delta3", (subword(3), 2), (subword(3), 1)), ("Delta14", (W5R3, 1), (W5R3, 2)),
    ("Delta14", (W5R3, 3), (W5R3, 2)), ("Delta7", (subword(7), 2), (subword(7), 3)),
    ("Delta6", (subword(6), 2), (subword(6), 3)), ("Delta15", (W8R3, 3), (W8R3, 2)),
    ("Delta15", (W8R3, 1), (W8R3, 2)), ("Delta10", (subword(10), 2), (subword(10), 1)),
    ("Delta9", (subword(9), 2), (subword(9), 1)), ("Delta16", (W11R3, 1), (W11R3, 2)),
    ("Delta16", (W11R3, 3), (W11R3, 2)), ("Delta1", (subword(1), 2), (subword(1), 3)),
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


@functools.cache
def _derive_identifications(identifications, sides):
    return tuple(f"identification {name} {end} endpoint not derived"
                 for name, letters, src, dst in identifications
                 for i, end in ((1, "begin"), (2, "end"))
                 if normal_form(letters + sides[src][i][0], sides[src][i][1])
                 != normal_form(*sides[dst][i]))


def verify_identifications(cfg: TriangleConfiguration):
    """Each identification sends the begin/end slices of its source side to
    those of its target side, derived (it preserves the form because its
    letters do).  Returns a failure for each endpoint not derived."""
    return list(_derive_identifications(IDENTIFICATIONS, BOUNDARY_SIDES))


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


@functools.cache
def _derive_corners(classes, sides):
    # the failures, and the normal form of each class's first corner
    forms = [[normal_form(*sides[side][1 if end == "begin" else 2]) for side, end in cls]
             for cls in classes]
    return (tuple(f"corners {first} and {second} of class {idx} not derived to coincide"
                  for idx, ((first, second), (a, b)) in enumerate(zip(classes, forms)) if a != b),
            tuple(a for a, _ in forms))


def build_cake(cfg: TriangleConfiguration):
    """CORNER_CLASSES names 16 distinct corner points, each shared by two
    sides: the corners of each class coincide, derived (16 rows), and at
    ``cfg`` the points of their normal forms differ (120 separations, one
    pass of ``coinciding_pairs``).
    Returns a failure for each row not derived and each coinciding pair."""
    failures, forms = _derive_corners(CORNER_CLASSES, BOUNDARY_SIDES)
    return list(failures) + [f"corner classes {earlier} and {idx} coincide"
                             for earlier, idx in coinciding_pairs(_slice_vectors(cfg, forms))]


# ---------------------------------------------------------------------------
# five-generator presentation


H5_WORDS = (("X1", (R1,)), ("X2", (R2,)), ("X3", (R3, R2, R3)), ("X4", (R3, R1, R3)),
            ("X5", (R0,)))


@functools.cache
def _derive_h5(words):
    failures = [f"five-generator {name} is antilinear"
                for name, letters in words if letters.count(R3) % 2]
    failures += [f"five-generator {name} involution not derived"
                 for name, letters in words if normal_form(letters + letters) != ((), None)]
    product = tuple(letter for _, letters in reversed(words) for letter in letters)
    if normal_form(product) != ((R0,) + subword(6), None):
        failures.append("five-generator product not derived")
    return tuple(failures)


def h5_presentation_check(cfg: TriangleConfiguration):
    """The index-2 cover generators, derived: each X_i is linear (even R3
    count) and an involution, and X5 X4 X3 X2 X1 = R0 W6, theta^-2 by the
    relation.  Returns a failure string for each part that fails."""
    return list(_derive_h5(H5_WORDS))


def audit(cfg: TriangleConfiguration):
    """Run the corner, mapping-table, identification and five-generator
    checks.  Returns their failure strings, in that order."""
    return (build_cake(cfg) + verify_mapping_tables(cfg) + verify_identifications(cfg)
            + h5_presentation_check(cfg))


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
    angle_residual = abs(4.0 * math.fsum(angles(cfg)) - 2.0 * math.pi)
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
