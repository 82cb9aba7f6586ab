"""Cake combinatorics: subwords, the rewriting that derives the cake's
equalities from the presentation, mapping tables, identifications, the
assembled 16-triangle surface, and the five-generator presentation."""

import math
import re
from dataclasses import replace

import pytest

from cakecheck import cake, construction, verification
from cakecheck.cake import (
    BOUNDARY_CYCLE,
    BOUNDARY_SIDES,
    CORNER_CLASSES,
    EULER_CHARACTERISTIC,
    GENUS,
    H5_WORDS,
    IDENTIFICATIONS,
    MAPPING_TABLE,
    R0,
    R1,
    R2,
    R3,
    RELATOR,
    TRIANGLES,
    VERTEX_ORBITS,
    W2R3,
    W5R3,
    W8R3,
    W11R3,
    build_cake,
    h5_presentation_check,
    normal_form,
    realize_word,
    subword,
    verify_identifications,
    verify_mapping_tables,
)
from cakecheck.cli import EXIT_FAIL, main
from cakecheck.construction import THETA_INV_SQ, angles, build_configuration, mirror_construction
from cakecheck.hermitian import (
    RESIDUAL_TOL,
    GramContext,
    Isometry,
    coinciding_pairs,
    projectively_equal,
)
from cakecheck.numerics import RIGOROUS
from cakecheck.verification import verify_all


def test_relator_shape():
    assert len(RELATOR) == 12
    assert RELATOR[:6] == RELATOR[6:]
    assert subword(0) == ()
    assert subword(12) == RELATOR
    with pytest.raises(ValueError):
        subword(13)


def test_realized_words(cfg222):
    w0 = realize_word(subword(0), cfg222)
    assert not w0.antilinear
    assert w0.scalar_residual(1.0) < 1e-12
    w2 = realize_word(subword(2), cfg222)
    assert w2.antilinear  # one R3 letter
    w12 = realize_word(subword(12), cfg222)
    assert not w12.antilinear
    s = w12.scalar_part()
    assert abs(abs(s) - 1.0) < 1e-9
    assert w12.scalar_residual(s) < 1e-9


def _mirrored(t=2.22):
    cfg = build_configuration(t)
    mirror_construction(cfg)
    return cfg


def _compose_from_identity(letters, cfg):
    gens = cfg.reflections()
    iso = Isometry.identity(cfg.ctx)
    for k in letters:
        iso = iso * gens[k]
    return iso


def _assert_same_isometry(a, b, label):
    assert a.m == b.m, label
    assert a.antilinear == b.antilinear, label


CAKE_WORDS = (
    [subword(i) for i in range(13)]
    + [W2R3, W5R3, W8R3, W11R3]
    + [letters for _, letters, _, _ in IDENTIFICATIONS]
    + [letters for _, letters in H5_WORDS]
)


def test_memoized_words_are_bit_identical():
    # each word is composed from the identity, letter by letter, every time
    cfg, ref = _mirrored(), _mirrored()
    for calls in ("first", "second"):
        for letters in CAKE_WORDS:
            _assert_same_isometry(realize_word(letters, cfg),
                                  _compose_from_identity(letters, ref), (calls, letters))


def test_verify_composes_each_word_once(monkeypatch):
    count = [0]
    mul = Isometry.__mul__

    def counting(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(Isometry, "__mul__", counting)
    assert verify_all(2.22)["passed"]
    # composing every cake word from the identity took 629, 102 while the
    # relation check composed its own twelve letters, 90 while the mirror
    # checked R(m2') R(m1') against the product, and 89 while the cake
    # composed its words; now the mirror composes 3 and the relation 8
    assert count[0] == 11


def test_verify_reads_each_value_once(monkeypatch):
    counts = {"mid": 0, "inner": 0}
    mid = verification.mid
    inner = GramContext.inner

    def counting_mid(x):
        counts["mid"] += 1
        return mid(x)

    def counting_inner(self, u, v):
        counts["inner"] += 1
        return inner(self, u, v)

    for module in (verification, construction):
        monkeypatch.setattr(module, "mid", counting_mid)
    monkeypatch.setattr(GramContext, "inner", counting_inner)
    assert verify_all(2.22)["passed"]
    # 1986 and 154 while the residual checks copied every coordinate
    # through FastBackend.mid and toledo() formed <c1,y> and <y,c2> twice;
    # 152 while the slice check drew six geodesics to compare their ends and
    # the mirror renormalized m1', m2' and probed R3 with four pairs; 94
    # while it found m1' through a geodesic parameter, 91 while the cake
    # measured the identifications' form residuals, 43 while condition 7
    # formed its six products <p_i, x>, <x, p_j> as inner products rather
    # than reading them off the covectors of c1, c2, c3, 37 while angles()
    # formed the same six products.  The 30 plain values read are the two
    # parameter residuals, t1 and t2 for the report and for the published
    # table, the 11 condition values for each, toledo's end value and the
    # side test's s: once as 3 complex and 27 real reads through the
    # backend
    assert counts["mid"] == 30
    assert counts["inner"] == 25


def test_word_needs_mirror():
    cfg = build_configuration(2.22)
    # an R3-free word realized first must not let an R3 word through
    realize_word((R1, R2, R1), cfg)
    with pytest.raises(ValueError):
        realize_word(subword(1), cfg)
    mirror_construction(cfg)
    ref = _mirrored()
    for letters in (subword(1), (R1, R2, R1), subword(12)):
        _assert_same_isometry(realize_word(letters, cfg),
                              _compose_from_identity(letters, ref), letters)


def test_word_error_names_the_missing_generator():
    cfg = build_configuration(2.22)
    for k in (R0, R3):
        with pytest.raises(ValueError, match=f"word uses R{k} before the mirror construction"):
            realize_word((R1, k), cfg)


def test_memo_is_per_configuration(cfg222):
    # a word is realized from the generators of the configuration it is given
    realize_word((R1,), cfg222)
    swapped = replace(cfg222, R1=cfg222.R2)
    _assert_same_isometry(realize_word((R1,), swapped),
                          _compose_from_identity((R2,), cfg222), "R1 := R2")
    _assert_same_isometry(realize_word((R1,), cfg222),
                          _compose_from_identity((R1,), cfg222), "R1")


def _derived_rows():
    """Every equality the audit derives, as (name, word, point index, the
    slice it equals); a spine form negates its point indices.  A mapping-table
    row and a corner equal their normal forms, an identification endpoint
    the end of the target side."""
    rows = []
    for label, letters, src, dst in MAPPING_TABLE:
        rows += [(label, letters, src, ((), dst)), (label.lower(), letters, -src, ((), -dst))]
    for idx, cls in enumerate(CORNER_CLASSES):
        for side, end in cls:
            letters, k = BOUNDARY_SIDES[side][1 if end == "begin" else 2]
            rows.append((f"corner {side} {end} of class {idx}", letters, k,
                         normal_form(letters, k)))
    for name, letters, src, dst in IDENTIFICATIONS:
        for e, end in ((1, "begin"), (2, "end")):
            (s_letters, s_k), target = BOUNDARY_SIDES[src][e], BOUNDARY_SIDES[dst][e]
            assert normal_form(letters + s_letters, s_k) == normal_form(*target), name
            rows.append((f"{name} {end}", letters + s_letters, s_k, target))
    return rows


def _point(cfg, k):
    return (cfg.p1, cfg.p2, cfg.p3)[k - 1] if k > 0 else (cfg.c1, cfg.c2, cfg.c3)[-k - 1]


@pytest.mark.parametrize("t", [1.6, 2.13, 2.22, 2.34, 30.0])
def test_derived_rows_hold_in_floats(t):
    """The float re-checks the derivation replaced: each derived row's word,
    composed as one matrix, sends its point to the point of the slice it
    equals, each X_i^2 is the identity and X5 X4 X3 X2 X1 is theta^-2."""
    cfg = _mirrored(t)
    for name, letters, k, (e_letters, e_k) in _derived_rows():
        expected = realize_word(e_letters, cfg).apply(_point(cfg, e_k))
        assert projectively_equal(realize_word(letters, cfg).apply(_point(cfg, k)), expected), name
    for name, letters in H5_WORDS:
        assert realize_word(letters + letters, cfg).scalar_residual(1.0) < 1e-10, name
    product = realize_word(sum((w for _, w in reversed(H5_WORDS)), ()), cfg)
    assert product.scalar_residual(THETA_INV_SQ) < 1e-9


def test_normal_forms():
    # applying the letter rows first reduces every declared row; the 16
    # corner classes have 16 distinct normal forms of at most 6 letters
    assert cake._derive_mapping_table(MAPPING_TABLE) == ()
    failures, forms = cake._derive_corners(CORNER_CLASSES, BOUNDARY_SIDES)
    assert failures == () and len(set(forms)) == 16
    assert max(len(letters) for letters, _ in forms) == 6
    # the rules: a letter row, a doubled letter, and a relator subword of 7
    # letters replaced by the inverse of the other 5
    assert normal_form((R2, R1), 1) == ((), 3)
    assert normal_form((R3, R1, R1, R3)) == ((), None)
    assert normal_form(RELATOR[:7]) == (RELATOR[7:][::-1], None)
    assert normal_form(RELATOR) == normal_form(RELATOR[::-1]) == ((), None)
    # the negative control does not reduce: W1 C2 = C1 stays R3 C2 = C1
    assert normal_form(subword(1), 2) == ((R3,), 2)
    # X5 X4 X3 X2 X1 reduces freely to R0 W6
    assert normal_form(sum((w for _, w in reversed(H5_WORDS)), ())) == ((R0,) + subword(6), None)


def test_derivation_runs_once_per_tables(cfg222, monkeypatch):
    calls = [0]
    reduce = cake.normal_form

    def counting(*args):
        calls[0] += 1
        return reduce(*args)

    cake.audit(cfg222)
    monkeypatch.setattr(cake, "normal_form", counting)
    # a new table is derived once, 32 corners; the negative control was
    # derived at import, so a repeat audit rewrites nothing (it rewrote the
    # control on every audit before)
    monkeypatch.setattr(cake, "CORNER_CLASSES", CORNER_CLASSES[1:] + CORNER_CLASSES[:1])
    cake.audit(cfg222)
    assert calls[0] == 32
    calls[0] = 0
    assert cake.audit(cfg222) == []
    assert calls[0] == 0


def test_mapping_tables(cfg222, monkeypatch):
    # 18 identities derived; at the configuration the 6 letter rows in their
    # slice and point forms, and the control: 13 point comparisons
    assert len(MAPPING_TABLE) == len({label for label, *_ in MAPPING_TABLE}) == 18
    calls = [0]
    equal = cake.projectively_equal

    def counting(u, v):
        calls[0] += 1
        return equal(u, v)

    monkeypatch.setattr(cake, "projectively_equal", counting)
    assert verify_mapping_tables(cfg222) == []
    assert calls[0] == 2 * len(cake.LETTER_ROWS) + 1 == 13
    monkeypatch.undo()
    # the negative control is live: with p2 := p1 its identity holds, and
    # the letter rows that move C1 or C2 fail in their slice form
    assert verify_mapping_tables(replace(cfg222, p2=cfg222.p1)) == [
        "mapping-table identity mismatch at R1 C1 = C2",
        "mapping-table identity mismatch at R1 C2 = C1",
        "mapping-table identity mismatch at R2 C2 = C3",
        "mapping-table identity mismatch at R2 C3 = C2",
        "mapping-table identity mismatch at W1 C2 = C1 (negative control)",
    ]
    # a letter row that no longer holds at the configuration fails in the
    # form that moved
    assert verify_mapping_tables(replace(cfg222, c3=cfg222.c2)) == [
        "mapping-table identity mismatch at R2 c2 = c3",
        "mapping-table identity mismatch at R2 c3 = c2",
        "mapping-table identity mismatch at R3 c3 = c3",
    ]


def test_failed_mapping_table_names_its_label(cfg222, monkeypatch):
    # R1 swaps C1 and C2, so this row does not reduce to C3: it is named
    # once, as a row the presentation does not derive
    monkeypatch.setattr(cake, "MAPPING_TABLE", MAPPING_TABLE + (("R1 C1 = C3", (R1,), 1, 3),))
    assert cake.audit(cfg222) == ["mapping-table identity not derived at R1 C1 = C3"]
    monkeypatch.undo()
    assert cake.audit(cfg222) == []


def test_identifications(cfg222, monkeypatch):
    assert verify_identifications(cfg222) == []
    assert [name for name, *_ in IDENTIFICATIONS] == [f"I{k}" for k in range(1, 9)]
    # I1 realized by I2's word maps neither end of side 0 to side 1's
    name, _, src, dst = IDENTIFICATIONS[0]
    monkeypatch.setattr(cake, "IDENTIFICATIONS",
                        ((name, IDENTIFICATIONS[1][1], src, dst),) + IDENTIFICATIONS[1:])
    assert verify_identifications(cfg222) == [
        "identification I1 begin endpoint not derived",
        "identification I1 end endpoint not derived",
    ]


def test_every_side_in_exactly_one_pairing():
    seen = []
    for _, _, src, dst in IDENTIFICATIONS:
        seen.extend([src, dst])
    assert sorted(seen) == list(range(len(BOUNDARY_SIDES)))


def _angle_cycle_residual(cfg):
    # the twelve sector angles at the central slice sum to 4(b1+b2+b3) = 2 pi
    return abs(4.0 * sum(angles(cfg)) - 2.0 * math.pi)


def test_build_cake(cfg222):
    assert build_cake(cfg222) == []
    assert len(TRIANGLES) == 16
    assert len(BOUNDARY_SIDES) == 16
    assert len(IDENTIFICATIONS) == 8
    assert len(VERTEX_ORBITS) == 3
    assert EULER_CHARACTERISTIC == -4
    assert GENUS == 3
    assert len(BOUNDARY_CYCLE) == 16
    assert sorted(len(o) for o in VERTEX_ORBITS) == [4, 4, 8]
    # the cyclic order follows the corner table, not the order of
    # BOUNDARY_SIDES
    assert BOUNDARY_CYCLE == (0, 13, 14, 11, 12, 9, 10, 7, 8, 5, 6, 3, 4, 1, 2, 15)
    assert sorted(sorted(o) for o in VERTEX_ORBITS) == [
        [0, 2, 7, 11], [1, 3, 6, 8, 10, 12, 14, 15], [4, 5, 9, 13]]
    assert _angle_cycle_residual(cfg222) < 1e-8


def test_corner_table_covers_each_side_end_once():
    ends = [corner for cls in CORNER_CLASSES for corner in cls]
    assert len(CORNER_CLASSES) == 16
    assert sorted(ends) == sorted((si, end) for si in range(16) for end in ("begin", "end"))
    assert sorted(BOUNDARY_CYCLE) == list(range(16))


@pytest.mark.parametrize("t", [1.51, 1.6, 2.13, 2.34, 3.0, 100.0])
def test_corner_table_holds_across_the_range(t):
    cfg = _mirrored(t)
    assert build_cake(cfg) == []
    assert _angle_cycle_residual(cfg) < 1e-8


def test_coinciding_classes_are_a_reconstruction_error(cfg222, monkeypatch):
    # class 1 declared as class 0 read backwards: its corners coincide, but
    # its first corner is class 0's point
    monkeypatch.setattr(cake, "CORNER_CLASSES", (CORNER_CLASSES[0], CORNER_CLASSES[0][::-1])
                        + CORNER_CLASSES[2:])
    assert build_cake(cfg222) == ["corner classes 0 and 1 coincide"]


def test_verify_checks_the_corner_table_not_a_scan(monkeypatch):
    counts = {"pairs": 0, "single": 0}
    pairs, equal = cake.coinciding_pairs, cake.projectively_equal

    def counting_pairs(points):
        counts["pairs"] += len(points) * (len(points) - 1) // 2
        return pairs(points)

    def counting(u, v):
        counts["single"] += 1
        return equal(u, v)

    monkeypatch.setattr(cake, "coinciding_pairs", counting_pairs)
    monkeypatch.setattr(cake, "projectively_equal", counting)
    monkeypatch.setattr(verification, "projectively_equal", counting)
    assert verify_all(2.22)["passed"]
    # 316 comparisons while build_cake rediscovered the corner classes by an
    # all-pairs scan, 196 while the slice check compared segment-geodesic
    # endpoints, 190 while the cake re-checked its derived equalities in
    # floats; now the 120 separations of the 16 corner points in one pass, and
    # 14 single comparisons: 12 letter rows, the control and R3 c1 = c1
    assert counts == {"pairs": 120, "single": 14}


def _corner_points(cfg):
    _, forms = cake._derive_corners(CORNER_CLASSES, BOUNDARY_SIDES)
    return cake._slice_vectors(cfg, forms), forms


def _minor_pairs(points):
    # every pair whose three 2x2 minors are within RESIDUAL_TOL times the
    # product of the two points' largest coordinate magnitudes
    found = []
    for j, v in enumerate(points):
        for i in range(j):
            a, b = points[i].coords, v.coords
            tol = RESIDUAL_TOL * (max(max(abs(x) for x in a), 1e-300)
                                  * max(max(abs(x) for x in b), 1e-300))
            if all(abs(a[r] * b[s] - a[s] * b[r]) <= tol for r, s in ((0, 1), (0, 2), (1, 2))):
                found.append((i, j))
    return found


@pytest.mark.parametrize("t, expected", [
    (2.22, 0), (1.6e8, 0), (1.7e8, 2), (1e9, 5), (1e12, 6),
])
def test_separation_kernel_finds_the_minor_pairs(t, expected):
    cfg = _mirrored(t)
    points, forms = _corner_points(cfg)
    # each shared suffix gives the bits of the letters applied one by one
    for point, (letters, k) in zip(points, forms):
        ref = _point(cfg, k)
        for letter in reversed(letters):
            ref = cfg.reflections()[letter].apply(ref)
        assert point.coords == ref.coords, (letters, k)
    pairs = coinciding_pairs(points)
    assert pairs == _minor_pairs(points)
    assert len(pairs) == expected
    assert all(projectively_equal(points[i], points[j]) == ((i, j) in pairs)
               for j in range(16) for i in range(j))
    assert build_cake(cfg) == [f"corner classes {i} and {j} coincide" for i, j in pairs]


def test_separation_kernel_rejects_enclosures():
    cfg = build_configuration(2.22, RIGOROUS)
    with pytest.raises(TypeError):
        coinciding_pairs((cfg.p1, cfg.p2))
    with pytest.raises(TypeError):
        projectively_equal(cfg.p1, cfg.p1)


def test_cake_applies_each_corner_suffix_once(cfg222, monkeypatch):
    count = [0]
    apply = Isometry.apply

    def counting(self, v):
        count[0] += 1
        return apply(self, v)

    monkeypatch.setattr(Isometry, "apply", counting)
    # 47 while each corner point applied all its letters; the 16 corner forms
    # share suffixes and have 24 distinct (suffix, C_k)
    assert build_cake(cfg222) == []
    assert count[0] == 24
    count[0] = 0
    # 72 while the cake applied 47
    assert verify_all(2.22)["passed"]
    assert count[0] == 49


def test_build_cake_deterministic(cfg222):
    assert build_cake(cfg222) == build_cake(cfg222) == []
    assert cake._boundary_cycle() == BOUNDARY_CYCLE
    assert cake._vertex_orbits() == VERTEX_ORBITS


def test_h5_presentation(cfg222):
    # every X_i linear with X_i^2 reduced to the empty word, and the product
    # reduced to R0 W6
    assert h5_presentation_check(cfg222) == []
    assert cake.audit(cfg222) == []


@pytest.mark.parametrize("index, letters, expected", [
    # X5 := R1 is still a linear involution; only the product breaks
    (4, (R1,), [r"five-generator product not derived"]),
    # X3 := R3 R2 has one antilinear letter and is no involution
    (2, (R3, R2), [r"five-generator X3 is antilinear",
                   r"five-generator X3 involution not derived",
                   r"five-generator product not derived"]),
], ids=["product", "X3"])
def test_failed_h5_part_is_named(index, letters, expected, monkeypatch, capsys):
    name = H5_WORDS[index][0]
    monkeypatch.setattr(cake, "H5_WORDS",
                        H5_WORDS[:index] + ((name, letters),) + H5_WORDS[index + 1:])
    for argv in (["verify"], ["cake"]):
        assert main(argv) == EXIT_FAIL, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = [line[len("  failure: "):] for line in captured.out.splitlines()
                 if line.startswith("  failure: ")]
        assert len(lines) == len(expected), (argv, lines)
        for line, pattern in zip(lines, expected):
            assert re.fullmatch(pattern, line), (argv, line)
    failures = verify_all(2.22)["failures"]
    assert len(failures) == len(expected)
    assert all(re.fullmatch(p, f) for p, f in zip(expected, failures)), failures


def test_dump_audit_tables(cfg222):
    text = cake.dump(cfg222)
    assert "[triangles]" in text
    assert "[pairings]" in text
    assert "edge_pairs=8" in text and "vertex_cycles=3" in text and "genus=3" in text
    for k in range(1, 9):
        assert f"I{k} = " in text
