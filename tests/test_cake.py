"""Cake combinatorics: subwords, mapping tables, identifications, the
assembled 16-triangle surface, and the five-generator presentation."""

import math
import re
from dataclasses import replace

import pytest

from cakecheck import cake, verification
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
    realize_word,
    subword,
    verify_identifications,
    verify_mapping_tables,
)
from cakecheck.cli import EXIT_FAIL, main
from cakecheck.construction import angles, build_configuration, mirror_construction
from cakecheck.hermitian import GramContext, Isometry
from cakecheck.numerics import FastBackend
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
    cfg, ref = _mirrored(), _mirrored()
    for calls in ("first", "memoized"):
        for letters in CAKE_WORDS:
            _assert_same_isometry(realize_word(letters, cfg),
                                  _compose_from_identity(letters, ref), (calls, letters))


def test_verify_composes_each_word_once(monkeypatch):
    count = [0]
    compose = Isometry.compose

    def counting(self, other):
        count[0] += 1
        return compose(self, other)

    monkeypatch.setattr(Isometry, "compose", counting)
    assert verify_all(2.22)["passed"]
    # composing every cake word from the identity took 629, 102 while the
    # relation check composed its own twelve letters, and 90 while the
    # mirror checked R(m2') R(m1') against the product
    assert count[0] <= 89


def test_verify_reads_each_value_once(monkeypatch):
    counts = {"mid": 0, "inner": 0}
    mid = FastBackend.mid
    inner = GramContext.inner

    def counting_mid(self, z):
        counts["mid"] += 1
        return mid(self, z)

    def counting_inner(self, u, v):
        counts["inner"] += 1
        return inner(self, u, v)

    monkeypatch.setattr(FastBackend, "mid", counting_mid)
    monkeypatch.setattr(GramContext, "inner", counting_inner)
    assert verify_all(2.22)["passed"]
    # 1986 and 154 while the residual checks copied every coordinate
    # through FastBackend.mid and toledo() formed <c1,y> and <y,c2> twice;
    # 152 while the slice check drew six geodesics to compare their ends and
    # the mirror renormalized m1', m2' and probed R3 with four pairs; 94
    # while it found m1' through a geodesic parameter
    assert counts["mid"] <= 3
    assert counts["inner"] <= 91


def test_word_needs_mirror():
    cfg = build_configuration(2.22)
    # an R3-free word realized first must not let an R3 word through the memo
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
    realize_word((R1,), cfg222)
    swapped = replace(cfg222, R1=cfg222.R2)
    _assert_same_isometry(realize_word((R1,), swapped),
                          _compose_from_identity((R2,), cfg222), "R1 := R2")
    _assert_same_isometry(realize_word((R1,), cfg222),
                          _compose_from_identity((R1,), cfg222), "R1")


def test_mapping_tables(cfg222):
    assert verify_mapping_tables(cfg222) == []
    # 18 identities x slice+point forms + control
    assert len(MAPPING_TABLE) == len({label for label, *_ in MAPPING_TABLE}) == 18
    assert cake.audit(cfg222)[0]["mapping_table_count"] == 37
    # the negative control is live: with p2 := p1 its identity holds
    assert verify_mapping_tables(replace(cfg222, p2=cfg222.p1))[-1] == (
        "mapping-table identity mismatch at W1 C2 = C1 (negative control)")


def test_failed_mapping_table_names_its_label(cfg222, monkeypatch):
    # R1 swaps C1 and C2, so this identity fails in both forms
    monkeypatch.setattr(cake, "MAPPING_TABLE", MAPPING_TABLE + (("R1 C1 = C3", (R1,), 1, 3),))
    assert cake.audit(cfg222)[1] == [
        "mapping-table identity mismatch at R1 C1 = C3",
        "mapping-table identity mismatch at R1 c1 = c3",
    ]


def test_identifications(cfg222, monkeypatch):
    assert verify_identifications(cfg222) == []
    assert [name for name, *_ in IDENTIFICATIONS] == [f"I{k}" for k in range(1, 9)]
    # I1 realized by I2's word maps neither end of side 0 to side 1's
    name, _, src, dst = IDENTIFICATIONS[0]
    monkeypatch.setattr(cake, "IDENTIFICATIONS",
                        ((name, IDENTIFICATIONS[1][1], src, dst),) + IDENTIFICATIONS[1:])
    assert verify_identifications(cfg222) == [
        "identification I1 begin endpoint mismatch",
        "identification I1 end endpoint mismatch",
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
    count = [0]
    equal = cake.projectively_equal

    def counting(u, v):
        count[0] += 1
        return equal(u, v)

    monkeypatch.setattr(cake, "projectively_equal", counting)
    monkeypatch.setattr(verification, "projectively_equal", counting)
    assert verify_all(2.22)["passed"]
    # 316 while build_cake rediscovered the corner classes by an all-pairs
    # scan, 196 while the slice check compared segment-geodesic endpoints
    assert count[0] <= 190


def test_build_cake_deterministic(cfg222):
    assert build_cake(cfg222) == build_cake(cfg222) == []
    assert cake._boundary_cycle() == BOUNDARY_CYCLE
    assert cake._vertex_orbits() == VERTEX_ORBITS


def test_h5_presentation(cfg222):
    # every X_i linear with X_i^2 - Id below 1e-10, and the product residual
    # below 1e-9
    assert h5_presentation_check(cfg222) == []
    assert cake.audit(cfg222)[0]["h5_ok"] is True


@pytest.mark.parametrize("index, letters, expected", [
    # X5 := R1 is still a linear involution; only the product breaks
    (4, (R1,), [r"five-generator product residual \S+ exceeds 1e-09"]),
    # X3 := R3 R2 has one antilinear letter and is no involution
    (2, (R3, R2), [r"five-generator X3 is antilinear",
                   r"five-generator X3 involution residual \S+ exceeds 1e-10",
                   r"five-generator product residual \S+ exceeds 1e-09"]),
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
    assert verify_all(2.22)["invariants"]["h5_ok"] is False


def test_dump_audit_tables(cfg222):
    text = cake.dump(cfg222)
    assert "[triangles]" in text
    assert "[pairings]" in text
    assert "edge_pairs=8" in text and "vertex_cycles=3" in text and "genus=3" in text
    for k in range(1, 9):
        assert f"I{k} = " in text
