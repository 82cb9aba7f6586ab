"""Command-line interface: exit codes, output formats, determinism, golden
outputs and the --out file sink.  Everything runs in process through
cli.main."""

import argparse
import inspect
import re
from dataclasses import replace
from pathlib import Path

import pytest

from cakecheck import cake, numerics, verification
from cakecheck.cake import R1
from cakecheck.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, PARSER, main
from cakecheck.verification import SCAN_COLUMNS, render_report_text, verify_all


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_defaults_pass(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == EXIT_OK
    assert "result: PASS" in out
    assert "published table match" in out


def test_verify_out_of_range_fails_with_named_condition(capsys):
    code, out, _ = run(["verify", "--t", "1.55"], capsys)
    assert code == EXIT_FAIL
    assert "4a" in out
    assert "result: FAIL" in out
    code, out, _ = run(["verify", "--t", "2.5"], capsys)
    assert code == EXIT_FAIL
    assert "(4b) -1.8397" in out and "condition 4b not certified positive" in out


def test_verify_domain_error_is_usage(capsys):
    code, _, err = run(["verify", "--t", "1.0"], capsys)
    assert code == EXIT_USAGE
    assert "t > 3/2" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--t", "1e50"],
    ["verify", "--t", "1e150"],
    ["verify", "--t", "1e300", "--backend", "rigorous"],
    ["verify", "--t", "1e12", "--backend", "rigorous"],
    ["verify", "--t", "1.0000000000001e12"],
])
def test_verify_beyond_double_precision_is_a_domain_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert "double precision cannot resolve" in err
    assert not any(word in err for word in ("isotropic", "signature", "minor"))


@pytest.mark.parametrize("t", ["5e10", "1e11", "1e12"])
def test_fast_verify_fails_only_4b_and_5_up_to_the_precision_edge(t, capsys):
    """Up to t = 1e12 the fast report resolves the construction and fails
    exactly the two conditions the paper's range excludes; just above 1e12
    it is a domain error (above)."""
    code, out, err = run(["verify", "--t", t], capsys)
    assert code == EXIT_FAIL and err == ""
    assert [line for line in out.splitlines() if "failure:" in line] == [
        "  failure: condition 4b not certified positive",
        "  failure: condition 5 not certified positive",
    ]


def test_domain_error_names_the_t_typed(capsys):
    # the message names the t the user typed, not a rounded 1.5 outside the domain
    code, _, err = run(["verify", "--t", "1.5000001", "--backend", "rigorous"], capsys)
    assert code == EXIT_USAGE
    assert "t = 1.5000001" in err


def test_verify_structured_deterministic(capsys):
    code, out1, _ = run(["verify", "--format", "structured"], capsys)
    assert code == EXIT_OK
    code, out2, _ = run(["verify", "--format", "structured"], capsys)
    assert code == EXIT_OK
    assert out1 == out2
    assert "invariants.toledo = -8/3" in out1


def test_verify_rigorous_backend(capsys):
    code, out, _ = run(["verify", "--backend", "rigorous"], capsys)
    assert code == EXIT_OK
    assert "certified-positive" in out


def test_scan_csv(capsys):
    code, out, _ = run(["scan", "--lo", "2.15", "--hi", "2.3", "--steps", "4"], capsys)
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(SCAN_COLUMNS)
    assert len(lines) == 5


def test_scan_with_failing_rows_exits_nonzero(capsys):
    code, out, _ = run(["scan", "--lo", "1.9", "--hi", "2.0", "--steps", "3"], capsys)
    assert code == EXIT_FAIL


def test_scan_invalid_range_is_usage(capsys):
    code, _, err = run(["scan", "--lo", "2.3", "--hi", "2.2", "--steps", "4"], capsys)
    assert code == EXIT_USAGE


def test_certify_small_range(capsys):
    code, out, _ = run(["certify", "--lo", "2.219", "--hi", "2.221"], capsys)
    assert code == EXIT_OK
    assert out.startswith("# certificate status=certified")
    assert "certified-positive" in out


def test_certify_counterexample_range(capsys):
    code, out, _ = run(["certify", "--lo", "2.0", "--hi", "2.05", "--max-depth", "12"],
                       capsys)
    assert code == EXIT_FAIL
    assert "status=counterexample" in out


def test_cake_audit(capsys):
    code, out, _ = run(["cake"], capsys)
    assert code == EXIT_OK
    assert "[pairings]" in out
    assert "[verdicts] relation=ok cake=ok" in out.splitlines()


def test_cake_audit_passes_near_the_domain_end(capsys):
    # the identifications' endpoint checks need R3 accurate to well below 1e-9
    code, out, _ = run(["cake", "--t", "1.6"], capsys)
    assert code == EXIT_OK
    assert "[verdicts] relation=ok cake=ok" in out.splitlines()


@pytest.mark.parametrize("argv", [["verify"], ["cake"]])
def test_failed_cake_reconstruction_is_a_verification_failure(argv, capsys, monkeypatch):
    # class 0 declared with class 1's second corner
    corrupted = ((cake.CORNER_CLASSES[0][0], cake.CORNER_CLASSES[1][1]),) + cake.CORNER_CLASSES[1:]
    monkeypatch.setattr(cake, "CORNER_CLASSES", corrupted)
    code, out, err = run(argv, capsys)
    assert code == EXIT_FAIL and err == ""
    assert ("  failure: corners (0, 'begin') and (15, 'end') of class 0 not derived to coincide\n"
            in out)


def _run_on(monkeypatch, module, name, change):
    """Make the check ``module.name`` run on ``change(cfg)``."""
    check = getattr(module, name)
    monkeypatch.setattr(module, name, lambda cfg: check(change(cfg)))


def _replace_entry(monkeypatch, module, name, index, entry):
    table = getattr(module, name)
    monkeypatch.setattr(module, name, table[:index] + (entry,) + table[index + 1:])


def _break_mirror_trace(mp):
    mirror = verification.mirror_construction
    mp.setattr(verification, "mirror_construction",
               lambda cfg: {**mirror(cfg), "trace_residual": 1.0})


def _break_angle_sum(mp):
    angles = verification.angles
    mp.setattr(verification, "angles", lambda cfg: (*angles(cfg)[:2], angles(cfg)[2] + 1e-6))


def _reverse_orientation(cfg):
    return replace(cfg, c1=cfg.R3.apply(cfg.c1), c2=cfg.R3.apply(cfg.c2),
                   c3=cfg.R3.apply(cfg.c3))


# each case breaks one claim check and names the start of the failure line
# that the check must print
CLAIM_FAILURES = {
    "mirror trace": (_break_mirror_trace, "mirror construction trace residual exceeds 1e-9"),
    "relation": (lambda mp: _run_on(mp, verification, "check_relation",
                                    lambda cfg: replace(cfg, R1=cfg.R2)),
                 "six-letter-word square is trivial in SU(2,1)"),
    "symmetries": (lambda mp: _run_on(mp, verification, "check_slice_symmetries",
                                      lambda cfg: replace(cfg, c2=cfg.c2.scale(1j))),
                   "<c1,c2> is not real"),
    "toledo": (lambda mp: _run_on(mp, verification, "toledo", _reverse_orientation),
               "Im h(s) = s (a + b s) with a = "),
    "ledger": (lambda mp: mp.setattr(cake, "EULER_CHARACTERISTIC", -2),
               "invariant ledger fails: ledger relation 2(chi+e)=3tau fails: chi=-2"),
    "angle sum": (_break_angle_sum, "angle sum differs from pi/2"),
    "corners": (lambda mp: _replace_entry(mp, cake, "CORNER_CLASSES", 1,
                                          cake.CORNER_CLASSES[0][::-1]),
                "corner classes 0 and 1 coincide"),
    "mapping table": (lambda mp: mp.setattr(cake, "MAPPING_TABLE", cake.MAPPING_TABLE
                                            + (("R1 C1 = C3", (R1,), 1, 3),)),
                      "mapping-table identity not derived at R1 C1 = C3"),
    "identifications": (lambda mp: _replace_entry(mp, cake, "IDENTIFICATIONS", 0,
                                                  ("I1", cake.IDENTIFICATIONS[1][1], 0, 1)),
                        "identification I1 begin endpoint not derived"),
    "five generators": (lambda mp: _replace_entry(mp, cake, "H5_WORDS", 4, ("X5", (R1,))),
                        "five-generator product not derived"),
}


@pytest.mark.parametrize("case", list(CLAIM_FAILURES))
def test_failed_claim_is_a_failure_line_of_the_full_report(case, capsys, monkeypatch):
    """Every claim check fails the same way: exit 1, the complete report on
    stdout with the check's ``failure:`` line, and nothing on stderr."""
    breaks, prefix = CLAIM_FAILURES[case]
    breaks(monkeypatch)
    code, out, err = run(["verify"], capsys)
    assert code == EXIT_FAIL and err == ""
    assert out == render_report_text(verify_all(2.22))
    for header in ("[parameters]", "[conditions]", "[relations]", "[invariants]",
                   "[tolerances]", "result: FAIL"):
        assert header in out, header
    assert any(line.startswith(f"  failure: {prefix}") for line in out.splitlines()), out


def test_failed_cake_parts_are_named(capsys):
    # the identifications' form residuals that failed at t = 30 from float
    # loss are derived from the presentation now, so t = 30 passes; from
    # 1e3 on the relation the derivation rests on fails from float loss,
    # and cake names each of its failed claims
    code, out, _ = run(["cake", "--t", "30"], capsys)
    assert code == EXIT_OK
    assert out.endswith("[verdicts] relation=ok cake=ok\n")
    code, out, _ = run(["cake", "--t", "1e3"], capsys)
    assert code == EXIT_FAIL
    verdict, *failures = out[out.index("[verdicts]"):].splitlines()
    # only the relation fails, and the verdict line says which part failed
    assert verdict == "[verdicts] relation=FAIL cake=ok"
    assert failures == ["  failure: seven-letter relation residual exceeds 1e-9",
                        "  failure: six-letter-word square is not theta^2 Id"]


def test_out_file_sink(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(["verify", "--out", str(target)], capsys)
    assert code == EXIT_OK
    assert target.read_text() == out


def test_unwritable_out_is_usage(tmp_path, capsys):
    for argv, target in (
        (["verify"], tmp_path),  # a directory
        (["certify"], tmp_path / "missing" / "c.txt"),  # a missing parent
    ):
        code, out, err = run(argv + ["--out", str(target)], capsys)
        assert code == EXIT_USAGE, argv
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_usage_errors(capsys):
    assert run([], capsys)[0] == EXIT_USAGE
    assert run(["frobnicate"], capsys)[0] == EXIT_USAGE
    assert run(["verify", "--backend", "exact"], capsys)[0] == EXIT_USAGE
    # each subcommand accepts only the options it reads
    assert run(["certify", "--backend", "fast"], capsys)[0] == EXIT_USAGE
    assert run(["cake", "--format", "structured"], capsys)[0] == EXIT_USAGE
    assert run(["scan", "--tol-rel", "0.1"], capsys)[0] == EXIT_USAGE
    assert run(["verify", "--format", "csv"], capsys)[0] == EXIT_USAGE
    # verdict tolerances are constants, not options
    assert run(["verify", "--t", "2.5", "--tol-abs", "-10"], capsys)[0] == EXIT_USAGE
    assert run(["verify", "--tol-rel", "1"], capsys)[0] == EXIT_USAGE
    assert run(["scan", "--tol-abs", "-100"], capsys)[0] == EXIT_USAGE
    # non-finite inputs are domain errors
    assert run(["scan", "--lo", "2.13", "--hi", "inf", "--steps", "3"], capsys)[0] == EXIT_USAGE
    assert run(["certify", "--hi", "inf"], capsys)[0] == EXIT_USAGE
    assert run(["certify", "--lo", "2.2", "--hi", "2.2001", "--max-depth", "-1"],
               capsys)[0] == EXIT_USAGE
    assert run(["verify", "--t", "nan", "--backend", "rigorous"], capsys)[0] == EXIT_USAGE
    assert run(["verify", "--t", "inf"], capsys)[0] == EXIT_USAGE
    assert run(["certify", "--lo", "1.4", "--hi", "1.6"], capsys)[0] == EXIT_USAGE


def test_backend_option_offers_the_library_backends():
    """verify and scan offer exactly the library's backends, and they, the
    command line and the library functions share one default."""
    subcommands = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
    offered = {}
    for name, sp in subcommands.choices.items():
        for action in sp._actions:
            if action.dest == "backend":
                offered[name] = (list(action.choices), action.default)
    assert offered == {name: (list(numerics.BACKENDS), numerics.DEFAULT_BACKEND)
                       for name in ("verify", "scan")}
    for fn in (verify_all, verification.scan):
        assert inspect.signature(fn).parameters["backend_name"].default == numerics.DEFAULT_BACKEND


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (["verify", "--t", "2.22", "--backend", "rigorous", "--format", "structured"],
     "verify_rigorous_structured.txt"),
    (["scan", "--backend", "rigorous"], "scan_rigorous.csv"),
    (["certify"], "certify.txt"),
    (["verify", "--backend", "rigorous"], "verify_rigorous_text.txt"),
    (["certify", "--lo", "2.1228615", "--hi", "2.343115"], "certify_sharp.txt"),
])
def test_output_matches_golden_file(argv, name, capsys):
    """These outputs use only IEEE + - * /, sqrt and nextafter, so they are
    the same bytes on every platform; a change to them is a change to the
    arithmetic.  Regenerate with ``cakecheck <argv> > tests/golden/<name>``
    only when that change is intended."""
    code, out, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_rigorous_report_at_1e9_matches_golden_file(capsys):
    """At t = 1e9 the point balls are wide: 4b and 5 are certified negative
    and 6b and 6c undecided, paths the 2.22 golden files never reach.  The
    report uses IEEE arithmetic only, so its bytes are the same everywhere."""
    code, out, _ = run(["verify", "--t", "1e9", "--backend", "rigorous", "--format", "structured"], capsys)
    assert code == EXIT_FAIL
    assert out.encode() == (GOLDEN / "verify_rigorous_structured_1e9.txt").read_bytes()


def test_fast_verify_matches_masked_golden_file(capsys):
    """The fast structured report with the value of every key containing
    ``residual`` masked: residuals sit at rounding level and move with any
    reordering of the arithmetic, every other value and every verdict is
    pinned.  CI applies the same mask with sed."""
    code, out, _ = run(["verify", "--format", "structured"], capsys)
    assert code == EXIT_OK
    masked = re.sub(r"(?m)^([^=\n]*residual[^=\n]*) = .*$", r"\1 = <masked>", out)
    assert masked.encode() == (GOLDEN / "verify_fast_structured.txt").read_bytes()


def test_fast_scan_matches_masked_golden_file(capsys):
    """The default 22-point scan with its relation_residual column masked:
    that residual sits at rounding level, every other value is pinned.  CI
    applies the same mask with awk."""
    code, out, _ = run(["scan"], capsys)
    assert code == EXIT_OK
    column = SCAN_COLUMNS.index("relation_residual")
    rows = [line.split(",") for line in out.splitlines()]
    for row in rows[1:]:
        row[column] = "<masked>"
    assert len(rows) == 23
    masked = "".join(",".join(row) + "\n" for row in rows)
    assert masked.encode() == (GOLDEN / "scan_fast.csv").read_bytes()


def _masked_text(report):
    return re.sub(r"(?m)^(?=.*residual)(.*?) = .*$", r"\1 = <masked>", report).encode()


def test_fast_text_verify_matches_masked_golden_file(capsys):
    """The default text report, with everything after the first ` = ` of
    each line that mentions a residual masked.  CI applies the same mask
    with sed."""
    code, out, _ = run(["verify"], capsys)
    assert code == EXIT_OK
    assert _masked_text(out) == (GOLDEN / "verify_fast_text.txt").read_bytes()


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """main builds no parser: the one built at import serves every call and
    keeps no state, so a verify after a usage error and --help prints the
    golden report."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(["verify", "--backend", "exact"], capsys)[0] == EXIT_USAGE
    code, out, _ = run(["--help"], capsys)
    assert code == EXIT_OK and out.startswith("usage: cakecheck ")
    code, out, _ = run(["verify"], capsys)
    assert code == EXIT_OK
    assert _masked_text(out) == (GOLDEN / "verify_fast_text.txt").read_bytes()
    assert run(["cake"], capsys)[0] == EXIT_OK
    assert built == []


def test_cake_tables_match_golden_file(capsys):
    """The cake audit up to its [summary] line, whose angle residual is the
    one float and comes from atan2, is pure combinatorics."""
    code, out, _ = run(["cake"], capsys)
    assert code == EXIT_OK
    golden = (GOLDEN / "cake_tables.txt").read_bytes()
    assert out.encode()[:len(golden)] == golden
    assert out[len(golden):].startswith("[summary] ")
