"""Command-line front end.

Subcommands:
  verify   full pipeline at a single t (report in text or structured form)
  scan     condition values over a t-grid (CSV)
  certify  rigorous interval certificate for a t-range
  cake     combinatorial audit dump

Exit codes: 0 all verdicts pass; 1 a failed claim, always printed in the
full report as a ``failure:`` line, with nothing on stderr; 2 a usage or
domain error, one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .construction import build_configuration, mirror_construction
from .numerics import BACKENDS, DEFAULT_BACKEND, MAX_DEPTH
from .verification import (
    CERTIFIED_RANGE,
    PUBLISHED_T,
    certificate_lines,
    check_relation,
    certify_range,
    render_report_structured,
    render_report_text,
    scan,
    scan_to_csv,
    verify_all,
)
from . import cake as cake_mod

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

REPORT_FORMATS = {"text": render_report_text, "structured": render_report_structured}


def _emit(text: str, out_path):
    # --out first: an unwritable path is a usage error and prints no report
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_verify(args) -> int:
    report = verify_all(args.t, backend_name=args.backend)
    _emit(REPORT_FORMATS[args.format](report), args.out)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_scan(args) -> int:
    rows = scan(args.lo, args.hi, args.steps, args.backend)
    _emit(scan_to_csv(rows), args.out)
    ok = all(
        row["status"] == "ok" and row["report"] is not None and row["report"].all_positive
        for row in rows
    )
    return EXIT_OK if ok else EXIT_FAIL


def cmd_certify(args) -> int:
    cert = certify_range(args.lo, args.hi, args.max_depth)
    text = "\n".join(certificate_lines(cert)) + "\n"
    _emit(text, args.out)
    return EXIT_OK if cert.certified else EXIT_FAIL


def cmd_cake(args) -> int:
    cfg = build_configuration(args.t)
    mirror_construction(cfg)
    text = cake_mod.dump(cfg)
    relation, cake = check_relation(cfg)[1], cake_mod.audit(cfg)
    text += f"[verdicts] relation={'FAIL' if relation else 'ok'} cake={'FAIL' if cake else 'ok'}\n"
    text += "".join(f"  failure: {f}\n" for f in relation + cake)
    _emit(text, args.out)
    return EXIT_FAIL if relation or cake else EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="cakecheck",
        description="verify the triangle-of-bisectors configuration and its invariants",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def t_range(sp):
        sp.add_argument("--lo", type=float, default=CERTIFIED_RANGE[0])
        sp.add_argument("--hi", type=float, default=CERTIFIED_RANGE[1])

    def backend(sp):
        sp.add_argument("--backend", choices=BACKENDS, default=DEFAULT_BACKEND)

    sp = sub.add_parser("verify", help="full verification at one t")
    sp.set_defaults(run=cmd_verify)
    sp.add_argument("--t", type=float, default=PUBLISHED_T)
    backend(sp)
    sp.add_argument("--format", choices=REPORT_FORMATS, default="text")

    sp = sub.add_parser("scan", help="grid scan of condition values")
    sp.set_defaults(run=cmd_scan)
    t_range(sp)
    sp.add_argument("--steps", type=int, default=22)
    backend(sp)

    sp = sub.add_parser("certify", help="rigorous interval certificate")
    sp.set_defaults(run=cmd_certify)
    t_range(sp)
    sp.add_argument("--max-depth", type=int, default=MAX_DEPTH)

    sp = sub.add_parser("cake", help="combinatorial audit dump")
    sp.set_defaults(run=cmd_cake)
    sp.add_argument("--t", type=float, default=PUBLISHED_T)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="also write the output to this file")
    return p


PARSER = build_parser()  # one per process: parsing keeps no state


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
