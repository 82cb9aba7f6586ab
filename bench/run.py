"""cakecheck benchmark.

    python3 bench/run.py --workload certify-window --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records run metadata.  See README.md
in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import CONDITION_IDS, POINT_WIDTH, SCAN_STEPS, WORKLOADS, Jobs, Recorder  # noqa: E402

SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "certify_s": "s",
    "replay_s": "s",
    "evaluations": "count",
    "verify_ms_p50": "ms",
    "verify_ms_tail": "ms",
    "scan_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout does not hold the program's sources."""


def _program_modules():
    return {k: v for k, v in sys.modules.items() if k == "cakecheck" or k.startswith("cakecheck.")}


def check_sources():
    if not (SRC / "cakecheck" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {SRC / 'cakecheck'}")


def import_program():
    """Import cakecheck from this checkout's ``src/`` and return its modules."""
    check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("cakecheck")
    if Path(pkg.__file__).resolve().parent != SRC / "cakecheck":
        raise SetupError(f"cakecheck imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"cakecheck.{name}") for name in tracing.MODULES}
    return SimpleNamespace(package=pkg, **mods)


def timed_setup(workload_cls, seed, small, report_path):
    """One set-up from a cold import: drop the program's modules, import them
    again, build the seeded inputs and make one warm-up call.  Modules that
    were loaded before are put back afterwards, so earlier references to them
    stay consistent."""
    saved = _program_modules()
    for name in saved:
        del sys.modules[name]
    try:
        t0 = perf_counter()
        mods = import_program()
        workload = workload_cls(Jobs(mods, report_path), seed, small)
        workload.warmup()
        elapsed = perf_counter() - t0
    finally:
        if saved:
            for name in _program_modules():
                del sys.modules[name]
            sys.modules.update(saved)
    return elapsed


def run_rounds(workload, rec, budget_s=None, rounds=None):
    """Run rounds 0, 1, ... until ``rounds`` are done or the next one would
    overrun ``budget_s``; returns each round's wall time."""
    times = []
    started = perf_counter()
    k = 0
    while True:
        if rounds is not None and k >= rounds:
            break
        if budget_s is not None and times and (
                perf_counter() - started + tracing.median(times) > budget_s):
            break
        t0 = perf_counter()
        workload.round(rec, k)
        times.append(perf_counter() - t0)
        k += 1
    return times


def calibration_ms(repeats=3):
    """A fixed pure-Python loop, timed so that machine drift shows beside the
    results; it is recorded, never used to adjust them."""
    per = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        per.append((perf_counter() - t0) * 1e3)
    return tracing.median(per)


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cakecheck").glob("*.py")))


def end_to_end(rec, setup_times):
    """Each timing is the best of an input's repeats, then the median (and
    tail) over distinct inputs; set-up is the median of its repeats."""
    verify = rec.best("verify_ms")
    tail_value, tail_pct, tail_n = tracing.tail(verify)
    values = {
        "setup_s": tracing.median(setup_times),
        "certify_s": tracing.median(rec.best("certify_s")),
        "replay_s": tracing.median(rec.best("replay_s")),
        "evaluations": tracing.median(rec.samples.get("evaluations", [])),
        "verify_ms_p50": tracing.median(verify),
        "verify_ms_tail": tail_value,
        "scan_ms": tracing.median(rec.best("scan_ms")),
        "pass_ratio": (rec.attempted - rec.failed) / rec.attempted if rec.attempted else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    calls = sum(len(v) for v in rec.timings.get("verify_ms", {}).values())
    tail_info = {"percentile": tail_pct, "inputs": tail_n, "calls": calls}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, tail_info


def per_layer(workload, mods, rec, seconds, small, report_path, meta):
    """The traced run: micro-timings, then rounds 0..K-1 each run untraced and
    at once again traced (same inputs, same host conditions), then the
    counting pass; untraced rounds fill the rest of ``seconds``, gated like
    any others.  Returns the per-layer metrics."""
    started = perf_counter()
    box = (workload.point, workload.point + POINT_WIDTH)
    metrics = tracing.micro_timings(mods, box, n=200 if small else 2000)
    tr = tracing.Tracer()
    plain, traced = [], []
    for k in range(1 if small else workload.traced_rounds):
        t0 = perf_counter()
        workload.round(rec, k)
        plain.append(perf_counter() - t0)
        tr.run_id = k
        with tracing.rebound(mods, tr.targets()):
            t0 = perf_counter()
            workload.round(rec, k, span=tr.span)
            traced.append(perf_counter() - t0)
    metrics.update(tracing.layer_metrics(tr, SCAN_STEPS))
    metrics.update(tracing.counting_pass(mods, box, workload.point, report_path))
    s = rec.samples
    metrics["numerics.certify.leaves"] = tracing.median(s.get("leaves", []))
    metrics["numerics.certify.max_depth"] = tracing.median(s.get("max_depth", []))
    evals = metrics["numerics.certify.box_evals"] + metrics["numerics.certify.probe_evals"]
    boxes = metrics["numerics.certify.leaves"] / len(CONDITION_IDS)
    metrics["numerics.certify.useful_ratio"] = boxes / evals if evals else 0.0
    metrics["trace.overhead_ms"] = tracing.median([t - p for p, t in zip(plain, traced)]) * 1e3
    metrics["trace.overhead_share"] = tracing.median([t / p - 1.0 for p, t in zip(plain, traced)])
    res, jobs = tracing.residual(tr)
    metrics["trace.residual_ms"] = tracing.median(res) * 1e3
    metrics["trace.residual_share"] = sum(res) / sum(jobs) if jobs else 0.0
    meta["spans"] = len(tr)
    meta["traced_rounds"] = len(traced)
    if not small:
        rest = seconds - (perf_counter() - started)
        meta["filler_rounds"] = len(run_rounds(workload, rec, budget_s=rest)) if rest > 0 else 0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.tsv"
    tr.write(spans_path, json.dumps(meta, sort_keys=True))
    meta["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics


def layer_unit(name):
    """Unit of a per-layer metric, from the suffix of its name."""
    words = name.rsplit(".", 1)[-1].split("_")
    for unit in ("ms", "us", "ns"):
        if unit in words:
            return unit
    return "ratio" if words[-1] in ("ratio", "share") else "count"


def run_benchmark(workload_name, seed, seconds, trace, small=False):
    """Run one workload and return ``(result, meta)``."""
    workload_cls = WORKLOADS[workload_name]
    check_sources()
    OUT_DIR.mkdir(exist_ok=True)
    report_path = str(OUT_DIR / f"verify-report-{os.getpid()}.txt")
    try:
        setup_times = [timed_setup(workload_cls, seed, small, report_path)
                       for _ in range(2 if small else SETUP_REPEATS)]
        mods = import_program()
        workload = workload_cls(Jobs(mods, report_path), seed, small)
        meta = {
            "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "src_lines": src_line_count(), "calibration_ms": calibration_ms(),
        }
        rec = Recorder()
        if trace:
            values = per_layer(workload, mods, rec, seconds, small, report_path, meta)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
        else:
            times = run_rounds(workload, rec, rounds=1 if small else None,
                               budget_s=None if small else seconds)
            metrics, meta["verify_ms_tail"] = end_to_end(rec, setup_times)
            meta["rounds"] = len(times)
    finally:
        if os.path.exists(report_path):
            os.remove(report_path)
    meta["failures"] = rec.failures
    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    return result, meta


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, meta = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
