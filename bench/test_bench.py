"""Self-tests of the benchmark: every metric in BENCHMARK.json is emitted in
the small mode, tampered certificates are counted as failures, counts
repeat exactly, and a directory without the program fails cleanly."""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture()
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_mode_emits_every_metric(workload, out_dir):
    mods = run.import_program()
    original = mods.verification.condition_items
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, meta = run.run_benchmark(workload, 7, 1, trace, small=True)
        assert result["correct"] and result["failed"] == 0, meta["failures"]
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            if not trace:
                assert m["value"] > 0, name
        for key in ("src_lines", "python", "nproc", "seed", "calibration_ms"):
            assert key in meta
    assert mods.verification.condition_items is original
    if cpus is not None:
        assert os.sched_getaffinity(0) == cpus
    assert (out_dir / f"spans-{workload}.tsv").is_file()


def test_counting_pass_repeats_exactly(tmp_path):
    mods = run.import_program()
    box = (2.2, 2.2 + workloads.POINT_WIDTH)
    report = str(tmp_path / "report.txt")
    first = tracing.counting_pass(mods, box, 2.2, report)
    assert first == tracing.counting_pass(mods, box, 2.2, report)
    assert first["hermitian.reflection.calls_per_eval"] > 0
    assert first["numerics.interval_mul_per_point"] > 0


@pytest.fixture(scope="module")
def certificate():
    mods = run.import_program()
    lo, hi = 2.2, 2.2 + workloads.POINT_WIDTH
    cert = mods.verification.certify_range(lo, hi)
    return mods, cert, lo, hi


def _problems(mods, cert, lo, hi):
    return workloads.certificate_problems(cert, lo, hi, mods.verification.certificate_lines(cert))


def test_genuine_certificate_passes(certificate):
    mods, cert, lo, hi = certificate
    assert _problems(mods, cert, lo, hi) == []


@pytest.mark.parametrize("tamper", ["drop", "shift", "flip"])
def test_tampered_certificate_is_a_failure(certificate, tamper):
    mods, cert, lo, hi = certificate
    leaves = list(cert.leaves)
    leaf = leaves[3]
    if tamper == "drop":
        del leaves[3]
    elif tamper == "shift":
        leaves[3] = replace(leaf, hi=leaf.hi - 1e-6)
    else:
        leaves[3] = replace(leaf, verdict="certified-negative")
    bad = replace(cert, leaves=leaves)
    problems = _problems(mods, bad, lo, hi)
    assert problems
    # a header left over from the genuine certificate is caught as well
    assert workloads.certificate_problems(bad, lo, hi, mods.verification.certificate_lines(cert))
    rec = workloads.Recorder()
    rec.gate("certify", problems)
    assert (rec.attempted, rec.failed) == (1, 1)


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = tracing.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert tracing.tail([1.0, 2.0]) == (2.0, 100.0, 2)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-window", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
