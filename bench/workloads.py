"""The benchmark's two workloads, their seeded inputs and their output gates.

Each workload runs in rounds.  A round is one pass over the user jobs
(certify a window and replay it, verify at a few parameter values, scan
22 points) on inputs drawn once from the seed, in an order shuffled for
every round; the workload decides which job dominates and on which
backend.  So every input comes back in every round, spread over the whole
run, and a traced run repeats exactly the rounds an untraced run
measured.  The rounds take the allowed CPUs in turn.

A timing is kept per input as the best of that input's repeats; medians
and tails are then taken over distinct inputs.  On a shared host, other
tenants slow a call down for a varying share of a run.  On a shared
2-vCPU VM, 5-second blocks of one identical call had medians from 32 to
54 ms while their 10th percentiles stayed at 28-32 ms, so a median over
raw calls mostly measures the host.  The slow moments also came in a
rhythm: with the jobs in a fixed order, the same input met them in every
round, and the slowest of ten inputs spread by a fifth between seeds;
shuffling the order brought that to a few hundredths."""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from time import perf_counter

CONDITION_IDS = ("3", "4a", "4b", "5", "6a", "6b", "6c", "7a", "7b", "7c", "8")
POSITIVE = "certified-positive"
T_LO, T_HI = 2.13, 2.34
PUBLISHED_T = 2.22
SCAN_STEPS = 22
# Bisection splits a window uniformly, so the evaluation count depends on the
# width and not on where the window sits: 0.00075 gives 2 boxes and 4
# evaluations anywhere in [2.13, 2.34].  A narrow window keeps one certify
# short, so that a run holds enough repeats of it for a best-of time.
WINDOW = 0.00075
SMALL_WINDOW = 0.0005
# A window this narrow certifies in a single evaluation anywhere in the range.
POINT_WIDTH = 2.5e-4


class Recorder:
    """Timings, counts and gate outcomes of one run."""

    def __init__(self):
        self.samples = {}
        self.timings = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def time(self, name, key, value):
        """One timing of input ``key``; see :meth:`best`."""
        self.timings.setdefault(name, {}).setdefault(key, []).append(value)

    def best(self, name):
        """Per input, the best of its repeats."""
        return [min(v) for v in self.timings.get(name, {}).values()]

    def gate(self, what, problems):
        """Count one operation; any problem makes it a failed one."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {problems[0]}")


# ---------------------------------------------------------------------------
# output gates


def parse_structured(text):
    """The ``key = value`` lines of a structured report, as a dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def verify_problems(code, stdout_text, file_text, t):
    """Gate for one ``cakecheck verify --format structured`` call."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if stdout_text != file_text:
        problems.append("--out file differs from stdout")
    kv = parse_structured(file_text)
    expected = {
        "passed": "True",
        "invariants.toledo": "-8/3",
        "invariants.euler": "0",
        "invariants.cake.edge_pairs": "8",
        "invariants.cake.vertex_cycles": "3",
        "invariants.cake.euler_characteristic": "-4",
        "invariants.cake.genus": "3",
    }
    expected.update({f"conditions.verdicts.{cid}": POSITIVE for cid in CONDITION_IDS})
    for key, want in expected.items():
        if kv.get(key) != want:
            problems.append(f"{key} = {kv.get(key)!r}, expected {want!r}")
    if t == PUBLISHED_T:
        rows = [k for k in kv if k.startswith("conditions.published_match[") and k.endswith("].ok")]
        if len(rows) != 2 + len(CONDITION_IDS):
            problems.append(f"{len(rows)} published-table rows, expected {2 + len(CONDITION_IDS)}")
        problems.extend(f"{k} = {kv[k]}" for k in rows if kv[k] != "True")
    return problems


def rigorous_problems(report):
    """Gate for one ``verify_all(t, "rigorous")`` report."""
    problems = list(report["failures"])
    if not report["passed"]:
        problems.append("passed is False")
    if not report["conditions"]["complete"]:
        problems.append("conditions incomplete")
    verdicts = report["conditions"]["verdicts"]
    problems.extend(
        f"condition {cid} verdict {verdicts.get(cid)}"
        for cid in CONDITION_IDS if verdicts.get(cid) != POSITIVE
    )
    return problems


def scan_problems(rows):
    """Gate for one 22-point scan: every row ok, every verdict positive."""
    problems = []
    if len(rows) != SCAN_STEPS:
        problems.append(f"{len(rows)} rows, expected {SCAN_STEPS}")
    for row in rows:
        report = row["report"]
        if row["status"] != "ok" or report is None or not report.complete:
            problems.append(f"t={row['t']!r} status {row['status']} {row['error']}")
            continue
        problems.extend(
            f"t={row['t']!r} condition {cid} {v.value}"
            for cid, v in report.verdicts.items() if v.value != POSITIVE
        )
    return problems


def certificate_problems(cert, lo, hi, lines):
    """Gate for one range certificate, checked here and not by the program:
    status, verdicts, exact tiling of [lo, hi] per condition, and a header
    that agrees with the leaves."""
    problems = []
    if cert.status != "certified":
        problems.append(f"status {cert.status}, failure {cert.failure}")
    if (cert.lo, cert.hi) != (lo, hi):
        problems.append(f"certificate range [{cert.lo!r}, {cert.hi!r}] is not [{lo!r}, {hi!r}]")
    by_cond = {cid: [] for cid in CONDITION_IDS}
    for leaf in cert.leaves:
        if leaf.verdict != POSITIVE:
            problems.append(f"leaf [{leaf.lo!r}, {leaf.hi!r}] {leaf.condition} is {leaf.verdict}")
        if leaf.condition not in by_cond:
            problems.append(f"unknown condition {leaf.condition!r}")
            continue
        by_cond[leaf.condition].append((leaf.lo, leaf.hi))
    for cid, pieces in by_cond.items():
        pieces.sort()
        edge = lo
        for a, b in pieces:
            if a != edge or not a < b:
                problems.append(f"condition {cid}: leaf [{a!r}, {b!r}] does not start at {edge!r}")
                break
            edge = b
        else:
            if edge != hi:
                problems.append(f"condition {cid}: leaves end at {edge!r}, not {hi!r}")
    header = lines[0].split() if lines else []
    want = [f"status={cert.status}", f"leaves={len(cert.leaves)}",
            f"evaluations={cert.evaluations}"]
    if header[:2] != ["#", "certificate"] or any(w not in header for w in want):
        problems.append(f"certificate header {lines[:1]} does not match the leaves")
    if len(lines) != 1 + len(cert.leaves):
        problems.append(f"{len(lines) - 1} leaf lines for {len(cert.leaves)} leaves")
    return problems


def max_leaf_depth(cert):
    """Deepest bisection level among the leaves."""
    width = cert.hi - cert.lo
    return max((round(math.log2(width / (leaf.hi - leaf.lo))) for leaf in cert.leaves),
               default=0)


# ---------------------------------------------------------------------------
# jobs: each times one user-visible call, then gates its output


def _no_span(name):
    return contextlib.nullcontext()


class Jobs:
    """The user jobs, bound to one set of imported program modules."""

    def __init__(self, mods, report_path):
        self.m = mods
        self.report_path = report_path

    def certify(self, rec, lo, hi, span=_no_span):
        """``cakecheck certify``: certify_range, certificate_lines, then replay."""
        v = self.m.verification
        t0 = perf_counter()
        with span("bench.certify"):
            cert = v.certify_range(lo, hi)
            lines = v.certificate_lines(cert)
        rec.time("certify_s", (lo, hi), perf_counter() - t0)
        rec.add("evaluations", cert.evaluations)
        rec.add("leaves", len(cert.leaves))
        rec.add("max_depth", max_leaf_depth(cert))
        rec.gate(f"certify [{lo!r}, {hi!r}]", certificate_problems(cert, lo, hi, lines))
        t0 = perf_counter()
        with span("bench.replay"):
            ok = v.replay_range_certificate(cert)
        rec.time("replay_s", (lo, hi), perf_counter() - t0)
        rec.gate(f"replay [{lo!r}, {hi!r}]", [] if ok is True else [f"replay returned {ok!r}"])

    def verify(self, rec, t, span=_no_span):
        """``cakecheck verify --t T --format structured --out FILE``."""
        argv = ["verify", "--t", repr(t), "--format", "structured", "--out", self.report_path]
        buf = io.StringIO()
        t0 = perf_counter()
        with span("bench.verify"), contextlib.redirect_stdout(buf):
            code = self.m.cli.main(argv)
        rec.time("verify_ms", t, (perf_counter() - t0) * 1e3)
        with open(self.report_path) as fh:
            text = fh.read()
        rec.gate(f"verify t={t!r}", verify_problems(code, buf.getvalue(), text, t))

    def verify_rigorous(self, rec, t, span=_no_span):
        t0 = perf_counter()
        with span("bench.verify"):
            report = self.m.verification.verify_all(t, "rigorous")
        rec.time("verify_ms", t, (perf_counter() - t0) * 1e3)
        rec.gate(f"rigorous verify t={t!r}", rigorous_problems(report))

    def scan(self, rec, lo, hi, backend, span=_no_span):
        t0 = perf_counter()
        with span("bench.scan"):
            rows = self.m.verification.scan(lo, hi, SCAN_STEPS, backend)
        rec.time("scan_ms", (lo, hi, backend), (perf_counter() - t0) * 1e3)
        rec.gate(f"{backend} scan [{lo!r}, {hi!r}]", scan_problems(rows))


def guarded(rec, what, fn, *args, **kwargs):
    """Run one job; an exception from the program counts as a failed
    operation instead of ending the run."""
    try:
        fn(rec, *args, **kwargs)
    except Exception as exc:  # the run must go on and report the failure
        rec.gate(what, [f"{type(exc).__name__}: {exc}"])


# ---------------------------------------------------------------------------
# workloads


CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@contextlib.contextmanager
def on_cpu(k):
    """Run round ``k`` pinned to one of the allowed CPUs, taking them in
    turn.  On a shared host one virtual CPU can stay slowed for a whole run
    while another is not; with the rounds spread over all of them, each
    input's best time can come from the faster one."""
    if len(CPUS) < 2:
        yield
        return
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


class Workload:
    """Seeded inputs plus the round that runs them.

    ``point`` is a seeded parameter value inside the workload's range; the
    counting pass evaluates there.  Every round runs the same jobs on the
    same ``verifies`` seeded t, so that each input's best time rests on many
    repeats spread over the whole run.  A round runs its jobs in an order
    shuffled afresh for every round, seeded by ``(seed, k)``: the
    interference on a shared host can be periodic, and a fixed order would
    give the same job the same phase of it in every round, so that all
    repeats of one input land in slow moments.  A traced run repeats the
    first ``traced_rounds`` rounds with spans on; the spans stay below a few
    hundred thousand, as a fast verify makes about 5400 inner products.
    """

    name = ""
    verifies = 10
    traced_rounds = 2

    def __init__(self, jobs, seed, small=False):
        self.jobs = jobs
        self.seed = seed
        rng = random.Random(seed)
        self.point = T_LO + rng.random() * (T_HI - T_LO - POINT_WIDTH)
        self.t_rng = random.Random(f"{self.name}:{seed}")
        if small:
            self.verifies = 2

    def warmup(self):
        raise NotImplementedError

    def round_jobs(self):
        """The jobs of one round: ``(what, job, *args)`` tuples."""
        raise NotImplementedError

    def round(self, rec, k, span=_no_span):
        todo = self.round_jobs()
        random.Random(f"{self.name}:{self.seed}:{k}").shuffle(todo)
        with on_cpu(k):
            for what, job, *args in todo:
                guarded(rec, what, job, *args, span)


class CertifyWindow(Workload):
    """certify_range over a seeded sub-window, certificate_lines, replay; plus
    ``cakecheck verify`` (fast, structured) at 2.22, where the published
    table is matched, and at seeded t inside the window, and a 22-point fast
    scan of the window, so that every end-to-end metric is measured here
    too."""

    name = "certify-window"
    verifies = 9
    traced_rounds = 4

    def __init__(self, jobs, seed, small=False):
        super().__init__(jobs, seed, small)
        width = SMALL_WINDOW if small else WINDOW
        self.lo = T_LO + random.Random(seed).random() * (T_HI - T_LO - width)
        self.hi = self.lo + width
        self.point = self.lo
        self.ts = [PUBLISHED_T] + [self.t_rng.uniform(self.lo, self.hi)
                                   for _ in range(self.verifies - 1)]

    def warmup(self):
        self.jobs.m.verification.certify_range(self.lo, self.lo + POINT_WIDTH)

    def round_jobs(self):
        j = self.jobs
        return ([("certify", j.certify, self.lo, self.hi),
                 ("scan", j.scan, self.lo, self.hi, "fast")]
                + [(f"verify t={t!r}", j.verify, t) for t in self.ts])


class RigorousPoints(Workload):
    """verify_all(t, "rigorous") at seeded t; plus the 22-point rigorous scan
    and a one-evaluation certify at the seeded point."""

    name = "rigorous-points"
    traced_rounds = 12

    def __init__(self, jobs, seed, small=False):
        super().__init__(jobs, seed, small)
        self.ts = [self.t_rng.uniform(T_LO, T_HI) for _ in range(self.verifies)]

    def warmup(self):
        self.jobs.m.verification.verify_all(self.point, "rigorous")

    def round_jobs(self):
        j = self.jobs
        return ([("scan", j.scan, T_LO, T_HI, "rigorous"),
                 ("certify", j.certify, self.point, self.point + POINT_WIDTH)]
                + [(f"rigorous verify t={t!r}", j.verify_rigorous, t) for t in self.ts])


WORKLOADS = {w.name: w for w in (CertifyWindow, RigorousPoints)}
