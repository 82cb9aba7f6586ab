"""Per-layer measurement from the benchmark's side of each module boundary.

Three separate passes, so that none of them disturbs a timed number:

* spans: the program's public functions are rebound, on every module
  attribute through which callers look them up, to wrappers that record a
  span (name, start, end, parent, run id) in memory;
* counting: the same rebinding with call counters, plus counters on
  ``Interval`` multiplication and construction, for one evaluation;
* micro-timings of single numeric operations, with nothing rebound.

Nothing under ``src/`` is edited; every rebinding is undone afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
from array import array
from time import perf_counter

MODULES = ("numerics", "hermitian", "construction", "verification", "cake", "cli")


def _backend_tag(backend):
    name = getattr(backend, "name", "fast")
    return "taylor" if name.endswith("taylor") else name


def _build_tag(args, kwargs, result):
    return _backend_tag(args[1] if len(args) > 1 else kwargs.get("backend"))


def _items_tag(args, kwargs, result):
    return _backend_tag(args[0].backend)


def _eval_tag(args, kwargs, result):
    box = args[0]
    kind = "probe" if box.lo == box.hi else "box"
    return kind if result[0] else kind + "-incomplete"


# (span name, module, class or None, attribute, tag function or None)
SPAN_TARGETS = (
    ("numerics.certify_on_interval", "numerics", None, "certify_on_interval", None),
    ("numerics.replay_certificate", "numerics", None, "replay_certificate", None),
    ("hermitian.reflection", "hermitian", None, "reflection", None),
    ("hermitian.isometry_mul", "hermitian", "Isometry", "__mul__", None),
    ("hermitian.inner", "hermitian", "GramContext", "inner", None),
    ("construction.build_configuration", "construction", None, "build_configuration", _build_tag),
    ("construction.mirror_construction", "construction", None, "mirror_construction", None),
    ("verification.certify_range", "verification", None, "certify_range", None),
    ("verification.replay_range_certificate", "verification", None, "replay_range_certificate", None),
    ("verification.condition_enclosures", "verification", None, "condition_enclosures", _eval_tag),
    ("verification.condition_items", "verification", None, "condition_items", _items_tag),
    ("verification.verify_all", "verification", None, "verify_all", None),
    ("verification.scan", "verification", None, "scan", None),
    ("verification.toledo", "verification", None, "toledo", None),
    ("verification.check_relation", "verification", None, "check_relation", None),
    ("verification.check_slice_symmetries", "verification", None, "check_slice_symmetries", None),
    ("verification.euler_side_test", "verification", None, "euler_side_test", None),
    ("verification.invariant_ledger", "verification", None, "invariant_ledger", None),
    ("verification.render", "verification", None, "render_report_structured", None),
    ("verification.render", "verification", None, "certificate_lines", None),
    ("cake.build_cake", "cake", None, "build_cake", None),
    ("cake.verify_mapping_tables", "cake", None, "verify_mapping_tables", None),
    ("cake.verify_identifications", "cake", None, "verify_identifications", None),
    ("cake.h5_presentation_check", "cake", None, "h5_presentation_check", None),
    ("cli.main", "cli", None, "main", None),
)

COUNT_TARGETS = (
    ("hermitian.reflection", "hermitian", None, "reflection"),
    ("hermitian.isometry_mul", "hermitian", "Isometry", "__mul__"),
    ("hermitian.inner", "hermitian", "GramContext", "inner"),
    ("numerics.interval_mul", "numerics", "Interval", "__mul__"),
    ("numerics.interval_mul", "numerics", "Interval", "__rmul__"),
    ("numerics.interval_new", "numerics", "Interval", "__init__"),
)


def rebind(mods, module, cls, attr, make_wrapper):
    """Replace a function where its callers look it up: on the class for a
    method, else on every program module that binds the same object.
    Returns the undo records."""
    if cls is not None:
        owner = getattr(getattr(mods, module), cls)
        original = owner.__dict__[attr]
        setattr(owner, attr, make_wrapper(original))
        return [(owner, attr, original)]
    original = getattr(getattr(mods, module), attr)
    wrapper = make_wrapper(original)
    undo = []
    for name in MODULES + ("package",):
        mod = getattr(mods, name)
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))
    return undo


@contextlib.contextmanager
def rebound(mods, targets):
    """Apply ``(module, cls, attr, make_wrapper)`` rebindings for the
    duration of the block, then restore every original."""
    undo = []
    try:
        for module, cls, attr, make_wrapper in targets:
            undo.extend(rebind(mods, module, cls, attr, make_wrapper))
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


class Tracer:
    """Spans kept in flat arrays: name id, parent index, run id, start, end
    (``perf_counter`` seconds), plus an optional tag per span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self.tags = {}
        self.run_id = 0
        self._stack = []

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrapper(self, name, tag=None):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if tag is not None:
                    self.tags[idx] = tag(args, kwargs, result)
                return result
            return traced
        return make

    def targets(self):
        return [(module, cls, attr, self.wrapper(name, tag))
                for name, module, cls, attr, tag in SPAN_TARGETS]

    # -- analysis ----------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        """Duration minus the part covered by child spans."""
        dur = self.durations()
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        return [d - c for d, c in zip(dur, covered)]

    def indices(self, name, tag=None):
        nid = self._ids.get(name)
        return [i for i, n in enumerate(self.name_id)
                if n == nid and (tag is None or self.tags.get(i) == tag)]

    def ancestor(self, idx, name):
        """Index of the nearest enclosing span called ``name``, or -1."""
        nid = self._ids.get(name)
        p = self.parent[idx]
        while p >= 0 and self.name_id[p] != nid:
            p = self.parent[p]
        return p

    def write(self, path, meta_line):
        with open(path, "w") as fh:
            fh.write(f"# {meta_line}\n# id\tparent\trun\tname\ttag\tstart_s\tend_s\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.run[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.tags.get(i, '')}\t{self.start[i]!r}\t{self.end[i]!r}\n")


# ---------------------------------------------------------------------------
# summaries


def median(values):
    """Median, or 0 when a layer or job never ran."""
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, sample count)``.  With ten samples or fewer there
    is no such percentile and the maximum is returned as the 100th."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(tr, scan_steps):
    """Per-layer times from the spans of the traced rounds."""
    dur = tr.durations()
    own = tr.self_times()
    ms = 1e3

    def dur_ms(name, tag=None):
        return median([dur[i] * ms for i in tr.indices(name, tag)])

    def self_ms(name, tag=None):
        return median([own[i] * ms for i in tr.indices(name, tag)])

    evals = tr.indices("verification.condition_enclosures")
    per_certify = {}
    for i in evals:
        owner = tr.ancestor(i, "numerics.certify_on_interval")
        if owner >= 0:
            per_certify.setdefault(owner, []).append(tr.tags.get(i, ""))
    certifies = list(per_certify.values())

    def per_certify_count(pred):
        return median([sum(1 for tag in tags if pred(tag)) for tags in certifies])

    box = per_certify_count(lambda tag: tag.startswith("box"))
    probe = per_certify_count(lambda tag: tag.startswith("probe"))
    refl_in_evals = sum(own[i] for i in tr.indices("hermitian.reflection")
                        if tr.ancestor(i, "verification.condition_enclosures") >= 0)
    eval_ms = [dur[i] * ms for i in evals]
    render = tr.indices("verification.render")
    scans = tr.indices("verification.scan")
    return {
        "numerics.certify.box_evals": box,
        "numerics.certify.probe_evals": probe,
        "numerics.certify.incomplete_evals": per_certify_count(lambda tag: tag.endswith("incomplete")),
        "numerics.certify_on_interval.self_ms": self_ms("numerics.certify_on_interval"),
        "hermitian.reflection.self_ms_per_eval": refl_in_evals * ms / len(evals) if evals else 0.0,
        "construction.build_configuration.taylor_ms": dur_ms("construction.build_configuration", "taylor"),
        "construction.build_configuration.fast_us": dur_ms("construction.build_configuration", "fast") * 1e3,
        "construction.build_configuration.rigorous_us": dur_ms("construction.build_configuration", "rigorous") * 1e3,
        "construction.mirror_construction.ms": dur_ms("construction.mirror_construction"),
        "verification.condition_enclosures.ms_p50": median(eval_ms),
        "verification.condition_enclosures.ms_tail": tail(eval_ms)[0],
        "verification.condition_items.self_ms": self_ms("verification.condition_items", "taylor"),
        "verification.condition_items.rigorous_self_ms": self_ms("verification.condition_items", "rigorous"),
        "verification.toledo.ms": dur_ms("verification.toledo"),
        "verification.check_relation.ms": dur_ms("verification.check_relation"),
        "verification.check_slice_symmetries.ms": dur_ms("verification.check_slice_symmetries"),
        "verification.euler_side_test.ms": dur_ms("verification.euler_side_test"),
        "verification.invariant_ledger.ms": dur_ms("verification.invariant_ledger"),
        "verification.verify_all.self_ms": self_ms("verification.verify_all"),
        "verification.scan.row_ms": median([dur[i] * ms / scan_steps for i in scans]),
        "verification.render.ms": median([dur[i] * ms for i in render]),
        "cake.build_cake.ms": dur_ms("cake.build_cake"),
        "cake.verify_mapping_tables.ms": dur_ms("cake.verify_mapping_tables"),
        "cake.verify_identifications.ms": dur_ms("cake.verify_identifications"),
        "cake.h5_presentation_check.ms": dur_ms("cake.h5_presentation_check"),
        "cli.main.self_ms": self_ms("cli.main"),
    }


def residual(tr):
    """Time inside the benchmark's certify and replay spans that no program
    span covers, per round: ``(residual seconds, job seconds)`` lists.  The
    job seconds are the traced certify_s + replay_s; the program spans' self
    times account for all of it but the residual."""
    dur = tr.durations()
    own = tr.self_times()
    res, total = {}, {}
    for i in range(len(tr)):
        if tr.parent[i] < 0 and tr.names[tr.name_id[i]] in ("bench.certify", "bench.replay"):
            r = tr.run[i]
            res[r] = res.get(r, 0.0) + own[i]
            total[r] = total.get(r, 0.0) + dur[i]
    runs = sorted(res)
    return [res[r] for r in runs], [total[r] for r in runs]


# ---------------------------------------------------------------------------
# counting pass


def counting_pass(mods, box, point, report_path):
    """Call counts for one Taylor evaluation on ``box``, one rigorous point
    verification and one fast ``cakecheck verify`` at ``point``."""
    counts = {}

    def counter(name):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted
        return make

    targets = [(module, cls, attr, counter(name)) for name, module, cls, attr in COUNT_TARGETS]
    out = {}
    with rebound(mods, targets):
        box_iv = mods.numerics.Interval(*box)
        counts.clear()
        mods.verification.condition_enclosures(box_iv)
        per_eval = dict(counts)
        counts.clear()
        mods.verification.verify_all(point, "rigorous")
        per_point = dict(counts)
        counts.clear()
        argv = ["verify", "--t", repr(point), "--format", "structured", "--out", report_path]
        with contextlib.redirect_stdout(io.StringIO()):
            mods.cli.main(argv)
        per_verify = dict(counts)
    out["numerics.interval_mul_per_eval"] = per_eval.get("numerics.interval_mul", 0)
    out["numerics.interval_new_per_eval"] = per_eval.get("numerics.interval_new", 0)
    out["numerics.interval_mul_per_point"] = per_point.get("numerics.interval_mul", 0)
    out["hermitian.reflection.calls_per_eval"] = per_eval.get("hermitian.reflection", 0)
    out["hermitian.isometry_mul.calls_per_eval"] = per_eval.get("hermitian.isometry_mul", 0)
    out["hermitian.inner.calls_per_eval"] = per_eval.get("hermitian.inner", 0)
    out["hermitian.inner.calls_per_verify"] = per_verify.get("hermitian.inner", 0)
    return out


# ---------------------------------------------------------------------------
# micro-timings


def _ns_per_op(op, n, repeats):
    per = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(n):
            op()
        per.append((perf_counter() - t0) / n * 1e9)
    return statistics.median(per)


def micro_timings(mods, box, n=2000, repeats=5):
    """Median nanoseconds per single numeric operation, on operands taken
    from the Taylor backend of ``box`` through its public protocol."""
    num = mods.numerics
    a = num.Interval(1.1, 1.2)
    b = num.Interval(-0.3, 2.5)
    backend = num.TaylorBackend.for_interval(num.Interval(*box))
    x = backend.variable()
    p = x * x + 1
    q = x + 0.5
    z = backend.complex_(p, q)
    w = backend.complex_(q, p)
    return {
        "numerics.interval_mul_ns": _ns_per_op(lambda: a * b, n, repeats),
        "numerics.taylor_mul_ns": _ns_per_op(lambda: p * q, n, repeats),
        "numerics.taylor_complex_mul_ns": _ns_per_op(lambda: z * w, n, repeats),
        "numerics.taylor_sqrt_ns": _ns_per_op(lambda: backend.sqrt(p), n, repeats),
    }
