"""Spans around lttkit's public functions, recorded from outside the package.

``Tracer.install`` replaces each name in ``WRAPPED`` on its module with a
wrapper that records a span (name, start, end, parent span, op id). Calls
inside the package go through module attributes, so nested calls are seen
too. A name a module no longer has is reported as absent, not an error.

A span's self time is its duration minus the durations of its child spans.
Multiplication counts are ``ops.mults`` deltas, taken when the caller passes
an ``OpCounter``. ``ltt_solve_fast`` is always called with ``with_trace=True``
and its ``SolveTrace`` kept, to read levels, counts and hat growth after the
pass.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name)
WRAPPED = (
    ("lttkit.bernoulli", "bernoulli_numbers", "bernoulli.bernoulli_numbers"),
    ("lttkit.bernoulli", "gen_system", "bernoulli.gen_system"),
    ("lttkit.bernoulli", "ltt_solve_fast", "solver.ltt_solve_fast"),
    ("lttkit.series", "ltt_solve_forward", "series.ltt_solve_forward"),
    ("lttkit.series", "ltt_matvec_naive", "series.ltt_matvec_naive"),
    ("lttkit.solver", "ltt_solve_fast", "solver.ltt_solve_fast"),
    ("lttkit.solver", "invert_first_column", "solver.invert_first_column"),
    ("lttkit.fft", "dft", "fft.dft"),
    ("lttkit.fft", "idft", "fft.idft"),
    ("lttkit.fft", "circulant_matvec", "fft.circulant_matvec"),
    ("lttkit.fft", "neg_circulant_matvec", "fft.neg_circulant_matvec"),
    ("lttkit.fft", "toeplitz_matvec_embed", "fft.toeplitz_matvec_embed"),
    ("lttkit.fft", "toeplitz_matvec_split", "fft.toeplitz_matvec_split"),
    ("lttkit.fft", "ltt_matvec_fft", "fft.ltt_matvec_fft"),
    ("lttkit.fft", "plan_for", "fft.plan_for"),
    ("lttkit.fft", "DftPlan", "fft.DftPlan"),
)

# per-layer metric -> unit, in report order
PER_LAYER = {
    "bernoulli.gen_system.calls": "count",
    "bernoulli.gen_system.self_s": "s",
    "bernoulli.bernoulli_numbers.self_s": "s",
    "bernoulli.pad_useful_ratio": "ratio",
    "series.ltt_solve_forward.calls": "count",
    "series.ltt_solve_forward.self_s": "s",
    "series.ltt_matvec_naive.calls": "count",
    "series.ltt_matvec_naive.self_s": "s",
    "series.ltt_matvec_naive.mults": "count",
    "solver.invert_first_column.calls": "count",
    "solver.invert_first_column.self_s": "s",
    "solver.ltt_solve_fast.self_s": "s",
    "solver.mults": "count",
    "solver.mults_per_nlogn": "ratio",
    "solver.levels": "count",
    "solver.levels_skipped": "count",
    "solver.hat_bits_max": "bits",
    "solver.hat_log2_range": "bits",
    "fft.dft.calls": "count",
    "fft.dft.self_s": "s",
    "fft.dft.points": "count",
    "fft.dft.mults": "count",
    "fft.dft.bytes_computed": "B",
    "fft.idft.self_s": "s",
    "fft.circulant_matvec.self_s": "s",
    "fft.neg_circulant_matvec.self_s": "s",
    "fft.toeplitz_matvec_embed.self_s": "s",
    "fft.toeplitz_matvec_split.self_s": "s",
    "fft.ltt_matvec_fft.calls": "count",
    "fft.ltt_matvec_fft.self_s": "s",
    "fft.plan_builds": "count",
    "fft.plan_hit_ratio": "ratio",
    "run.pass_s": "s",
    "run.ref_unit_s": "s",
    "baseline.tangent_s": "s",
    "trace.overhead_s": "s",
    "check.digits_min": "digits",
}

# metrics that must repeat exactly between runs at one seed
COUNTS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "bits", "B")) + (
    "solver.mults_per_nlogn",
    "bernoulli.pad_useful_ratio",
)


def _ops_position(fn):
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return names.index("ops") if "ops" in names else None


class Tracer:
    """Collects spans and counts for one pass at a time."""

    def __init__(self):
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self.called: set[str] = set()
        self._saved: list[tuple] = []
        self.reset()

    def reset(self):
        """Forget the spans and counts of the previous pass."""
        self.spans: list = []
        self.stack: list[int] = []
        self.mults: dict[str, int] = {}
        self.points = 0
        self.solves: list[tuple[int, object]] = []  # (n, SolveTrace)
        self.op = None

    # ------------------------------------------------------------ install

    def install(self):
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            label = f"{module_name}.{attr}"
            if not callable(fn):
                self.absent.append(label)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, label, fn))
            self.wrapped.append(label)

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, label, fn):
        if name == "solver.ltt_solve_fast":
            fn = self._keep_solve_trace(fn)
        ops_pos = _ops_position(fn)
        tracer = self

        def wrapper(*args, **kw):
            ops = kw.get("ops")
            if ops is None and ops_pos is not None and len(args) > ops_pos:
                ops = args[ops_pos]
            before = ops.mults if ops is not None else None
            tracer.called.add(label)
            if name == "fft.dft":
                tracer.points += len(args[0] if args else kw.get("z", ()))
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op)
                if before is not None:
                    tracer.mults[name] = tracer.mults.get(name, 0) + ops.mults - before

        return wrapper

    def _keep_solve_trace(self, fn):
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            return fn
        if "with_trace" not in sig.parameters:
            return fn
        tracer = self

        def solve(*args, **kw):
            bound = sig.bind(*args, **kw)
            wanted = bound.arguments.get("with_trace", False)
            bound.arguments["with_trace"] = True
            x, trace = fn(*bound.args, **bound.kwargs)
            tracer.solves.append((len(x), trace))
            return (x, trace) if wanted else x

        return solve

    # ------------------------------------------------------------ metrics

    def pass_metrics(self, requested_rows: int = 0) -> dict:
        """Per-layer values of the pass just traced (times, counts, growth).

        ``requested_rows`` is the number of unknowns the fast Bernoulli tables
        asked for, so that padding shows as a ratio against solved rows.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]

        out = {}
        for key in PER_LAYER:
            layer, _, what = key.rpartition(".")
            if what == "calls":
                out[key] = calls.get(layer, 0)
            elif what == "self_s":
                out[key] = self_s.get(layer, 0.0)
            elif what == "mults" and layer != "solver":
                out[key] = self.mults.get(layer, 0)

        out["fft.dft.points"] = self.points
        out["fft.dft.bytes_computed"] = self.points * 16 * 2
        lookups = calls.get("fft.plan_for", 0)
        builds = calls.get("fft.DftPlan", 0)
        out["fft.plan_builds"] = builds
        out["fft.plan_hit_ratio"] = (lookups - builds) / lookups if lookups else 0.0
        out.update(self._solve_metrics(requested_rows))
        return out

    def _solve_metrics(self, requested_rows: int) -> dict:
        mults = levels = skipped = bits = 0
        nlogn = 0.0
        log2_range = 0.0
        solved_rows = 0
        for n, trace in self.solves:
            # a SolveTrace that loses a field in a refactor reads as zero, not a crash
            mults += getattr(trace, "mult_count", 0)
            levels += getattr(trace, "levels", 0)
            nlogn += n * math.log2(n) if n > 1 else 0.0
            solved_rows += n
            for hat in getattr(trace, "hat_columns", ()):
                if len(hat) > 1 and not any(hat[1:]):
                    skipped += 1
                if hat and isinstance(hat[0], Fraction):
                    bits = max(bits, max(max(h.numerator.bit_length(), h.denominator.bit_length()) for h in hat))
                else:
                    # log2 of each end, not of their quotient: a subnormal minimum
                    # would overflow the quotient to inf
                    mags = [abs(h) for h in hat if h and math.isfinite(abs(h))]
                    if mags:
                        log2_range = max(log2_range, math.log2(max(mags)) - math.log2(min(mags)))
        return {
            "solver.mults": mults,
            "solver.mults_per_nlogn": mults / nlogn if nlogn else 0.0,
            "solver.levels": levels,
            "solver.levels_skipped": skipped,
            "solver.hat_bits_max": bits,
            "solver.hat_log2_range": log2_range,
            "bernoulli.pad_useful_ratio": requested_rows / solved_rows if requested_rows and solved_rows else 0.0,
        }


def combine(per_pass: list[dict]) -> dict:
    """Counts from the first traced pass, times as the median over passes."""
    first = per_pass[0]
    out = {}
    for key, value in first.items():
        if key.endswith("_s"):
            out[key] = statistics.median(p[key] for p in per_pass)
        else:
            out[key] = value
    return out
