"""Run one lttkit benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One closed loop, one caller, one process and one thread: passes over the
workload's ops run back to back until ``--seconds`` of measured time is
spent (at least one pass). Every output is checked outside the timed
region (``checks.py``); failed ops are counted against attempted ops.

``--trace 0`` reports the end-to-end metrics: ``pass_rel`` (median over
passes of the pass's wall time in units of fixed reference work, timed
between segments of the pass; see ``run_pass``), ``setup_s`` (median over
one set-up here and two in fresh processes: import, input generation, one
untimed warm-up op per size class) and ``peak_rss_mb`` (peak resident memory
after set-up and the first pass). The wall time of a pass is printed too, and
is the per-layer ``run.pass_s``. On a shared host whose speed steps by a
third and more within seconds, wall times of one commit spread 10-20% from
run to run; the reference work drifts with them, so ``pass_rel`` compares
commits where wall time cannot.

``--trace 1`` spends half the time untraced and half with the span wrappers
of ``tracing.py`` installed, and reports the per-layer metrics; counts come
from the first traced pass, times are medians over traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give each metric with its unit, sample count and tail percentile, and a run
record (seed, commit, versions, ``nproc``, op and sample counts), which is
also written with the spans to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import BERNOULLI_COUNT, WORKLOADS, make_ops, warmup_ops  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
SETUP_CHILDREN = 2
TANGENT_REPEATS = 5


def import_lttkit():
    """Import lttkit from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lt = importlib.import_module("lttkit")
    if Path(lt.__file__).resolve().parent.parent != src:
        raise ImportError(f"lttkit was imported from {lt.__file__}, not from {src}")
    return lt


def setup(workload: str, seed: int):
    """Import, generate inputs, warm up; returns (ops, seconds)."""
    t0 = perf_counter()
    lt = import_lttkit()
    ops = make_ops(workload, lt, seed)
    for op in warmup_ops(ops):
        try:
            op.call()
        except Exception:
            pass  # the same op fails again in the measured passes, where it is counted
    return ops, perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_REF_DATA = tuple(complex(i % 7, i % 5) for i in range(4096))
REF_UNITS = 2  # reference units timed at each segment boundary; their minimum is kept
SEGMENT_S = 0.2  # ops run back to back for at least this long between reference timings


def reference_unit() -> float:
    """Seconds for one unit of fixed interpreter work: complex multiply-adds over a tuple."""
    t0 = perf_counter()
    acc = 0j
    for _ in range(8):
        for z in _REF_DATA:
            acc = acc * 0.5 + z * (1 + 1j)
    return perf_counter() - t0


def reference() -> float:
    return min(reference_unit() for _ in range(REF_UNITS))


def run_pass(ops, tracer=None):
    """(pass seconds, per-op seconds, outputs, reference unit seconds).

    A raised exception is the op's output. The host's speed steps by a third
    and more within seconds, so the pass is cut into segments of at least
    ``SEGMENT_S`` and each segment is divided by the reference timed on both
    sides of it. The reference unit returned is the pass time over the sum of
    those quotients; pass time excludes the reference work.
    """
    gc.collect()
    before = reference()
    times, outputs = [], []
    rel = segment = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:
            out = exc
        times.append(perf_counter() - t0)
        outputs.append(out)
        segment += times[-1]
        if segment >= SEGMENT_S or i == len(ops) - 1:
            after = reference()
            rel += segment / ((before + after) / 2)
            before, segment = after, 0.0
    seconds = sum(times)
    return seconds, times, outputs, seconds / rel


class Tally:
    """Attempted and failed ops, the lowest accuracy seen, the first errors.

    ``oracle`` is the expected Bernoulli table, for workloads of tables.
    """

    def __init__(self, oracle=None):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.digits_min = math.inf
        self.errors: list[str] = []

    def check(self, ops, outputs):
        from perfbench import checks  # numpy loads only once the first pass is timed

        for op, out in zip(ops, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                ok, digits, why = False, None, f"raised {type(out).__name__}: {out}"
            else:
                try:
                    ok, digits = checks.check(op.kind, op.data, out, self.oracle)
                    why = f"digits={digits}" if digits is not None else "differs from the oracle or malformed"
                except Exception as exc:
                    ok, digits, why = False, None, f"check raised {type(exc).__name__}: {exc}"
            if digits is not None:
                self.digits_min = min(self.digits_min, digits)
            if not ok:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{op.label}: {why}")


def tail(samples):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it: (p, value) or None."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = (p, ordered[max(0, math.ceil(p / 100 * n) - 1)])
    return best


def describe(name, value, unit, samples=None):
    line = f"{name:<36} {value:>14.6g} {unit}"
    if samples is not None:
        hi = tail(samples)
        extra = f"p{hi[0]:g}={hi[1]:.6g}" if hi else "no percentile with 10 samples beyond"
        line += f"  (median of n={len(samples)}; {extra})"
    return line


def git_commit():
    """The checkout's commit, read from .git inside it, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_setups(args) -> list[float]:
    """Set-up seconds measured in fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


@dataclass
class Passes:
    """Timings of consecutive passes; with a tracer, per-layer values too."""

    times: list = field(default_factory=list)
    rel: list = field(default_factory=list)
    ref: list = field(default_factory=list)
    op_times: dict = field(default_factory=dict)
    layer: list = field(default_factory=list)
    spans: list | None = None


def measure(ops, budget, tally, done=None, tracer=None, rows=0) -> Passes:
    """Passes until ``budget`` seconds are spent, at least one; each is checked after timing.

    ``done`` is a pass already run, counted first. With a tracer, keeps the
    per-layer values of every traced pass and the spans of the first.
    """
    p = Passes()
    while not p.times or sum(p.times) < budget:
        if done is None:
            if tracer is not None:
                tracer.reset()
            seconds, times, outputs, ref = run_pass(ops, tracer)
            if tracer is not None:
                p.layer.append(tracer.pass_metrics(rows))
                p.spans = p.spans or list(tracer.spans)
        else:
            (seconds, times, outputs, ref), done = done, None
        p.times.append(seconds)
        p.ref.append(ref)
        p.rel.append(seconds / ref)
        for op, t in zip(ops, times):
            p.op_times.setdefault(op.size_class, []).append(t)
        tally.check(ops, outputs)
        del outputs
    return p


def end_to_end(args, passes, setup_main, rss, tally, record):
    """Metrics of the untraced run, and the report lines."""
    setups = [setup_main] + child_setups(args)
    record["setup_times"] = setups
    values = {"pass_rel": statistics.median(passes.rel), "setup_s": statistics.median(setups), "peak_rss_mb": rss}
    units = {"pass_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
    samples = {"pass_rel": passes.rel, "setup_s": setups}
    lines = [describe(k, values[k], units[k], samples.get(k)) for k in values]
    lines.append(describe("pass_s", statistics.median(passes.times), "s", passes.times))
    lines.append(describe("ref_unit_s", statistics.median(passes.ref), "s", passes.ref))
    for cls, times in passes.op_times.items():
        lines.append(describe(f"op[{cls}]_s", statistics.median(times), "s", times))
    if math.isfinite(tally.digits_min):
        lines.append(describe("digits_min", tally.digits_min, "digits"))
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, lines


def per_layer(args, ops, untraced, tally, record):
    """Traced passes for the second half of the time; per-layer metrics, report lines, spans."""
    from perfbench import checks

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(ops, args.seconds / 2, tally, tracer=tracer, rows=sum(op.rows for op in ops))
    finally:
        tracer.uninstall()
    record.update(traced_pass_times=traced.times, wrapped=tracer.wrapped, absent=tracer.absent,
                  not_called=[w for w in tracer.wrapped if w not in tracer.called])
    values = tracing.combine(traced.layer)
    values["run.pass_s"] = statistics.median(untraced.times)
    values["run.ref_unit_s"] = statistics.median(untraced.ref)
    values["trace.overhead_s"] = statistics.median(traced.times) - values["run.pass_s"]
    values["check.digits_min"] = tally.digits_min if math.isfinite(tally.digits_min) else 0.0
    tangent = []
    for _ in range(TANGENT_REPEATS if tally.oracle is not None else 0):
        t0 = perf_counter()
        checks.bernoulli_oracle(BERNOULLI_COUNT)
        tangent.append(perf_counter() - t0)
    values["baseline.tangent_s"] = statistics.median(tangent) if tangent else 0.0
    lines = [describe(k, values[k], unit) for k, unit in tracing.PER_LAYER.items()]
    return {k: {"value": values[k], "unit": unit} for k, unit in tracing.PER_LAYER.items()}, lines, traced.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _, seconds = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    ops, setup_main = setup(args.workload, args.seed)
    # The first pass runs before numpy is imported, so peak_rss_mb is the package's.
    first = run_pass(ops)
    rss = peak_rss_mb()

    from perfbench import checks

    oracle = checks.bernoulli_oracle(BERNOULLI_COUNT) if ops[0].kind == "table" else None
    tally = Tally(oracle)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = measure(ops, budget, tally, done=first)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": checks.np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "ops_per_pass": len(ops),
        "pass_times": passes.times,
        "ref_unit_times": passes.ref,
    }
    spans = None
    if args.trace:
        metrics, lines, spans = per_layer(args, ops, passes, tally, record)
    else:
        metrics, lines = end_to_end(args, passes, setup_main, rss, tally, record)
    record.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "spans": spans}, fh)
    for line in lines:
        print(line)
    print("record " + json.dumps(record))
    # a non-finite metric is no valid JSON: fail the run rather than print it
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
