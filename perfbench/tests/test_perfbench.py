"""Tests of the benchmark itself: oracle, checkers, trace counts, contract.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks, run, tracing  # noqa: E402
from perfbench.workloads import BERNOULLI_COUNT, WORKLOADS, Op  # noqa: E402

lt = run.import_lttkit()


# ------------------------------------------------------------------ oracle


def test_tangent_oracle_first_values():
    assert checks.tangent_numbers(5) == [1, 2, 16, 272, 7936]
    assert checks.bernoulli_oracle(5) == [
        Fraction(1), Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30)
    ]


def test_tangent_oracle_matches_binom_even_at_512():
    assert checks.bernoulli_oracle(512) == lt.bernoulli.bernoulli_numbers(512, "binom-even")


# ---------------------------------------------------------------- checkers


def _tally(ops, outputs, oracle=None):
    tally = run.Tally(oracle)
    tally.check(ops, outputs)
    return tally


def test_table_one_ulp_off_is_counted_failed():
    oracle = checks.bernoulli_oracle(BERNOULLI_COUNT)
    op = Op("t", "base2", "table", lambda: None)
    bad = list(oracle)
    b = bad[100]
    bad[100] = Fraction(b.numerator + 1, b.denominator)
    assert _tally([op], [list(oracle)], oracle).failed == 0
    tally = _tally([op, op], [bad, list(oracle)], oracle)
    assert (tally.attempted, tally.failed) == (2, 1)


def _solve_op(n=256):
    a = [1 + 0j] + [complex(0.3, -0.2) * 2.0**-k for k in range(1, n)]
    f = [complex(math.sin(k), math.cos(k)) for k in range(n)]
    return Op("s", "n", "solve", lambda: None, (a, f)), lt.series.ltt_solve_forward(a, f)


def _matvec_op(n=128):
    diags = [complex(math.cos(3 * k), math.sin(k)) for k in range(2 * n - 1)]
    v = [complex(1.0 / (k + 1), -0.5) for k in range(n)]
    y = lt.fft.toeplitz_matvec_split(lt.fft.ToeplitzSpec(n, diags), v, 2)
    return Op("m", "n", "matvec", lambda: None, (diags, v)), y


@pytest.mark.parametrize("make", [_solve_op, _matvec_op])
def test_complex_result_with_one_nan_is_counted_failed(make):
    op, good = make()
    bad = list(good)
    bad[len(bad) // 2] = complex(math.nan, 0.0)
    assert _tally([op], [good]).failed == 0
    tally = _tally([op, op, op], [good, bad, ValueError("raised")])
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.digits_min >= checks.TOL_DIGITS


def test_inaccurate_solve_is_counted_failed():
    op, good = _solve_op()
    off = [x * (1 + 1e-6) for x in good]
    assert _tally([op], [off]).failed == 1


# ------------------------------------------------------------------ traces


def _traced_pass(workload, seed):
    ops, _ = run.setup(workload, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, outputs, _ = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    tally = _tally(ops, outputs, checks.bernoulli_oracle(BERNOULLI_COUNT))
    assert tally.failed == 0, tally.errors
    return tracer.pass_metrics(sum(op.rows for op in ops))


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (_traced_pass(w, 11), _traced_pass(w, 11)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(traced_twice, workload):
    first, second = traced_twice[workload]
    assert {k: first[k] for k in tracing.COUNTS} == {k: second[k] for k in tracing.COUNTS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_isolation(traced_twice, workload):
    m, _ = traced_twice[workload]
    if workload == "bernoulli-exact":
        assert m["fft.dft.calls"] == 0
        assert m["bernoulli.gen_system.calls"] > 0
        assert m["solver.hat_bits_max"] > 0
        assert 0 < m["bernoulli.pad_useful_ratio"] < 1
    else:
        assert m["series.ltt_matvec_naive.calls"] == 0
        assert m["fft.dft.calls"] > 0
    if workload == "toeplitz-matvec":
        assert m["solver.invert_first_column.calls"] == 0


def test_absent_name_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (("lttkit.fft", "gone", "fft.gone"),))
    original = lt.fft.dft
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lt.fft.dft is not original
    finally:
        tracer.uninstall()
    assert tracer.absent == ["lttkit.fft.gone"]
    assert lt.fft.dft is original


# ---------------------------------------------------------------- contract


def _run_cli(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "complex-solve", "--seed", "5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_two_traced_runs_report_identical_counts():
    results = []
    for _ in range(2):
        proc = _run_cli(ROOT, "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(tracing.PER_LAYER)
    counts = [{k: r["metrics"][k]["value"] for k in tracing.COUNTS} for r in results]
    assert counts[0] == counts[1]


def test_untraced_run_reports_end_to_end_metrics():
    proc = _run_cli(ROOT, "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_fails_without_the_package():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _run_cli(bare, "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_hat_log2_range_is_finite_with_subnormal_entries():
    class Trace:
        mult_count, levels = 0, 1
        hat_columns = [[1.0 + 0j, 5e-324j, 0j, complex(math.inf, 0)]]

    tracer = tracing.Tracer()
    tracer.solves.append((4, Trace()))
    value = tracer.pass_metrics()["solver.hat_log2_range"]
    assert math.isfinite(value) and value == pytest.approx(1074)
