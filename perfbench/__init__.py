"""Benchmark for lttkit: exact Bernoulli tables, complex l.t.T. solves and
Toeplitz matvecs, with per-layer times and counts from a traced run.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see ``run.py``.
"""
