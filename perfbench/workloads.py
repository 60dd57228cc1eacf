"""Workloads: seeded inputs and the calls into lttkit's public functions.

Three workloads, each stressing other layers; within a pass the ops of a
workload run in an order the seed sets:

* ``bernoulli-exact``: ``bernoulli_numbers(128, method, solver)`` for the 8
  methods with ``solver="forward"`` and the 6 ``ltt-*`` methods with
  ``solver="fast"``, x = 1. Work is in ``series``, the exact ``solver`` path
  and ``bernoulli``; ``fft`` does none. The fast ramanujan tables pad 128 to
  243 under base 3.
* ``complex-solve``: ``ltt_solve_fast(a, f, base, with_trace=True)`` at base
  2 (n = 4096, 16384), base 3 (2187, 6561) and base 5 (625), with a_0 = 1,
  a_k = u_k 2**-k (u uniform on the unit square) and f uniform on
  [-1, 1)**2. The three bases hit the three hat forms (sign flip, tuned
  radix-3 loop, generic loop). Faster-decaying or flat columns lose accuracy
  today, so they are not used here.
* ``toeplitz-matvec``: full, non-triangular ``toeplitz_matvec_embed`` and
  ``toeplitz_matvec_split`` at large sizes of bases 2, 3 and 5, and 1000
  alternating calls at n = 64 where per-call overhead dominates. ``fft``
  alone, no solver.

The size class of an op (its timing row in the report) names its solver,
size or procedure, so per-class times such as forward and fast tables, or
base-2 and base-3 solves, stay apart.

Every op looks its function up on the module at call time, so the trace
wrappers of ``tracing.py`` see the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

BERNOULLI_COUNT = 128
SOLVE_SIZES = {2: (4096, 16384), 3: (2187, 6561), 5: (625,)}
MATVEC_SIZES = ((2, 4096), (2, 16384), (3, 2187), (3, 6561), (5, 3125))
SMALL_N = 64
SMALL_CALLS = 1000


@dataclass
class Op:
    """One call into the package, with what its checker needs."""

    label: str
    size_class: str
    kind: str  # "table", "solve" or "matvec"
    call: Callable[[], object]
    data: tuple = ()
    rows: int = 0  # unknowns a fast Bernoulli table asks the solver for


def _unit_square(rng: random.Random) -> complex:
    return complex(rng.random(), rng.random())


def _centered(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def _bernoulli_ops(lt, solver):
    methods = [m for m in lt.bernoulli.METHODS if solver == "forward" or m.startswith("ltt-")]
    ops = []
    for method in methods:
        # the fast ramanujan tables pad to a power of 3, the rest to a power of 2
        size = f"{solver} base3" if solver == "fast" and "-ram-" in method else f"{solver} base2"
        call = lambda m=method: lt.bernoulli.bernoulli_numbers(BERNOULLI_COUNT, m, Fraction(1), solver)
        # a type II system drops the row of B_0
        rows = 0 if solver == "forward" else BERNOULLI_COUNT - method.endswith("-II")
        ops.append(Op(f"{method}/{solver}", size, "table", call, rows=rows))
    return ops


def _solve_ops(lt, rng, base):
    ops = []
    for n in SOLVE_SIZES[base]:
        a = [1 + 0j] + [_unit_square(rng) * 2.0**-k for k in range(1, n)]
        f = [_centered(rng) for _ in range(n)]
        call = lambda a=a, f=f: lt.solver.ltt_solve_fast(a, f, base, with_trace=True)
        ops.append(Op(f"solve b{base} n={n}", f"n={n}", "solve", call, (a, f)))
    return ops


def _matvec_op(lt, rng, proc, base, n):
    diags = [_centered(rng) for _ in range(2 * n - 1)]
    v = [_centered(rng) for _ in range(n)]

    def call():
        fn = getattr(lt.fft, f"toeplitz_matvec_{proc}")
        return fn(lt.fft.ToeplitzSpec(n, diags), v, base, lt.OpCounter())

    return Op(f"{proc} b{base} n={n}", f"{proc} n={n}", "matvec", call, (diags, v))


def _bernoulli_exact(lt, rng):
    return _bernoulli_ops(lt, "forward") + _bernoulli_ops(lt, "fast")


def _complex_solve(lt, rng):
    return [op for base in SOLVE_SIZES for op in _solve_ops(lt, rng, base)]


def _toeplitz_matvec(lt, rng):
    large = [_matvec_op(lt, rng, proc, base, n) for proc in ("embed", "split") for base, n in MATVEC_SIZES]
    small = [_matvec_op(lt, rng, ("embed", "split")[i % 2], 2, SMALL_N) for i in range(SMALL_CALLS)]
    return large + small


WORKLOADS: dict[str, Callable] = {
    "bernoulli-exact": _bernoulli_exact,
    "complex-solve": _complex_solve,
    "toeplitz-matvec": _toeplitz_matvec,
}


def make_ops(name: str, lt, seed: int) -> list[Op]:
    """The workload's ops for this seed, in the seed's order; ``lt`` is the imported lttkit package."""
    rng = random.Random(seed)
    ops = WORKLOADS[name](lt, rng)
    rng.shuffle(ops)
    return ops


def warmup_ops(ops: list[Op]) -> list[Op]:
    """One op per size class, the one whose label sorts first, so set-up does
    the same work whatever the seed's op order."""
    first = {}
    for op in ops:
        if op.size_class not in first or op.label < first[op.size_class].label:
            first[op.size_class] = op
    return list(first.values())
