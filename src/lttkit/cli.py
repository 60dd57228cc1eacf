"""Command line surface: bernoulli tables, l.t.T. solves, matvec backends
and a desk-scale selftest.

Exit codes: 0 success, 1 selftest failure, 2 usage or shape problem,
3 numerically singular input, or a solve or matvec result outside the
double range.
"""

from __future__ import annotations

import argparse
import cmath
import json
import random
import sys
from fractions import Fraction
from math import factorial

from . import bernoulli, fft, scalars, series, solver
from .series import SingularMatrixError


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_vectors(paths, field: str | None):
    """Read vector files as the value lists of operands of one field.

    Any complex file, or ``field`` complex, makes every operand complex. A
    complex file cannot be read as rational.
    """
    read = [series.read_vector(path) for path in paths]
    complex_paths = [path for path, (_, file_field) in zip(paths, read) if file_field == scalars.COMPLEX]
    if field == scalars.RATIONAL and complex_paths:
        raise ValueError(f"{complex_paths[0]} holds complex values, cannot reinterpret as rational")
    if field == scalars.COMPLEX or complex_paths:
        return [[complex(v) for v in values] for values, _ in read]
    return [values for values, _ in read]


def _emit_vector(values, out_path: str | None) -> None:
    """Write a result vector; a complex one outside the double range is refused."""
    # never cmath.isfinite on Fractions: converting a huge rational overflows
    if scalars.field_of(values) == scalars.COMPLEX and not all(map(cmath.isfinite, values)):
        raise OverflowError("the result leaves the double range")
    _emit(series.format_vector(values), out_path)


# ---------------------------------------------------------------- bernoulli


def cmd_bernoulli(args) -> int:
    numbers = bernoulli.bernoulli_numbers(
        args.count, args.method, x=args.x, solver=args.solver, base=args.base
    )
    if args.format == "plain":
        body = "".join(f"B_{2 * j} = {b}\n" for j, b in enumerate(numbers))
    elif args.format == "csv":
        rows = ["index,numerator,denominator"]
        rows.extend(f"{2 * j},{b.numerator},{b.denominator}" for j, b in enumerate(numbers))
        body = "\n".join(rows) + "\n"
    else:
        records = [{"j": 2 * j, "num": str(b.numerator), "den": str(b.denominator)} for j, b in enumerate(numbers)]
        body = json.dumps(records, indent=2) + "\n"
    _emit(body, args.out)
    return 0


# -------------------------------------------------------------------- solve


def cmd_solve(args) -> int:
    if args.trace and args.solver != "fast":
        raise ValueError("--trace needs --solver fast")
    coeffs, rhs = _load_vectors((args.coeffs, args.rhs), args.field)
    if len(coeffs) != len(rhs):
        raise ValueError(f"coefficient length {len(coeffs)} != rhs length {len(rhs)}")

    trace = None
    if args.solver == "forward":
        x = series.ltt_solve_forward(coeffs, rhs)
    elif args.trace:
        x, trace = solver.ltt_solve_fast(coeffs, rhs, args.base, with_trace=True)
    else:
        x = solver.ltt_solve_fast(coeffs, rhs, args.base)
    _emit_vector(x, args.out)
    if trace is not None:
        sys.stdout.write(f"# trace {trace.report()}\n")
    return 0


# ------------------------------------------------------------------- matvec


def cmd_matvec(args) -> int:
    coeffs, vec = _load_vectors((args.coeffs, args.vec), args.field)
    if args.type == "ltt":
        spec = fft.ToeplitzSpec.from_lower_column(coeffs)
    else:
        if len(coeffs) % 2 == 0:
            raise ValueError("a toeplitz diagonal file must hold 2n-1 values")
        spec = fft.ToeplitzSpec((len(coeffs) + 1) // 2, tuple(coeffs))
    if len(vec) != spec.n:
        raise ValueError(f"matrix order {spec.n} != vector length {len(vec)}")

    if args.impl == "naive":
        out = fft.toeplitz_matvec_naive(spec, vec)
    elif scalars.field_of(vec) != scalars.COMPLEX:
        raise ValueError(f"impl {args.impl!r} works on complex vectors only")
    elif args.impl == "embed":
        out = fft.toeplitz_matvec_embed(spec, vec, args.base)
    else:
        out = fft.toeplitz_matvec_split(spec, vec, args.base)
    _emit_vector(out, args.out)
    return 0


# ----------------------------------------------------------------- selftest


class _CheckFailed(AssertionError):
    pass


def _require(cond, label: str) -> int:
    if not cond:
        raise _CheckFailed(label)
    return 1


def _suite_scalars() -> int:
    n = 0
    n += _require(scalars.parse_scalar("-6/4", "rational") == Fraction(-3, 2), "reduce")
    n += _require(scalars.parse_scalar("0/7", "rational") == 0, "canonical zero")
    n += _require(scalars.parse_scalar("1,-1", "complex") == complex(1, -1), "complex read")
    for r in range(1, 17):
        rho = scalars.neg_root(r)
        n += _require(abs(rho**r + 1) < 1e-14, f"negative root order {r}")
    return n


def _suite_series() -> int:
    n = 0
    n += _require(series.ltt_matvec_naive([1, 0, 0], [3, 4, 5]) == [3, 4, 5], "identity")
    n += _require(series.ltt_matvec_naive([1, 1, 1], [1, 1, 1]) == [1, 2, 3], "prefix sums")
    n += _require(series.ltt_matvec_naive([1, 1, 0, 0], [1, -1, 0, 0]) == [1, 0, -1, 0], "product")
    n += _require(series.ltt_solve_forward([1, 2, 3, 4], [1, 0, 0, 0]) == [1, -2, 1, 0], "inverse column")
    rng = random.Random(101)
    a = [Fraction(1)] + [Fraction(rng.randint(-5, 5)) for _ in range(15)]
    f = [Fraction(rng.randint(-5, 5)) for _ in range(16)]
    n += _require(series.ltt_matvec_naive(a, series.ltt_solve_forward(a, f)) == f, "solve consistency")
    u = [Fraction(rng.randint(-9, 9), d) for d in range(1, 13)]
    w = [Fraction(rng.randint(-9, 9), d) for d in range(13, 25)]
    n += _require(series.ltt_matvec_kronecker(u, w) == series.ltt_matvec_naive(u, w), "kronecker product")
    # the four-point kernel reads even and odd coefficients apart: an odd length, a squaring,
    # an operand of two planes (entries wider than a digit, ~100x the other operand), and a
    # squaring at the digit bound, 2t = B + 2 (63 * (2**60 - 1)**2 needs all 126 bits)
    p, q = ([rng.randint(-99, 99) for _ in range(13)] for _ in range(2))
    n += _require(series._kronecker([p], q) == [series.ltt_matvec_naive(p, q)], "kronecker odd length")
    n += _require(series._kronecker([q], q) == [series.ltt_matvec_naive(q, q)], "kronecker squaring")
    wide = [rng.randint(-(2**800), 2**800) for _ in range(13)]
    n += _require(series._kronecker([wide], p) == [series.ltt_matvec_naive(wide, p)], "kronecker two planes")
    edge = [-(2**60 - 1)] * 63
    n += _require(series._kronecker([edge], edge) == [series.ltt_matvec_naive(edge, edge)], "kronecker digit bound")
    return n


def _suite_fft() -> int:
    n = 0
    rng = random.Random(202)
    # bases 4 and 6 reach the middle output y_{b/2} of the even-base pair butterfly
    for size, base in ((8, 2), (16, 2), (32, 2), (9, 3), (27, 3), (25, 5), (125, 5), (64, 4), (36, 6)):
        z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(size)]
        plan = fft.plan_for(size, base)
        got = fft.dft(z, plan)
        ref = [
            sum(z[k] * cmath.exp(2j * cmath.pi * ((i * k) % size) / size) for k in range(size))
            for i in range(size)
        ]
        n += _require(max(abs(p - q) for p, q in zip(got, ref)) < 1e-11, f"dft {size}")
        back = fft.idft(got, plan)
        n += _require(max(abs(p - q) for p, q in zip(back, z)) < 1e-12, f"idft {size}")
        if size in (16, 27, 32):  # pruned transforms: implicit zeros, and only the leading outputs
            short = z[: size // base]
            n += _require(fft.dft(short, plan) == fft.dft(short + [0j] * (size - len(short)), plan), f"short dft {size}")
            n += _require(fft.idft(got, plan, keep=size // base) == back[: size // base], f"kept idft {size}")
    shifted = fft.circulant_matvec([0, 1, 0, 0], [1, 2, 3, 4], 2)
    n += _require(max(abs(p - q) for p, q in zip(shifted, [2, 3, 4, 1])) < 1e-12, "cyclic shift")
    diags = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(15)]
    spec = fft.ToeplitzSpec(8, tuple(diags))
    v = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
    dense = fft.toeplitz_matvec_naive(spec, v)
    for name, got in (
        ("embed", fft.toeplitz_matvec_embed(spec, v, 2)),
        ("split", fft.toeplitz_matvec_split(spec, v, 2)),
    ):
        n += _require(max(abs(p - q) for p, q in zip(got, dense)) < 1e-10, name)
    return n


def _suite_solver() -> int:
    n = 0
    rng = random.Random(303)
    sizes = ((2, 8), (2, 16), (3, 9), (3, 27))
    cases = [(b, [Fraction(1)] + [Fraction(rng.randint(-3, 3)) for _ in range(m - 1)]) for b, m in sizes]
    for base, a in cases + [(3, [1, 0, 0, 5, 0, 0, 7])]:  # an int column that skips its first level
        x, _ = solver.invert_first_column(a, base)
        want = series.ltt_solve_forward(a, [1] + [0] * (len(a) - 1))
        n += _require([(type(v), v) for v in x] == [(type(v), v) for v in want], f"invert b={base} n={len(a)}")
    a = [Fraction(1)] + [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(26)]
    w = series.ltt_matvec_naive(a, solver.sparsify_hat(a, 3))
    n += _require(all(w[i] == 0 for i in range(27) if i % 3), "nullified diagonals")
    ac = [1.0 + 0j] + [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(26)]
    xc, _ = solver.invert_first_column(ac, 3)
    ref = series.ltt_solve_forward(ac, [1.0 + 0j] + [0j] * 26)
    scale = max(max(abs(v) for v in ref), 1.0)
    n += _require(max(abs(p - q) for p, q in zip(xc, ref)) / scale < 1e-9, "complex invert")
    return n


def _suite_bernoulli() -> int:
    golden = [
        Fraction(1),
        Fraction(1, 6),
        Fraction(-1, 30),
        Fraction(1, 42),
        Fraction(-1, 30),
        Fraction(5, 66),
        Fraction(-691, 2730),
        Fraction(7, 6),
        Fraction(-3617, 510),
    ]
    n = 0
    for method in bernoulli.METHODS:
        n += _require(bernoulli.bernoulli_numbers(9, method) == golden, f"golden {method}")
    n += _require(
        bernoulli.bernoulli_numbers(9, "ltt-ram-I", solver="fast") == golden, "golden fast"
    )
    n += _require(
        bernoulli.ramanujan_rhs(5) == [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(1, 45)],
        "sparse rhs",
    )
    n += _require(all(bernoulli.von_staudt_check(j) for j in range(1, 9)), "denominators")
    n += _require(bernoulli.tartaglia_check(6), "triangle identities")
    n += _require(
        bernoulli.bernoulli_numbers(8, "ltt-even-II", x=Fraction(7, 3)) == golden[:8],
        "x independence",
    )
    scaled = [golden[i] / Fraction(factorial(2 * i)) for i in range(9)]
    for family in bernoulli.FAMILIES:
        sys_ = bernoulli.gen_system(family, "typeI", 9, Fraction(1))
        n += _require(series.ltt_matvec_naive(sys_.a, scaled) == sys_.rhs(), f"residual {family}")
        n += _require(sys_.a[0] == 1, f"unit diagonal {family}")
    return n


def cmd_selftest(args) -> int:
    suites = [
        ("scalars", _suite_scalars),
        ("series", _suite_series),
        ("fft", _suite_fft),
        ("solver", _suite_solver),
        ("bernoulli", _suite_bernoulli),
    ]
    failed = False
    for name, fn in suites:
        try:
            count = fn()
        except _CheckFailed as exc:
            print(f"{name}: FAIL ({exc})")
            failed = True
        else:
            print(f"{name}: {count} checks passed")
    if failed:
        return 1
    print("all suites passed")
    return 0


# --------------------------------------------------------------------- main


def _rational_arg(text: str) -> Fraction:
    # argparse reports only ValueError, TypeError and ArgumentTypeError as usage errors
    try:
        return scalars.parse_scalar(text, scalars.RATIONAL)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lttkit",
        description="Triangular Toeplitz kernels and exact Bernoulli numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="print a table of Bernoulli numbers")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--method", choices=bernoulli.METHODS, default="ltt-ram-I")
    p.add_argument("--x", type=_rational_arg, default=Fraction(1))
    p.add_argument("--solver", choices=("forward", "fast"), default="forward")
    p.add_argument("--base", type=int, default=None, help="2 or 3")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("solve", help="solve an l.t.T. system from vector files")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--field", choices=(scalars.RATIONAL, scalars.COMPLEX), default=None)
    p.add_argument("--solver", choices=("forward", "fast"), default="forward")
    p.add_argument("--trace", action="store_true", help="print the solve trace; needs --solver fast")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("matvec", help="structured matrix-vector product")
    p.add_argument("--coeffs", required=True, help="column (ltt) or 2n-1 diagonals (toeplitz)")
    p.add_argument("--vec", required=True)
    p.add_argument("--type", choices=("ltt", "toeplitz"), default="ltt")
    p.add_argument("--impl", choices=("naive", "embed", "split"), default="naive")
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--field", choices=(scalars.RATIONAL, scalars.COMPLEX), default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_matvec)

    p = sub.add_parser("selftest", help="run the desk-scale invariant suites")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularMatrixError as exc:
        print(f"error: singular system: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
