"""Command line surface: bernoulli tables, l.t.T. solves and matvec backends.

Exit codes: 0 success, 2 usage or shape problem, or an operand entry of a
complex solve or product that is not a finite double, 3 numerically
singular input, or a solve or matvec result outside the double range.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bernoulli, fft, format_scalar, series, solver
from .series import SingularMatrixError


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- bernoulli


def cmd_bernoulli(args) -> int:
    numbers = bernoulli.bernoulli_numbers(args.count, args.method, solver=args.solver)
    # format_scalar writes an exact value of any length, past Python's int-string digit limit
    if args.format == "plain":
        body = "".join(f"B_{2 * j} = {format_scalar(b)}\n" for j, b in enumerate(numbers))
    elif args.format == "csv":
        rows = ["index,numerator,denominator"]
        rows.extend(
            f"{2 * j},{format_scalar(b.numerator)},{format_scalar(b.denominator)}" for j, b in enumerate(numbers)
        )
        body = "\n".join(rows) + "\n"
    else:
        records = [
            {"j": 2 * j, "num": format_scalar(b.numerator), "den": format_scalar(b.denominator)}
            for j, b in enumerate(numbers)
        ]
        body = json.dumps(records, indent=2) + "\n"
    _emit(body, args.out)
    return 0


# -------------------------------------------------------------------- solve


def cmd_solve(args) -> int:
    if args.trace and args.solver != "fast":
        raise ValueError("--trace needs --solver fast")
    coeffs, rhs = series.read_vector(args.coeffs), series.read_vector(args.rhs)
    if args.solver == "forward":
        x = series.ltt_solve_forward(coeffs, rhs)
    else:
        x, trace = solver.ltt_solve_fast(coeffs, rhs, args.base, with_trace=True)
    _emit(series.format_vector(x), args.out)
    if args.trace:
        sys.stderr.write(f"# trace {trace.report()}\n")
    return 0


# ------------------------------------------------------------------- matvec


def cmd_matvec(args) -> int:
    coeffs, vec = series.read_vector(args.coeffs), series.read_vector(args.vec)
    if args.type == "ltt":
        spec = fft.ToeplitzSpec.from_lower_column(coeffs)
    else:
        spec = fft.ToeplitzSpec((len(coeffs) + 1) // 2, tuple(coeffs))

    if args.impl == "naive":
        out = fft.toeplitz_matvec_naive(spec, vec)
    elif args.impl == "embed":
        out = fft.toeplitz_matvec_embed(spec, vec, args.base)
    else:
        out = fft.toeplitz_matvec_split(spec, vec, args.base)
    _emit(series.format_vector(out), args.out)
    return 0


# --------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lttkit",
        description="Triangular Toeplitz kernels and exact Bernoulli numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="print a table of Bernoulli numbers")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--method", choices=bernoulli.METHODS, default="ltt-ram-I")
    p.add_argument("--solver", choices=("forward", "fast"), default="forward")
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("solve", help="solve an l.t.T. system from vector files")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--solver", choices=("forward", "fast"), default="forward")
    p.add_argument("--trace", action="store_true", help="print the solve trace to stderr; needs --solver fast")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("matvec", help="structured matrix-vector product")
    p.add_argument("--coeffs", required=True, help="column (ltt) or 2n-1 diagonals (toeplitz)")
    p.add_argument("--vec", required=True)
    p.add_argument("--type", choices=("ltt", "toeplitz"), default="ltt")
    p.add_argument("--impl", choices=("naive", "embed", "split"), default="naive")
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_matvec)

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
