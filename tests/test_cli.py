import json
from fractions import Fraction

import pytest

from lttkit import bernoulli
from lttkit.cli import main
from lttkit.fft import ToeplitzSpec, toeplitz_matvec_embed, toeplitz_matvec_split
from lttkit.scalars import parse_scalar
from lttkit.series import format_vector, ltt_solve_forward, read_vector, write_vector
from lttkit.solver import ltt_solve_fast


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bernoulli_plain_table(capsys):
    code, out, _ = run(capsys, "bernoulli", "--count", "9", "--method", "ltt-ram-I")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "B_0 = 1"
    assert lines[1] == "B_2 = 1/6"
    assert lines[-1] == "B_16 = -3617/510"


def test_bernoulli_count_one(capsys):
    code, out, _ = run(capsys, "bernoulli", "--count", "1")
    assert code == 0 and out == "B_0 = 1\n"


def test_bernoulli_csv_cross_method_identical(capsys):
    code, csv_a, _ = run(capsys, "bernoulli", "--count", "16", "--method", "binom-even", "--format", "csv")
    assert code == 0
    code, csv_b, _ = run(capsys, "bernoulli", "--count", "16", "--method", "ltt-odd-II", "--format", "csv")
    assert code == 0
    assert csv_a == csv_b
    rows = csv_a.strip().splitlines()
    assert rows[0] == "index,numerator,denominator"
    assert len(rows) == 17


def test_bernoulli_csv_round_trips_through_parse(capsys):
    _, out, _ = run(capsys, "bernoulli", "--count", "12", "--format", "csv")
    expected = bernoulli.bernoulli_numbers(12)
    for row, want in zip(out.strip().splitlines()[1:], expected):
        idx, num, den = row.split(",")
        assert parse_scalar(f"{num}/{den}", "rational") == want
        assert int(idx) % 2 == 0


def test_bernoulli_json_round_trips(capsys):
    _, out, _ = run(capsys, "bernoulli", "--count", "10", "--format", "json")
    records = json.loads(out)
    expected = bernoulli.bernoulli_numbers(10)
    assert [r["j"] for r in records] == [2 * j for j in range(10)]
    for rec, want in zip(records, expected):
        assert parse_scalar(f"{rec['num']}/{rec['den']}", "rational") == want


def test_bernoulli_deterministic_output(capsys):
    _, first, _ = run(capsys, "bernoulli", "--count", "20", "--solver", "fast")
    _, second, _ = run(capsys, "bernoulli", "--count", "20", "--solver", "fast")
    assert first == second


def test_bernoulli_rejects_bad_method(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bernoulli", "--count", "4", "--method", "pascal"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        # each family is solved at its own base: 3 for ramanujan, 2 otherwise
        (["bernoulli", "--count", "5", "--solver", "fast", "--base", "3"], "--base"),
        # every nonzero scaling gives the same numbers, and 1 gives them fastest
        (["bernoulli", "--count", "5", "--x", "7/3"], "--x"),
        # the library takes the field from the values read from the files
        (["solve", "--coeffs", "a.txt", "--rhs", "f.txt", "--field", "complex"], "--field"),
        (["matvec", "--coeffs", "a.txt", "--vec", "v.txt", "--field", "complex"], "--field"),
    ],
    ids=["bernoulli-base", "bernoulli-x", "solve-field", "matvec-field"],
)
def test_removed_flag_is_not_an_option(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and flag in capsys.readouterr().err


def test_bernoulli_binom_rejects_fast_solver(capsys):
    for method in ("binom-even", "binom-odd"):
        code, out, err = run(capsys, "bernoulli", "--count", "4", "--method", method, "--solver", "fast")
        assert code == 2 and out == "" and method in err and "fast" in err, method


def test_bernoulli_out_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, out, _ = run(capsys, "bernoulli", "--count", "3", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "B_0 = 1\nB_2 = 1/6\nB_4 = -1/30\n"


def test_solve_forward_from_files(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    write_vector(rhs, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    code, out, _ = run(capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs))
    assert code == 0
    assert out.splitlines() == ["# n=4 field=rational", "1", "-2", "1", "0"]


def test_solve_identity_echoes_rhs(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [Fraction(1), Fraction(0), Fraction(0)])
    write_vector(rhs, [Fraction(7), Fraction(8), Fraction(9)])
    code, out, _ = run(capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs))
    assert code == 0
    assert out.splitlines()[1:] == ["7", "8", "9"]


def test_solve_fast_with_trace(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    write_vector(rhs, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    code, out, err = run(
        capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs), "--solver", "fast", "--trace"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1:5] == ["1", "-2", "1", "0"]
    assert err.startswith("# trace base=2 levels=2 mult_count=") and err.count("\n") == 1
    # the trace goes to stderr, so the redirected stdout reads back as x
    saved = tmp_path / "x.txt"
    saved.write_text(out)
    x = read_vector(saved)
    assert x == [1, -2, 1, 0] and all(type(v) is Fraction for v in x)
    # without --trace the same solve writes the same x and nothing to stderr
    assert run(capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs), "--solver", "fast") == (0, out, "")


@pytest.mark.parametrize("solver", [None, "forward"])
def test_solve_trace_needs_fast_solver(tmp_path, capsys, solver):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [Fraction(1), Fraction(2)])
    write_vector(rhs, [Fraction(1), Fraction(0)])
    argv = ["solve", "--coeffs", str(coeffs), "--rhs", str(rhs), "--trace"]
    code, out, err = run(capsys, *argv, *(["--solver", solver] if solver else []))
    assert code == 2 and out == "" and "--trace needs --solver fast" in err


def test_solve_fast_non_power_length_matches_forward(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [Fraction(v) for v in ("3/2", "1", "-2", "1/3", "5", "-7/4")])
    write_vector(rhs, [Fraction(v) for v in ("1", "2", "-1/2", "0", "4", "9")])
    outs = []
    for solver in ("forward", "fast"):
        code, out, _ = run(capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs), "--solver", solver)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[0] == "# n=6 field=rational"


def test_solve_singular_exits_three(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [Fraction(0), Fraction(2)])
    write_vector(rhs, [Fraction(1), Fraction(0)])
    code, _, err = run(capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs))
    assert code == 3
    assert "singular" in err


def test_solve_out_of_range_exits_three(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [1 + 0j, -1e200 + 0j, 0j, 0j])
    write_vector(rhs, [1 + 0j, 0j, 0j, 0j])
    for solver in ("forward", "fast"):
        code, out, err = run(capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs), "--solver", solver)
        assert code == 3, solver
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_solve_overflowing_level_exits_three(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [1 + 0j] + [1e150 + 0j] * 15)
    write_vector(rhs, [1 + 0j] + [0j] * 15)
    code, out, err = run(capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs), "--solver", "fast", "--base", "3")
    assert code == 3 and out == ""
    assert err == "error: rescaling the length-9 column of a level leaves the double range\n"


def test_matvec_out_of_range_exits_three(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    vec = tmp_path / "v.txt"
    target = tmp_path / "out.txt"
    write_vector(coeffs, [1e200 + 0j, 1e200 + 0j])
    write_vector(vec, [1e200 + 0j, 0j])
    code, out, err = run(capsys, "matvec", "--coeffs", str(coeffs), "--vec", str(vec))
    assert code == 3
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    code, out, _ = run(capsys, "matvec", "--coeffs", str(coeffs), "--vec", str(vec), "--out", str(target))
    assert code == 3 and out == "" and not target.exists()


@pytest.mark.parametrize("impl", ["naive", "embed", "split"])
def test_matvec_entries_beyond_double_range_exit_two(tmp_path, capsys, impl):
    # a rational entry that no double holds, beside a complex operand, is named by the
    # library as in a solve, not met as an OverflowError while a product converts it
    small = tmp_path / "small.txt"
    big = tmp_path / "big.txt"
    write_vector(small, [1 + 0j, 0.5j])
    write_vector(big, [Fraction(1), Fraction(10**400)])
    for kind, diags in (("ltt", [1 + 0j, 0.5j]), ("toeplitz", [0j, 1 + 0j, 0.5j])):
        write_vector(small, diags)
        argv = ["matvec", "--vec", str(big), "--type", kind, "--impl", impl]
        code, out, err = run(capsys, *argv, "--coeffs", str(small))
        assert (code, out) == (2, "") and err.startswith("error: vector entry at index 1 is not a finite double"), kind
    write_vector(small, [1 + 0j, 0.5j])
    code, out, err = run(capsys, "matvec", "--coeffs", str(big), "--vec", str(small), "--impl", impl)
    assert (code, out) == (2, "") and err.startswith("error: matrix entry at index 2 is not a finite double")


def test_matvec_products_name_the_length_before_the_entries(tmp_path, capsys):
    # at a length that is not a power of the base, an entry no double holds is not what is reported
    diags = tmp_path / "diags.txt"
    vec = tmp_path / "vec.txt"
    write_vector(diags, [Fraction(10**400)] + [Fraction(1)] * 16)
    write_vector(vec, [1j] * 9)
    for base in ("2", "5"):
        for impl in ("embed", "split"):
            argv = ["matvec", "--coeffs", str(diags), "--vec", str(vec), "--type", "toeplitz", "--impl", impl]
            code, out, err = run(capsys, *argv, "--base", base)
            assert (code, out, err) == (2, "", f"error: length 9 is not a power of base {base}\n"), (base, impl)


def test_solve_shape_mismatch_exits_two(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [Fraction(1), Fraction(2)])
    write_vector(rhs, [Fraction(1)])
    code, _, err = run(capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs))
    assert code == 2 and "length mismatch: column 2, rhs 1" in err


def test_solve_complex_fast_fft(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    write_vector(coeffs, [1 + 0j, 0.5 + 0.25j, -0.25 + 0j, 0.125 - 0.125j])
    write_vector(rhs, [1 + 0j, 0j, 0j, 0j])
    code, out, _ = run(
        capsys,
        "solve", "--coeffs", str(coeffs), "--rhs", str(rhs),
        "--solver", "fast", "--base", "2",
    )
    assert code == 0
    values = [parse_scalar(ln, "complex") for ln in out.splitlines()[1:]]
    assert abs(values[0] - 1) < 1e-12
    assert abs(values[1] + (0.5 + 0.25j)) < 1e-12


def test_solve_mixed_field_files(tmp_path, capsys):
    # a complex file and a rational one: the library solves the values as read, in the complex field
    coeffs = tmp_path / "a.txt"
    rhs = tmp_path / "f.txt"
    rational_a = [Fraction(v, 4) for v in (4, 2, -1, 8, 0, 1, -4, 3)]
    rational_f = [Fraction(v, 2) for v in (2, 0, 4, -1, 0, 0, 2, 10)]
    complex_a = [1 + 0j, 0.5 + 0.25j, -0.25 + 0j, 0.125 - 0.125j, 0j, 1j, 0.5 + 0j, -1 + 0j]
    complex_f = [0.5j, 1 + 0j, 0j, 2 - 1j, 0j, 0j, 1 + 1j, 3 + 0j]
    for a, f in ((complex_a, rational_f), (rational_a, complex_f)):
        write_vector(coeffs, a)
        write_vector(rhs, f)
        a, f = read_vector(coeffs), read_vector(rhs)
        for solver, want in (("forward", ltt_solve_forward(a, f)), ("fast", ltt_solve_fast(a, f, 2))):
            code, out, err = run(capsys, "solve", "--coeffs", str(coeffs), "--rhs", str(rhs), "--solver", solver)
            assert (code, out, err) == (0, format_vector(want), ""), solver
            assert out.startswith("# n=8 field=complex\n"), solver


def test_matvec_ltt_naive(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    vec = tmp_path / "v.txt"
    write_vector(coeffs, [Fraction(1), Fraction(1), Fraction(1)])
    write_vector(vec, [Fraction(1), Fraction(1), Fraction(1)])
    code, out, _ = run(capsys, "matvec", "--coeffs", str(coeffs), "--vec", str(vec))
    assert code == 0
    assert out.splitlines()[1:] == ["1", "2", "3"]


def test_matvec_toeplitz_split_matches_naive(tmp_path, capsys):
    diags = tmp_path / "t.txt"
    vec = tmp_path / "v.txt"
    write_vector(diags, [0.5 + 0j, -1 + 0j, 1 + 0j, 2 + 0j, 0 + 3j, 0.25 + 0j, 1 - 1j])
    write_vector(vec, [1 + 0j, 2 + 0j, 0j, -1 + 0j])
    code, naive_out, _ = run(
        capsys, "matvec", "--coeffs", str(diags), "--vec", str(vec), "--type", "toeplitz"
    )
    assert code == 0
    code, split_out, _ = run(
        capsys,
        "matvec", "--coeffs", str(diags), "--vec", str(vec),
        "--type", "toeplitz", "--impl", "split", "--base", "2",
    )
    assert code == 0
    naive_vals = [parse_scalar(ln, "complex") for ln in naive_out.splitlines()[1:]]
    split_vals = [parse_scalar(ln, "complex") for ln in split_out.splitlines()[1:]]
    assert max(abs(p - q) for p, q in zip(naive_vals, split_vals)) < 1e-10


def test_matvec_ltt_embed_matches_naive(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    vec = tmp_path / "v.txt"
    write_vector(coeffs, [1 + 0j, 0.5 + 0.25j, -0.25 + 0j, 0.125 - 0.125j])
    write_vector(vec, [1 + 0j, 2 - 1j, 0j, -1 + 0.5j])
    results = {}
    for impl in ("naive", "embed"):
        code, out, _ = run(capsys, "matvec", "--coeffs", str(coeffs), "--vec", str(vec), "--impl", impl)
        assert code == 0 and out.splitlines()[0] == "# n=4 field=complex"
        results[impl] = [parse_scalar(ln, "complex") for ln in out.splitlines()[1:]]
    assert max(abs(p - q) for p, q in zip(results["naive"], results["embed"])) < 1e-12


def test_matvec_fft_on_rational_files(tmp_path, capsys):
    # the FFT products convert rational operands themselves and print a complex vector
    coeffs = tmp_path / "a.txt"
    vec = tmp_path / "v.txt"
    write_vector(coeffs, [Fraction(1), Fraction(2, 3), Fraction(-1), Fraction(5, 7)])
    write_vector(vec, [Fraction(1), Fraction(0), Fraction(-3, 2), Fraction(4)])
    a, v = read_vector(coeffs), read_vector(vec)
    spec = ToeplitzSpec.from_lower_column(a)
    for impl, product in (("embed", toeplitz_matvec_embed), ("split", toeplitz_matvec_split)):
        code, out, err = run(capsys, "matvec", "--coeffs", str(coeffs), "--vec", str(vec), "--impl", impl)
        assert (code, out, err) == (0, format_vector(product(spec, v, 2)), ""), impl
        assert out.startswith("# n=4 field=complex\n"), impl


def test_matvec_toeplitz_shape_errors_exit_two(tmp_path, capsys):
    diags = tmp_path / "t.txt"
    vec = tmp_path / "v.txt"
    for values, vector, message in (
        ([Fraction(1)] * 4, [Fraction(1)] * 2, "must hold 2n-1 values"),
        ([Fraction(1)] * 5, [Fraction(1)] * 2, "length mismatch: matrix 3, vector 2"),
    ):
        write_vector(diags, values)
        write_vector(vec, vector)
        code, out, err = run(capsys, "matvec", "--coeffs", str(diags), "--vec", str(vec), "--type", "toeplitz")
        assert code == 2 and out == "" and message in err, message


def test_matvec_out_file_round_trips(tmp_path, capsys):
    coeffs = tmp_path / "a.txt"
    vec = tmp_path / "v.txt"
    target = tmp_path / "out.txt"
    write_vector(coeffs, [Fraction(1), Fraction(2), Fraction(3)])
    write_vector(vec, [Fraction(1), Fraction(0), Fraction(0)])
    code, _, _ = run(capsys, "matvec", "--coeffs", str(coeffs), "--vec", str(vec), "--out", str(target))
    assert code == 0
    values = read_vector(target)
    assert values == [Fraction(1), Fraction(2), Fraction(3)] and all(type(v) is Fraction for v in values)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--coeffs", "only.txt"])
    assert exc.value.code == 2


def test_bench_is_not_a_command():
    # per-layer timings and counts come from perfbench
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "64"])
    assert exc.value.code == 2


def test_selftest_is_not_a_command():
    # the checks it made live in the test suite
    with pytest.raises(SystemExit) as exc:
        main(["selftest"])
    assert exc.value.code == 2
