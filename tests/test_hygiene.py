"""Package hygiene: the stdlib-only import closure, independent oracles, the public API, no unread function."""

import argparse
import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import lttkit
from lttkit.cli import _build_parser

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Every public name, per module that declares __all__. A refactor that drops
# or renames one changes the API and must change this list on purpose.
PUBLIC = {
    "lttkit": [
        "BernoulliSystem", "BinomialSystem", "DftPlan", "METHODS", "OpCounter", "SingularMatrixError",
        "SolveTrace", "SparsifyResult", "ToeplitzSpec", "bernoulli_numbers", "binomial_system",
        "circulant_matvec", "convert_type", "dft", "field_of", "format_scalar", "gen_system", "idft",
        "invert_first_column", "ltt_matvec_naive", "ltt_solve_fast", "ltt_solve_forward", "neg_circulant_matvec",
        "neg_root", "parse_scalar", "plan_for", "ramanujan_rhs", "read_vector", "scaling_diag", "sparsify_hat",
        "sparsify_step", "tartaglia_check", "toeplitz_matvec_embed", "toeplitz_matvec_split", "von_staudt_check",
        "write_vector", "zeta_consistency",
    ],
    "lttkit.bernoulli": [
        "BernoulliSystem", "BinomialSystem", "ConversionError", "FAMILIES", "KINDS", "METHODS",
        "bernoulli_numbers", "binomial_system", "convert_type", "gen_system", "ramanujan_rhs",
        "scaling_diag", "tartaglia_check", "von_staudt_check", "zeta_consistency",
    ],
    "lttkit.fft": [
        "DftPlan", "ToeplitzSpec", "circulant_matvec", "dft", "idft", "ltt_matvec_fft", "neg_circulant_matvec",
        "plan_for", "toeplitz_matvec_embed", "toeplitz_matvec_naive", "toeplitz_matvec_split",
    ],
    "lttkit.solver": [
        "SolveTrace", "SparsifyResult", "invert_first_column", "ltt_solve_fast", "sparsify_hat",
        "sparsify_step",
    ],
}

# Public names kept for what they are, read by code or not: the paper's own
# procedures, products and checks, the exact counterpart of
# fft.ltt_matvec_fft, and the writer that pairs with read_vector.
KEPT = (
    "convert_type", "ltt_matvec_kronecker", "ltt_matvec_naive", "ramanujan_rhs", "sparsify_hat", "sparsify_step",
    "tartaglia_check", "toeplitz_matvec_embed", "toeplitz_matvec_naive", "toeplitz_matvec_split",
    "von_staudt_check", "write_vector", "zeta_consistency",
)

# Defaulted parameters that no call site outside the tests passes, kept for a reason:
# (function, parameter, reason).
OPTIONS_KEPT = (
    ("ltt_matvec_kronecker", "ops", "the exact Kronecker product's field-operation count, pinned in test_series"),
    ("ltt_matvec_naive", "ops", "the naive exact product's field-operation count, pinned in test_series"),
    ("toeplitz_matvec_embed", "ops", "perfbench passes it to the product it looks up by name"),
    ("toeplitz_matvec_split", "ops", "perfbench passes it to the product it looks up by name"),
)

# Every option string of each lttkit subcommand, in the order _build_parser
# adds them, without argparse's own -h/--help. A flag added or removed changes
# the command line and must change this list on purpose.
CLI_FLAGS = {
    "bernoulli": ["--count", "--method", "--solver", "--format", "--out"],
    "solve": ["--coeffs", "--rhs", "--base", "--solver", "--trace", "--out"],
    "matvec": ["--coeffs", "--vec", "--type", "--impl", "--base", "--out"],
}


def test_import_loads_only_stdlib_modules():
    # pyproject declares no dependencies; peak-RSS figures assume numpy is not loaded
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lttkit\n"
        "print('\\n'.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "lttkit" in loaded
    assert "numpy" not in loaded
    assert loaded - {"lttkit"} <= set(sys.stdlib_module_names), loaded - set(sys.stdlib_module_names)


def test_import_builds_no_plan_and_runs_no_transform():
    # every benchmark workload's set-up time includes this import, and only the
    # module and class bodies of fft may run in it
    probe = (
        "import sys\n"
        "ran = set()\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_filename.endswith('fft.py'):\n"
        "        ran.add(frame.f_code.co_name)\n"
        "sys.setprofile(profile)\n"
        "import lttkit\n"
        "sys.setprofile(None)\n"
        "print(len(lttkit.fft._PLAN_CACHE), len(lttkit.fft._BASE2_ROOTS), *sorted(ran))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    plans, roots, *ran = out.stdout.split()
    assert (plans, roots) == ("0", "0")
    assert "<module>" in ran
    assert set(ran) <= {"<module>", "DftPlan", "ToeplitzSpec"}, ran


def _imported(tree):
    """Module names a tree imports: `import m` gives m, `from m import n` gives m and m.n."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
    return names


def test_double_range_rule_lives_in_scalars():
    # cmath.isfinite, the test of "a complex value is a finite double", is read in scalars
    # alone, as is any other isfinite; the CLI holds no numeric code and leaves the range to
    # the library
    sources = {path.name: path.read_text(encoding="utf-8") for path in (SRC / "lttkit").glob("*.py")}
    readers = {
        module
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if "isfinite" in (getattr(node, "attr", None), getattr(node, "id", None))
    }
    assert readers == {"scalars.py"}
    imported = _imported(ast.parse(sources["cli.py"]))
    assert not {name for name in imported if name.split(".")[-1] in ("cmath", "math", "scalars")}, imported


def test_no_module_sets_the_int_string_digit_limit():
    # exact values of any length are converted in pieces (scalars), never by raising the
    # interpreter-wide limit: no module calls set_int_max_str_digits, and neither the import
    # nor a CLI run changes the limit
    for path in (SRC / "lttkit").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "set_int_max_str_digits" not in _reads(tree), path.name
    probe = (
        "import contextlib, io, sys\n"
        "before = sys.get_int_max_str_digits()\n"
        "import lttkit\n"
        "from lttkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['bernoulli', '--count', '3', '--format', 'json'])\n"
        "print(code, before, sys.get_int_max_str_digits())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    code, before, after = out.stdout.split()
    assert code == "0"
    assert before == after


def test_oracles_import_nothing_from_lttkit():
    imported = _imported(ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8")))
    assert imported
    assert not {name for name in imported if name.split(".")[0] == "lttkit"}


def test_public_names_are_pinned_and_resolve():
    modules = {"lttkit": lttkit}
    for info in pkgutil.iter_modules(lttkit.__path__, "lttkit."):
        module = importlib.import_module(info.name)
        if hasattr(module, "__all__"):
            modules[info.name] = module
    assert sorted(modules) == sorted(PUBLIC)
    for name, module in modules.items():
        assert sorted(module.__all__) == PUBLIC[name], name
        assert len(set(module.__all__)) == len(module.__all__), name
        for attr in module.__all__:
            assert hasattr(module, attr), (name, attr)


def test_readme_api_section_names_the_exports():
    # the bare names quoted in the bullets of the README's API section
    section = (TESTS.parent / "README.md").read_text(encoding="utf-8").split("\n## API\n")[1].split("\n## ")[0]
    bullets = section[section.index("\n* ") :]
    assert set(re.findall(r"`(\w+)`", bullets)) == set(lttkit.__all__)


def test_every_private_function_is_used():
    # a module-level private def, class or name defined in src/lttkit and read
    # nowhere in its code is dead; docstrings, comments, imports, assignments and
    # a function's own locals do not count as reads
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in (SRC / "lttkit").glob("*.py")}
    read = set().union(*map(_reads, trees.values()))
    private = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                private.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                private += [(module, t.id) for t in targets if isinstance(t, ast.Name)]
    private = [(module, name) for module, name in private if name.startswith("_") and not name.startswith("__")]
    assert {"_nilpotent_series", "_PLAN_CACHE"} <= {name for _, name in private}
    assert [(module, name) for module, name in private if name not in read] == []


def _reads(tree):
    """Names and attributes read in tree, except a function's own locals; a name it declares global is not one."""
    reads = set()

    def visit(node, local):
        if isinstance(node, ast.FunctionDef):
            local = local | {
                n.arg if isinstance(n, ast.arg) else n.id
                for n in ast.walk(node)
                if isinstance(n, ast.arg) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
            local -= {name for n in ast.walk(node) if isinstance(n, ast.Global) for name in n.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return reads


def test_every_public_function_is_read():
    # a public def, class, alias, or method of a public class, that only the tests
    # call is dead unless KEPT names it; perfbench reads by name or by string, and
    # a string that is a dict key names a field of its output, not a function
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in (SRC / "lttkit").glob("*.py")}
    read = set().union(*map(_reads, trees.values()))
    for path in (TESTS.parent / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        keys = {id(k) for n in ast.walk(tree) if isinstance(n, ast.Dict) for k in n.keys}
        read |= _reads(tree) | {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and id(n) not in keys}
    public = set()
    for module, tree in trees.items():
        for node in tree.body if module != "cli.py" else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public.add(node.name)
            elif isinstance(node, ast.Assign):
                public.update(t.id for t in node.targets if isinstance(t, ast.Name))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                public.update(m.name for m in node.body if isinstance(m, ast.FunctionDef))
    public = {name for name in public if not name.startswith("_")}
    assert set(KEPT) <= public
    assert sorted(public - read - set(KEPT)) == []


def _calls(tree):
    """(called name, call node, enclosing defs) for every call in tree."""
    calls = []

    def visit(node, defs):
        if isinstance(node, ast.FunctionDef):
            defs = defs + (node,)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.append((name, node, defs))
        for child in ast.iter_child_nodes(node):
            visit(child, defs)

    visit(tree, ())
    return calls


def _public_defs(tree):
    """(def node, name it is called by, leading parameters a call does not pass) per public def and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, node.name, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and (m.name == "__init__" or not m.name.startswith("_")):
                    yield m, node.name if m.name == "__init__" else m.name, 1  # self or cls


def test_every_public_option_is_passed():
    # a defaulted parameter of a public def, or of a method of a public class, is an option
    # nobody needs unless a call in src/lttkit outside its own body passes it, by keyword or
    # by position, or perfbench does, or OPTIONS_KEPT names it; cli.py only forwards user flags
    paths = [path for path in (SRC / "lttkit").glob("*.py") if path.name != "cli.py"]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    calls = [c for tree in trees for c in _calls(tree)]
    for path in (TESTS.parent / "perfbench").glob("*.py"):
        calls += _calls(ast.parse(path.read_text(encoding="utf-8")))
    unpassed = []
    for tree in trees:
        for fn, name, skip in _public_defs(tree):
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            options = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
            options += [(arg.arg, None) for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for param, index in options:
                if not any(
                    called == name
                    and fn not in defs
                    and (param in {k.arg for k in call.keywords} or index is not None and len(call.args) > index)
                    for called, call, defs in calls
                ):
                    unpassed.append((name, param))
    assert sorted(unpassed) == sorted((name, param) for name, param, _ in OPTIONS_KEPT)


def _cli_flags():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [flag for a in p._actions if not isinstance(a, argparse._HelpAction) for flag in a.option_strings]
        for name, p in sub.choices.items()
    }


def test_cli_flags_are_pinned():
    assert _cli_flags() == CLI_FLAGS


def test_readme_command_lines_name_the_subcommands():
    # the `lttkit <command>` lines of the README's Command line block, each --flag one of its command's
    section = (TESTS.parent / "README.md").read_text(encoding="utf-8").split("\n## Command line\n")[1]
    block = section.split("```")[1]
    lines = re.findall(r"^lttkit (\S+)(.*)$", block, re.MULTILINE)
    flags = _cli_flags()
    assert {command for command, _ in lines} == set(flags)
    for command, rest in lines:
        assert set(re.findall(r"--[\w-]+", rest)) <= set(flags[command]), (command, rest)
