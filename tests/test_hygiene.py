"""Package hygiene: the stdlib-only import closure and the oracles' independence."""

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


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


def test_oracles_import_nothing_from_lttkit():
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported
    assert not {name for name in imported if name.split(".")[0] == "lttkit"}
