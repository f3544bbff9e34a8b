"""No module in src/, scripts/ or tests/ imports a name it never uses, and the
command line imports no stdlib module that only slows its cold start."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a package's __init__ re-exports what its __all__ lists
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == [
        "os (line 1)", "b (line 2)",
    ]


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    # every CLI call is a fresh process, and these two cost more to import than
    # all of sl3web; compare with the interpreter's own modules, whatever site loads
    script = (
        "import sys; bare = set(sys.modules); import sl3web.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    added = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "sl3web.cli" in added
    assert {"dataclasses", "inspect"}.isdisjoint(added)
