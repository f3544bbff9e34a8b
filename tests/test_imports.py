"""No module in src/, scripts/ or tests/ imports a name it never uses, the
command line imports no stdlib module that only slows its cold start, a
record in src/ takes its equality from its fields, and src/ caches only the
functions whose caches pay."""

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


# stdlib modules that cost more to import than all of sl3web; argparse (which loads
# gettext) is for help and usage errors, csv for CSV output
SLOW = {"dataclasses", "inspect", "argparse", "gettext", "csv", "_csv"}


def _added_modules(script: str) -> list[str]:
    """The modules `script` loads beyond the interpreter's own, whatever site loads."""
    script = (f"import sys\nbare = set(sys.modules)\n{script}\n"
              "print(*sorted(set(sys.modules) - bare))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    # every CLI call is a fresh process
    added = _added_modules("import sl3web.cli")
    assert "sl3web.cli" in added
    assert SLOW.isdisjoint(added)


def test_foam_basis_call_loads_no_slow_module():
    # the benchmark's foam-basis argv, spelled out in full: no parser, no CSV writer
    argv = ["--format", "json", "foam", "basis", "--signs", "-+--++"]
    added = _added_modules(
        "import contextlib, io\nfrom sl3web.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0")
    assert "sl3web.foamword" in added
    assert SLOW.isdisjoint(added)


def test_only_validated_values_define_their_own_equality():
    # every other class with data is a NamedTuple: equal fields, equal records
    values = {"LaurentPoly"}
    owners = {
        node.name
        for path in FILES if path.is_relative_to(ROOT / "src")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and any(
            isinstance(f, ast.FunctionDef) and f.name in ("__eq__", "__hash__", "__setattr__")
            for f in node.body
        )
    }
    assert owners <= values


# interned generators; a rung's exponents are read once per web through its move table
CACHED = {"foamword._gen"}


def cached_functions(source: str) -> list[str]:
    """Module-level functions decorated with functools' `lru_cache` or `cache`."""
    def name(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None))

    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and any(name(d) in ("lru_cache", "cache") for d in node.decorator_list)]


def _src_cached(read=Path.read_text):
    return {f"{path.stem}.{fn}" for path in FILES if path.is_relative_to(ROOT / "src")
            for fn in cached_functions(read(path))}


def test_src_caches_only_what_pays():
    # a cache in front of work hides it from in-process timings; delete the work instead
    assert _src_cached() <= CACHED


def test_guard_sees_a_cached_function():
    assert cached_functions(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(): pass\n@functools.cache\ndef b(): pass\n"
        "@cache\ndef c(): pass\n@functools.lru_cache\ndef d(): pass\ndef e(): pass\n"
    ) == ["a", "b", "c", "d"]
    # the reflection cache put back in front of `_reflect` is a third cached function
    seeded = _src_cached(lambda path: path.read_text().replace(
        "\ndef _reflect(", "\n@lru_cache(maxsize=None)\ndef _reflect("))
    assert seeded - CACHED == {"foamword._reflect"}
