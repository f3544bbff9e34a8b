"""No module in src/, scripts/ or tests/ imports a name it never uses, the
command line imports no stdlib module that only slows its cold start, a
record in src/ takes its equality from its fields, src/ caches only the
functions whose caches pay, only flows.py lists a rung's moves, and src/
holds only what the tool's callers reach."""

import ast
import os
import re
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


# none: a rung's exponents are read once per web through its move table, and a
# generator is built where it is used
CACHED: set[str] = set()


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


# a rung's legal moves are listed in flows.py alone, by `_moves` through the per-web
# table of `_legal`; every other module reads them off the flow-prefix walk
MOVE_LISTERS = {"_legal", "_moves"}


def _move_listers_outside_flows(read=Path.read_text):
    found = set()
    for path in FILES:
        if path.is_relative_to(ROOT / "src") and path.name != "flows.py":
            for node in ast.walk(ast.parse(read(path))):
                if isinstance(node, ast.ImportFrom):
                    found.update(f"{path.stem}.{alias.name}" for alias in node.names
                                 if alias.name in MOVE_LISTERS)
                elif isinstance(node, ast.Attribute) and node.attr in MOVE_LISTERS:
                    found.add(f"{path.stem}.{node.attr}")
    return found


def test_only_flows_lists_a_rungs_moves():
    assert _move_listers_outside_flows() == set()


def test_guard_sees_a_move_listing_import():
    # a second walk in bijection that imports the move table's filler is caught
    def seeded(path):
        source = path.read_text()
        if path.name == "bijection.py":
            source = source.replace("\nfrom sl3web.flows import ",
                                    "\nfrom sl3web.flows import _legal, ")
        return source

    assert _move_listers_outside_flows(seeded) == {"bijection._legal"}
    # ... as is a module that reads it as an attribute
    assert _move_listers_outside_flows(lambda path: path.read_text().replace(
        "\nclass Boundary:", "\nLISTER = flows._moves\n\n\nclass Boundary:")) == {"checks._moves"}


# -- src/ holds what the tool runs ---------------------------------------------------

SRC = ROOT / "src" / "sl3web"
# a console script's target, `name = "sl3web.module:function"`
_SCRIPT_TARGET = re.compile(r'^[\w-]+\s*=\s*"sl3web[\w.]*:(\w+)"', re.M)
# `from sl3web... import a, b as c`, also inside a string that a child interpreter runs
_SL3WEB_IMPORT = re.compile(r"from sl3web[\w.]* import (\([^)]*\)|.*)")


def reach_roots(read=Path.read_text) -> set[str]:
    """The names the tool's callers start from: the console scripts in pyproject.toml,
    the package's `__all__`, and every name that hostbench/ and scripts/ import from
    sl3web."""
    scripts = read(ROOT / "pyproject.toml").partition("[project.scripts]")[2].partition("\n[")[0]
    names = set(_SCRIPT_TARGET.findall(scripts))
    for node in ast.parse(read(SRC / "__init__.py")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    for path in sorted(p for d in ("hostbench", "scripts") for p in (ROOT / d).glob("*.py")):
        for match in _SL3WEB_IMPORT.finditer(read(path)):
            for alias in re.sub(r"#.*", "", match.group(1)).strip("()").split(","):
                if name := re.match(r"\s*(\w*)", alias).group(1):
                    names.add(name)
    return names


def _names(nodes) -> set[str]:
    """The names and attribute names that code reads, annotations left out."""
    found, todo = set(), list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                todo.extend(v for v in (value if isinstance(value, list) else [value])
                            if isinstance(v, ast.AST))
    return found


def unreached(read=Path.read_text) -> list[str]:
    """Top-level functions, classes and non-dunder methods of src/ that a walk by name
    from `reach_roots` never reaches.  Module-level code other than imports is reached;
    a reached definition reaches every name its body reads; a class reaches its bases
    and its class-level code, dunder methods included, and a method is reached once its
    class is and its name is read."""
    defs = []  # (label, name, label of the owning class or None, code it reads)
    read_names = reach_roots(read)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(read(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node.name, None, [node]))
            elif isinstance(node, ast.ClassDef):
                label = f"{path.stem}.{node.name}"
                methods = [f for f in node.body
                           if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
                body = [*node.bases, *node.decorator_list, *(n for n in node.body if n not in methods)]
                defs.append((label, node.name, None, body))
                defs.extend((f"{label}.{f.name}", f.name, label, [f]) for f in methods)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                read_names |= _names([node])
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for label, name, owner, code in defs:
            if label not in reached and name in read_names and owner in (None, *reached):
                reached.add(label)
                read_names |= _names(code)
                grew = True
    return [label for label, *_ in defs if label not in reached]


def test_src_holds_only_what_its_callers_reach():
    # a capability nothing runs is deleted; a definition tests compare against lives in
    # tests/reference.py
    assert unreached() == []


def test_guard_sees_an_unused_definition():
    # its roots: the console script, the package's exports, the benchmark's and the
    # reports' imports, one name each
    roots = reach_roots()
    assert {"main", "LaurentPoly", "qint", "iota", "enumerate_flows", "build_parser",
            "closed_flows", "MOVE_TABLE", "web_from_tableau"} <= roots
    assert all(name.isidentifier() for name in roots)
    seeded = "\n\ndef _seeded_unused(web):\n    return web\n"
    assert unreached(lambda path: path.read_text() + (
        seeded if path.name == "flows.py" else "")) == ["flows._seeded_unused"]
    # ... an unused method of a reached class, and a function only it reads
    method = "\n    def seeded_method(self):\n        return _seeded_unused(self)\n"
    assert unreached(lambda path: path.read_text().replace(
        "\nclass ClosedFlow(NamedTuple):\n    bottom: Flow\n    top: Flow\n",
        "\nclass ClosedFlow(NamedTuple):\n    bottom: Flow\n    top: Flow\n" + method
    ) + (seeded if path.name == "flows.py" else "")) == [
        "flows.ClosedFlow.seeded_method", "flows._seeded_unused"]
