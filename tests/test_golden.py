"""CLI output is byte-identical to the golden corpus of the benchmark.

Each command runs through `sl3web.cli.main`; its exit code and the sha256
of its stdout must match `hostbench/golden.json`.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sl3web.cli import VERBS, _fast_parse, _normalize_argv, build_parser, main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "hostbench" / "golden.json").read_text()
)
CASES = [
    *(("verify " + signs, entry) for signs, entry in GOLDEN["verify"].items()),
    *((f"query {i}", entry) for i, entry in enumerate(GOLDEN["queries"])),
    *(("foam " + signs, entry) for signs, entry in GOLDEN["foam"].items()),
]


@pytest.mark.parametrize("entry", [e for _, e in CASES], ids=[name for name, _ in CASES])
def test_cli_matches_golden(entry):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(entry["argv"]))
    assert code == entry["code"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == entry["sha256"]


def test_one_verb_parser_parses_like_the_full_parser():
    full = build_parser()
    argvs = [_normalize_argv(e["argv"]) for e in (*GOLDEN["verify"].values(), *GOLDEN["queries"],
                                                   *GOLDEN["foam"].values())]
    assert len(argvs) == 1082
    one_verb = {verb: build_parser(verb) for verb in VERBS}
    for argv in argvs:
        verb = next(t for t in argv if t in VERBS)
        parsed = vars(one_verb[verb].parse_args(argv))
        assert parsed == vars(full.parse_args(argv)), argv
        # every golden argv is spelled out in full, so main reads it without a parser
        fast = _fast_parse(argv)
        assert fast is not None and vars(fast) == parsed, argv


def test_module_entry_point_reads_sys_argv():
    # `python -m sl3web.cli` is the one path where main reads its argv from sys.argv
    root = Path(__file__).resolve().parent.parent
    entry = next(e for e in GOLDEN["queries"] if e["stratum"] == "webs list n2")
    assert _fast_parse(_normalize_argv(entry["argv"])) is not None

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "sl3web.cli", *argv], cwd=root,
                              env={**os.environ, "PYTHONPATH": "src"}, capture_output=True,
                              text=True, timeout=120)

    done = run(*entry["argv"])
    assert done.returncode == entry["code"]
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == entry["sha256"]
    done = run()
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: sl3web ")
    assert done.stderr.endswith("error: the following arguments are required: verb\n")


def test_full_parser_lists_every_verb():
    # the benchmark's set-up time is that of build_parser() with every verb
    text = build_parser().format_help()
    assert [v for v in VERBS if re.search(rf"^    {v} ", text, re.M)] == list(VERBS)


def test_traced_child_matches_golden():
    # the benchmark's traced run wraps methods on the classes (hostbench/tracer.py);
    # the wrapped commands must still exit and print as the golden corpus has it
    root = Path(__file__).resolve().parent.parent
    iota = next(e for e in GOLDEN["queries"] if e["argv"][2:4] == ["bij", "iota"])
    grow = next(e for e in GOLDEN["queries"] if e["argv"][2:4] == ["bij", "grow"])
    entries = [GOLDEN["verify"]["++++-"], GOLDEN["foam"]["-+--++"], iota, grow]
    done = subprocess.run(
        [sys.executable, "hostbench/child.py", "--trace", json.dumps([e["argv"] for e in entries])],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True,
        check=True, timeout=300,
    )
    results = json.loads(done.stdout.splitlines()[-1])["results"]
    assert [r[1:3] for r in results] == [[e["code"], e["sha256"]] for e in entries]
