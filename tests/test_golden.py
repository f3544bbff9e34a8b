"""CLI output is byte-identical to the golden corpus of the benchmark.

Each command runs through `sl3web.cli.main`; its exit code and the sha256
of its stdout must match `hostbench/golden.json`.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from sl3web.cli import VERBS, _normalize_argv, build_parser, main

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
        assert vars(one_verb[verb].parse_args(argv)) == vars(full.parse_args(argv)), argv


def test_full_parser_lists_every_verb():
    # the benchmark's set-up time is that of build_parser() with every verb
    text = build_parser().format_help()
    assert [v for v in VERBS if re.search(rf"^    {v} ", text, re.M)] == list(VERBS)
