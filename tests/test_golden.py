"""CLI output is byte-identical to the golden corpus of the benchmark.

Each command runs through `sl3web.cli.main`; its exit code and the sha256
of its stdout must match `hostbench/golden.json`.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from sl3web.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "hostbench" / "golden.json").read_text()
)
CASES = [
    *(("verify " + signs, entry) for signs, entry in GOLDEN["verify"].items()),
    *((f"query {i}", entry) for i, entry in enumerate(GOLDEN["queries"]) if i % 8 == 0),
    *(("foam " + signs, entry) for signs, entry in GOLDEN["foam"].items()),
]


@pytest.mark.parametrize("entry", [e for _, e in CASES], ids=[name for name, _ in CASES])
def test_cli_matches_golden(entry):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(entry["argv"]))
    assert code == entry["code"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == entry["sha256"]
