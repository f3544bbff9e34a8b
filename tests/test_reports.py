"""The committed reports are what their scripts write today, byte for byte."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "script,report",
    [("calibration_report", "calibration.md"), ("move_table_report", "move_table.md")],
)
def test_report_script_reproduces_the_committed_report(script, report):
    assert _script(script).render() == (ROOT / "reports" / report).read_text()
