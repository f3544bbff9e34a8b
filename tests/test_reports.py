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


SURVEY_TABLE_N4 = """\
   signs  c(S)  webs  flows  dim K_S
      +-     2     1      3        3
      -+     1     1      3        3
     +++     3     1      6        6
     ---     3     1      6        6
    ++--     8     2     21       33
    +-+-     7     2     18       24
    +--+     6     2     21       33
    -++-     6     2     21       33
    -+-+     5     2     18       24
    --++     4     2     21       33
"""


def test_survey_boundaries_table_up_to_four_strands(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["survey_boundaries.py", "4"])
    assert _script("survey_boundaries").main() == 0
    assert capsys.readouterr().out == SURVEY_TABLE_N4
