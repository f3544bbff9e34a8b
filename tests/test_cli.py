"""Command-line front end: verbs, formats, exit codes, determinism."""

import json

import pytest

from sl3web.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_bracket_theta_preset(capsys):
    code, out = run_cli(capsys, "bracket", "--pair", "theta")
    assert code == 0
    assert out.strip() == "q^3 + 2*q + 2*q^-1 + q^-3"


def test_bracket_circle_preset(capsys):
    code, out = run_cli(capsys, "bracket", "--pair", "arc")
    assert code == 0
    assert out.strip() == "q^2 + 1 + q^-2"


def test_bracket_pair_of_words(capsys):
    code, out = run_cli(capsys, "bracket", "--pair", "F1^2", "F1^2")
    assert code == 0
    assert out.strip() == "q^2 + 1 + q^-2"


def test_webs_list(capsys):
    code, out = run_cli(capsys, "webs", "list", "--signs", "+-+-")
    assert code == 0
    assert "F2 F1^2 F3^2 F2^2" in out
    assert "F1^2 F2 F3^2 F2^2" in out


def test_webs_show_layers(capsys):
    code, out = run_cli(capsys, "webs", "show", "--preset", "theta")
    assert code == 0
    assert out.splitlines()[0].endswith("3 0 0")


def test_flows_enumerate_json(capsys):
    code, out = run_cli(capsys, "--format", "json", "flows", "enumerate", "--preset", "arc")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert {r["weight"] for r in rows} == {0, -1, -2}


def test_flows_expand(capsys):
    code, out = run_cli(capsys, "flows", "expand", "--preset", "arc")
    assert code == 0
    assert "[1, -1]" in out and "1" in out


def test_bij_iota_and_grow_roundtrip(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "bij", "iota", "--preset", "arc", "--flow", "1"
    )
    assert code == 0
    tableau = out.strip()
    code, out = run_cli(capsys, "--format", "json", "bij", "grow", "--tableau", tableau)
    assert code == 0
    grown = json.loads(out)
    assert grown["word"] == "F1^2"


def test_bij_roundtrip_verb(capsys):
    code, out = run_cli(capsys, "bij", "roundtrip", "--signs", "+-+-")
    assert code == 0
    assert "all flow/web pairs roundtrip" in out


def test_foam_basis_csv(capsys):
    code, out = run_cli(capsys, "--format", "csv", "foam", "basis", "--signs", "+++")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shape,top,bottom,degree"
    assert len(lines) == 7


def test_foam_dims_match_column(capsys):
    code, out = run_cli(capsys, "--format", "json", "foam", "dims", "--signs", "+-")
    assert code == 0
    rows = json.loads(out)
    assert all(r["match"] for r in rows)


def test_foam_idem(capsys):
    shape = json.dumps({"components": [[2, 1], [1], [2, 1]], "m": 2})
    code, out = run_cli(capsys, "foam", "idem", "--shape", shape)
    assert code == 0
    assert "F1 F3 F2 F2 F1 F3 F2" in out


def test_verify_roundtrip_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "roundtrip", "--signs", "+-+-")
    assert code == 0
    assert "all flow/web pairs roundtrip" in out


def test_bij_roundtrip_reports_per_flow(capsys):
    code, out = run_cli(capsys, "bij", "roundtrip", "--signs", "+-")
    assert code == 0
    assert out.count("pass") == 3  # one line per flow of the single arc web


def test_verify_all_small(capsys):
    code, out = run_cli(capsys, "verify", "all", "--max-n", "3")
    assert code == 0


def test_all_minus_sign_string_survives_parsing(capsys):
    code, out = run_cli(capsys, "webs", "list", "--signs", "---")
    assert code == 0
    assert "F1 F2^2" in out


def test_usage_error_on_missing_args(capsys):
    assert main(["webs", "list"]) == 2


def test_usage_error_on_bad_verb(capsys):
    assert main(["frobnicate"]) == 2


def test_malformed_json_exits_two(capsys):
    assert main(["bij", "grow", "--tableau", "{bad json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bij", "grow", "--tableau", "[]"],
        ["bij", "grow", "--tableau",
         '{"shape":{"components":[[1],[],[]]},"cells":[[1,5,1,1]]}'],
        ["foam", "idem", "--shape", '{"components":[1,2,3]}'],
        ["bij", "grow", "--tableau",
         '{"shape":{"components":[[1],[],[]],"m":0},"cells":[[1,1,1,1]]}'],
    ],
)
def test_malformed_payload_exits_two_without_traceback(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_zero_word_is_usage_error(capsys):
    assert main(["flows", "enumerate", "--word", "F1^3 F1^3", "--n", "2", "--ell", "1"]) == 2


def test_identical_config_identical_output(capsys):
    args = ("--format", "csv", "foam", "basis", "--signs", "+-+-")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_counterexample_payload_is_replayable(capsys):
    # verification reports carry the inputs needed to rerun them
    code, out = run_cli(capsys, "--format", "json", "verify", "roundtrip", "--signs", "+-")
    report = json.loads(out)
    assert report[0]["signs"] == "+-" if isinstance(report, list) else report["signs"] == "+-"
