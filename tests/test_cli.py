"""Command-line front end: verbs, formats, exit codes, determinism."""

import hashlib
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
        ["verify", "all", "--signs", "++"],
        ["verify", "all", "--signs", "+o-"],
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


# Exit code and stdout sha256 of `foam dims` and `bij roundtrip`, which the
# golden corpus does not cover.  `++-+-` is not classical (weight 7) and pins
# the usage error; `+-+++` is a classical five-strand boundary.
PINNED = [
    ("+-", "foam dims", "text", 0, "c4c319e8e50192ede20ba2df0a829baeb7c89aa4a9feb33f1f81958180eed44f"),
    ("+-", "foam dims", "json", 0, "79da00b32f9fc4b23d8e52cbcb41e6169d6052fcd910fe8cf5e1894af53b62ea"),
    ("+-", "bij roundtrip", "text", 0, "56a75726ec4184406f1f16876baad16ea188bce8b9a063a8f0cb10038de039a8"),
    ("+-", "bij roundtrip", "json", 0, "940abce3540e9962f3b2658622cdd0c1c4467e34c161964d9fac582c8ba482bf"),
    ("+++", "foam dims", "text", 0, "7ffafdcd571c8b252c8b014d4ab6e6bac2d879780d59de97838f220bad2fb64d"),
    ("+++", "foam dims", "json", 0, "16c665f332a5967b238c7d766af8b91ed9109c83e3eae4dab447a82a01485918"),
    ("+++", "bij roundtrip", "text", 0, "5ec275126bbd5908863df49e883670a020772adec156b9931a005c8062800ff8"),
    ("+++", "bij roundtrip", "json", 0, "c525e0b454d0dc74cad50138749cb9bd61773899bc311e5db716b97768303cf0"),
    ("+-+-", "foam dims", "text", 0, "6b9e450f39e5d1c7614d95d07e2cc04f135baa6466bca11551da7aa3c78c690a"),
    ("+-+-", "foam dims", "json", 0, "0b320b9e2b03490b18d1e877a71871f132b7cbb72283be0acb75c063cecb6087"),
    ("+-+-", "bij roundtrip", "text", 0, "9e9b2091520323828da6f442c72dcfaacafcda316eecbdcfdfcb13b0e6ca5ecb"),
    ("+-+-", "bij roundtrip", "json", 0, "00963d60eb85d1347a9d114125aa413bccef891b63c7731ab2b7460639af756e"),
    ("++-+-", "foam dims", "text", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("++-+-", "foam dims", "json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("++-+-", "bij roundtrip", "text", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("++-+-", "bij roundtrip", "json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("+-+++", "foam dims", "text", 0, "cd2263a4ac654a76098f9f0b310acb987f10d4f6f504fef39420cdd3ba96b051"),
    ("+-+++", "foam dims", "json", 0, "09929f8e8f3f7b5ef6eb928fea87de7b000fed82613af3b3379a4627fd8a65d3"),
    ("+-+++", "bij roundtrip", "text", 0, "02264dd934e0f11f7b7be10fb8bee76ce6fdec0155a0491fcddd448d48c919d3"),
    ("+-+++", "bij roundtrip", "json", 0, "bceec40b51bcc367225aea58dfde984fc5d2a6400ee3a2911c12cea840df9385"),
    ("+-+-+-", "foam dims", "text", 0, "a4a55ae3e4f144c989ea1c69ba17b74f70f9664ddac0fd563aca561b2c7b29b3"),
    ("+-+-+-", "foam dims", "json", 0, "bb0bbfcf925755d2536cd1a6ada735d2f1727f4a18b4d80d8b09007e57aaebb1"),
    ("+-+-+-", "bij roundtrip", "text", 0, "6722d9bb9dd142f748dcdef402581fafd6656bfc3fad4b4603dc1242cd06e230"),
    ("+-+-+-", "bij roundtrip", "json", 0, "60fc04283129fc8f05efe212d2b6d7f3f2c07222b61f3572f5e7a7168ceaefe4"),
]


@pytest.mark.parametrize(
    "signs,verb,fmt,code,sha", PINNED, ids=[" ".join(p[:3]) for p in PINNED]
)
def test_pinned_output_of_dims_and_roundtrip(capsys, signs, verb, fmt, code, sha):
    got, out = run_cli(capsys, "--format", fmt, *verb.split(), "--signs", signs)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == sha
