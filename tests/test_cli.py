"""Command-line front end: verbs, formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import re
import shutil
from collections import Counter

import pytest

from sl3web import checks, cli, ladderweb
from sl3web.cli import build_parser, main
from sl3web.flows import enumerate_flows, flow_vector, tensor_expansion
from sl3web.foamword import enumerate_cellular_basis
from sl3web.presets import PRESET_NAMES, preset_web
from sl3web.tableaux import tableau_cells


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


ROWS = [
    {"quote": 'say "hi"', "slash": "a\\b\\", "text": "h\u00e9llo \u2603", "yes": True, "no": False,
     "n": -3, "zero": 0},
    {"single": "[[1, 2], []]"},
]


@pytest.mark.parametrize("rows", [ROWS, ROWS[1:], []], ids=["mixed", "single-key", "empty"])
def test_json_rows_are_laid_out_as_indent_two_dumps(capsys, rows):
    cli._emit(argparse.Namespace(format="json"), rows, [])
    assert capsys.readouterr().out == json.dumps(rows, indent=2, sort_keys=True) + "\n"


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


SIGNS_VERBS = (["webs", "list"], ["verify", "all"], ["foam", "basis"])


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
        ["flows", "enumerate", "--word", "F1^3 F1^3", "--n", "2"],
        ["flows", "enumerate", "--word", "F1", "--n", "-1"],
        ["flows", "enumerate", "--word", "F1", "--ell", "-1"],
        ["bracket", "--pair", "F1", "F1", "--n", "-2"],
        ["foam", "idem", "--shape", '{"components":[[1,2],[],[]]}'],
        ["bij", "grow", "--tableau",
         '{"shape":{"components":[[1,-1],[],[]]},"cells":[[1,1,1,1]]}'],
        ["verify", "all", "--signs", ""],
        ["bij", "grow"],
        ["bracket", "--pair", "F1", "F2 F1", "--n", "3", "--ell", "1"],
        # a bare '--' is no sign string: argparse refuses it after --signs, and drops it
        # after --signs=, which leaves [] for the payload parser to name
        *([*verb, "--signs", "--"] for verb in SIGNS_VERBS),
        *([*verb, "--signs=--"] for verb in SIGNS_VERBS),
    ],
)
def test_malformed_payload_exits_two_without_traceback(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if argv[-2:] == ["--signs", "--"]:
        assert err.startswith("usage: sl3web ")
        assert err.endswith(f"sl3web {argv[0]}: error: argument --signs: expected one argument\n")
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
    if argv[-1] == "--signs=--":
        assert err.endswith(" needs a classical sign string, got '--'\n")


def _raise(error):
    def broken(*args):
        raise error

    return broken


@pytest.mark.parametrize(
    "argv,patch,line",
    [
        # a library ValueError or KeyError outside the payload parsers is not a usage error
        ("flows enumerate --preset arc", ValueError("boom"), "internal error: ValueError: boom\n"),
        ("flows enumerate --preset arc", KeyError("boom"), "internal error: KeyError: 'boom'\n"),
    ],
    ids=["value-error", "key-error"],
)
def test_internal_error_exits_one_without_traceback(capsys, monkeypatch, argv, patch, line):
    monkeypatch.setattr(cli, "_flow_walk", _raise(patch))
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(line) and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "word,n,ell", [("F1 F3 F2 F2^2", "4", "2"), ("F1 F1^2", "2", "1")], ids=["-+-+", "closed"]
)
def test_iota_with_a_rung_into_a_weight_3_strand_is_no_internal_error(capsys, word, n, ell):
    # in both webs, rung 2 takes weights (1, 2) or (2, 1) to (0, 3): a cap
    code = main(["bij", "iota", "--word", word, "--n", n, "--ell", ell])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: iota has no move for rung 2: both its strands end there")


def test_iota_refuses_a_top_layer_starting_with_weight_3(capsys):
    # iota's residues assume no leading weight-3 strand on top; (3, 3, 0) -> (3, 2, 1)
    code = main(["bij", "iota", "--word", "F2", "--n", "3", "--ell", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: iota needs a top layer without leading weight-3 strands, got 3 2 1\n")


@pytest.mark.parametrize("preset,count", [("arc", 3), ("hexagon", 66)])
def test_iota_flow_out_of_range_is_a_usage_error(capsys, preset, count):
    for flag in (f"--flow={count}", "--flow=-1"):
        assert main(["bij", "iota", "--preset", preset, flag]) == 2, flag
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --flow must be 0..{count - 1}\n"


def test_iota_sweep_exits_zero_or_two_on_every_flow():
    # every web of one to three factors F_i^(j), j <= 2, on 2-4 strands at levels 1-2;
    # iota fills every flow of a web or none, and the command refuses the latter
    webs = {web for n in (2, 3, 4) for ell in (1, 2) for k in (1, 2, 3)
            for word in itertools.product(itertools.product(range(1, n), (1, 2)), repeat=k)
            if (web := ladderweb.build_web(ladderweb.LTWord(word), n, ell)) is not None}
    codes: Counter = Counter()
    for web in webs:
        seen = set()
        for flow in range(len(enumerate_flows(web))):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                seen.add(main(["bij", "iota", "--word", str(web.word), "--n", str(web.n),
                               "--ell", str(web.ell), "--flow", str(flow)]))
            assert "internal error:" not in err.getvalue(), (web, flow)
        codes[tuple(seen)] += 1
    # 26 webs with a leading weight-3 strand on top and 25 with a cap are refused
    assert codes == {(0,): 63, (2,): 51}


def test_zero_word_is_usage_error(capsys):
    assert main(["flows", "enumerate", "--word", "F1^3 F1^3", "--n", "2", "--ell", "1"]) == 2
    capsys.readouterr()
    # no level gives a web, so the level is not ambiguous
    assert main(["flows", "enumerate", "--word", "F1^3 F1^3", "--n", "2"]) == 2
    assert capsys.readouterr().err == "error: word F1^3 F1^3 is zero on 2 strands at every level\n"
    assert main(["flows", "enumerate", "--word", "F1", "--ell", "-1"]) == 2
    assert capsys.readouterr().err == "error: --ell must be non-negative, got -1\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        ("webs show --word F1 --ell 0 --n 2", "error: word F1 is zero on 2 strands at level 0\n"),
        ("flows enumerate --word F1 --n 0", "error: index 1 out of range for 0 strands\n"),
        ("bracket --pair F1 F1 --ell 0", "error: word F1 is zero on 2 strands at level 0\n"),
    ],
)
def test_explicit_zero_strands_or_level_is_honoured(capsys, argv, err):
    # an explicit 0 is a value, not "unset": it must not fall back to the defaults
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


@pytest.mark.parametrize(
    "word,err",
    [
        ("F0", "error: ladder index 0 must be positive\n"),
        ("F1^4", "error: divided power 4 must be 1, 2 or 3\n"),
        ("F1^(0)", "error: divided power 0 must be 1, 2 or 3\n"),
    ],
)
def test_out_of_range_word_factor_is_usage_error(capsys, word, err):
    assert main(["webs", "show", "--word", word]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


@pytest.mark.parametrize(
    "word,n,levels,code,err",
    [
        ("F10000", [], [10000], 0, ""),
        ("F2^2", ["--n", "2"], [2], 2, "error: index 2 out of range for 2 strands\n"),
        ("F9", ["--n", "3"], [3], 2, "error: index 9 out of range for 3 strands\n"),
        ("F5 F1", ["--n", "3"], [1], 2, "error: index 5 out of range for 3 strands\n"),
        ("F1^2 F1^2", [], [1], 2, "error: word F1^2 F1^2 is zero on 2 strands at every level\n"),
        ("1", ["--n", "0"], [0], 0, ""),
        ("1", [], [0, 1, 2], 2, "error: level of 1 is ambiguous on 2 strands; pass --ell\n"),
    ],
)
def test_word_without_level_is_built_at_its_first_index(capsys, monkeypatch, word, n, levels,
                                                        code, err):
    # F_i applied first needs a 3 on strand i and a 0 on strand i + 1, so no other
    # level can carry the word; the empty word fits every level
    built = []

    def build_web(word, n, ell):
        built.append(ell)
        return ladderweb.build_web(word, n, ell)

    monkeypatch.setattr(cli, "build_web", build_web)
    assert main(["webs", "show", "--word", word, *n]) == code
    assert capsys.readouterr().err == err
    assert built == levels


@pytest.mark.parametrize("max_n", ["1", "0", "-1"])
def test_max_n_below_two_is_usage_error(capsys, max_n):
    # no classical boundary has fewer than two strands: the run would check nothing
    assert main(["verify", "all", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: --max-n must be at least 2, got {max_n}\n")


ONE_NODE = '"shape":{"components":[[1],[],[]]'


@pytest.mark.parametrize(
    "argv,err",
    [
        (["bij", "grow", "--tableau", '{%s},"cells":[[1,1,1,1],[1,1,1,1]]}' % ONE_NODE],
         "tableau cell [1, 1, 1] is listed twice"),
        (["bij", "grow", "--tableau", '{%s},"cells":[[1,1,1,2],[1,1,1,1]]}' % ONE_NODE],
         "tableau cell [1, 1, 1] is listed twice"),
        (["bij", "grow", "--tableau", '{"shape":{"components":[[2],[],[]]},"cells":[[1,1,1,1]]}'],
         "tableau cell [1, 2, 1] is missing"),
        (["bij", "grow", "--tableau", '{%s},"cells":[]}' % ONE_NODE],
         "tableau cell [1, 1, 1] is missing"),
        (["bij", "grow", "--tableau", '{%s,"m":true},"cells":[[1,1,1,1]]}' % ONE_NODE],
         "shape 'm' must be an integer"),
        (["bij", "grow", "--tableau", '{%s},"cells":[[1,1,1,true]]}' % ONE_NODE],
         "tableau cell [1, 1, 1, true] is not [row, col, comp, entry] in shape"),
        (["bij", "grow", "--tableau", '{%s},"cells":[[1,1,1,0]]}' % ONE_NODE],
         "tableau cell [1, 1, 1, 0] is not [row, col, comp, entry] in shape"),
        (["foam", "idem", "--shape", '{"components":[[true],[],[]]}'],
         "shape 'components' must be three lists of integers"),
    ],
    ids=["repeat", "repeat-other-entry", "missing", "no-cells", "m-true", "entry-true",
         "entry-zero", "part-true"],
)
def test_bad_json_payload_names_its_cell_or_field(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {err}\n")


@pytest.mark.parametrize(
    "argv,parsers",
    [
        # spelled out in full: read from the option table, no parser built
        ("flows enumerate --preset arc", []),
        ("--format json --max-total-length 9 bij iota --preset arc", []),
        ("frobnicate webs list", ["webs"]),
        ("webs --help", ["webs"]),
        ("-h flows", [None]),
        ("--he webs list", [None]),
        ("--format json", [None]),
    ],
    ids=lambda p: None if isinstance(p, str) else "-".join(map(str, p)) or "no parser",
)
def test_main_builds_only_the_named_verb(monkeypatch, capsys, argv, parsers):
    built = []

    def spy(name=None):
        built.append(name)
        return build_parser(name)

    monkeypatch.setattr(cli, "build_parser", spy)
    main(argv.split())
    assert built == parsers


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


# Exit code and stdout sha256 of `foam basis`, in text and JSON; the golden
# corpus holds it in text on other boundaries.  `-+-+` is the mirror of `+-+-`.
PINNED_BASIS = [
    ("+-", "text", 0, "8a4dde9165ff2fc000542517fff49107c2fd338efbb9fdb80e0b00d22d4a3c9b"),
    ("+-", "json", 0, "01078258c3d634164e66877e23e0ee5526053a81dc2418cc514e768b6c97287c"),
    ("+++", "text", 0, "6b0998ace0aefadff04065f9493301efab0590d664df2537c04d4bd0b5717de3"),
    ("+++", "json", 0, "31e29fd0ff8a3a55ec58aeba9e71a6186be828389838275b1a76d494af7d27a7"),
    ("+-+-", "text", 0, "75254a8a15621e926abcd00274e906cd862cac478e086fe34a7da71dc27872f6"),
    ("+-+-", "json", 0, "59794c68369855c55d10d73066e36de3cad86d9ea470b5db3da2ee781c05a5ba"),
    ("-+-+", "text", 0, "316f963508a1e64741efe41ec7f6fc71f7020bee9ee25f3782e176f6c2a5da9b"),
    ("-+-+", "json", 0, "b41fbb6f58f4becaf1295377f5c9c9a359022f588b8d3d3c7669af01c67f1f07"),
    ("++-+-", "text", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("++-+-", "json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("+-+++", "text", 0, "54c31d8a258fc402b2d7a6650e09f1d6091580e5ca4e44646cdc816cb7416e23"),
    ("+-+++", "json", 0, "51710a4e1703f623e6862160cf33aca01298f6907563d8123e2a08b5cfbf9085"),
    ("+-+-+-", "text", 0, "aaddee5baaaeca48a28b8032897731af372ae46b30ddae6c49704df040bddf9c"),
    ("+-+-+-", "json", 0, "05a29996d99edacb29bded7772a0e13a4b074527a247ac4b2469d6c7c2617102"),
]


@pytest.mark.parametrize(
    "signs,fmt,code,sha", PINNED_BASIS, ids=[" ".join(p[:2]) for p in PINNED_BASIS]
)
def test_pinned_output_of_foam_basis(capsys, signs, fmt, code, sha):
    got, out = run_cli(capsys, "--format", fmt, "foam", "basis", "--signs", signs)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == sha


# every classical boundary with n <= 5, and the six 6-strand ones of the benchmark's
# foam-basis workload
BASIS_JSON = [*checks.classical_sign_strings(5),
              "++++++", "-+-+-+", "-+--++", "--++-+", "--+-++", "---+++"]


@pytest.mark.parametrize("signs", BASIS_JSON)
def test_foam_basis_json_is_the_dumps_of_its_row_dicts(capsys, signs):
    # the rows are written from texts made once per shape and filling; the oracle is
    # one row dict per foam, dumped whole
    rows = [{"shape": json.dumps(f.shape.to_json(), sort_keys=True),
             "top": json.dumps(tableau_cells(f.top_tableau.rows)),
             "bottom": json.dumps(tableau_cells(f.bottom_tableau.rows)),
             "degree": f.degree} for f in enumerate_cellular_basis(signs)]
    code, out = run_cli(capsys, "--format", "json", "foam", "basis", "--signs", signs)
    assert code == 0 and len(rows) > 0
    assert out == json.dumps(rows, indent=2, sort_keys=True) + "\n"


# every basis web with n <= 5, by its word, and every preset
FLOW_WEBS = [(["--word", str(web.word), "--n", str(web.n), "--ell", str(web.ell)], web)
             for signs in checks.classical_sign_strings(5)
             for _rows, web in ladderweb.enumerate_basis(signs)]
FLOW_WEBS += [(["--preset", name], preset_web(name)) for name in PRESET_NAMES]


def _flow_row_dicts(web):
    """The oracle rows of `flows enumerate` and `flows expand` on the web: one dict per
    flow of enumerate_flows, and per state of its flow vector's expansion."""
    flows = enumerate_flows(web)
    listed = [{"flow": idx,
               "moves": json.dumps([sorted(h) for h in f.moves]),
               "strands": json.dumps([[sorted(s) for s in layer] for layer in f.layers]),
               "state": json.dumps(list(f.state)),
               "weight": f.exponent} for idx, f in enumerate(flows)]
    expanded = [{"state": json.dumps(list(j)), "coefficient": str(p)}
                for j, p in sorted(tensor_expansion(flow_vector(flows)).items(), reverse=True)]
    return listed, expanded


@pytest.mark.parametrize("argv,web", FLOW_WEBS, ids=[" ".join(a) for a, _w in FLOW_WEBS])
def test_flows_json_is_the_dumps_of_its_row_dicts(capsys, argv, web):
    # the rows are written from one template per flow or state; the oracle is one row
    # dict each, dumped whole
    listed, expanded = _flow_row_dicts(web)
    code, out = run_cli(capsys, "--format", "json", "flows", "enumerate", *argv)
    assert code == 0 and len(listed) > 0
    assert out == json.dumps(listed, indent=2, sort_keys=True) + "\n"
    code, out = run_cli(capsys, "--format", "json", "flows", "expand", *argv)
    assert code == 0
    assert out == json.dumps(expanded, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv,web", FLOW_WEBS, ids=[" ".join(a) for a, _w in FLOW_WEBS])
def test_flows_text_and_csv_write_the_row_dicts(capsys, argv, web):
    # the same oracle rows, as the text lines and the CSV the two actions write
    listed, expanded = _flow_row_dicts(web)
    code, out = run_cli(capsys, "flows", "enumerate", *argv)
    assert code == 0 and out == "".join(
        f"flow={r['flow']}  moves={r['moves']}  state={r['state']}  weight={r['weight']}\n"
        for r in listed)
    code, out = run_cli(capsys, "flows", "expand", *argv)
    assert code == 0 and out == "".join(
        f"state={r['state']}  coefficient={r['coefficient']}\n" for r in expanded)
    for action, rows in (("enumerate", listed), ("expand", expanded)):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        code, out = run_cli(capsys, "--format", "csv", "flows", action, *argv)
        assert code == 0 and out == buf.getvalue(), action


# Exit code, stdout sha256 and stderr sha256 of argv that argparse itself
# answers: usage errors at the root and in a verb, and help.  The last three
# name a verb after a token the root parser reads first.  Help and usage wrap
# at COLUMNS, so it is fixed at 80.
CSV_COMMANDS = [
    ["webs", "list", "--signs", "+-"],
    ["webs", "show", "--preset", "arc"],
    ["flows", "enumerate", "--preset", "arc"],
    ["flows", "expand", "--preset", "arc"],
    ["bij", "roundtrip", "--signs", "+-"],
    ["foam", "basis", "--signs", "+-"],
    ["foam", "dims", "--signs", "+-"],
]


def test_help_lists_the_csv_header_of_every_verb(capsys):
    headers = {}
    for argv in CSV_COMMANDS:
        assert main(["--format", "csv", *argv]) == 0, argv
        header = capsys.readouterr().out.splitlines()[0]
        headers[" ".join(argv[:2])] = header.replace(",", ", ")
    assert main(["--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    epilog = help_text[help_text.index("CSV columns per verb: "):]
    assert dict(re.findall(r"(\w+ \w+) \(([^)]*)\)", epilog)) == headers



NO_CSV_COMMANDS = {
    "verify": ["verify", "degree", "--signs", "+-"],
    "bij-iota": ["bij", "iota", "--preset", "arc"],
    "bij-grow": ["bij", "grow", "--tableau",
                 '{"cells": [[1, 1, 1, 1], [1, 1, 3, 1]], "shape": {"components": [[1], [], [1]], "m": 1}}'],
    "foam-idem": ["foam", "idem", "--shape", '{"components": [[1], [], [1]], "m": 1}'],
    "bracket": ["bracket", "--pair", "theta"],
}


@pytest.mark.parametrize("argv", NO_CSV_COMMANDS.values(), ids=NO_CSV_COMMANDS)
def test_csv_is_refused_where_no_csv_is_written(capsys, argv):
    assert set(cli.CSV_WRITERS) == {" ".join(a[:2]) for a in CSV_COMMANDS}
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["--format", "csv", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


PINNED_PARSER = [
    ("", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4825e9f8fc853fbb42b7fa5d9da1a18622320e1009f33997680b2888b00d78cf"),
    ("--format json", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "4825e9f8fc853fbb42b7fa5d9da1a18622320e1009f33997680b2888b00d78cf"),
    ("frobnicate", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "2870ddc45942fe275999956eab2185b8617fba6646d6b54111c275ebf2a3c802"),
    ("--format xml webs list", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a856e21045e8fef04f5e3dbc7510d64ad993afd23d14691e2b2265904ec40da6"),
    ("--max-total-length x webs list --signs +-", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "c9ea4bf5353507437ea0d9602073be0b99b7e5e807d3f320e05535588744f1ae"),
    ("flows enumerate --bogus", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "28376cca52e8dd55ceeae538dd3c3f2cc57a463275dcd97791d18954de3cfeac"),
    ("verify nope", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "14f63ec9b23b696e75d5ee3bd2d46090fae54dcdf346e413516d62ee167772a8"),
    ("bracket", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "53278c2f14e09bce83a253e7c50cbddab50aaa322c78a73e4ccbf944f749c40e"),
    ("webs", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "a161d9cf6b35391f930af273c5687483de5aa9157ff0a44fb177e54c8d030f05"),
    ("webs list", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "095ae8525240ef8335d2ae26589c71034a1db1fda2ed9948f0b50e3e79a0f74e"),
    ("--help", 0, "748a225899d117331d4b0c771e64e92a749f469964d4fc5096df648ff08019d1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("flows --help", 0, "ff3ffec1307374ddbfefcb3ec802aff58769f8e2de89b607f50deed1ca6aca6a", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("-h flows", 0, "748a225899d117331d4b0c771e64e92a749f469964d4fc5096df648ff08019d1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("frobnicate webs list", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "2870ddc45942fe275999956eab2185b8617fba6646d6b54111c275ebf2a3c802"),
    ("--format webs list", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "692ffaf760480b3c119a63f049b165bbaf7d0b70628fc4c2513213423fbeddaf"),
    ("--he webs list", 0, "748a225899d117331d4b0c771e64e92a749f469964d4fc5096df648ff08019d1", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize(
    "argv,code,out_sha,err_sha", PINNED_PARSER, ids=[p[0] or "(none)" for p in PINNED_PARSER]
)
def test_pinned_parser_output(capsys, monkeypatch, argv, code, out_sha, err_sha):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_sha


# Help and usage at other widths: they wrap at COLUMNS - 2, as argparse wraps them
# when it reads the terminal size itself.
PINNED_PARSER_WIDTHS = [
    ("50", "--help", 0, "6e8618d57a6d5c75909801ba44bdc364729e8a226838c8f80e395a9937ac78ae", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("50", "flows --help", 0, "6c7292fa0a000e5a955318a908710b265c9f2d4bc421b3686451a923cad612ca", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("50", "webs list", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "095ae8525240ef8335d2ae26589c71034a1db1fda2ed9948f0b50e3e79a0f74e"),
    ("132", "--help", 0, "261b50bae6c981fba53e428c22d525044ab110858cfd88a0ae1ad3124027a791", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("132", "flows --help", 0, "a8fdf3daa6959e6cc44bacba0d2c4e1284395cebdd2f53936ee475b7a4b10a92", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("132", "webs list", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "095ae8525240ef8335d2ae26589c71034a1db1fda2ed9948f0b50e3e79a0f74e"),
]


@pytest.mark.parametrize(
    "columns,argv,code,out_sha,err_sha", PINNED_PARSER_WIDTHS,
    ids=[f"{p[0]} {p[1]}" for p in PINNED_PARSER_WIDTHS],
)
def test_pinned_parser_output_at_other_widths(capsys, monkeypatch, columns, argv, code, out_sha,
                                              err_sha):
    monkeypatch.setenv("COLUMNS", columns)
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_sha
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_sha


@pytest.mark.parametrize("verb", [None, *cli.VERBS], ids=["root", *cli.VERBS])
def test_parser_reads_the_terminal_size_once(monkeypatch, verb):
    # argparse makes a formatter per argument and per parser; none reads the size again
    real, calls = shutil.get_terminal_size, []
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or real(*a))
    parser = build_parser(verb)
    parser.format_help()
    assert len(calls) == 1
