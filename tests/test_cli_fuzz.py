"""Fuzzing every payload flag of the command line, and its fast parse.

Whatever the payload, a call exits 0, 1 or 2, writes at most one stderr line
and never a traceback or an ``internal error:`` line, and a payload its
parser cannot read exits 2.  `bij iota` refuses, with exit 2, the webs it
fills no flow of: a top layer starting with a weight-3 strand, and a rung
whose two strands both end there (test_cli.py sweeps them).  An argv that
cli._fast_parse reads, argparse reads to the same namespace.  Runs are
derandomised and keep no example database, so the module is deterministic
and writes no files.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from sl3web import checks
from sl3web.cli import ARGUMENTS, VERBS, _fast_parse, _normalize_argv, build_parser, main
from sl3web.presets import PRESET_NAMES

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    assert not err.startswith("internal error:"), (argv, err)
    return code


def is_classical(signs):
    weight = sum(1 if s == "+" else 2 for s in signs)
    return bool(signs) and set(signs) <= {"+", "-"} and weight % 3 == 0


# Every verb that reads --signs enumerates a basis: at most four strands.
SIGNS = st.text(alphabet="+-oxq", max_size=4)
SIGNS_VERBS = st.sampled_from(
    [["webs", "list"], ["bij", "roundtrip"], ["foam", "basis"], ["foam", "dims"]]
    + [["verify", name] for name in (*checks.CHECKS, "all")]
)
FORMAT = st.sampled_from(["text", "json", "csv"])


@FUZZ
@given(FORMAT, SIGNS_VERBS, SIGNS)
def test_signs(fmt, verb, signs):
    # verify writes no CSV rows, so it refuses --format csv like a bad payload
    ok = is_classical(signs) and not (fmt == "csv" and verb[0] == "verify")
    assert run(["--format", fmt, *verb, f"--signs={signs}"]) == (0 if ok else 2)


@FUZZ
@given(st.integers(-2, 4))
def test_max_n(max_n):
    assert run(["verify", "total-length", f"--max-n={max_n}"]) == (0 if max_n >= 2 else 2)


TOKEN = st.builds(
    lambda style, i, j: style.format(i=i, j=j),
    st.sampled_from(["F{i}", "F{i}^{j}", "F{i}^({j})", "f{i}", "G{i}", "{i}", "F{i}^"]),
    st.integers(0, 7),
    st.integers(0, 4),
)
WORD = st.lists(TOKEN, max_size=5).map(" ".join)
# words that mostly build a web; with small --n and --ell two of them can meet in a pair
LADDER = st.lists(st.builds("F{}^{}".format, st.integers(1, 3), st.integers(1, 2)),
                  min_size=1, max_size=4).map(" ".join)
LEVEL = st.none() | st.integers(-2, 7)


def level_flags(n, ell):
    return [f"--{flag}={v}" for flag, v in (("n", n), ("ell", ell)) if v is not None]


@FUZZ
@given(
    st.sampled_from([["webs", "show"], ["flows", "enumerate"], ["flows", "expand"], ["bij", "iota"]]),
    WORD, LEVEL, LEVEL, st.integers(-1, 4),
)
def test_word(verb, word, n, ell, flow):
    argv = [*verb, f"--word={word}", *level_flags(n, ell)]
    code = run(argv + [f"--flow={flow}"] if verb[0] == "bij" else argv)
    if any(v is not None and v < 0 for v in (n, ell)) or not word.strip():
        assert code == 2


@FUZZ
@given(st.lists(st.sampled_from(PRESET_NAMES) | LADDER | WORD.filter(str.strip),
                min_size=1, max_size=3), st.integers(1, 4) | LEVEL, st.integers(1, 2) | LEVEL)
def test_pair(pair, n, ell):
    code = run(["bracket", "--pair", *pair, *level_flags(n, ell)])
    if len(pair) == 3 or (len(pair) == 1 and pair[0] not in PRESET_NAMES):
        assert code == 2


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["shape", "cells", "components", "m"]), inner, max_size=4),
    max_leaves=8,
)
PART = st.integers(-1, 3) | st.booleans()
NEAR_SHAPE = st.fixed_dictionaries(
    {"components": st.lists(st.lists(PART, max_size=3), min_size=2, max_size=4)},
    optional={"m": st.none() | st.booleans() | st.integers(-1, 4)},
)
NEAR_TABLEAU = st.fixed_dictionaries(
    {"shape": NEAR_SHAPE, "cells": st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4),
                                            max_size=6)}
)


def is_shape(data):
    """Whether data has the documented shape form; its values may still be bad."""
    comps = data.get("components") if isinstance(data, dict) else None
    return (
        isinstance(comps, list) and len(comps) == 3
        and all(isinstance(c, list) and all(type(p) is int for p in c) for c in comps)
        and (data.get("m") is None or type(data["m"]) is int)
    )


def is_tableau(data):
    return isinstance(data, dict) and isinstance(data.get("cells"), list) and is_shape(data.get("shape"))


@FUZZ
@given(JSON | NEAR_SHAPE)
def test_shape(data):
    code = run(["foam", "idem", f"--shape={json.dumps(data)}"])
    assert code == 2 if not is_shape(data) else code in (0, 2)


@FUZZ
@given(JSON | NEAR_TABLEAU)
def test_tableau(data):
    code = run(["bij", "grow", f"--tableau={json.dumps(data)}"])
    assert code == 2 if not is_tableau(data) else code in (0, 2)


@FUZZ
@given(st.sampled_from([["bij", "grow", "--tableau"], ["foam", "idem", "--shape"]]),
       st.text(max_size=8))
def test_json_text(verb, text):
    # raw text: malformed JSON, or JSON that is not an object, is a usage error
    try:
        data = json.loads(text)
    except ValueError:
        data = None
    code = run([*verb[:2], f"{verb[2]}={text}"])
    assert code == 2 or isinstance(data, dict)


# Odd values for the option table's entries: ints as int() reads them or not, an empty
# string, a sign string (which _normalize_argv joins onto --signs), and tokens starting
# with '-'; then tokens argparse reads in its own way: help, abbreviations, '=' forms and
# stray words
VALUES = ["x", " 3", "", "7", "\u0663", "1_0", "+-", "{}"]
DASHED = ["-F1", "-h", "-+", "--", "-1"]
TRICKY = ["--help", "--form", "--max", "--pre", "--sig", "--signs=", "--signs=-+", "--word=F1",
          "--n=2", "webs", "list", "all"]


@st.composite
def table_args(draw, args, min_options=0):
    """Tokens for a positional's value, if `args` has one, then for some of their
    options, each with values that argparse takes."""
    options = draw(st.lists(st.sampled_from([a for a in args if a[0].startswith("-")]),
                            unique_by=lambda a: a[0], min_size=min_options, max_size=3))
    tokens = []
    for name, kwargs in [a for a in args if not a[0].startswith("-")] + options:
        good = kwargs.get("choices") or (["0", "2"] if "type" in kwargs else ["F1", "arc"])
        tokens += [name] if name.startswith("-") else []
        tokens += draw(st.lists(st.sampled_from(good), min_size=1,
                                max_size=3 if "nargs" in kwargs else 1))
    return tokens


@st.composite
def near_full_argv(draw):
    """An argv spelled out in full from the table's own flags, choices and values, then
    perhaps with one value made odd, or one flag or tricky token dropped in."""
    verb = draw(st.sampled_from(VERBS))
    argv = [*draw(table_args(ARGUMENTS[None][1])), verb, *draw(table_args(ARGUMENTS[verb][1], 1))]
    # from the end: hypothesis leans to early choices, and the verb's values come last
    values = [i for i, t in enumerate(argv) if t != verb and not t.startswith("-")][::-1]
    changes = ["value", "value", "insert", "none"] if values else ["insert", "none"]
    change = draw(st.sampled_from(changes))
    if change == "value":
        odd = st.sampled_from(DASHED) | st.sampled_from(VALUES)
        argv[draw(st.sampled_from(values))] = draw(odd)
    elif change == "insert":
        odd = st.sampled_from(TRICKY + DASHED + [t for t in argv if t.startswith("-")])
        argv.insert(draw(st.integers(0, len(argv))), draw(odd))
    return argv


FULL_PARSER = build_parser()


@FUZZ
@given(near_full_argv())
@example(["webs", "list", "--signs", "--"])  # argparse reads --signs=-- as an empty list
def test_fast_parse_agrees_with_argparse(argv):
    # an argv the fast path reads, argparse reads to the same namespace; any other it leaves
    argv = _normalize_argv(argv)
    fast = _fast_parse(argv)
    if fast is not None:
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            try:
                parsed = FULL_PARSER.parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses {argv}, which the fast path read as {fast}")
        assert vars(fast) == vars(parsed), argv
