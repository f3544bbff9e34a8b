"""Fuzzing every payload flag of the command line.

Whatever the payload, a call exits 0, 1 or 2, writes at most one stderr line
and never a traceback or an ``internal error:`` line, and a payload its
parser cannot read exits 2.  `bij iota` refuses, with exit 2, the webs it
fills no flow of: a top layer starting with a weight-3 strand, and a rung
whose two strands both end there (test_cli.py sweeps them).  Runs are
derandomised and keep no example database, so the module is deterministic
and writes no files.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from sl3web import checks
from sl3web.cli import main
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
