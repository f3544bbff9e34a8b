"""Every check reads one survey per boundary and can still fail."""

import contextlib
import io
import json
from collections import Counter

import pytest

from sl3web import bijection, checks, flows, foamword
from sl3web.cli import main
from sl3web.flows import Flow, enumerate_flows
from sl3web.ladderweb import enumerate_basis

SIGNS = "+-+-"


def _clear_caches():
    bijection.survey.cache_clear()
    checks.cellular_basis.cache_clear()
    flows.flow_vector.cache_clear()


@pytest.fixture(autouse=True)
def cold_survey():
    # a patched iota must neither see nor leave a cached survey, basis or flow vector
    _clear_caches()
    yield
    _clear_caches()


def test_roundtrip_fails_when_grow_drops_a_move(monkeypatch):
    real = bijection.grow

    def drop_last_move(t, n=None):
        web, flow = real(t, n=n)
        return web, Flow(web, flow.moves[:-1])

    monkeypatch.setattr(bijection, "grow", drop_last_move)
    ok, ce = checks.check_roundtrip(SIGNS)
    assert not ok
    assert ce["signs"] == SIGNS
    assert ce["reason"] == "grow did not invert"


def test_roundtrip_fails_when_iota_collides(monkeypatch):
    real = bijection.iota
    first: dict = {}

    def collide(web, flow):
        # every flow on a web gets the filling of that web's first flow
        return first.setdefault(web, real(web, flow))

    monkeypatch.setattr(bijection, "iota", collide)
    ok, ce = checks.check_roundtrip(SIGNS)
    assert not ok
    assert ce["reason"] == "iota not injective"


def test_roundtrip_runs_iota_once_per_flow(monkeypatch):
    real = bijection.iota
    calls = []

    def counted(web, flow):
        calls.append(flow)
        return real(web, flow)

    for mod in (bijection, foamword):
        monkeypatch.setattr(mod, "iota", counted)
    results = checks.run_checks(list(checks.CHECKS), [SIGNS])
    assert all(r["ok"] for r in results), results
    foamword.enumerate_cellular_basis(SIGNS)
    flows = sum(len(enumerate_flows(web)) for _rows, web in enumerate_basis(SIGNS))
    assert len(calls) == flows


def test_checks_enumerate_each_web_at_most_three_times(monkeypatch):
    # the survey, the flow vector and the canonical flow; never once per pair
    real = flows.enumerate_flows
    calls: Counter = Counter()

    def counted(web):
        calls[web] += 1
        return real(web)

    for mod in (flows, bijection):
        monkeypatch.setattr(mod, "enumerate_flows", counted)
    results = checks.run_checks(list(checks.CHECKS), [SIGNS])
    assert all(r["ok"] for r in results), results
    assert len(calls) == len(enumerate_basis(SIGNS))
    assert max(calls.values()) <= 3, calls


@pytest.mark.parametrize("signs", ["+-", "+++", SIGNS])
def test_off_pairing_fails_bracket_checks(monkeypatch, signs):
    monkeypatch.setattr(flows, "_pairing_exponent", lambda j: len(j) + 1 + sum(j))
    assert not checks.check_graded_dim(signs)[0]
    assert not checks.check_bracket_symmetry(signs)[0]


def test_duplicate_basis_web_fails_basis_checks(monkeypatch):
    # the n >= 7 defect in small: one web twice, another missing
    first, _second = enumerate_basis(SIGNS)
    for mod in (bijection, checks):
        monkeypatch.setattr(mod, "enumerate_basis", lambda signs: [first, first])
    ok, ce = checks.check_total_length(SIGNS)
    assert not ok
    assert ce["repeated_words"] == [str(first[1].word)]
    ok, ce = checks.check_unitriangularity(SIGNS)
    assert not ok
    assert ce["reason"] == "two basis webs share their defining state"


@pytest.mark.xfail(strict=True, reason="lt_generators gives two tableaux one web (ROADMAP item 1)")
@pytest.mark.parametrize("signs", ["+--+---", "+---+--", "+-+-+-+-"])
def test_basis_words_distinct_beyond_six_strands(signs):
    assert checks.check_total_length(signs)[0]


def test_flow_pairs_counts_matching_states():
    (arc,) = bijection.survey("+-")
    assert checks.flow_pairs(arc, arc) == 3


def test_crash_inside_a_check_is_a_replayable_failure(monkeypatch):
    def broken(t, n=None):
        raise RuntimeError("seeded invariant break")

    monkeypatch.setattr(bijection, "grow", broken)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", "verify", "roundtrip", "--signs", "+-"])
    assert code == 1
    (result,) = json.loads(out.getvalue())
    assert not result["ok"]
    assert result["counterexample"] == {
        "signs": "+-",
        "error": "RuntimeError: seeded invariant break",
        "replay": "sl3web verify roundtrip --signs +-",
    }
