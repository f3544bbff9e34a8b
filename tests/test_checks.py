"""Every check reads one survey per boundary and can still fail."""

import contextlib
import io
import json

import pytest

from sl3web import bijection, checks, foamword
from sl3web.cli import main
from sl3web.flows import Flow, enumerate_flows
from sl3web.ladderweb import enumerate_basis

SIGNS = "+-+-"


@pytest.fixture(autouse=True)
def cold_survey():
    # a patched iota must neither see nor leave a cached survey or basis
    bijection.survey.cache_clear()
    checks.cellular_basis.cache_clear()
    yield
    bijection.survey.cache_clear()
    checks.cellular_basis.cache_clear()


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
