"""The roundtrip check reads one survey per boundary and can still fail."""

import pytest

from sl3web import bijection, checks
from sl3web.flows import Flow, enumerate_flows
from sl3web.ladderweb import enumerate_basis

SIGNS = "+-+-"


@pytest.fixture(autouse=True)
def cold_survey():
    # a patched iota must neither see nor leave a cached survey
    checks.survey.cache_clear()
    yield
    checks.survey.cache_clear()


def test_roundtrip_fails_when_grow_drops_a_move(monkeypatch):
    real = checks.grow

    def drop_last_move(t, n=None):
        web, flow = real(t, n=n)
        return web, Flow(web, flow.moves[:-1])

    monkeypatch.setattr(checks, "grow", drop_last_move)
    ok, ce = checks.check_roundtrip(SIGNS)
    assert not ok
    assert ce["signs"] == SIGNS
    assert ce["reason"] == "grow did not invert"


def test_roundtrip_fails_when_iota_collides(monkeypatch):
    real = checks.iota
    first: dict = {}

    def collide(web, flow):
        # every flow on a web gets the filling of that web's first flow
        return first.setdefault(web, real(web, flow))

    monkeypatch.setattr(checks, "iota", collide)
    ok, ce = checks.check_roundtrip(SIGNS)
    assert not ok
    assert ce["reason"] == "iota not injective"


def test_roundtrip_runs_iota_once_per_flow(monkeypatch):
    real = checks.iota
    calls = []

    def counted(web, flow):
        calls.append(flow)
        return real(web, flow)

    monkeypatch.setattr(checks, "iota", counted)
    monkeypatch.setattr(bijection, "iota", counted)
    ok, ce = checks.check_roundtrip(SIGNS)
    assert ok, ce
    flows = sum(len(enumerate_flows(web)) for _rows, web in enumerate_basis(SIGNS))
    assert len(calls) == flows


def test_flow_pairs_counts_matching_states():
    entries = checks.survey("+-")
    (arc,) = entries
    assert checks.flow_pairs(arc, arc) == 3
