"""Flow enumeration, weights, brackets and tensor expansions."""

import gc
import itertools
import json

import pytest

from sl3web import checks, cli, flows
from sl3web.bijection import survey, survey_web
from sl3web.checks import classical_sign_strings
from sl3web.flows import (
    COLORS,
    ClosedWeb,
    boundary_state,
    bracket,
    canonical_flow,
    closed_flows,
    closed_weight,
    divided_power_identity_holds,
    enumerate_flows,
    flow_at,
    flow_from_moves,
    flow_to_colstrict,
    flow_vector,
    tableau_state,
    tensor_expansion,
    transition_exponent,
    web_vector,
)
from sl3web.laurent import LaurentPoly, monomial, qint
from sl3web.ladderweb import LTWord, build_web, enumerate_basis, web_from_tableau
from sl3web.presets import PRESET_NAMES, preset_web

ARC = web_from_tableau(((1, 2, 2),))
Y = web_from_tableau(((1, 2, 3),))
HALF_THETA = web_from_tableau(((1, 1, 2), (2, 3, 3)))


def test_transition_exponent_matches_divided_power_action():
    for left_size in range(4):
        for left in itertools.combinations(COLORS, left_size):
            for right_size in range(4):
                for right in itertools.combinations(COLORS, right_size):
                    l, r = frozenset(left), frozenset(right)
                    movable = sorted(l - r)
                    for k in range(1, len(movable) + 1):
                        for moved in itertools.combinations(movable, k):
                            assert divided_power_identity_holds(l, r, frozenset(moved))


# -- enumeration ----------------------------------------------------------------


def test_circle_has_three_flows():
    assert len(closed_flows(ClosedWeb(ARC, ARC))) == 3


def test_theta_has_six_flows():
    assert len(closed_flows(ClosedWeb(Y, Y))) == 6


def test_empty_web_has_single_flow():
    web = build_web(LTWord(), 3, 1)
    assert len(enumerate_flows(web)) == 1


def test_flow_layers_conserve_colors():
    for flow in enumerate_flows(HALF_THETA):
        for layer, weights in zip(flow.layers, HALF_THETA.layers):
            assert [len(s) for s in layer] == list(weights)
            for c in COLORS:
                assert sum(1 for s in layer if c in s) == HALF_THETA.ell


# -- boundary states -------------------------------------------------------------


def test_half_theta_state_example():
    flow = next(
        f
        for f in enumerate_flows(HALF_THETA)
        if flow_to_colstrict(HALF_THETA, f) == ((1, 1, 2), (3, 2, 3))
    )
    assert boundary_state(HALF_THETA, flow) == (1, -1, 0)


def test_hexagon_zero_state_reads_as_the_shared_tableau():
    # all-zero boundary states on the hexagon read off the unique tableau
    hexweb = web_from_tableau(((1, 2, 4), (2, 3, 5), (4, 6, 6)))
    zero_flows = [
        f
        for f in enumerate_flows(hexweb)
        if boundary_state(hexweb, f) == (0, 0, 0, 0, 0, 0)
    ]
    assert zero_flows
    for f in zero_flows:
        assert flow_to_colstrict(hexweb, f) == ((2, 1, 2), (4, 3, 4), (6, 5, 6))


def test_hexagon_canonical_flow_reads_semistandard():
    tableau = ((1, 2, 4), (2, 3, 5), (4, 6, 6))
    hexweb = web_from_tableau(tableau)
    flow = canonical_flow(hexweb, tableau, enumerate_flows(hexweb))
    assert flow_to_colstrict(hexweb, flow) == ((1, 2, 4), (2, 3, 5), (4, 6, 6))
    assert boundary_state(hexweb, flow) == (1, 1, 0, 0, -1, -1)


def test_closed_word_has_empty_state():
    web = build_web(LTWord.parse("F1 F1 F1"), 2, 1)
    assert web.boundary == "ox"
    for f in enumerate_flows(web):
        assert boundary_state(web, f) == ()


# -- weights ------------------------------------------------------------------------


def test_theta_weight_multiset():
    theta = ClosedWeb(Y, Y)
    ws = sorted(closed_weight(theta, cf) for cf in closed_flows(theta))
    assert ws == [-3, -1, -1, 1, 1, 3]


def test_circle_weight_multiset():
    circle = ClosedWeb(ARC, ARC)
    ws = sorted(closed_weight(circle, cf) for cf in closed_flows(circle))
    assert ws == [-2, 0, 2]


def test_empty_flow_weight_zero():
    web = build_web(LTWord(), 3, 1)
    (flow,) = enumerate_flows(web)
    assert flow.exponent == 0


# -- colstrict reading and canonical flows ----------------------------------------------


def test_hexagon_canonical_reading():
    hexweb = web_from_tableau(((1, 2, 4), (2, 3, 5), (4, 6, 6)))
    flow = next(
        f
        for f in enumerate_flows(hexweb)
        if flow_to_colstrict(hexweb, f) == ((2, 1, 2), (4, 3, 4), (6, 5, 6))
    )
    assert boundary_state(hexweb, flow) == (0, 0, 0, 0, 0, 0)


def test_arc_flows_give_all_one_row_readings():
    readings = {flow_to_colstrict(ARC, f) for f in enumerate_flows(ARC)}
    assert readings == {((1, 2, 2),), ((2, 1, 2),), ((2, 2, 1),)}


def test_canonical_flow_is_semistandard_reading():
    flow = canonical_flow(ARC, ((1, 2, 2),), enumerate_flows(ARC))
    assert flow_to_colstrict(ARC, flow) == ((1, 2, 2),)
    assert flow.exponent == 0


def test_canonical_flow_exists_uniquely_small_webs():
    # and its state, the web's leading state, is the one read off the tableau
    webs = 0
    for signs in classical_sign_strings(7):
        for rows, web in enumerate_basis(signs):
            flow = canonical_flow(web, rows, enumerate_flows(web))
            assert flow_to_colstrict(web, flow) == rows
            assert tableau_state(rows) == flow.state, rows
            webs += 1
    assert webs == 638


def test_theta_canonical_restricts_to_halves():
    theta = ClosedWeb(Y, Y)
    best = max(closed_flows(theta), key=lambda cf: closed_weight(theta, cf))
    canonical = canonical_flow(Y, ((1, 2, 3),), enumerate_flows(Y))
    assert best.bottom.moves == canonical.moves
    assert best.top.moves == canonical.moves


# -- brackets -----------------------------------------------------------------------


def test_circle_bracket_is_quantum_three():
    assert bracket(ClosedWeb(ARC, ARC)) == qint(3)


def test_theta_bracket():
    assert bracket(ClosedWeb(Y, Y)) == qint(2) * qint(3)
    assert str(bracket(ClosedWeb(Y, Y))) == "q^3 + 2*q + 2*q^-1 + q^-3"


def test_single_word_theta_bracket_agrees():
    web = build_web(LTWord.parse("F1 F1 F1"), 2, 1)
    assert bracket(web) == qint(2) * qint(3)


def test_nested_circles_bracket_is_square():
    nested = web_from_tableau(((1, 2, 3), (2, 4, 4)))
    assert bracket(ClosedWeb(nested, nested)) == qint(3) * qint(3)


def test_closed_web_needs_one_boundary():
    with pytest.raises(ValueError, match="boundaries differ"):
        ClosedWeb(ARC, Y)


def test_flow_records_are_immutable():
    closed = ClosedWeb(Y, Y)
    records = ((enumerate_flows(Y)[0], "moves"), (closed, "u"), (closed_flows(closed)[0], "top"))
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_bracket_rejects_open_web():
    with pytest.raises(ValueError):
        bracket(ARC)


def test_bracket_symmetry_and_flow_count():
    # the bilinear form on flow vectors against the flow-by-flow definition
    for signs in classical_sign_strings(5):
        webs = [web for _, web in enumerate_basis(signs)]
        for u, v in itertools.product(webs, repeat=2):
            closed = ClosedWeb(u, v)
            pairs = closed_flows(closed)
            br = bracket(closed)
            assert br == sum((monomial(-closed_weight(closed, cf)) for cf in pairs), LaurentPoly())
            assert br == br.bar()
            assert br(1) == len(pairs)


def test_pairing_builds_one_polynomial(monkeypatch):
    # a pair's products are summed into one dict, not into a polynomial per shared
    # state; the bracket pairs the halves' layer counts, so it builds no flow vector
    real, calls = LaurentPoly.__init__, []

    def counted(self, coeffs=None):
        calls.append(coeffs)
        real(self, coeffs)

    webs = [[web for _, web in enumerate_basis(signs)] for signs in classical_sign_strings(5)]
    pairs = [(u, v, flow_vector(enumerate_flows(u)), flow_vector(enumerate_flows(v)))
             for basis in webs for u, v in itertools.product(basis, repeat=2)]
    monkeypatch.setattr(LaurentPoly, "__init__", counted)
    for u, v, a, b in pairs:
        calls.clear()
        flows.pairing(a, b)
        assert len(calls) == 1
        calls.clear()
        bracket(ClosedWeb(u, v))
        assert len(calls) == 1, (u, v)


# -- the flow vector without flows ------------------------------------------------------


def test_web_vector_equals_the_flow_vector():
    webs = [web for signs in classical_sign_strings(7) for _, web in enumerate_basis(signs)]
    assert len(webs) == 638
    for web in webs + [preset_web(name) for name in PRESET_NAMES]:
        want = flow_vector(enumerate_flows(web))
        got = web_vector(web)
        assert got == want and list(got) == list(want), web


def test_web_vector_equals_the_survey_vectors():
    for signs in classical_sign_strings(6):
        b = checks.Boundary(signs)
        assert [web_vector(entry.web) for entry in b.surveys] == b.vectors, signs


def test_web_vector_reads_a_patched_rule(monkeypatch):
    bases = [[web for _, web in enumerate_basis(signs)] for signs in classical_sign_strings(5)]
    webs = [web for basis in bases for web in basis]
    pairs = [pair for basis in bases for pair in itertools.product(basis, repeat=2)]
    plain = {web: web_vector(web) for web in webs}
    brackets = {pair: bracket(ClosedWeb(*pair)) for pair in pairs}
    real = flows.transition_exponent
    monkeypatch.setattr(flows, "transition_exponent", lambda *sets: -real(*sets))
    for web in webs:
        assert web_vector(web) == flow_vector(enumerate_flows(web)), web
    assert any(web_vector(web) != plain[web] for web in webs if web.boundary == "+-+-")
    for u, v in pairs:
        want = flows.pairing(flow_vector(enumerate_flows(u)), flow_vector(enumerate_flows(v)))
        assert bracket(ClosedWeb(u, v)) == want, (u, v)
    assert any(bracket(ClosedWeb(*pair)) != brackets[pair] for pair in pairs)


def test_flows_enumerate_reads_a_patched_rule(monkeypatch, capsys):
    webs = [web for signs in classical_sign_strings(5) for _, web in enumerate_basis(signs)]
    plain = {web: [f.exponent for f in enumerate_flows(web)] for web in webs}
    real = flows.transition_exponent
    monkeypatch.setattr(flows, "transition_exponent", lambda *sets: -real(*sets))
    changed = 0
    for web in webs:
        argv = ["--word", str(web.word), "--n", str(web.n), "--ell", str(web.ell)]
        assert cli.main(["--format", "json", "flows", "enumerate", *argv]) == 0
        weights = [row["weight"] for row in json.loads(capsys.readouterr().out)]
        assert weights == [f.exponent for f in enumerate_flows(web)], web
        changed += weights != plain[web]
    assert changed > 0


def test_bracket_and_expand_build_no_flow(monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("a flow was built")

    monkeypatch.setattr(flows, "enumerate_flows", refused)
    monkeypatch.setattr(cli, "_flow_walk", refused)
    monkeypatch.setattr(flows, "Flow", refused)
    for argv in (["bracket", "--pair", "theta"],
                 ["bracket", "--pair", "F2 F1^2 F3^2 F2^2", "F1^2 F2 F3^2 F2^2", "--n", "4", "--ell", "2"],
                 ["flows", "expand", "--preset", "hexagon"]):
        assert cli.main(argv) == 0, argv
    assert bracket(build_web(LTWord.parse("F1 F1 F1"), 2, 1)) == qint(3) * qint(2)


def test_bij_iota_builds_the_flow_it_fills(monkeypatch, capsys):
    real, built = flows.Flow, []
    monkeypatch.setattr(flows, "Flow", lambda *fields: built.append(fields) or real(*fields))
    monkeypatch.setattr(flows, "enumerate_flows", None)
    assert cli.main(["bij", "iota", "--preset", "hexagon", "--flow", "7"]) == 0
    assert len(built) == 1 and capsys.readouterr().out


def test_flow_walks_leave_no_garbage_for_the_collector(capsys):
    # every reader of the prefix walk is freed by reference counting alone
    webs = [web for signs in classical_sign_strings(5) for _, web in enumerate_basis(signs)]
    gc.collect()
    gc.disable()
    try:
        for web in webs:
            enumerate_flows(web)
            flow_at(web, 0)
            cli._flow_rows(web)
        assert cli.main(["--format", "json", "flows", "enumerate", "--preset", "hexagon"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out


def test_flows_enumerate_builds_no_flow(monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("a flow was built")

    monkeypatch.setattr(flows, "enumerate_flows", refused)
    monkeypatch.setattr(flows, "Flow", refused)
    for fmt in ("text", "json", "csv"):
        assert cli.main(["--format", fmt, "flows", "enumerate", "--preset", "hexagon"]) == 0
        assert capsys.readouterr().out


# -- tensor expansion ------------------------------------------------------------------


def test_arc_expansion_unitriangular():
    expansion = tensor_expansion(flow_vector(enumerate_flows(ARC)))
    leading = boundary_state(ARC, canonical_flow(ARC, ((1, 2, 2),), enumerate_flows(ARC)))
    assert expansion[leading] == LaurentPoly({0: 1})
    for j, coeff in expansion.items():
        assert j <= leading
        # signs fold into powers of v = -1/q: coefficient of q^e carries (-1)^e
        for e, c in coeff.items():
            assert c * (-1) ** (e % 2) > 0


def test_hexagon_expansion_contains_weight_minus_four_flow():
    hexweb = web_from_tableau(((1, 2, 4), (2, 3, 5), (4, 6, 6)))
    weights = {
        f.exponent
        for f in enumerate_flows(hexweb)
        if boundary_state(hexweb, f) == (0, 0, 0, 0, 0, 0)
    }
    assert -4 in weights
    coeff = tensor_expansion(flow_vector(enumerate_flows(hexweb)))[(0, 0, 0, 0, 0, 0)]
    assert dict(coeff.items()).get(4, 0) >= 1


def test_closed_word_expansion_single_entry():
    web = build_web(LTWord.parse("F1 F1 F1"), 2, 1)
    expansion = tensor_expansion(flow_vector(enumerate_flows(web)))
    assert list(expansion) == [()]
    assert expansion[()](1) == sum(
        (-1) ** f.exponent for f in enumerate_flows(web)
    )


def test_tensor_expansion_sums_signed_flows():
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            want: dict = {}
            for f in enumerate_flows(web):
                w, j = f.exponent, boundary_state(web, f)
                want[j] = want.get(j, LaurentPoly()) + monomial(-w, (-1) ** (w % 2))
            assert tensor_expansion(flow_vector(enumerate_flows(web))) == want, signs


def test_flows_carry_their_layers():
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for f in enumerate_flows(web):
                built = flow_from_moves(web, f.moves)
                assert built == f and built.layers == f.layers
    moves = enumerate_flows(HALF_THETA)[0].moves
    with pytest.raises(ValueError, match="moves for"):
        flow_from_moves(HALF_THETA, moves[:-1])
    with pytest.raises(ValueError, match="illegal move"):
        flow_from_moves(HALF_THETA, (frozenset({1, 2}),) * len(moves))


def test_flow_at_is_the_kth_enumerated_flow():
    webs = [web for signs in classical_sign_strings(5) for _, web in enumerate_basis(signs)]
    for web in webs + [preset_web(name) for name in PRESET_NAMES]:
        enumerated = enumerate_flows(web)
        count = len(enumerated)
        for k, flow in enumerate(enumerated):
            assert flow_at(web, k) == (flow, count), (web, k)
        assert flow_at(web, -1) == flow_at(web, count) == (None, count), web


def _summed_weight(flow):
    """The weight as defined: the rungs' transition exponents, summed over
    the application order on the flow's own layers."""
    return sum(
        transition_exponent(flow.layers[step][i - 1], flow.layers[step][i], flow.moves[step])
        for step, (i, _j) in enumerate(flow.web.word.application_order())
    )


def test_flows_carry_their_summed_weight():
    # each builder sums the weight as the flow grows and reads the state off its
    # top subsets; all three agree with the rung-by-rung sum and strand-by-strand state
    checked = 0
    for signs in classical_sign_strings(6):
        for entry in survey(enumerate_basis(signs)):
            enumerated = enumerate_flows(entry.web)
            surveyed = [f for _j, _d, f, _t in entry.records]
            assert surveyed == enumerated
            for built in (*enumerated, *surveyed):
                from_moves = flow_from_moves(entry.web, built.moves)
                assert built.exponent == from_moves.exponent == _summed_weight(built), built.moves
                assert built.state == from_moves.state == boundary_state(entry.web, built)
                checked += 1
    assert checked == 2 * 6030  # every flow on the 176 basis webs with n <= 6, twice


def test_each_web_computes_each_of_its_moves_once(monkeypatch):
    # a rung's moves are listed once per web, not once per flow prefix through it
    real, calls = flows.transition_exponent, []
    monkeypatch.setattr(flows, "transition_exponent",
                        lambda *move: calls.append(move) or real(*move))
    distinct = 0
    for signs in classical_sign_strings(6, min_n=4):
        states: dict = {}
        for _rows, web in enumerate_basis(signs):
            calls.clear()
            fs = enumerate_flows(web)
            listed = list(calls)
            # each path computes every move once, and all compute the same moves
            for path in (lambda: survey_web(web, states), lambda: flow_at(web, 0),
                         lambda: cli._flow_rows(web)):
                calls.clear()
                path()
                assert len(calls) == len(set(calls)) and set(calls) == set(listed), web
            assert len(listed) == len(set(listed)), web
            used = {(f.layers[s][i - 1], f.layers[s][i], f.moves[s])
                    for f in fs for s, (i, _j) in enumerate(web.word.application_order())}
            assert used <= set(listed), web
            distinct += len(listed)
    assert distinct == 3880  # 16 381 calls, once per flow prefix, before the moves were listed per web


def test_unitriangularity_exhaustive_small():
    for signs in classical_sign_strings(5):
        for rows, web in enumerate_basis(signs):
            fs = enumerate_flows(web)
            expansion = tensor_expansion(flow_vector(fs))
            leading = boundary_state(web, canonical_flow(web, rows, fs))
            assert expansion[leading] == LaurentPoly({0: 1})
            assert all(j <= leading for j in expansion)
