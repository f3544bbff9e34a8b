"""Webs with flows to standard fillings and back."""

import gc
import itertools

import pytest

from reference import (
    canonical_flow,
    colstrict_to_multipartition,
    degree_by_rows,
    flow_to_colstrict,
    iota_by_rows,
    superstandard,
)
from sl3web.bijection import (
    MOVE_TABLE,
    _classify,
    cap_step,
    classify_step,
    grow,
    iota,
    roundtrip_holds,
    shape_of_boundary,
    survey,
    survey_web,
)
from sl3web.checks import classical_sign_strings
from sl3web.flows import COLORS, boundary_state, enumerate_flows
from sl3web.ladderweb import LadderWeb, LTWord, build_web, enumerate_basis, web_from_tableau
from sl3web.tableaux import Multipartition3, StdMultitableau3, _abacus, _place, bkw_degree

HALF_THETA = web_from_tableau(((1, 1, 2), (2, 3, 3)))
NESTED = web_from_tableau(((1, 2, 3), (2, 4, 4)))
SPLIT = web_from_tableau(((1, 2, 2), (3, 4, 4)))
HEX = web_from_tableau(((1, 2, 4), (2, 3, 5), (4, 6, 6)))


def flow_with_state(web, state):
    return next(
        f for f in enumerate_flows(web) if boundary_state(web, f) == state
    )


# -- move classification -----------------------------------------------------


def test_half_theta_moves():
    f = flow_with_state(HALF_THETA, (1, -1, 0))
    assert str(classify_step(HALF_THETA, f, 1)) == "Arc(a,0)"
    assert str(classify_step(HALF_THETA, f, 2)) == "Y(b,0)"


def test_nested_circle_moves():
    f = flow_with_state(NESTED, (0, 0, 0, 0))
    labels = [str(classify_step(NESTED, f, k)) for k in range(1, 5)]
    assert labels == ["Arc(a,0)", "right(b,0)", "left(a,0)", "Arc(b,0)"]


def test_split_circle_moves():
    f = flow_with_state(SPLIT, (0, 0, 0, 0))
    labels = [str(classify_step(SPLIT, f, k)) for k in range(1, 5)]
    assert labels == ["Arc(a,0)", "right(b,0)", "right(a,0)", "Arc(a,0)"]


def _rungs():
    """Every legal rung (a, b, j, left, right, moved): F^(j) takes weights (a, b) to
    (a - j, b + j) and moves j colors of the left strand's subset onto free colors."""
    subsets = [frozenset(s) for k in range(4) for s in itertools.combinations(COLORS, k)]
    for a, b, j in itertools.product(range(4), range(4), range(1, 4)):
        if a >= j and b + j <= 3:
            for left, right in itertools.product(subsets, repeat=2):
                if len(left) == a and len(right) == b:
                    for moved in itertools.combinations(sorted(left - right), j):
                        yield a, b, j, left, right, frozenset(moved)


def _is_cap(a, b, j):
    """Whether `cap_step` flags the rung, on the one-rung web it starts."""
    return cap_step(LadderWeb(LTWord(((1, j),)), 2, 0, ((a, b), (a - j, b + j)))) == 1


def _move_table_mismatches(table):
    """The classified rungs whose kind the table does not place into their moved colors."""
    kinds = ((rung, _classify(1, *rung)) for rung in _rungs() if not _is_cap(*rung[:3]))
    return [(rung, kind) for rung, kind in kinds if table[kind] != tuple(sorted(rung[-1]))]


def test_move_table_places_every_rung_into_its_moved_colors():
    # every legal rung but a cap has a kind, and the table places it right,
    # so no walk need look the table up
    rungs = list(_rungs())
    caps = [rung for rung in rungs if _is_cap(*rung[:3])]
    assert (len(rungs), len(caps)) == (61, 6)
    assert {rung[:3] for rung in caps} == {(1, 2, 1), (2, 1, 2)}
    for rung in caps:
        with pytest.raises(RuntimeError, match="matches no move"):
            _classify(1, *rung)
    kinds = {_classify(1, *rung) for rung in rungs if rung not in caps}
    assert not any(kind[:2] == ("h", "b") for kind in kinds)
    assert _move_table_mismatches(MOVE_TABLE) == []


def test_swapped_move_table_rows_are_mismatches():
    table = dict(MOVE_TABLE)
    a, b = ("arc", "a", 1, False), ("arc", "a", 0, False)
    table[a], table[b] = table[b], table[a]
    assert {kind for _rung, kind in _move_table_mismatches(table)} == {a, b}


def test_iota_and_the_survey_refuse_a_cap():
    cap = build_web(LTWord.parse("F1 F1^2"), 2, 1)  # rung 2 takes (1, 2) to (0, 3)
    assert cap_step(cap) == 2 and cap_step(HALF_THETA) is None
    for fill in (lambda: iota(cap, enumerate_flows(cap)[0]), lambda: survey_web(cap, {})):
        with pytest.raises(RuntimeError, match="rung 2 of .* is a cap"):
            fill()


def test_move_table_knows_the_leftward_h_move():
    # present for the growth direction even though ladder words never emit it
    assert MOVE_TABLE[("h", "b", 1, False)] == (2,)


def test_ladder_rungs_never_classify_as_leftward_h():
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                for k in range(1, web.word.length + 1):
                    assert classify_step(web, flow, k).family != "h" or (
                        classify_step(web, flow, k).type == "a"
                    )


# -- the filling map -----------------------------------------------------------


def test_iota_half_theta():
    f = flow_with_state(HALF_THETA, (1, -1, 0))
    t = iota(HALF_THETA, f)
    assert t.rows == (((1,),), (), ((1,), (2,)))


def test_iota_circle_pair():
    nested = iota(NESTED, flow_with_state(NESTED, (0, 0, 0, 0)))
    split = iota(SPLIT, flow_with_state(SPLIT, (0, 0, 0, 0)))
    assert nested.rows == (((1, 2), (3,)), ((4,),), ((1, 2), (3,)))
    assert split.rows == (((1, 2), (4,)), ((3,),), ((1, 2), (4,)))


def test_iota_hexagon_eleven_steps():
    f = next(
        fl
        for fl in enumerate_flows(HEX)
        if boundary_state(HEX, fl) == (0, 0, 0, 0, 0, 0) and fl.exponent == -2
    )
    t = iota(HEX, f)
    assert t.rows == (
        ((1, 2, 3), (4, 9), (7,)),
        ((5, 6), (10,)),
        ((1, 2, 3), (8, 9), (11,)),
    )


def test_iota_shape_matches_boundary_encoding():
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                t = iota(web, flow)
                assert t.shape == shape_of_boundary(web, flow.layers[-1])


# -- growth -------------------------------------------------------------------------


def test_grow_recovers_half_theta():
    f = flow_with_state(HALF_THETA, (1, -1, 0))
    t = iota(HALF_THETA, f)
    web, flow = grow(t, n=HALF_THETA.n)
    assert web.word == HALF_THETA.word
    assert flow.moves == f.moves


def test_grow_mirrored_hexagon_filling():
    mirrored = StdMultitableau3(
        Multipartition3(((3, 2, 1), (2, 1), (3, 2, 1))),
        (
            ((1, 2, 3), (8, 9), (11,)),
            ((5, 6), (10,)),
            ((1, 2, 3), (4, 9), (7,)),
        ),
    )
    web, flow = grow(mirrored)
    assert web.word == HEX.word
    assert iota(web, flow) == mirrored


def test_grow_superstandard_of_canonical_shapes():
    # shapes attached to canonical flows read back as the defining tableau
    for signs in classical_sign_strings(4):
        for rows, web in enumerate_basis(signs):
            shape = iota(web, canonical_flow(web, rows, enumerate_flows(web))).shape
            grown, gflow = grow(superstandard(shape))
            assert flow_to_colstrict(grown, gflow.layers[-1]) == rows


def test_grow_emits_only_rightward_rungs():
    # empirical record: the growth direction never needs the leftward h-move
    for signs in classical_sign_strings(4):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                grown, gflow = grow(iota(web, flow), n=web.n)
                for k in range(1, grown.word.length + 1):
                    kind = classify_step(grown, gflow, k)
                    assert (kind.family, kind.type) != ("h", "b")


# -- the roundtrip and degree preservation -----------------------------------------


def test_roundtrip_exhaustive_small():
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                assert roundtrip_holds(web, flow.moves, iota(web, flow))


def test_iota_injective_small():
    for signs in classical_sign_strings(5):
        seen = {}
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                t = iota(web, flow)
                key = (t.shape, t.rows)
                value = (web.word, flow.moves)
                assert seen.setdefault(key, value) == value


def test_degree_equals_minus_weight_small():
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                assert bkw_degree(iota(web, flow))[0] == -flow.exponent


def test_isotopy_invariance_of_circle_pair_degrees():
    nested = iota(NESTED, flow_with_state(NESTED, (0, 0, 0, 0)))
    split = iota(SPLIT, flow_with_state(SPLIT, (0, 0, 0, 0)))
    assert bkw_degree(nested)[0] == bkw_degree(split)[0]


# -- the survey's prefix-tree walk against the reference maps ------------------------


def _shift_rule(web):
    """ell less the leading weight-3 strands of the top layer."""
    top = web.layers[-1]
    return web.ell - next((k for k, w in enumerate(top) if w != 3), len(top))


def _small_webs():
    """Every basis web with n <= 6, and every web of up to three rungs on 3 or 4
    strands at ell 1 or 2, classical boundary or not."""
    webs = [web for signs in classical_sign_strings(6) for _rows, web in enumerate_basis(signs)]
    for n, ell in ((3, 1), (3, 2), (4, 2)):
        for length in range(1, 4):
            for factors in itertools.product(itertools.product(range(1, n), (1, 2)), repeat=length):
                web = build_web(LTWord(factors), n, ell)
                if web is not None:
                    webs.append(web)
    return webs


def test_residue_shift_is_fixed_per_web():
    # all flows' shapes on a web share the shift
    webs = _small_webs()
    assert any(web.layers[-1][0] == 3 for web in webs)
    for web in webs:
        for flow in enumerate_flows(web):
            assert shape_of_boundary(web, flow.layers[-1]).m == _shift_rule(web), (web, flow)


def test_shape_of_boundary_is_the_column_strict_reading():
    # the components read straight off the top layer, against the column-strict tableau
    flows = 0
    for web in _small_webs():
        for flow in enumerate_flows(web):
            top = flow.layers[-1]
            want = colstrict_to_multipartition(flow_to_colstrict(web, top))
            assert shape_of_boundary(web, top) == want, (web, flow)
            flows += 1
    assert flows > 1000
    # a top layer whose colors are not held ell times each raises as the reading does
    top = (frozenset({1, 2}), frozenset({1}), frozenset({3}))
    for read in (shape_of_boundary, flow_to_colstrict):
        with pytest.raises(RuntimeError, match="color 2 held by 1 strands, not 2"):
            read(HALF_THETA, top)


def _filled(fill, web, flow):
    try:
        return fill(web, flow)
    except RuntimeError as e:
        return str(e)


def test_iota_fills_as_the_row_growth_does():
    # the abacus placement against row lengths grown node by node, refusals included
    refused = 0
    for web in _small_webs():
        if cap_step(web) is None:
            for flow in enumerate_flows(web):
                filled = _filled(iota, web, flow)
                assert filled == _filled(iota_by_rows, web, flow), (web, flow)
                refused += isinstance(filled, str)
    assert refused > 0


def test_next_node_needs_a_cell_above():
    # residue m names row 2 of rows [1, 1]; its next cell (2, 2) has no cell above it
    for m in (2, 3):
        masks = (_abacus((1, 1), m), _abacus((), m), _abacus((), m))
        with pytest.raises(RuntimeError, match="component 1 offers 0 nodes of residue"):
            _place(masks, (1,), m, m)


def test_survey_records_match_iota_and_bkw_degree():
    for signs in classical_sign_strings(6):
        states = {}  # shared by the boundary's webs, as `survey` shares it
        for _rows, web in enumerate_basis(signs):
            flows = enumerate_flows(web)
            entry = survey_web(web, states)
            # in order, each record's state, weight and moves are its flow's
            for (j, d, w, moves, t), ref in zip(entry.records, flows, strict=True):
                assert (j, w, moves) == (ref.state, ref.exponent, ref.moves)
                filled = iota(web, ref)
                assert t == filled == iota_by_rows(web, ref)
                assert d == bkw_degree(filled)[0] == degree_by_rows(filled)[0]
                assert j == boundary_state(web, ref)


def test_survey_leaves_no_garbage_for_the_collector():
    # with the collector off, reference counting alone frees a web's survey scratch:
    # the walk's prefixes, their links and row lengths, the records and the move table
    bases = [list(enumerate_basis(signs)) for signs in classical_sign_strings(5)]
    gc.collect()
    gc.disable()
    try:
        for basis in bases:
            survey(basis)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bijection_records_are_immutable():
    records = ((survey_web(HALF_THETA, {}), "records"),)
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, ())


def test_roundtrip_reads_what_grow_grows():
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            records = survey_web(web, {}).records
            # each filling against its own flow and against the next flow on the web
            for (*_r, moves, t), (*_r2, other, _t2) in zip(records, records[1:] + records[:1]):
                grown, gflow = grow(t, n=web.n)
                for f in (moves, other):
                    same = grown.word == web.word and gflow.moves == f
                    assert roundtrip_holds(web, f, t) == same
                assert roundtrip_holds(web, moves, t)
