"""Webs with flows to standard fillings and back."""

from sl3web.bijection import (
    MOVE_TABLE,
    classify_step,
    grow,
    iota,
    roundtrip_holds,
    shape_of_boundary,
    weight_diagram_tower,
)
from sl3web.checks import classical_sign_strings
from sl3web.flows import boundary_state, enumerate_flows, flow_to_colstrict, weight
from sl3web.ladderweb import enumerate_basis, web_from_tableau
from sl3web.tableaux import Multipartition3, StdMultitableau3, bkw_degree, superstandard

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
        if boundary_state(HEX, fl) == (0, 0, 0, 0, 0, 0) and weight(HEX, fl) == -2
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
                assert t.shape == shape_of_boundary(web, flow)


# -- weight diagram towers ---------------------------------------------------------


def test_tower_of_half_theta_filling():
    t = StdMultitableau3(
        Multipartition3(((1,), (), (1, 1))), (((1,),), (), ((1,), (2,)))
    )
    tower = weight_diagram_tower(t)
    assert len(tower) == 3
    assert tower[0].window(-2, 2) == ("x", "x", "x", "o", "o")
    assert tower[1].window(-2, 2) == ("x", "x", "0", "0*", "o")
    assert tower[2].window(-2, 2) == ("x", "1*", "-1*", "0*", "o")


def test_tower_of_empty_tableau():
    t = superstandard(Multipartition3(((), (), ())))
    tower = weight_diagram_tower(t)
    assert len(tower) == 1
    assert tower[0].window(-1, 1) == ("x", "x", "o")


def test_tower_of_hexagon_filling():
    f = next(
        fl
        for fl in enumerate_flows(HEX)
        if boundary_state(HEX, fl) == (0, 0, 0, 0, 0, 0) and weight(HEX, fl) == -2
    )
    tower = weight_diagram_tower(iota(HEX, f))
    assert len(tower) == 12
    assert tower[1].window(-3, 4) == ("x", "x", "x", "0", "0*", "o", "o", "o")
    assert tower[11].window(-3, 4) == ("x", "0", "0*", "0", "0*", "0", "0*", "o")


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
    from sl3web.flows import canonical_flow

    for signs in classical_sign_strings(4):
        for rows, web in enumerate_basis(signs):
            shape = iota(web, canonical_flow(web)).shape
            grown, gflow = grow(superstandard(shape))
            assert flow_to_colstrict(grown, gflow) == rows


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
                assert roundtrip_holds(web, flow, iota(web, flow))


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
                assert bkw_degree(iota(web, flow))[0] == -weight(web, flow)


def test_isotopy_invariance_of_circle_pair_degrees():
    nested = iota(NESTED, flow_with_state(NESTED, (0, 0, 0, 0)))
    split = iota(SPLIT, flow_with_state(SPLIT, (0, 0, 0, 0)))
    assert bkw_degree(nested)[0] == bkw_degree(split)[0]
