"""Acceptance criteria: structural theorems verified exactly at desk scale.

Every check is an exact equality of integers, tuples or Laurent
polynomials; no tolerances.  Exhaustive ranges cover every classical sign
string with at most six strands.  Run with -s to see one line per
criterion.
"""

import time

from reference import closed_weight
from sl3web import checks, foamword
from sl3web.bijection import iota
from sl3web.flows import ClosedWeb, boundary_state, bracket, closed_flows, enumerate_flows
from sl3web.foamword import dot_placement, enumerate_cellular_basis
from sl3web.laurent import LaurentPoly, qint
from sl3web.ladderweb import lt_generators, web_from_tableau
from sl3web.tableaux import Multipartition3, StdMultitableau3, bkw_degree

MAX_N = 6
BUDGETS = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 60, 7: 60, 8: 60, 9: 120, 10: 60, 11: 60, 12: 1}


def report(number: int, started: float, description: str):
    elapsed = time.monotonic() - started
    budget = BUDGETS[number]
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number:>2}: PASS ({elapsed:5.1f}s) {description}")


# one Boundary per sign string, read by criteria 6-11 as `verify all` reads it
BOUNDARIES = {}


def exhaustive(check_name: str):
    for signs in checks.classical_sign_strings(MAX_N):
        boundary = BOUNDARIES.setdefault(signs, checks.Boundary(signs))
        ok, counterexample = checks.CHECKS[check_name](boundary)
        assert ok, f"{check_name} failed on {signs}: {counterexample}"


def test_criterion_01_bracket_values():
    t0 = time.monotonic()
    arc = web_from_tableau(((1, 2, 2),))
    y = web_from_tableau(((1, 2, 3),))
    circle = bracket(ClosedWeb(arc, arc))
    theta = bracket(ClosedWeb(y, y))
    assert circle == qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert theta == qint(2) * qint(3) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})
    report(1, t0, "bracket(circle) = [3], bracket(theta) = [2][3]")


def test_criterion_02_theta_weights_and_foam_degrees():
    t0 = time.monotonic()
    y = web_from_tableau(((1, 2, 3),))
    theta = ClosedWeb(y, y)
    weights = sorted((closed_weight(theta, cf) for cf in closed_flows(theta)), reverse=True)
    assert weights == [3, 1, 1, -1, -1, -3]
    degrees = sorted(f.degree for f in enumerate_cellular_basis("+++"))
    assert degrees == [0, 2, 2, 4, 4, 6]
    report(2, t0, "theta weights {3,1,1,-1,-1,-3}; foam degrees {0,2,2,4,4,6}")


def test_criterion_03_degrees_of_worked_fillings():
    t0 = time.monotonic()

    def tab(comps, rows):
        return StdMultitableau3(Multipartition3(comps), rows)

    singles = [
        tab(((), (), (1,)), ((), (), ((1,),))),
        tab(((), (1,), (1,)), ((), ((1,),), ((1,),))),
        tab(((1,), (1,), (1,)), (((1,),), ((1,),), ((1,),))),
    ]
    assert [bkw_degree(t)[0] for t in singles] == [0, 0, 0]
    eleven = tab(
        ((3, 2), (2, 1, 1), (3, 2, 1)),
        (((1, 2, 3), (8, 9)), ((5, 6), (10,), (11,)), ((1, 2, 3), (4, 9), (7,))),
    )
    assert bkw_degree(eleven) == (3, [1, 0, 0, 0, 1, 0, 0, 1, 0, 1, -1])
    five = tab(((2, 1), (1,), (2, 2)), (((1, 2), (5,)), ((4,),), ((1, 2), (3, 4))))
    assert bkw_degree(five) == (2, [1, 0, 0, 0, 1])
    report(3, t0, "degree breakdowns (3; 1,0,0,0,1,0,0,1,0,1,-1) and (2; 1,0,0,0,1)")


def test_criterion_04_worked_fillings_reproduced():
    t0 = time.monotonic()

    def filling(rows_web, state, weight_filter=None):
        web = web_from_tableau(rows_web)
        hits = [
            f for f in enumerate_flows(web) if boundary_state(web, f) == state
        ]
        if weight_filter is not None:
            hits = [f for f in hits if f.exponent == weight_filter]
        (flow,) = hits
        return iota(web, flow).rows

    assert filling(((1, 1, 2), (2, 3, 3)), (1, -1, 0)) == (((1,),), (), ((1,), (2,)))
    assert filling(((1, 2, 3), (2, 4, 4)), (0, 0, 0, 0)) == (
        ((1, 2), (3,)), ((4,),), ((1, 2), (3,)),
    )
    assert filling(((1, 2, 2), (3, 4, 4)), (0, 0, 0, 0)) == (
        ((1, 2), (4,)), ((3,),), ((1, 2), (4,)),
    )
    assert filling(((1, 2, 4), (2, 3, 5), (4, 6, 6)), (0, 0, 0, 0, 0, 0), -2) == (
        ((1, 2, 3), (4, 9), (7,)),
        ((5, 6), (10,)),
        ((1, 2, 3), (8, 9), (11,)),
    )
    report(4, t0, "worked fillings (half-theta, both circle webs, hexagon step 11)")


def test_criterion_05_ladder_words_reproduced():
    t0 = time.monotonic()
    expected = {
        ((1, 1, 2),): "F1",
        ((1, 2, 2),): "F1^2",
        ((1, 1, 2), (2, 3, 3)): "F1 F2^2",
        ((1, 2, 3),): "F1 F2 F1",
        ((1, 2, 3), (2, 4, 4)): "F2 F1^2 F3^2 F2^2",
        ((1, 2, 2), (3, 4, 4)): "F1^2 F2 F3^2 F2^2",
        ((1, 2, 4), (2, 3, 5), (4, 6, 6)): "F1 F2 F3^2 F2 F1 F4 F3 F2 F5^2 F4^2 F3^2",
    }
    for rows, text in expected.items():
        assert str(lt_generators(rows)) == text, rows
    from sl3web.foamword import idempotent

    word = idempotent(Multipartition3(((2, 1), (1,), (2, 1))))
    assert str(word) == "F1 F3 F2 F2 F1 F3 F2"
    report(5, t0, "ladder words incl. hexagon and the seven-node idempotent word")


def test_criterion_06_roundtrip_theorem():
    t0 = time.monotonic()
    exhaustive("roundtrip")
    report(6, t0, f"grow . iota = id and injectivity, all |S| <= {MAX_N}")


def test_criterion_07_degree_preservation():
    t0 = time.monotonic()
    exhaustive("degree")
    report(7, t0, f"filling degree = -weight, all |S| <= {MAX_N}")


def test_criterion_08_unitriangularity():
    t0 = time.monotonic()
    exhaustive("unitriangular")
    report(8, t0, f"tensor expansion unitriangular, all |S| <= {MAX_N}")


def test_criterion_09_graded_dimension_formula():
    t0 = time.monotonic()
    exhaustive("graded-dim")
    report(9, t0, f"sum q^(deg+deg) = q^n bracket(u v), all |S| <= {MAX_N}")


def test_criterion_10_dots_and_homogeneity():
    t0 = time.monotonic()
    assert dot_placement(Multipartition3(((2, 1), (1,), (2, 1)))) == [2, 0, 0, 1, 0, 0, 0]
    exhaustive("homogeneity")
    report(10, t0, f"dot vector (2,0,0,1,0,0,0); homogeneous basis, all |S| <= {MAX_N}")


def test_criterion_11_cellular_datum():
    t0 = time.monotonic()
    exhaustive("cellular")
    report(11, t0, f"cell datum on halves (involution, diagonal, count), all |S| <= {MAX_N}")


def test_criterion_12_minimal_permutation_example():
    t0 = time.monotonic()
    start = StdMultitableau3(
        Multipartition3(((2, 1), (1,), (2, 1))),
        (((1, 3), (6,)), ((5,),), ((2, 4), (7,))),
    )
    # the swaps of the walk to the superstandard filling, the first applied rightmost:
    # the positions of the half's keys, one per swap
    swap_keys = foamword._swap_keys(start.shape.size)
    keys = foamword._half_keys(start, foamword._frame(start.shape), swap_keys)
    swaps = [v for _kind, _degree, v, _count in keys]
    assert " ".join(f"t{v}" for v in reversed(swaps)) == "t4 t5 t3 t4 t5 t2"
    assert len(swaps) == 6  # each swap passed the local standardness rule
    # a swap's kind by the residue of its low node less that of its high one
    kind, degree, _count = foamword._SWAP_KINDS[2 - 1]
    assert kind in ("zip", "unzip") and degree == 1
    assert foamword._SWAP_KINDS[2 - 2][:2] == ("digon_removal", -2)
    assert swap_keys[1][1 - 3][:2] == ("shift", 0)  # any other difference shifts
    report(12, t0, "permutation t4 t5 t3 t4 t5 t2 with standard intermediates")
