"""Symbolic foams: idempotents, dots, permutations, basis, dimensions."""

import itertools

import pytest

from sl3web import foamword
from sl3web.bijection import iota
from sl3web.checks import classical_sign_strings
from sl3web.flows import boundary_state, canonical_flow, enumerate_flows
from sl3web.foamword import (
    basis_foam,
    classify_transposition,
    dot_placement,
    enumerate_cellular_basis,
    graded_dim,
    half_foam,
    idempotent,
    involution,
    minimal_permutation,
    orthogonality_check,
    permutation_word,
)
from sl3web.laurent import qint
from sl3web.ladderweb import LTWord, enumerate_basis, web_from_tableau
from sl3web.tableaux import Multipartition3, StdMultitableau3, bkw_degree, superstandard


def mp(*comps, m=None):
    return Multipartition3(comps, m=m)


Y = web_from_tableau(((1, 2, 3),))
THETA_SHAPE = mp((), (1,), (2,))


# -- idempotents ----------------------------------------------------------------


def test_idempotent_word_example():
    word, web = idempotent(mp((2, 1), (1,), (2, 1)))
    assert str(word) == "F1 F3 F2 F2 F1 F3 F2"
    assert web is not None


def test_idempotent_of_half_theta_shape():
    shape = mp((1,), (), (1, 1))
    word, _web = idempotent(shape)
    expected = tuple(
        (r, 1) for r in reversed(superstandard(shape).residue_sequence())
    )
    assert word.factors == expected


def test_idempotent_of_empty_shape():
    word, _web = idempotent(mp((), (), ()), n=2)
    assert word == LTWord()


def test_orthogonality_reflexive():
    assert orthogonality_check(THETA_SHAPE, THETA_SHAPE)


def test_orthogonality_distinguishes_shapes():
    # three-node shapes with different residue sequences are orthogonal
    a = mp((1,), (), (1, 1))  # residues (2, 2, 1)
    b = mp((), (1,), (2,))  # residues (1, 1, 2)
    assert superstandard(a).residue_sequence() != superstandard(b).residue_sequence()
    assert not orthogonality_check(a, b)


def test_orthogonality_holds_across_components():
    # different shapes can still share their residue sequence and word
    a = mp((1,), (), (1, 1))
    b = mp((), (1,), (1, 1))
    assert orthogonality_check(a, b)
    assert idempotent(a)[0] == idempotent(b)[0]


def test_orthogonality_equal_sequences_share_the_word():
    shapes = []
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                shapes.append(iota(web, flow).shape)
    found = 0
    for a, b in itertools.combinations({s for s in shapes}, 2):
        if orthogonality_check(a, b):
            found += 1
            assert idempotent(a)[0] == idempotent(b)[0]
    assert found > 0


# -- dots ----------------------------------------------------------------------


def test_dot_vector_example():
    dots = dot_placement(mp((2, 1), (1,), (2, 1)))
    assert dots == [2, 0, 0, 1, 0, 0, 0]


def test_dot_vector_single_node():
    assert dot_placement(mp((), (), (1,))) == [0]


def test_dot_vector_theta_shape_carries_one_dot():
    assert sum(dot_placement(THETA_SHAPE)) == 1


def test_dots_equal_superstandard_degree():
    # step by step: the superstandard filling never sees removable nodes
    # after an entry, so its degree breakdown is exactly the dot vector
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                shape = iota(web, flow).shape
                total, breakdown = bkw_degree(superstandard(shape))
                dots = dot_placement(shape)
                assert breakdown == dots
                assert total == sum(dots)


# -- minimal permutations ----------------------------------------------------------


def test_permutation_worked_example():
    start = StdMultitableau3(
        mp((2, 1), (1,), (2, 1)),
        (((1, 3), (6,)), ((5,),), ((2, 4), (7,))),
    )
    seq, steps = minimal_permutation(start)
    assert permutation_word(seq) == "t4 t5 t3 t4 t5 t2"
    assert [s.rows for s in steps] == [
        (((1, 2), (6,)), ((5,),), ((3, 4), (7,))),
        (((1, 2), (5,)), ((6,),), ((3, 4), (7,))),
        (((1, 2), (4,)), ((6,),), ((3, 5), (7,))),
        (((1, 2), (3,)), ((6,),), ((4, 5), (7,))),
        (((1, 2), (3,)), ((5,),), ((4, 6), (7,))),
        (((1, 2), (3,)), ((4,),), ((5, 6), (7,))),
    ]


def test_permutation_raises_when_a_swap_breaks_standardness(monkeypatch):
    monkeypatch.setattr(foamword, "swap_keeps_standard", lambda low, high: False)
    start = StdMultitableau3(mp((1,), (), (1,)), (((2,),), (), ((1,),)))
    with pytest.raises(RuntimeError, match="left the standard fillings"):
        minimal_permutation(start)


def test_permutation_of_reference_is_empty():
    t = superstandard(mp((2,), (1,), ()))
    seq, steps = minimal_permutation(t)
    assert seq == [] and steps == []


def test_permutation_theta_canonical():
    t = StdMultitableau3(THETA_SHAPE, ((), ((3,),), ((1, 2),)))
    seq, _steps = minimal_permutation(t)
    assert [tr.j for tr in seq] == [2, 1]


# -- transposition classification ---------------------------------------------------


def test_classify_adjacent_residues():
    kind, degree = classify_transposition(2, 1)
    assert kind in ("zip", "unzip") and degree == 1
    kind2, degree2 = classify_transposition(1, 2)
    assert kind2 in ("zip", "unzip") and kind2 != kind and degree2 == 1


def test_classify_equal_residues():
    assert classify_transposition(2, 2) == ("digon_removal", -2)


def test_classify_distant_residues():
    assert classify_transposition(1, 3) == ("shift", 0)


# -- half foams -----------------------------------------------------------------------


def test_half_foam_theta_canonical():
    foam = half_foam(Y, canonical_flow(Y))
    kinds = [g.kind for g in foam.generators]
    assert kinds.count("unzip") == 1
    assert kinds.count("digon_removal") == 1
    assert foam.degree == -1


def test_half_foam_of_superstandard_flow_is_trivial():
    # a flow whose filling is already superstandard yields the identity
    arc = web_from_tableau(((1, 1, 2),))
    for flow in enumerate_flows(arc):
        t = iota(arc, flow)
        if t == superstandard(t.shape):
            foam = half_foam(arc, flow)
            assert [g.kind for g in foam.generators] == ["identity"]
            assert foam.degree == 0


def test_half_foam_degree_identity():
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                t = iota(web, flow)
                foam = half_foam(web, flow)
                assert foam.degree == bkw_degree(t)[0] - bkw_degree(superstandard(t.shape))[0]


def test_half_foam_worked_permutation():
    split = web_from_tableau(((1, 2, 2), (3, 4, 4)))
    flow = next(
        f for f in enumerate_flows(split) if boundary_state(split, f) == (0, 0, 0, 0)
    )
    foam = half_foam(split, flow)
    face, perm = foam.generators[:3], foam.generators[3:]
    # three internal digons from the three repeated entries
    assert [g.kind for g in face] == ["digon_removal"] * 3
    # six transpositions; the first one applied is a zip
    assert len(perm) == 6
    assert perm[0].kind == "zip"


# -- basis foams -------------------------------------------------------------------------


def test_theta_basis_degrees():
    foams = enumerate_cellular_basis("+++")
    assert len(foams) == 6
    assert sorted(f.degree for f in foams) == [0, 2, 2, 4, 4, 6]


def test_arc_basis_size():
    assert len(enumerate_cellular_basis("+-")) == 3


def test_circle_pair_basis_counts_match_dimension():
    foams = enumerate_cellular_basis("+-+-")
    webs = [w for _, w in enumerate_basis("+-+-")]
    from sl3web.flows import ClosedWeb, bracket

    dim = sum(
        bracket(ClosedWeb(u, v))(1) for u, v in itertools.product(webs, repeat=2)
    )
    assert len(foams) == dim


def test_diagonal_foam_degree_is_twice_the_dots():
    shape = THETA_SHAPE
    sup = superstandard(shape)
    # the superstandard filling is the image of the idempotent-web flow
    foam = basis_foam(shape, sup, sup)
    assert foam.degree == 2 * sum(dot_placement(shape))


def test_involution_swaps_and_preserves():
    foams = enumerate_cellular_basis("+++")
    for foam in foams:
        flipped = involution(foam)
        assert flipped.top_tableau == foam.bottom_tableau
        assert flipped.bottom_tableau == foam.top_tableau
        assert flipped.degree == foam.degree
        assert involution(flipped).word == foam.word


def test_basis_foam_shape_mismatch_rejected():
    sup = superstandard(THETA_SHAPE)
    other = superstandard(mp((), (), (3,)))
    with pytest.raises(ValueError):
        basis_foam(THETA_SHAPE, sup, other)


# -- graded dimensions ---------------------------------------------------------------------


def test_graded_dim_theta_shape():
    assert graded_dim(THETA_SHAPE, THETA_SHAPE) == qint(2) * qint(3)


def test_graded_dim_empty_shapes():
    empty = mp((), (), ())
    assert graded_dim(empty, empty)(1) == 1


def test_graded_dim_arc_shape():
    shape = mp((), (1,), (1,))
    assert graded_dim(shape, shape) == qint(3)
