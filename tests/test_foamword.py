"""Symbolic foams: idempotents, dots, permutations, basis, dimensions."""

import itertools

import pytest

from sl3web import foamword
from sl3web.bijection import iota, survey, survey_web
from sl3web.checks import classical_sign_strings
from sl3web.flows import boundary_state, canonical_flow, enumerate_flows
from sl3web.foamword import (
    FoamGen,
    cellular_halves,
    classify_transposition,
    dot_placement,
    enumerate_cellular_basis,
    graded_dim_pair,
    idempotent,
    minimal_permutation,
    orthogonality_check,
    permutation_word,
)
from sl3web.laurent import qint
from sl3web.ladderweb import LTWord, build_web, enumerate_basis, web_from_tableau
from sl3web.tableaux import Multipartition3, StdMultitableau3, bkw_degree, superstandard


def mp(*comps, m=None):
    return Multipartition3(comps, m=m)


Y = web_from_tableau(((1, 2, 3),))
THETA_SHAPE = mp((), (1,), (2,))


# -- idempotents ----------------------------------------------------------------


def test_idempotent_word_example():
    shape = mp((2, 1), (1,), (2, 1))
    word = idempotent(shape)
    assert str(word) == "F1 F3 F2 F2 F1 F3 F2"
    assert build_web(word, foamword.boundary_strand_count(shape), shape.m) is not None


def test_idempotent_of_half_theta_shape():
    shape = mp((1,), (), (1, 1))
    word = idempotent(shape)
    expected = tuple(
        (r, 1) for r in reversed(superstandard(shape).residue_sequence())
    )
    assert word.factors == expected


def test_idempotent_of_empty_shape():
    word = idempotent(mp((), (), ()))
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
    assert idempotent(a) == idempotent(b)


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
            assert idempotent(a) == idempotent(b)
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


def _halves(signs):
    """(filling, lower half foam) for every flow over the boundary, as
    `cellular_halves` builds them."""
    return [(t, half) for _s, _d, halves in cellular_halves(survey(enumerate_basis(signs))) for t, _deg, half in halves]


def _half_of(web, flow):
    t = iota(web, flow)
    (half,) = [half for u, half in _halves(str(web.boundary)) if u == t]
    assert half.bottom == web.word
    return half


def test_half_foam_theta_canonical():
    foam = _half_of(Y, canonical_flow(Y))
    kinds = [g.kind for g in foam.generators]
    assert kinds.count("unzip") == 1
    assert kinds.count("digon_removal") == 1
    assert foam.degree == -1


def test_half_foam_of_superstandard_flow_is_trivial():
    # a flow whose filling is already superstandard yields the identity
    arc = web_from_tableau(((1, 1, 2),))
    found = 0
    for t, foam in _halves(str(arc.boundary)):
        if t == superstandard(t.shape):
            assert [g.kind for g in foam.generators] == ["identity"]
            assert foam.degree == 0
            found += 1
    assert found > 0


def test_half_foam_degree_identity():
    for signs in classical_sign_strings(5):
        for t, foam in _halves(signs):
            assert foam.degree == bkw_degree(t)[0] - bkw_degree(superstandard(t.shape))[0]


def test_half_foam_worked_permutation():
    split = web_from_tableau(((1, 2, 2), (3, 4, 4)))
    flow = next(
        f for f in enumerate_flows(split) if boundary_state(split, f) == (0, 0, 0, 0)
    )
    foam = _half_of(split, flow)
    face, perm = foam.generators[:3], foam.generators[3:]
    # three internal digons from the three repeated entries
    assert [g.kind for g in face] == ["digon_removal"] * 3
    # six transpositions; the first one applied is a zip
    assert len(perm) == 6
    assert perm[0].kind == "zip"


def _old_half_generators(t):
    """Half-foam generators as first defined: face removals per repeated
    entry, then one generator per transposition of the minimal permutation
    of the validated expanded filling."""
    gens = []
    for v, nodes in sorted(t.entries().items()):
        if len(nodes) == 2:
            gens.append(FoamGen("digon_removal", -1, position=v, count=1))
        elif len(nodes) == 3:
            gens.append(FoamGen("theta_removal", -3, position=v, count=1))
    seq, _steps = minimal_permutation(t.expand_repeats())
    for tr in seq:
        kind, deg = classify_transposition(tr.res_low, tr.res_high)
        gens.append(FoamGen(kind, deg, position=tr.j, count=2 if kind == "digon_removal" else 0))
    return tuple(gens) or (FoamGen("identity", 0),)


def test_half_foam_matches_the_expanded_permutation():
    halves = 0
    for signs in classical_sign_strings(5):
        for t, foam in _halves(signs):
            assert foam.generators == _old_half_generators(t), t
            halves += 1
    assert halves == sum(
        len(enumerate_flows(web))
        for signs in classical_sign_strings(5)
        for _rows, web in enumerate_basis(signs)
    )


def test_half_foam_degree_mismatch_raises():
    t = iota(Y, canonical_flow(Y))
    top = idempotent(t.shape)
    drop = bkw_degree(t)[0] - bkw_degree(superstandard(t.shape))[0]
    assert foamword._half_foam_from_tableau(t, Y.word, top, drop).degree == drop
    with pytest.raises(RuntimeError, match="half foam degree"):
        foamword._half_foam_from_tableau(t, Y.word, top, drop + 1)


def test_half_foam_raises_when_a_swap_breaks_standardness(monkeypatch):
    monkeypatch.setattr(foamword, "swap_keeps_standard", lambda low, high: False)
    with pytest.raises(RuntimeError, match="left the standard fillings"):
        _halves(str(Y.boundary))


# -- interned generators -----------------------------------------------------------


def test_generators_are_interned_and_reflect_back():
    foams = enumerate_cellular_basis("+-+-")
    gens = {g for foam in foams for g in foam.word.generators}
    assert {g.kind for g in gens} >= {"zip", "unzip", "digon_removal", "dots"}
    for g in gens:
        r = g.reflected()
        assert r.reflected() is g
        assert r.mirrored != g.mirrored
        assert r.kind == {"zip": "unzip", "unzip": "zip"}.get(g.kind, g.kind)
        assert (r.degree, r.position, r.count) == (g.degree, g.position, g.count)
    for foam in foams:
        twice = foam.word.reflected().reflected().generators
        assert all(a is b for a, b in zip(twice, foam.word.generators))


def test_foam_records_are_immutable():
    foam = enumerate_cellular_basis("+++")[0]
    seq, _steps = minimal_permutation(StdMultitableau3(THETA_SHAPE, ((), ((3,),), ((1, 2),))))
    records = ((foam, "word"), (foam.word, "generators"), (foam.word.generators[0], "kind"),
               (seq[0], "j"))
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


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
    # a diagonal foam is one filling's half, the dots and the same half reflected
    for signs in classical_sign_strings(4):
        diagonal = [f for f in enumerate_cellular_basis(signs) if f.top_tableau == f.bottom_tableau]
        assert len(diagonal) == sum(len(halves) for _s, _d, halves in cellular_halves(survey(enumerate_basis(signs))))
        for foam in diagonal:
            assert foam.degree == 2 * bkw_degree(foam.top_tableau)[0]


def test_involution_swaps_and_preserves():
    # the pair-level reference for the half-foam checks in `checks`: the swapped
    # pair is a basis foam too, and reflecting a word keeps its degree
    for signs in classical_sign_strings(5):
        foams = enumerate_cellular_basis(signs)
        assert len(foams) == sum(len(halves) ** 2 for _s, _d, halves in cellular_halves(survey(enumerate_basis(signs))))
        by_pair = {(f.top_tableau, f.bottom_tableau): f for f in foams}
        for foam in foams:
            assert by_pair[foam.bottom_tableau, foam.top_tableau].degree == foam.degree
            flipped = foam.word.reflected()
            assert (flipped.bottom, flipped.top) == (foam.word.top, foam.word.bottom)
            assert flipped.degree == foam.degree
            assert flipped.reflected() == foam.word


# -- graded dimensions ---------------------------------------------------------------------


def _graded_dim(rows):
    """Graded dimension of the basis web of column-strict rows with itself."""
    web = web_from_tableau(rows)
    return graded_dim_pair(survey_web(web), survey_web(web)).shift(-web.n)


def test_graded_dim_theta_shape():
    assert _graded_dim(((1, 2, 3),)) == qint(2) * qint(3)


def test_graded_dim_empty_shapes():
    assert _graded_dim(())(1) == 1


def test_graded_dim_arc_shape():
    assert _graded_dim(((1, 2, 2),)) == qint(3)
