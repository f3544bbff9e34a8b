"""Symbolic foams: idempotents, dots, swap walks, half foams, basis, dimensions."""

import itertools
from collections import Counter

import pytest

from reference import (
    canonical_flow,
    colstrict_to_multipartition,
    expand_repeats,
    nodes_after,
    residue_sequence,
    superstandard,
    swap_keeps_standard,
    swap_walk,
)
from sl3web import foamword
from sl3web.bijection import iota, survey, survey_web
from sl3web.checks import classical_sign_strings
from sl3web.flows import boundary_state, enumerate_flows
from sl3web.foamword import (
    FoamGen,
    cellular_halves,
    dot_placement,
    enumerate_cellular_basis,
    graded_dim_pair,
    idempotent,
)
from sl3web.laurent import qint
from sl3web.ladderweb import LTWord, build_web, enumerate_basis, web_from_tableau
from sl3web.tableaux import (
    Multipartition3,
    Node,
    StdMultitableau3,
    bkw_degree,
    residue,
)


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
        (r, 1) for r in reversed(residue_sequence(superstandard(shape)))
    )
    assert word.factors == expected


def test_idempotent_of_empty_shape():
    word = idempotent(mp((), (), ()))
    assert word == LTWord()


def _sequence(shape):
    return residue_sequence(superstandard(shape))


def test_orthogonality_reflexive():
    # a shape's idempotent is its superstandard residue sequence, last node first
    word = idempotent(THETA_SHAPE)
    assert word.factors == tuple((r, 1) for r in reversed(_sequence(THETA_SHAPE)))


def test_orthogonality_distinguishes_shapes():
    # three-node shapes with different residue sequences are orthogonal
    a = mp((1,), (), (1, 1))  # residues (2, 2, 1)
    b = mp((), (1,), (2,))  # residues (1, 1, 2)
    assert _sequence(a) != _sequence(b)
    assert idempotent(a) != idempotent(b)


def test_orthogonality_holds_across_components():
    # different shapes can still share their residue sequence and word
    a = mp((1,), (), (1, 1))
    b = mp((), (1,), (1, 1))
    assert _sequence(a) == _sequence(b)
    assert idempotent(a) == idempotent(b)


def test_orthogonality_equal_sequences_share_the_word():
    # about 110 000 pairs of 468 shapes: equal residue sequences, equal idempotents
    shapes = set()
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                shapes.add(iota(web, flow).shape)
    sequences = {shape: _sequence(shape) for shape in shapes}
    words = {shape: idempotent(shape) for shape in shapes}
    found = 0
    for a, b in itertools.combinations(shapes, 2):
        assert (sequences[a] == sequences[b]) == (words[a] == words[b]), (a, b)
        found += sequences[a] == sequences[b]
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


def _walked_dots(shape):
    """The dots as first computed: grow the shape node by node in reading
    order and count the addable nodes of the node's residue after it."""
    lengths = ([], [], [])
    out = []
    for l, comp in enumerate(shape.components, start=1):
        for r, length in enumerate(comp, start=1):
            lengths[l - 1].append(0)
            for c in range(1, length + 1):
                lengths[l - 1][r - 1] = c
                # rows grown in reading order: a partition, with the shape's shift
                diagram = Multipartition3._make((tuple(map(tuple, lengths)), shape.m))
                out.append(len(nodes_after(diagram, Node(r, c, l), "addable")))
    return out


def _state_shapes(signs):
    """The shape of every boundary state of a classical sign string: each
    strand holds one color ('+') or two ('-'), each color ell strands."""
    ell = sum(1 if s == "+" else 2 for s in signs) // 3
    choices = [list(itertools.combinations((1, 2, 3), 1 if s == "+" else 2)) for s in signs]
    for subsets in itertools.product(*choices):
        columns = [[k for k, held in enumerate(subsets, start=1) if c in held] for c in (1, 2, 3)]
        if all(len(column) == ell for column in columns):
            yield colstrict_to_multipartition(tuple(zip(*columns)))


def test_dots_closed_form_matches_the_node_by_node_walk():
    shapes = {shape for signs in classical_sign_strings(7) for shape in _state_shapes(signs)}
    assert len(shapes) == 12588  # every boundary state's shape with n <= 7
    for shape in shapes:
        assert dot_placement(shape) == _walked_dots(shape), shape


# -- the swap walk -------------------------------------------------------------------


def _walk(t):
    """(v, residue of v's node, residue of v + 1's node, rows after the swap) per
    swap of the reference walk from the all-distinct filling t to the superstandard
    one; `_half_keys` walks it inline."""
    rows = [[list(row) for row in comp] for comp in t.rows]
    out = []
    for v, low, high in swap_walk(t):
        rows[low.comp - 1][low.row - 1][low.col - 1] = v + 1
        rows[high.comp - 1][high.row - 1][high.col - 1] = v
        out.append((v, residue(low, t.shape.m), residue(high, t.shape.m),
                    tuple(tuple(map(tuple, comp)) for comp in rows)))
    return out


def test_permutation_worked_example():
    start = StdMultitableau3(
        mp((2, 1), (1,), (2, 1)),
        (((1, 3), (6,)), ((5,),), ((2, 4), (7,))),
    )
    walk = _walk(start)
    # the first swap applied is written rightmost
    assert " ".join(f"t{v}" for v, *_rest in reversed(walk)) == "t4 t5 t3 t4 t5 t2"
    assert [rows for *_swap, rows in walk] == [
        (((1, 2), (6,)), ((5,),), ((3, 4), (7,))),
        (((1, 2), (5,)), ((6,),), ((3, 4), (7,))),
        (((1, 2), (4,)), ((6,),), ((3, 5), (7,))),
        (((1, 2), (3,)), ((6,),), ((4, 5), (7,))),
        (((1, 2), (3,)), ((5,),), ((4, 6), (7,))),
        (((1, 2), (3,)), ((4,),), ((5, 6), (7,))),
    ]


def _blocking_every_node(monkeypatch):
    """Seed a frame whose neighbour test forbids every swap."""
    real = foamword._frame

    def blocking(shape):
        residues, _blocked = real(shape)
        return residues, (frozenset(range(len(residues))),) * len(residues)

    monkeypatch.setattr(foamword, "_frame", blocking)


def test_permutation_raises_when_a_swap_breaks_standardness(monkeypatch):
    # the first node holds 2, so the walk's first swap is t1, and the seeded frame blocks it
    _blocking_every_node(monkeypatch)
    start = StdMultitableau3(mp((1,), (), (1,)), (((2,),), (), ((1,),)))
    with pytest.raises(RuntimeError, match="^transposition t1 left the standard fillings on the way "
                       r"from \(2, @, 1\) to the superstandard filling$"):
        _half(start)


def test_frame_neighbours_are_the_swaps_that_break_standardness():
    shapes = {t.shape for signs in classical_sign_strings(6)
              for entry in survey(enumerate_basis(signs)) for _j, _d, _w, _m, t in entry.records}
    pairs = 0
    for shape in shapes:
        nodes = expand_repeats(superstandard(shape)).entries()
        nodes = [node for (node,) in (nodes[v] for v in range(1, shape.size + 1))]
        residues, blocked = foamword._frame(shape)
        assert list(residues) == [residue(node, shape.m) for node in nodes]
        for (a, low), (b, high) in itertools.permutations(enumerate(nodes), 2):
            assert (a in blocked[b]) == (not swap_keeps_standard(low, high)), (shape, low, high)
            pairs += 1
    assert len(shapes) > 100 and pairs > 10000


def test_permutation_of_reference_is_empty():
    assert _walk(superstandard(mp((2,), (1,), ()))) == []


def test_permutation_theta_canonical():
    t = StdMultitableau3(THETA_SHAPE, ((), ((3,),), ((1, 2),)))
    assert [v for v, *_rest in _walk(t)] == [2, 1]


# -- swap kinds, by the residue of the low node less that of the high one -------------


def _swap_kind(res_low, res_high):
    # swap t1's key in the table of a shape with more nodes than the residues differ by
    diff = res_low - res_high
    kind, degree, _position, _count = foamword._swap_keys(abs(diff) + 2)[1][diff]
    return kind, degree


def test_classify_adjacent_residues():
    kind, degree = _swap_kind(2, 1)
    assert kind in ("zip", "unzip") and degree == 1
    kind2, degree2 = _swap_kind(1, 2)
    assert kind2 in ("zip", "unzip") and kind2 != kind and degree2 == 1


def test_classify_equal_residues():
    assert _swap_kind(2, 2) == ("digon_removal", -2)


def test_classify_distant_residues():
    assert _swap_kind(1, 3) == ("shift", 0)


# -- half foams -----------------------------------------------------------------------


def _half(t):
    """The generators of a filling's lower half foam, from its walk's keys."""
    keys = foamword._half_keys(t, foamword._frame(t.shape), foamword._swap_keys(t.shape.size))
    return tuple(FoamGen(*key, False) for key in keys)


def _degree(gens):
    return sum(g.degree for g in gens)


def _halves(signs):
    """(filling, lower half foam's generators) for every flow over the boundary;
    `cellular_halves` walks the same keys but keeps only degrees."""
    return [(t, _half(t))
            for entry in survey(enumerate_basis(signs)) for _j, _d, _w, _m, t in entry.records]


def _half_of(web, flow):
    t = iota(web, flow)
    (half,) = [half for u, half in _halves(str(web.boundary)) if u == t]
    return half


def test_half_foam_theta_canonical():
    foam = _half_of(Y, canonical_flow(Y, ((1, 2, 3),), enumerate_flows(Y)))
    kinds = [g.kind for g in foam]
    assert kinds.count("unzip") == 1
    assert kinds.count("digon_removal") == 1
    assert _degree(foam) == -1


def test_half_foam_of_superstandard_flow_is_trivial():
    # a flow whose filling is already superstandard yields the identity
    arc = web_from_tableau(((1, 1, 2),))
    found = 0
    for t, foam in _halves(str(arc.boundary)):
        if t == superstandard(t.shape):
            assert [g.kind for g in foam] == ["identity"]
            assert _degree(foam) == 0
            found += 1
    assert found > 0


def test_half_foam_degree_identity():
    for signs in classical_sign_strings(5):
        words = dict(_halves(signs))
        for t, foam in words.items():
            assert _degree(foam) == bkw_degree(t)[0] - bkw_degree(superstandard(t.shape))[0]
        # the degree-only halves weigh what the words weigh
        for state in cellular_halves(survey(enumerate_basis(signs))):
            for t, d, degree in state.halves:
                assert degree == _degree(words[t]) and d == bkw_degree(t)[0]


def test_half_foam_worked_permutation():
    split = web_from_tableau(((1, 2, 2), (3, 4, 4)))
    flow = next(
        f for f in enumerate_flows(split) if boundary_state(split, f) == (0, 0, 0, 0)
    )
    foam = _half_of(split, flow)
    face, perm = foam[:3], foam[3:]
    # three internal digons from the three repeated entries
    assert [g.kind for g in face] == ["digon_removal"] * 3
    # six transpositions; the first one applied is a zip
    assert len(perm) == 6
    assert perm[0].kind == "zip"


def _old_half_generators(t):
    """Half-foam generators as first defined: face removals per repeated
    entry, then one generator per swap of the walk from the validated
    expanded filling."""
    gens = []
    for v, nodes in sorted(t.entries().items()):
        if len(nodes) == 2:
            gens.append(FoamGen("digon_removal", -1, position=v, count=1))
        elif len(nodes) == 3:
            gens.append(FoamGen("theta_removal", -3, position=v, count=1))
    for v, res_low, res_high, _rows in _walk(expand_repeats(t)):
        kind, deg = _swap_kind(res_low, res_high)
        gens.append(FoamGen(kind, deg, position=v, count=2 if kind == "digon_removal" else 0))
    return tuple(gens) or (FoamGen("identity", 0),)


def test_half_foam_matches_the_expanded_permutation():
    halves = 0
    for signs in classical_sign_strings(6):
        for t, foam in _halves(signs):
            assert foam == _old_half_generators(t), t
            halves += 1
    assert halves == sum(
        len(enumerate_flows(web))
        for signs in classical_sign_strings(6)
        for _rows, web in enumerate_basis(signs)
    )


def test_half_foam_degree_mismatch_raises(monkeypatch):
    # Y's canonical half has one unzip; weighed 2, it misses its degree drop by one
    t = iota(Y, canonical_flow(Y, ((1, 2, 3),), enumerate_flows(Y)))
    drop = bkw_degree(t)[0] - bkw_degree(superstandard(t.shape))[0]
    assert _degree(_half(t)) == drop
    monkeypatch.setitem(foamword._SWAP_KINDS, 1, ("unzip", 2, 0))
    with pytest.raises(RuntimeError, match="half foam degree"):
        list(cellular_halves(survey(enumerate_basis(str(Y.boundary)))))


def test_half_foam_raises_when_a_swap_breaks_standardness(monkeypatch):
    # both readers of the walk: the generator keys and the degree-only halves
    _blocking_every_node(monkeypatch)
    with pytest.raises(RuntimeError, match="left the standard fillings"):
        _halves(str(Y.boundary))
    with pytest.raises(RuntimeError, match="left the standard fillings"):
        list(cellular_halves(survey(enumerate_basis(str(Y.boundary)))))


def test_state_keys_are_the_distinct_generators_of_its_words():
    # per state: the dots, then each half word's generators, each once, in order of first use
    states = 0
    for signs in classical_sign_strings(5):
        words = dict(_halves(signs))
        for state in cellular_halves(survey(enumerate_basis(signs))):
            dots = foamword._dot_generators(dot_placement(state.shape))
            gens = itertools.chain(dots, *(words[t] for t, _d, _h in state.halves))
            assert list(state.keys) == list(dict.fromkeys(tuple(g)[:4] for g in gens))
            assert not any(g.mirrored for t, _d, _h in state.halves for g in words[t])
            states += 1
    assert states == 468  # every boundary state with n <= 5


# -- generators and their reflections ------------------------------------------------


def _reflected(gens):
    """A word's generators reflected: last first, each one reflected."""
    return tuple(g.reflected() for g in reversed(gens))


def _basis_words(signs):
    """(basis foam, its word's generators) over the boundary: the bottom
    filling's half, the dots and the top filling's half reflected."""
    halves = dict(_halves(signs))
    out = []
    for foam in enumerate_cellular_basis(signs):
        lower, upper = halves[foam.bottom_tableau], _reflected(halves[foam.top_tableau])
        dots = foamword._dot_generators(dot_placement(foam.shape))
        out.append((foam, (*lower, *(FoamGen(*key, False) for key in dots), *upper)))
    return out


def test_generators_reflect_back():
    words = [word for _foam, word in _basis_words("+-+-")]
    gens = {g for word in words for g in word}
    assert {g.kind for g in gens} >= {"zip", "unzip", "digon_removal", "dots"}
    for g in gens:
        r = g.reflected()
        assert r.reflected() == g
        assert r.mirrored != g.mirrored
        assert r.kind == {"zip": "unzip", "unzip": "zip"}.get(g.kind, g.kind)
        assert (r.degree, r.position, r.count) == (g.degree, g.position, g.count)
    for word in words:
        assert _reflected(_reflected(word)) == word


def test_foam_records_are_immutable():
    foam, word = _basis_words("+++")[0]
    records = ((foam, "degree"), (word[0], "kind"))
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


def _key(foam):
    return (_sequence(foam.shape), foam.top_tableau.rows,
            foam.bottom_tableau.rows)


def test_basis_comes_in_key_order():
    # ---+++ has 18 residue sequences that several states share
    shapes = {f.shape for f in enumerate_cellular_basis("---+++")}
    shared = Counter(_sequence(shape) for shape in shapes)
    assert sum(1 for k in shared.values() if k > 1) == 18
    for signs in classical_sign_strings(5) + ["---+++"]:
        foams = enumerate_cellular_basis(signs)
        assert isinstance(foams, list)
        assert foams == sorted(foams, key=_key), signs
        assert len({_key(f) for f in foams}) == len(foams)


def test_diagonal_foam_degree_is_twice_the_dots():
    # a diagonal foam is one filling's half, the dots and the same half reflected
    for signs in classical_sign_strings(4):
        diagonal = [f for f in enumerate_cellular_basis(signs) if f.top_tableau == f.bottom_tableau]
        states = cellular_halves(survey(enumerate_basis(signs)))
        assert len(diagonal) == sum(len(state.halves) for state in states)
        for foam in diagonal:
            assert foam.degree == 2 * bkw_degree(foam.top_tableau)[0]


def test_involution_swaps_and_preserves():
    # the pair-level reference for the degree-only basis and the checks in `checks`:
    # a foam's word weighs its degree, the swapped pair is a basis foam too, and
    # reflecting a word keeps its degree
    for signs in classical_sign_strings(5):
        words = _basis_words(signs)
        states = cellular_halves(survey(enumerate_basis(signs)))
        assert len(words) == sum(len(state.halves) ** 2 for state in states)
        by_pair = {(f.top_tableau, f.bottom_tableau): f for f, _word in words}
        for foam, word in words:
            assert _degree(word) == foam.degree
            assert by_pair[foam.bottom_tableau, foam.top_tableau].degree == foam.degree
            flipped = _reflected(word)
            assert _degree(flipped) == foam.degree
            assert _reflected(flipped) == word


# -- graded dimensions ---------------------------------------------------------------------


def _graded_dim(rows):
    """Graded dimension of the basis web of column-strict rows with itself."""
    web = web_from_tableau(rows)
    return graded_dim_pair(survey_web(web, {}), survey_web(web, {})).shift(-web.n)


def test_graded_dim_theta_shape():
    assert _graded_dim(((1, 2, 3),)) == qint(2) * qint(3)


def test_graded_dim_empty_shapes():
    assert _graded_dim(())(1) == 1


def test_graded_dim_arc_shape():
    assert _graded_dim(((1, 2, 2),)) == qint(3)
