"""Multipartition combinatorics against the worked examples."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3web.foamword import dot_placement, minimal_permutation
from sl3web.tableaux import (
    Multipartition3,
    Node,
    StdMultitableau3,
    bkw_degree,
    colstrict_to_multipartition,
    dominates,
    dominates_tableau,
    is_column_strict,
    multipartition_to_colstrict,
    residue,
    standard_tableaux,
    superstandard,
    swap_keeps_standard,
)


def mp(*comps, m=None):
    return Multipartition3(comps, m=m)


def tab(comps, rows, m=None):
    return StdMultitableau3(mp(*comps, m=m), rows)


# -- residues ---------------------------------------------------------------


def test_residue_top_left():
    assert residue(Node(1, 1, 1), 3) == 3


def test_residue_along_first_row():
    # the displayed filling of the first row reads 3 4 5 6 for m = 3
    assert [residue(Node(1, c, 1), 3) for c in (1, 2, 3, 4)] == [3, 4, 5, 6]


def test_residue_diagonal_constancy():
    for m in range(0, 5):
        for k in range(1, 6):
            assert residue(Node(k, k, 2), m) == m


# -- node sets on the three-component example --------------------------------

EX_SHAPE = mp((4, 2, 1), (2, 1), (4, 4, 3))


def test_example_shape_shift():
    assert EX_SHAPE.m == 3


def test_addable_nodes_of_residue_four():
    assert EX_SHAPE.addable_nodes(4) == [Node(2, 3, 1), Node(3, 4, 3)]


def test_removable_nodes_of_residue_two():
    assert EX_SHAPE.removable_nodes(2) == [Node(2, 1, 2)]


def test_nodes_after_region():
    fixed = Node(1, 2, 3)
    after_addable = EX_SHAPE.nodes_after(fixed, "addable")
    assert after_addable == [Node(3, 4, 3)]
    assert EX_SHAPE.nodes_after(fixed, "removable") == []


def test_nodes_after_empty_for_last_node():
    shape = mp((1,), (), ())
    assert shape.nodes_after(Node(1, 1, 1), "addable") == [Node(1, 1, 2), Node(1, 1, 3)]
    assert shape.nodes_after(Node(1, 1, 3), "addable") == []


def test_empty_shape_addable():
    empty = mp((), (), ())
    assert empty.addable_nodes(0) == [Node(1, 1, 1), Node(1, 1, 2), Node(1, 1, 3)]
    assert empty.removable_nodes(0) == []


def test_degreea_entry_eleven_after_sets():
    t4 = tab(
        ((3, 2), (2, 1, 1), (3, 2, 1)),
        (((1, 2, 3), (8, 9)), ((5, 6), (10,), (11,)), ((1, 2, 3), (4, 9), (7,))),
    )
    node = t4.nodes_with_entry(11)[0]
    assert t4.shape.nodes_after(node, "addable") == []
    assert len(t4.shape.nodes_after(node, "removable")) == 1


# -- dominance ---------------------------------------------------------------


def test_dominates_embedded_pair():
    lower = mp((), (2, 2), ())
    upper = mp((1,), (2, 1), ())
    assert dominates(upper, lower)


def test_dominates_reflexive():
    assert dominates(EX_SHAPE, EX_SHAPE)


def test_dominates_truncation_example():
    assert dominates(mp((2, 1), (1,), ()), mp((2, 1), (), (1,)))


def test_dominates_rejects_size_mismatch():
    with pytest.raises(ValueError):
        dominates(mp((1,), (), ()), mp((1, 1), (), ()))


def test_dominance_partial_order_small():
    shapes = [
        mp(*comps)
        for comps in itertools.product(
            [(), (1,), (2,), (1, 1)], repeat=3
        )
        if sum(sum(c) for c in comps) == 2
    ]
    for a in shapes:
        assert dominates(a, a)
        for b in shapes:
            if dominates(a, b) and dominates(b, a):
                assert a.components == b.components
            for c in shapes:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)


# -- superstandard and expansion ----------------------------------------------


def test_superstandard_example():
    t = superstandard(mp((2, 1), (1,), (2, 1)))
    assert t.rows == (((1, 2), (3,)), ((4,),), ((5, 6), (7,)))


def test_superstandard_half_theta_shape():
    t = superstandard(mp((1,), (), (1, 1)))
    assert t.rows == (((1,),), (), ((2,), (3,)))


def test_superstandard_empty():
    t = superstandard(mp((), (), ()))
    assert t.max_entry == 0


def test_expand_repeats_worked_example():
    t = tab(((2, 1), (1,), (2, 1)), (((1, 2), (3,)), ((4,),), ((1, 2), (5,))))
    assert t.expand_repeats().rows == (((1, 3), (5,)), ((6,),), ((2, 4), (7,)))


def test_expand_repeats_identity_without_repeats():
    t = superstandard(mp((2,), (1,), ()))
    assert t.expand_repeats() == t


def test_expand_repeats_single_pair():
    t = tab(((1,), (), (1, 1)), (((1,),), (), ((1,), (2,))))
    assert t.expand_repeats().rows == (((1,),), (), ((2,), (3,)))


# -- residue sequences ---------------------------------------------------------


def test_residue_sequence_of_superstandard():
    t = superstandard(mp((2, 1), (1,), (2, 1)))
    assert t.residue_sequence() == (2, 3, 1, 2, 2, 3, 1)


def test_residue_sequence_empty():
    assert superstandard(mp((), (), ())).residue_sequence() == ()


def test_residue_sequence_with_repeats():
    t = tab(((1,), (), (1, 1)), (((1,),), (), ((1,), (2,))))
    assert t.residue_sequence() == (2, 1)


# -- degrees -------------------------------------------------------------------


def test_degree_zero_triples():
    t1 = tab(((), (), (1,)), ((), (), ((1,),)))
    t2 = tab(((), (1,), (1,)), ((), ((1,),), ((1,),)))
    t3 = tab(((1,), (1,), (1,)), (((1,),), ((1,),), ((1,),)))
    for t in (t1, t2, t3):
        assert bkw_degree(t)[0] == 0


def test_degree_breakdown_eleven_nodes():
    t4 = tab(
        ((3, 2), (2, 1, 1), (3, 2, 1)),
        (((1, 2, 3), (8, 9)), ((5, 6), (10,), (11,)), ((1, 2, 3), (4, 9), (7,))),
    )
    total, breakdown = bkw_degree(t4)
    assert total == 3
    assert breakdown == [1, 0, 0, 0, 1, 0, 0, 1, 0, 1, -1]


def test_degree_breakdown_five_nodes():
    t = tab(((2, 1), (1,), (2, 2)), (((1, 2), (5,)), ((4,),), ((1, 2), (3, 4))))
    total, breakdown = bkw_degree(t)
    assert total == 2
    assert breakdown == [1, 0, 0, 0, 1]


# -- truncation ------------------------------------------------------------------


def test_truncate_worked_example():
    # repeated entry 1 sits on equal-residue nodes of components 1 and 3
    t = tab(((2, 1), (1,), (2,)), (((1, 2), (4,)), ((3,),), ((1, 5),)))
    cut = t.truncate(2)
    assert cut.rows == (((1, 2),), (), ((1,),))
    assert cut.shape.m == t.shape.m


def test_truncate_extremes():
    t = superstandard(mp((2,), (), (1,)))
    assert t.truncate(0).max_entry == 0
    assert t.truncate(t.max_entry) == t


# -- column-strict tableaux -------------------------------------------------------


def test_colstrict_worked_example():
    shape = colstrict_to_multipartition(((2, 1, 2), (4, 3, 4), (6, 5, 6)))
    assert [c.parts for c in shape.components] == [(3, 2, 1), (2, 1), (3, 2, 1)]


def test_colstrict_row_filling_is_empty_shape():
    shape = colstrict_to_multipartition(((1, 1, 1), (2, 2, 2)))
    assert shape.size == 0


def test_colstrict_two_rows():
    shape = colstrict_to_multipartition(((1, 1, 2), (3, 2, 3)))
    assert [c.parts for c in shape.components] == [(1,), (), (1, 1)]


def test_colstrict_rejects_bad_input():
    with pytest.raises(ValueError):
        colstrict_to_multipartition(((2, 1, 2), (2, 3, 4)))


@st.composite
def column_strict(draw):
    nrows = draw(st.integers(min_value=1, max_value=4))
    cols = []
    for _ in range(3):
        base = draw(st.integers(min_value=1, max_value=3))
        steps = draw(
            st.lists(
                st.integers(min_value=1, max_value=3),
                min_size=nrows - 1,
                max_size=nrows - 1,
            )
        )
        col = [base]
        for s in steps:
            col.append(col[-1] + s)
        cols.append(col)
    return tuple(tuple(cols[c][r] for c in range(3)) for r in range(nrows))


@given(column_strict())
@settings(max_examples=80)
def test_colstrict_roundtrip(rows):
    assert is_column_strict(rows)
    shape = colstrict_to_multipartition(rows)
    assert multipartition_to_colstrict(shape, len(rows)) == rows


# -- enumeration and dominance of fillings -----------------------------------------


@pytest.mark.parametrize(
    "comps",
    [((1,), (), (1, 1)), ((2,), (1,), ()), ((1,), (1,), (1,)), ((2, 1), (), ())],
)
def test_superstandard_dominates_all(comps):
    shape = mp(*comps)
    sup = superstandard(shape)
    for t in standard_tableaux(shape):
        assert dominates_tableau(sup, t)


def test_standard_tableaux_respect_invariants():
    shape = mp((1,), (), (1, 1))
    ts = standard_tableaux(shape)
    assert len(ts) == len(set(ts))
    for t in ts:
        for v, nodes in t.entries().items():
            assert len({t.shape.residue(n) for n in nodes}) == 1


# -- validate once: the local swap rule, trusted fillings, flat degrees -----------


def _partitions(n, cap):
    if n == 0:
        yield ()
    for p in range(min(n, cap), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p, *rest)


@functools.cache
def _all_fillings():
    """Every standard filling of every shape with at most six nodes."""
    out = []
    for n in range(7):
        for a, b in itertools.product(range(n + 1), repeat=2):
            if a + b <= n:
                for comps in itertools.product(
                    _partitions(a, a), _partitions(b, b), _partitions(n - a - b, n - a - b)
                ):
                    out.extend(standard_tableaux(mp(*comps)))
    return out


def _fillings(max_nodes):
    return [t for t in _all_fillings() if t.shape.size <= max_nodes]


def _all_distinct(t):
    return all(len(nodes) == 1 for nodes in t.entries().values())


def test_swap_rule_equals_full_validation():
    checked = 0
    for t in filter(_all_distinct, _fillings(6)):
        occ = t.entries()
        for j in range(1, t.max_entry):
            swap = {j: j + 1, j + 1: j}
            rows = tuple(tuple(tuple(swap.get(v, v) for v in row) for row in comp) for comp in t.rows)
            try:
                StdMultitableau3(t.shape, rows)
                standard = True
            except ValueError:
                standard = False
            assert swap_keeps_standard(occ[j][0], occ[j + 1][0]) == standard, (t, j)
            checked += 1
    assert checked == 48882  # (filling, j) pairs over all shapes with <= 6 nodes


def test_trusted_fillings_pass_full_validation():
    # every filling up to five nodes, through each path that skips validation
    for t in _fillings(5):
        superstandard(t.shape)._validate()
        for j in range(t.max_entry + 1):
            t.truncate(j)._validate()
        if _all_distinct(t):
            for step in minimal_permutation(t)[1]:
                step._validate()


def _reference_degree(t):
    """The degree as defined: grow the diagram node by node and count the
    addable minus removable nodes of the entry's residue after each node."""
    diagram = mp((), (), (), m=t.shape.m)
    breakdown = []
    for j in range(1, t.max_entry + 1):
        nodes = t.entries()[j]
        k = t.shape.residue(nodes[0])
        contribution = 0
        for node in nodes:
            diagram = diagram.add_node(node)
            contribution += sum(diagram.strictly_after(n, node) for n in diagram.addable_nodes(k))
            contribution -= sum(diagram.strictly_after(n, node) for n in diagram.removable_nodes(k))
        breakdown.append(contribution - {1: 0, 2: 1, 3: 3}[len(nodes)])
    return sum(breakdown), breakdown


def test_degree_matches_node_by_node_definition():
    for t in _fillings(5):
        assert bkw_degree(t) == _reference_degree(t), t


def test_dots_match_truncation_definition():
    # dots: addable nodes of the node's residue after it, in each truncation
    for shape in {t.shape for t in _all_fillings()}:
        sup = superstandard(shape)
        want = [
            len(sup.truncate(k).shape.nodes_after(sup.nodes_with_entry(k)[0], "addable"))
            for k in range(1, shape.size + 1)
        ]
        if max(want, default=0) > 2:
            with pytest.raises(RuntimeError):
                dot_placement(shape)
        else:
            assert dot_placement(shape) == want, shape
