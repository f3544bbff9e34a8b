"""Multipartition combinatorics against the worked examples."""

import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    add_node,
    addable_nodes,
    colstrict_to_multipartition,
    degree_by_rows,
    entry_degree,
    expand_repeats,
    is_column_strict,
    multipartition_to_colstrict,
    next_node,
    nodes_after,
    nodes_with_entry,
    removable_nodes,
    residue_sequence,
    standard_tableaux,
    strictly_after,
    superstandard,
    swap_keeps_standard,
    truncate,
)
from sl3web.foamword import boundary_strand_count, dot_placement
from sl3web.ladderweb import LTWord
from sl3web.tableaux import (
    Multipartition3,
    Node,
    StdMultitableau3,
    _abacus,
    _abacus_rows,
    _empty_abacus,
    _place,
    bkw_degree,
    residue,
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
    assert addable_nodes(EX_SHAPE, 4) == [Node(2, 3, 1), Node(3, 4, 3)]


def test_removable_nodes_of_residue_two():
    assert removable_nodes(EX_SHAPE, 2) == [Node(2, 1, 2)]


def test_nodes_after_region():
    fixed = Node(1, 2, 3)
    after_addable = nodes_after(EX_SHAPE, fixed, "addable")
    assert after_addable == [Node(3, 4, 3)]
    assert nodes_after(EX_SHAPE, fixed, "removable") == []


def test_nodes_after_empty_for_last_node():
    shape = mp((1,), (), ())
    assert nodes_after(shape, Node(1, 1, 1), "addable") == [Node(1, 1, 2), Node(1, 1, 3)]
    assert nodes_after(shape, Node(1, 1, 3), "addable") == []


def test_empty_shape_addable():
    empty = mp((), (), ())
    assert addable_nodes(empty, 0) == [Node(1, 1, 1), Node(1, 1, 2), Node(1, 1, 3)]
    assert removable_nodes(empty, 0) == []


def test_degreea_entry_eleven_after_sets():
    t4 = tab(
        ((3, 2), (2, 1, 1), (3, 2, 1)),
        (((1, 2, 3), (8, 9)), ((5, 6), (10,), (11,)), ((1, 2, 3), (4, 9), (7,))),
    )
    node = nodes_with_entry(t4, 11)[0]
    assert nodes_after(t4.shape, node, "addable") == []
    assert len(nodes_after(t4.shape, node, "removable")) == 1


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
    assert expand_repeats(t).rows == (((1, 3), (5,)), ((6,),), ((2, 4), (7,)))


def test_expand_repeats_identity_without_repeats():
    t = superstandard(mp((2,), (1,), ()))
    assert expand_repeats(t) == t


def test_expand_repeats_single_pair():
    t = tab(((1,), (), (1, 1)), (((1,),), (), ((1,), (2,))))
    assert expand_repeats(t).rows == (((1,),), (), ((2,), (3,)))


# -- residue sequences ---------------------------------------------------------


def test_residue_sequence_of_superstandard():
    t = superstandard(mp((2, 1), (1,), (2, 1)))
    assert residue_sequence(t) == (2, 3, 1, 2, 2, 3, 1)


def test_residue_sequence_empty():
    assert residue_sequence(superstandard(mp((), (), ()))) == ()


def test_residue_sequence_with_repeats():
    t = tab(((1,), (), (1, 1)), (((1,),), (), ((1,), (2,))))
    assert residue_sequence(t) == (2, 1)


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
    cut = truncate(t, 2)
    assert cut.rows == (((1, 2),), (), ((1,),))
    assert cut.shape.m == t.shape.m


def test_truncate_extremes():
    t = superstandard(mp((2,), (), (1,)))
    assert truncate(t, 0).max_entry == 0
    assert truncate(t, t.max_entry) == t


# -- column-strict tableaux -------------------------------------------------------


def test_colstrict_worked_example():
    shape = colstrict_to_multipartition(((2, 1, 2), (4, 3, 4), (6, 5, 6)))
    assert shape.components == ((3, 2, 1), (2, 1), (3, 2, 1))


def test_colstrict_row_filling_is_empty_shape():
    shape = colstrict_to_multipartition(((1, 1, 1), (2, 2, 2)))
    assert shape.size == 0


def test_colstrict_two_rows():
    shape = colstrict_to_multipartition(((1, 1, 2), (3, 2, 3)))
    assert shape.components == ((1,), (), (1, 1))


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


# -- enumeration of fillings -----------------------------------------


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


def test_boundary_strand_count_is_the_largest_colstrict_entry():
    # the closed form against the column-strict reading with m rows (one strand at least)
    shapes = 0
    for n in range(8):
        for a, b in itertools.product(range(n + 1), repeat=2):
            if a + b <= n:
                for comps in itertools.product(
                    _partitions(a, a), _partitions(b, b), _partitions(n - a - b, n - a - b)
                ):
                    depth = max(map(len, comps))
                    for m in range(depth, depth + 3):
                        shape = mp(*comps, m=m)
                        rows = multipartition_to_colstrict(shape, m)
                        assert boundary_strand_count(shape) == max([1, *map(max, rows)]), shape
                    shapes += 1
    assert shapes == 844


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


def test_value_records_are_immutable():
    shape = mp((1,), (), (1, 1))
    records = ((LTWord.parse("F1 F2"), "factors"), (shape, "components"), (shape, "m"),
               (superstandard(shape), "rows"), (superstandard(shape), "shape"))
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, ())


def test_trusted_fillings_pass_full_validation():
    # every filling up to five nodes, through each path that skips validation
    for t in _fillings(5):
        superstandard(t.shape)._validate()
        for j in range(t.max_entry + 1):
            truncate(t, j)._validate()


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
            diagram = add_node(diagram, node)
            contribution += sum(strictly_after(n, node) for n in addable_nodes(diagram, k))
            contribution -= sum(strictly_after(n, node) for n in removable_nodes(diagram, k))
        breakdown.append(contribution - {1: 0, 2: 1, 3: 3}[len(nodes)])
    return sum(breakdown), breakdown


def test_degree_matches_node_by_node_definition():
    # at the shape's own shift m and at m + 1, which moves every residue by one
    for t in _fillings(5):
        shifted = StdMultitableau3(mp(*t.shape.components, m=t.shape.m + 1), t.rows)
        for u in (t, shifted):
            assert bkw_degree(u) == _reference_degree(u), u


def test_abacus_places_and_weighs_as_the_row_lengths_do():
    # every filling with at most six nodes, at its shift m and at m + 1: each entry's
    # nodes and degree share on the abacus, against the row lengths grown node by node
    entries = 0
    for t in _fillings(6):
        for m in (t.shape.m, t.shape.m + 1):
            u = StdMultitableau3._make((mp(*t.shape.components, m=m), t.rows))  # t is standard
            masks, lengths, breakdown = _empty_abacus(m), ([], [], []), []
            occ = u.entries()
            for j in range(1, u.max_entry + 1):
                nodes, i = occ[j], u.shape.residue(occ[j][0])
                comps = [node.comp for node in nodes]
                want = [next_node(lengths[l - 1] + [0] * (m - len(lengths[l - 1])), l, i, m)
                        for l in comps]
                masks, share, cells = _place(masks, comps, i, m)
                assert [Node(r + 1, c + 1, l + 1) for l, r, c in cells] == list(nodes) == want
                assert share == entry_degree(lengths, m, nodes, i), (u, j)
                breakdown.append(share)
                entries += 1
            assert [_abacus_rows(mask, m) for mask in masks] == [
                list(comp) + [0] * (m - len(comp)) for comp in u.shape.components]
            assert masks == tuple(_abacus(comp, m) for comp in u.shape.components)
            assert bkw_degree(u) == degree_by_rows(u) == (sum(breakdown), breakdown), u
    assert entries > 100000


def test_dots_match_truncation_definition():
    # dots: addable nodes of the node's residue after it, in each truncation
    for shape in {t.shape for t in _all_fillings()}:
        sup = superstandard(shape)
        want = [
            len(nodes_after(truncate(sup, k).shape, nodes_with_entry(sup, k)[0], "addable"))
            for k in range(1, shape.size + 1)
        ]
        assert dot_placement(shape) == want, shape


def test_standard_tableaux_order_is_pinned():
    # the fillings and their order before fillable nodes were grown incrementally
    fillings = _all_fillings()
    assert len(fillings) == 17146
    digest = hashlib.sha256(repr([(t.shape, t.rows) for t in fillings]).encode()).hexdigest()
    assert digest == "604ad61a2a6471e8f82999a63e4185c9695e105596de07bad5965df54b294d64"


def _expand_repeats_iteratively(t):
    """The expansion as first defined: shift everything above the smallest
    repeated entry up, renumber its nodes leftmost first, repeat."""
    values = {
        Node(r, c, l): v
        for l, comp in enumerate(t.rows, start=1)
        for r, row in enumerate(comp, start=1)
        for c, v in enumerate(row, start=1)
    }
    while True:
        occ = {}
        for node, v in values.items():
            occ.setdefault(v, []).append(node)
        rep = min((v for v, ns in occ.items() if len(ns) > 1), default=None)
        if rep is None:
            break
        nodes = sorted(occ[rep], key=lambda n: n.comp)
        for node, v in values.items():
            if v > rep:
                values[node] = v + len(nodes) - 1
        for offset, node in enumerate(nodes):
            values[node] = rep + offset
    return tuple(
        tuple(
            tuple(values[Node(r, c, l)] for c in range(1, len(row) + 1))
            for r, row in enumerate(comp, start=1)
        )
        for l, comp in enumerate(t.rows, start=1)
    )


def test_expand_repeats_matches_iterative_definition():
    repeated = 0
    for t in _fillings(5):
        assert expand_repeats(t).rows == _expand_repeats_iteratively(t), t
        repeated += not _all_distinct(t)
    assert repeated > 0
