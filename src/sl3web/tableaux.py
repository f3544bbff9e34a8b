"""3-multipartitions and standard multitableaux.

A 3-multipartition is three partitions, each a plain weakly decreasing
tuple of positive row lengths, with a residue shift.  Nodes live at 1-based
(row, col) positions inside one of three components.
Every node carries a ladder residue  ``col - row + m``  where the shift m is
the maximal number of non-zero rows among the three components; m is fixed
when a multipartition is created and is deliberately *not* recomputed when
nodes are added, removed or truncated away.  Residues are constant along
diagonals and select which ladder operator a node corresponds to.
"""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple


class Node(NamedTuple):
    row: int
    col: int
    comp: int  # component index, 1..3


def residue(node: Node, m: int) -> int:
    """Ladder residue of a node: col - row + m (constant on diagonals)."""
    return node.col - node.row + m


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)  # not JSON true/false


def _row_length(comp: tuple[int, ...], row: int) -> int:
    """Length of a partition's 1-based row, 0 past its last row."""
    return comp[row - 1] if 1 <= row <= len(comp) else 0


# The divided-power correction subtracted per entry of the given multiplicity.
_MULTIPLICITY_CORRECTION = {1: 0, 2: 1, 3: 3}


class Multipartition3(NamedTuple("_Shape", [("components", tuple), ("m", int)])):
    """Three partitions, each a weakly decreasing tuple of positive row
    lengths, with a fixed residue shift m.

    By default m is the maximal number of non-zero rows among the three
    components.  Pass ``m`` explicitly to keep a parent shape's shift when
    building truncations or intermediate diagrams.
    """

    __slots__ = ()

    def __new__(cls, components, m: int | None = None):
        comps = []
        for comp in components:
            ps = [int(p) for p in comp]
            while ps and ps[-1] == 0:
                ps.pop()
            if any(a < b for a, b in zip(ps, ps[1:])):
                raise ValueError(f"not weakly decreasing: {ps}")
            if ps and ps[-1] < 0:
                raise ValueError(f"negative part in {ps}")
            comps.append(tuple(ps))
        if len(comps) != 3:
            raise ValueError("need exactly three components")
        default_m = max(map(len, comps))
        return super().__new__(cls, tuple(comps), default_m if m is None else int(m))

    def __repr__(self):
        parts = ", ".join(str(list(c)) for c in self.components)
        return f"Multipartition3(({parts}), m={self.m})"

    @property
    def size(self) -> int:
        return sum(map(sum, self.components))

    def residue(self, node: Node) -> int:
        return residue(node, self.m)

    # -- node order ----------------------------------------------------
    # A node comes before another if its component is smaller, or the
    # components agree and its row is smaller-or-equal.

    @staticmethod
    def strictly_after(node: Node, ref: Node) -> bool:
        return node.comp > ref.comp or (node.comp == ref.comp and node.row > ref.row)

    # -- addable / removable -------------------------------------------

    def addable_nodes(self, k: int) -> list[Node]:
        """Addable nodes of residue k, ordered by the before/after order."""
        return [
            Node(r, length + 1, l)
            for l, comp in enumerate(self.components, start=1)
            for r, length in enumerate(comp + (0,), start=1)
            if (r == 1 or comp[r - 2] > length) and length + 1 - r + self.m == k
        ]

    def removable_nodes(self, k: int) -> list[Node]:
        return [
            Node(r, length, l)
            for l, comp in enumerate(self.components, start=1)
            for r, length in enumerate(comp, start=1)
            if length > (comp + (0,))[r] and length - r + self.m == k
        ]

    def nodes_after(self, node: Node, kind: str) -> list[Node]:
        """Addable or removable nodes of node's residue strictly after it."""
        k = self.residue(node)
        pool = self.addable_nodes(k) if kind == "addable" else self.removable_nodes(k)
        return [n for n in pool if self.strictly_after(n, node)]

    def add_node(self, node: Node) -> "Multipartition3":
        if node not in self.addable_nodes(self.residue(node)):
            comp = self.components[node.comp - 1]
            raise ValueError(f"cell {(node.row, node.col)} not addable to {comp}")
        comps = [list(c) + [0] for c in self.components]
        comps[node.comp - 1][node.row - 1] += 1
        return Multipartition3(comps, m=self.m)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "components": [list(c) for c in self.components],
            "m": self.m,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Multipartition3":
        if not isinstance(data, dict):
            raise ValueError("shape must be a JSON object")
        comps, m = data.get("components"), data.get("m")
        if not (isinstance(comps, list) and len(comps) == 3 and all(map(_is_int_list, comps))):
            raise ValueError("shape 'components' must be three lists of integers")
        if m is not None and type(m) is not int:
            raise ValueError("shape 'm' must be an integer")
        shape = cls(comps, m=m)
        # every node has residue col - row + m >= 1 exactly when m covers the rows
        depth = max(len(c) for c in shape.components)
        if m is not None and m < depth:
            raise ValueError(f"shape 'm' = {m} is smaller than its row count {depth}")
        return shape


def dominates(a: Multipartition3, b: Multipartition3) -> bool:
    """Whether b is dominated by a (cumulative-sum inequalities)."""
    if a.size != b.size:
        raise ValueError(f"sizes differ: {a.size} vs {b.size}")
    run_a = run_b = 0  # nodes in earlier components and rows, in a and in b
    for comp_a, comp_b in zip(a.components, b.components):
        for length_a, length_b in itertools.zip_longest(comp_a, comp_b, fillvalue=0):
            run_a += length_a
            run_b += length_b
            if run_b > run_a:
                return False
    return True


class StdMultitableau3(NamedTuple("_Filling", [("shape", Multipartition3), ("rows", tuple)])):
    """A standard filling of a 3-multipartition.

    Entries strictly increase along rows and columns of every component.
    An entry may repeat (multiplicity at most 3) but never twice inside one
    component, and all its occurrences must share one residue; repeats
    encode divided powers.  Calling the class validates the filling; code
    that places every entry by those rules builds one unchecked with
    ``StdMultitableau3._make((shape, rows))``, rows as tuples of int tuples.
    """

    __slots__ = ()

    def __new__(cls, shape: Multipartition3, rows):
        rows = tuple(tuple(tuple(int(v) for v in row) for row in comp) for comp in rows)
        return super().__new__(cls, shape, rows)

    def __init__(self, shape: Multipartition3, rows):
        self._validate()

    def _validate(self):
        if len(self.rows) != 3:
            raise ValueError("need three components of rows")
        for l, (comp, filled) in enumerate(zip(self.shape.components, self.rows), start=1):
            if tuple(len(r) for r in filled) != comp:
                raise ValueError(f"component {l} rows do not match shape {comp}")
            for row in filled:
                for a, b in zip(row, row[1:]):
                    if a >= b:
                        raise ValueError(f"row not strictly increasing: {row}")
            for r in range(1, len(filled)):
                for c in range(len(filled[r])):
                    if filled[r - 1][c] >= filled[r][c]:
                        raise ValueError("column not strictly increasing")
        occ = self.entries()
        if occ:
            top = max(occ)
            if sorted(occ) != list(range(1, top + 1)):
                raise ValueError(f"entries not consecutive 1..{top}: {sorted(occ)}")
        for v, nodes in occ.items():
            if len(nodes) > 3:
                raise ValueError(f"entry {v} occurs more than three times")
            comps = [n.comp for n in nodes]
            if len(set(comps)) != len(comps):
                raise ValueError(f"entry {v} repeats inside one component")
            residues = {self.shape.residue(n) for n in nodes}
            if len(residues) != 1:
                raise ValueError(f"repeated entry {v} has mixed residues {residues}")

    def __repr__(self):
        comps = []
        for comp in self.rows:
            comps.append("/".join(" ".join(str(v) for v in row) for row in comp) or "@")
        return "(" + ", ".join(comps) + ")"

    def entries(self) -> dict[int, tuple[Node, ...]]:
        """Entry value -> occurrence nodes, ordered leftmost component first."""
        occ: dict[int, list[Node]] = {}
        for l, comp in enumerate(self.rows, start=1):
            for r, row in enumerate(comp, start=1):
                for c, v in enumerate(row, start=1):
                    occ.setdefault(v, []).append(Node(r, c, l))
        return {v: tuple(nodes) for v, nodes in occ.items()}

    @property
    def max_entry(self) -> int:
        return max((v for comp in self.rows for row in comp for v in row), default=0)

    def nodes_with_entry(self, v: int) -> tuple[Node, ...]:
        return self.entries().get(v, ())

    def truncate(self, j: int) -> "StdMultitableau3":
        """Delete all nodes with entries strictly bigger than j (keeps m)."""
        if not 0 <= j <= self.max_entry:
            raise ValueError(f"truncation level {j} out of range")
        comps, rows = [], []
        for comp in self.rows:
            new_rows = []
            for row in comp:
                kept = tuple(v for v in row if v <= j)
                if kept:
                    new_rows.append(kept)
            rows.append(tuple(new_rows))
            comps.append([len(r) for r in new_rows])
        shape = Multipartition3(comps, m=self.shape.m)
        # kept entries form a prefix of every row and column: still standard
        return StdMultitableau3._make((shape, tuple(rows)))

    def residue_sequence(self) -> tuple[int, ...]:
        """Residue of the entry-j nodes for j = 1..max (repeats share one)."""
        occ = self.entries()
        return tuple(self.shape.residue(occ[j][0]) for j in range(1, self.max_entry + 1))

    def expand_repeats(self) -> "StdMultitableau3":
        """Replace repeated entries by consecutive ones, leftmost smallest."""
        grid = [[list(row) for row in comp] for comp in self.rows]
        occ = self.entries()
        nodes = (node for v in range(1, self.max_entry + 1) for node in occ[v])
        for value, node in enumerate(nodes, start=1):
            grid[node.comp - 1][node.row - 1][node.col - 1] = value
        return StdMultitableau3(self.shape, grid)

    def to_json(self) -> dict:
        return {"shape": self.shape.to_json(), "cells": tableau_cells(self.rows)}

    @classmethod
    def from_json(cls, data: dict) -> "StdMultitableau3":
        if not (isinstance(data, dict) and isinstance(data.get("cells"), list)):
            raise ValueError("tableau needs a 'shape' and a 'cells' list")
        shape = Multipartition3.from_json(data.get("shape"))
        rows = [[[0] * length for length in comp] for comp in shape.components]
        for cell in data["cells"]:
            if not (_is_int_list(cell) and len(cell) == 4 and 1 <= cell[2] <= 3 and cell[3] > 0
                    and 0 < cell[1] <= _row_length(shape.components[cell[2] - 1], cell[0])):
                raise ValueError(f"tableau cell {json.dumps(cell)} is not [row, col, comp, entry] in shape")
            r, c, l, v = cell
            if rows[l - 1][r - 1][c - 1]:
                raise ValueError(f"tableau cell {cell[:3]} is listed twice")
            rows[l - 1][r - 1][c - 1] = v
        for l, comp in enumerate(rows, start=1):
            for r, row in enumerate(comp, start=1):
                if 0 in row:
                    raise ValueError(f"tableau cell {[r, row.index(0) + 1, l]} is missing")
        return cls(shape, rows)


def tableau_cells(rows) -> list[list[int]]:
    """[row, col, comp, entry] per node of a filling's rows, in reading order."""
    return [[r, c, l, v] for l, comp in enumerate(rows, start=1)
            for r, row in enumerate(comp, start=1) for c, v in enumerate(row, start=1)]


def superstandard(shape: Multipartition3) -> StdMultitableau3:
    """The filling with 1..k in reading order, component by component."""
    rows, next_entry = [], 1
    for comp in shape.components:
        comp_rows = []
        for length in comp:
            comp_rows.append(tuple(range(next_entry, next_entry + length)))
            next_entry += length
        rows.append(tuple(comp_rows))
    # distinct entries growing along every row and down every column
    return StdMultitableau3._make((shape, tuple(rows)))


def swap_keeps_standard(low: Node, high: Node) -> bool:
    """Whether swapping the entries j (at ``low``) and j + 1 (at ``high``)
    of a standard filling with all-distinct entries leaves it standard.

    The swap changes the order of j and j + 1 only, and every other entry
    is below j or above j + 1, so only a row or column step from j to
    j + 1 can break: it does exactly when j + 1 sits immediately right of
    j, or immediately below it, in the same component.
    """
    if low.comp != high.comp:
        return True
    beside = low.row == high.row and low.col + 1 == high.col
    below = low.col == high.col and low.row + 1 == high.row
    return not (beside or below)


def bkw_degree(t: StdMultitableau3) -> tuple[int, list[int]]:
    """Degree of a standard multitableau with its per-entry breakdown.

    Each entry contributes the number of addable minus removable nodes of
    its residue strictly after it, counted on the partial diagram grown so
    far; same-entry nodes are added one at a time starting from the
    leftmost component and the total is corrected by 0/1/3 for
    multiplicity 1/2/3.
    """
    lengths: tuple[list[int], ...] = ([], [], [])  # row lengths grown so far
    occ = t.entries()
    breakdown = [
        _entry_degree(lengths, t.shape.m, occ[j], t.shape.residue(occ[j][0]))
        for j in range(1, t.max_entry + 1)
    ]
    return sum(breakdown), breakdown


def _entry_degree(lengths: tuple[list[int], ...], m: int, nodes, k: int) -> int:
    """One entry's share of the degree: its nodes, of residue k, grow the
    row lengths in place one at a time, leftmost component first."""
    contribution = 0
    for node in nodes:
        grown = lengths[node.comp - 1]
        if node.row > len(grown):
            grown.append(0)
        grown[node.row - 1] += 1
        addable, removable = _same_residue_after(lengths, m, node, k)
        contribution += addable - removable
    return contribution - _MULTIPLICITY_CORRECTION[len(nodes)]


def _same_residue_after(
    lengths: tuple[list[int], ...], m: int, node: Node, k: int
) -> tuple[int, int]:
    """Addable and removable nodes of residue k strictly after ``node`` in
    the diagram with the given row lengths per component."""
    addable = removable = 0
    for l in range(node.comp, 4):
        rows = lengths[l - 1]
        first = node.row + 1 if l == node.comp else 1
        for r in range(first, len(rows) + 2):
            length = rows[r - 1] if r <= len(rows) else 0
            below = rows[r] if r < len(rows) else 0
            if (r == 1 or rows[r - 2] > length) and length + 1 - r + m == k:
                addable += 1
            if length > below and length - r + m == k:
                removable += 1
    return addable, removable


def dominates_tableau(t1: StdMultitableau3, t2: StdMultitableau3) -> bool:
    """Whether t2 is dominated by t1 under the truncation-wise extension."""
    a, b = t1.expand_repeats(), t2.expand_repeats()
    if a.max_entry != b.max_entry:
        raise ValueError("tableaux have different node counts")
    for j in range(1, a.max_entry + 1):
        if not dominates(a.truncate(j).shape, b.truncate(j).shape):
            return False
    return True


def standard_tableaux(shape: Multipartition3) -> list[StdMultitableau3]:
    """All standard fillings of the shape, repeats allowed, in a fixed order.

    Entries are assigned in increasing order; at each step every non-empty
    set of simultaneously fillable equal-residue nodes in distinct
    components may receive the next value.  The output order is the
    lexicographic order of the chosen node sets along the way.
    """
    total = shape.size
    parts = shape.components
    filled = [[0] * len(p) for p in parts]  # filled prefix length of every row
    grid = [[[0] * length for length in p] for p in parts]
    results: list[StdMultitableau3] = []

    def fillable() -> list[Node]:
        # the first empty cell of a row, once the row above reaches past it;
        # component, row, column order
        return [
            Node(r + 1, c + 1, l + 1)
            for l in range(3)
            for r, c in enumerate(filled[l])
            if c < parts[l][r] and (r == 0 or filled[l][r - 1] > c)
        ]

    def rec(placed: int, v: int):
        if placed == total:
            results.append(StdMultitableau3(shape, grid))
            return
        pool = fillable()
        choices = []
        for size in (1, 2, 3):
            for combo in itertools.combinations(pool, size):
                comps = [n.comp for n in combo]
                if len(set(comps)) != len(comps):
                    continue
                if len({shape.residue(n) for n in combo}) != 1:
                    continue
                choices.append(combo)
        for combo in sorted(choices):
            for node in combo:
                grid[node.comp - 1][node.row - 1][node.col - 1] = v
                filled[node.comp - 1][node.row - 1] += 1
            rec(placed + len(combo), v + 1)
            for node in combo:
                filled[node.comp - 1][node.row - 1] -= 1

    rec(0, 1)
    return results


# -- column-strict tableaux ------------------------------------------------


def is_column_strict(rows) -> bool:
    for row in rows:
        if len(row) != 3:
            return False
    for c in range(3):
        for r in range(len(rows) - 1):
            if rows[r][c] >= rows[r + 1][c]:
                return False
    return True


def colstrict_to_multipartition(rows) -> Multipartition3:
    """Read a column-strict 3-column tableau as a 3-multipartition.

    Subtract the row number from each entry, which leaves an increasing column
    of positive entries non-negative, and read it bottom to top as a partition.
    """
    return Multipartition3([[row[c] - r for r, row in enumerate(rows, start=1)][::-1]
                            for c in range(3)])


def multipartition_to_colstrict(shape: Multipartition3, nrows: int):
    """Inverse of colstrict_to_multipartition for a given row count."""
    rows = []
    for r in range(1, nrows + 1):
        row = []
        for l in range(1, 4):
            comp = shape.components[l - 1]
            if len(comp) > nrows:
                raise ValueError(f"component {l} has more than {nrows} rows")
            # partition was read bottom-up: its i-th part sits at row nrows - i
            row.append(_row_length(comp, nrows - r + 1) + r)
        rows.append(tuple(row))
    out = tuple(rows)
    if not is_column_strict(out):
        raise ValueError("shape does not yield a column-strict tableau")
    return out
