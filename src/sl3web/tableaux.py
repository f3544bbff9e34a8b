"""3-multipartitions and standard multitableaux.

A 3-multipartition is three partitions, each a plain weakly decreasing
tuple of positive row lengths, with a residue shift.  Nodes live at 1-based
(row, col) positions inside one of three components.
Every node carries a ladder residue  ``col - row + m``  where the shift m is
by default the maximal number of non-zero rows among the three components;
a shape given m keeps it, and the degree grows its row lengths node by node
under one fixed m.  Residues are constant along diagonals and select which
ladder operator a node corresponds to.
"""

from __future__ import annotations

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
    components.  Pass ``m`` explicitly to keep another shape's shift.
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
    row lengths in place one at a time, leftmost component first, and each
    adds its `_same_residue_after`."""
    contribution = 0
    for node in nodes:
        grown = lengths[node.comp - 1]
        if node.row > len(grown):
            grown.append(0)
        grown[node.row - 1] += 1
        contribution += _same_residue_after(lengths, m, node, k)
    return contribution - _MULTIPLICITY_CORRECTION[len(nodes)]


def _same_residue_after(lengths: tuple[list[int], ...], m: int, node: Node, k: int) -> int:
    """Addable less removable nodes of residue k strictly after ``node``, the
    last cell of its row r, in the diagram with these row lengths per component.

    The node's own component has none: every cell below row r has a residue
    below k = length(r) - r + m, save the next cell of row r + 1 when that row
    is as long, and then that cell is not addable.  A later component with beta
    numbers B = {length(s) - s + m : s >= 1}, empty rows included, has an
    addable node of residue k exactly when k - 1 is in B and k is not, and a
    removable one exactly when k is in B and k - 1 is not: it adds
    [k - 1 in B] - [k in B].
    """
    out = 0
    for rows in lengths[node.comp:]:
        betas = {length - s + m for s, length in enumerate(rows, start=1)}
        empty = m - len(rows)  # the rows past the list are every beta number below this
        out += (k - 1 in betas or k - 1 < empty) - (k in betas or k < empty)
    return out


# -- column-strict tableaux ------------------------------------------------


def colstrict_to_multipartition(rows) -> Multipartition3:
    """Read a column-strict 3-column tableau as a 3-multipartition.

    Subtract the row number from each entry, which leaves an increasing column
    of positive entries non-negative, and read it bottom to top as a partition.
    """
    return Multipartition3([[row[c] - r for r, row in enumerate(rows, start=1)][::-1]
                            for c in range(3)])

