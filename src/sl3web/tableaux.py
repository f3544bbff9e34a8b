"""3-multipartitions and standard multitableaux.

A 3-multipartition is three partitions, each a plain weakly decreasing
tuple of positive row lengths, with a residue shift.  Nodes live at 1-based
(row, col) positions inside one of three components.
Every node carries a ladder residue  ``col - row + m``  where the shift m is
by default the maximal number of non-zero rows among the three components;
a shape given m keeps it.  Residues are constant along diagonals and select
which ladder operator a node corresponds to.

A filling grows on the abacus: each component is its set of beta numbers
length(s) - s + m, one per row s = 1..m, as the bits of one int.  `_place`
adds one entry's nodes of a residue there and counts that entry's share of
the degree; the survey, `bijection.iota` and `bkw_degree` all grow by it.
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
    multiplicity 1/2/3.  The diagram grows on the abacus (`_place`).
    """
    m = t.shape.m
    masks = _empty_abacus(m)
    occ = t.entries()
    breakdown = []
    for j in range(1, t.max_entry + 1):
        nodes = occ[j]
        masks, share, _cells = _place(masks, [node.comp for node in nodes], residue(nodes[0], m), m)
        breakdown.append(share)
    return sum(breakdown), breakdown


# -- the abacus ------------------------------------------------------------------
# A component with shift m is its beta numbers length(s) - s + m for its rows
# s = 1..m, empty rows included: the set bits of one int.


def _empty_abacus(m: int) -> tuple[int, int, int]:
    """Three empty components: rows 1..m hold the beta numbers m - 1, ..., 0."""
    return ((1 << m) - 1,) * 3


def _abacus(comp: tuple[int, ...], m: int) -> int:
    """A partition's beta numbers with shift m, as the set bits of one int."""
    return sum(1 << (_row_length(comp, s) - s + m) for s in range(1, m + 1))


def _abacus_rows(mask: int, m: int) -> list[int]:
    """The lengths of rows 1..m of a component's abacus, `_abacus` undone."""
    betas = [b for b in range(mask.bit_length() - 1, -1, -1) if mask >> b & 1]
    return [b + s - m for s, b in enumerate(betas, start=1)]


def _place(masks: tuple[int, int, int], comps, i: int, m: int) -> tuple[tuple, int, list]:
    """One entry's nodes of residue i added to the components `comps`, in increasing
    order, on the abacus `masks` with shift m: the grown masks, the entry's share of
    the degree and each node's cell, as 0-based (component, row, column) indices.

    A component takes a node of residue i exactly when i - 1 is a beta number and i
    is not.  The node ends the row s whose beta number length(s) - s + m is i - 1,
    in column i - m + s; s counts the beta numbers from i - 1 up.  It moves that bead
    from i - 1 to i.  A partition's addable nodes have distinct residues, so there is
    at most one.  The node adds, per later component, its addable less its removable
    nodes of residue i, [i - 1 is a beta number] - [i is one]; its own component has
    none after it (every cell below row s has a smaller residue, save the next cell
    of row s + 1 when that row is as long, and then it is not addable).  The share is
    the sum less `_MULTIPLICITY_CORRECTION`, read at each call.
    """
    shift = i - 1
    grown, cells = list(masks), []
    share = -_MULTIPLICITY_CORRECTION[len(comps)]
    for l in comps:
        mask = grown[l - 1]
        if mask >> shift & 3 != 1:
            raise RuntimeError(
                f"component {l} offers 0 nodes of residue {i}; "
                "the state dictionary and the diagram disagree"
            )
        row = (mask >> shift).bit_count()
        cells.append((l - 1, row - 1, shift - m + row))
        grown[l - 1] = mask ^ 3 << shift
        for later in grown[l:]:
            share += (later >> shift & 1) - (later >> i & 1)
    return tuple(grown), share, cells
