"""Partitions, 3-multipartitions and standard multitableaux.

Nodes live at 1-based (row, col) positions inside one of three components.
Every node carries a ladder residue  ``col - row + m``  where the shift m is
the maximal number of non-zero rows among the three components; m is fixed
when a multipartition is created and is deliberately *not* recomputed when
nodes are added, removed or truncated away.  Residues are constant along
diagonals and select which ladder operator a node corresponds to.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple


class Node(NamedTuple):
    row: int
    col: int
    comp: int  # component index, 1..3


def residue(node: Node, m: int) -> int:
    """Ladder residue of a node: col - row + m (constant on diagonals)."""
    return node.col - node.row + m


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, int) for v in value)


# The divided-power correction subtracted per entry of the given multiplicity.
_MULTIPLICITY_CORRECTION = {1: 0, 2: 1, 3: 3}


class Partition:
    """A weakly decreasing tuple of positive ints (trailing zeros trimmed)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = [int(p) for p in parts]
        while ps and ps[-1] == 0:
            ps.pop()
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"negative part in {ps}")
        object.__setattr__(self, "parts", tuple(ps))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    @property
    def size(self) -> int:
        return sum(self.parts)

    def row_length(self, row: int) -> int:
        return self.parts[row - 1] if 1 <= row <= len(self.parts) else 0

    def contains(self, row: int, col: int) -> bool:
        return 1 <= row and 1 <= col <= self.row_length(row)

    def cells(self) -> Iterator[tuple[int, int]]:
        for r, length in enumerate(self.parts, start=1):
            for c in range(1, length + 1):
                yield (r, c)

    def addable_cells(self) -> list[tuple[int, int]]:
        """Cells whose addition yields a partition, top row first."""
        out = []
        for r in range(1, len(self.parts) + 2):
            c = self.row_length(r) + 1
            if r == 1 or self.row_length(r - 1) >= c:
                out.append((r, c))
        return out

    def removable_cells(self) -> list[tuple[int, int]]:
        out = []
        for r, length in enumerate(self.parts, start=1):
            if length and length > self.row_length(r + 1):
                out.append((r, length))
        return out

    def add_cell(self, row: int, col: int) -> "Partition":
        if (row, col) not in self.addable_cells():
            raise ValueError(f"cell {(row, col)} not addable to {self.parts}")
        ps = list(self.parts) + [0] * (row - len(self.parts))
        ps[row - 1] += 1
        return Partition(ps)


class Multipartition3:
    """A triple of partitions with a fixed residue shift m.

    By default m is the maximal number of non-zero rows among the three
    components.  Pass ``m`` explicitly to keep a parent shape's shift when
    building truncations or intermediate diagrams.
    """

    __slots__ = ("components", "m")

    def __init__(self, components, m: int | None = None):
        comps = tuple(
            c if isinstance(c, Partition) else Partition(c) for c in components
        )
        if len(comps) != 3:
            raise ValueError("need exactly three components")
        default_m = max((len(c) for c in comps), default=0)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "m", default_m if m is None else int(m))

    def __setattr__(self, name, value):
        raise AttributeError("Multipartition3 is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Multipartition3)
            and self.components == other.components
            and self.m == other.m
        )

    def __hash__(self):
        return hash((self.components, self.m))

    def __repr__(self):
        parts = ", ".join(str(list(c.parts)) for c in self.components)
        return f"Multipartition3(({parts}), m={self.m})"

    @property
    def size(self) -> int:
        return sum(c.size for c in self.components)

    def component(self, l: int) -> Partition:
        return self.components[l - 1]

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
        out = []
        for l, comp in enumerate(self.components, start=1):
            for r, c in comp.addable_cells():
                if residue(Node(r, c, l), self.m) == k:
                    out.append(Node(r, c, l))
        return sorted(out, key=lambda n: (n.comp, n.row))

    def removable_nodes(self, k: int) -> list[Node]:
        out = []
        for l, comp in enumerate(self.components, start=1):
            for r, c in comp.removable_cells():
                if residue(Node(r, c, l), self.m) == k:
                    out.append(Node(r, c, l))
        return sorted(out, key=lambda n: (n.comp, n.row))

    def nodes_after(self, node: Node, kind: str) -> list[Node]:
        """Addable or removable nodes of node's residue strictly after it."""
        k = self.residue(node)
        pool = self.addable_nodes(k) if kind == "addable" else self.removable_nodes(k)
        return [n for n in pool if self.strictly_after(n, node)]

    def add_node(self, node: Node) -> "Multipartition3":
        comps = list(self.components)
        comps[node.comp - 1] = comps[node.comp - 1].add_cell(node.row, node.col)
        return Multipartition3(comps, m=self.m)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "components": [list(c.parts) for c in self.components],
            "m": self.m,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Multipartition3":
        if not isinstance(data, dict):
            raise ValueError("shape must be a JSON object")
        comps, m = data.get("components"), data.get("m")
        if not (isinstance(comps, list) and len(comps) == 3 and all(map(_is_int_list, comps))):
            raise ValueError("shape 'components' must be three lists of integers")
        if m is not None and not isinstance(m, int):
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
    depth = max(
        max((len(c) for c in a.components), default=0),
        max((len(c) for c in b.components), default=0),
    )
    for l in range(1, 4):
        prefix_a = sum(a.component(i).size for i in range(1, l))
        prefix_b = sum(b.component(i).size for i in range(1, l))
        run_a, run_b = prefix_a, prefix_b
        for s in range(1, depth + 1):
            run_a += a.component(l).row_length(s)
            run_b += b.component(l).row_length(s)
            if run_b > run_a:
                return False
    return True


class StdMultitableau3:
    """A standard filling of a 3-multipartition.

    Entries strictly increase along rows and columns of every component.
    An entry may repeat (multiplicity at most 3) but never twice inside one
    component, and all its occurrences must share one residue; repeats
    encode divided powers.
    """

    __slots__ = ("shape", "rows", "_entries", "_residues")

    def __init__(self, shape: Multipartition3, rows):
        rows = tuple(tuple(tuple(int(v) for v in row) for row in comp) for comp in rows)
        self._init(shape, rows)
        self._validate()

    @classmethod
    def _trusted(cls, shape: Multipartition3, rows) -> "StdMultitableau3":
        """A filling derived from a valid one, built without revalidation.

        ``rows`` must already be tuples of int tuples forming a standard
        filling of ``shape``; only code that derives it from a validated
        filling calls this.
        """
        t = object.__new__(cls)
        t._init(shape, rows)
        return t

    def _init(self, shape: Multipartition3, rows) -> None:
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_entries", None)
        object.__setattr__(self, "_residues", None)

    def __setattr__(self, name, value):
        raise AttributeError("StdMultitableau3 is immutable")

    def _validate(self):
        if len(self.rows) != 3:
            raise ValueError("need three components of rows")
        for l in range(1, 4):
            comp = self.shape.component(l)
            filled = self.rows[l - 1]
            if tuple(len(r) for r in filled) != comp.parts:
                raise ValueError(f"component {l} rows do not match shape {comp.parts}")
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

    def __eq__(self, other):
        return (
            isinstance(other, StdMultitableau3)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        comps = []
        for comp in self.rows:
            comps.append("/".join(" ".join(str(v) for v in row) for row in comp) or "@")
        return "(" + ", ".join(comps) + ")"

    def entries(self) -> Mapping[int, tuple[Node, ...]]:
        """Entry value -> occurrence nodes, ordered leftmost component first.

        Computed once per filling and returned read-only.
        """
        if self._entries is None:
            occ: dict[int, list[Node]] = {}
            for l, comp in enumerate(self.rows, start=1):
                for r, row in enumerate(comp, start=1):
                    for c, v in enumerate(row, start=1):
                        occ.setdefault(v, []).append(Node(r, c, l))
            frozen = MappingProxyType({v: tuple(nodes) for v, nodes in occ.items()})
            object.__setattr__(self, "_entries", frozen)
        return self._entries

    @property
    def max_entry(self) -> int:
        return max(self.entries(), default=0)

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
            comps.append(Partition(len(r) for r in new_rows))
        shape = Multipartition3(comps, m=self.shape.m)
        # kept entries form a prefix of every row and column: still standard
        return StdMultitableau3._trusted(shape, tuple(rows))

    def residue_sequence(self) -> tuple[int, ...]:
        """Residue of the entry-j nodes for j = 1..max (repeats share one)."""
        if self._residues is None:
            occ = self.entries()
            seq = tuple(self.shape.residue(occ[j][0]) for j in range(1, self.max_entry + 1))
            object.__setattr__(self, "_residues", seq)
        return self._residues

    def expand_repeats(self) -> "StdMultitableau3":
        """Replace repeated entries by consecutive ones, leftmost smallest."""
        values = {}
        for l, comp in enumerate(self.rows, start=1):
            for r, row in enumerate(comp, start=1):
                for c, v in enumerate(row, start=1):
                    values[Node(r, c, l)] = v
        while True:
            occ: dict[int, list[Node]] = {}
            for node, v in values.items():
                occ.setdefault(v, []).append(node)
            rep = min((v for v, ns in occ.items() if len(ns) > 1), default=None)
            if rep is None:
                break
            nodes = sorted(occ[rep], key=lambda n: n.comp)
            width = len(nodes) - 1
            for node, v in values.items():
                if v > rep:
                    values[node] = v + width
            for offset, node in enumerate(nodes):
                values[node] = rep + offset
        rows = tuple(
            tuple(
                tuple(values[Node(r, c, l)] for c in range(1, len(row) + 1))
                for r, row in enumerate(comp, start=1)
            )
            for l, comp in enumerate(self.rows, start=1)
        )
        return StdMultitableau3(self.shape, rows)

    def to_json(self) -> dict:
        cells = []
        for l, comp in enumerate(self.rows, start=1):
            for r, row in enumerate(comp, start=1):
                for c, v in enumerate(row, start=1):
                    cells.append([r, c, l, v])
        return {"shape": self.shape.to_json(), "cells": cells}

    @classmethod
    def from_json(cls, data: dict) -> "StdMultitableau3":
        if not (isinstance(data, dict) and isinstance(data.get("cells"), list)):
            raise ValueError("tableau needs a 'shape' and a 'cells' list")
        shape = Multipartition3.from_json(data.get("shape"))
        rows = [
            [[0] * length for length in comp.parts] for comp in shape.components
        ]
        for cell in data["cells"]:
            if not (_is_int_list(cell) and len(cell) == 4 and 1 <= cell[2] <= 3
                    and shape.component(cell[2]).contains(cell[0], cell[1])):
                raise ValueError(f"tableau cell {cell!r} is not [row, col, comp, entry] in shape")
            r, c, l, v = cell
            rows[l - 1][r - 1][c - 1] = v
        return cls(shape, rows)


@lru_cache(maxsize=None)
def superstandard(shape: Multipartition3) -> StdMultitableau3:
    """The filling with 1..k in reading order, component by component."""
    rows, next_entry = [], 1
    for comp in shape.components:
        comp_rows = []
        for length in comp.parts:
            comp_rows.append(tuple(range(next_entry, next_entry + length)))
            next_entry += length
        rows.append(tuple(comp_rows))
    # distinct entries growing along every row and down every column
    return StdMultitableau3._trusted(shape, tuple(rows))


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
    total, breakdown = _bkw_degree_cached(t)
    return total, list(breakdown)


@lru_cache(maxsize=None)
def _bkw_degree_cached(t: StdMultitableau3) -> tuple[int, tuple[int, ...]]:
    m = t.shape.m
    lengths: tuple[list[int], ...] = ([], [], [])  # row lengths grown so far
    breakdown = []
    occ = t.entries()
    for j in range(1, t.max_entry + 1):
        nodes = occ[j]
        k = t.shape.residue(nodes[0])
        contribution = 0
        for node in nodes:
            grown = lengths[node.comp - 1]
            if node.row > len(grown):
                grown.append(0)
            grown[node.row - 1] += 1
            addable, removable = _same_residue_after(lengths, m, node, k)
            contribution += addable - removable
        breakdown.append(contribution - _MULTIPLICITY_CORRECTION[len(nodes)])
    return sum(breakdown), tuple(breakdown)


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
    results: list[StdMultitableau3] = []
    values: dict[Node, int] = {}

    def fillable(partial: Multipartition3) -> list[Node]:
        out = []
        for l in range(1, 4):
            comp = shape.component(l)
            built = partial.component(l)
            for r, c in comp.cells():
                if built.contains(r, c):
                    continue
                north_ok = r == 1 or built.contains(r - 1, c)
                west_ok = c == 1 or built.contains(r, c - 1)
                if north_ok and west_ok:
                    out.append(Node(r, c, l))
        return sorted(out, key=lambda n: (n.comp, n.row, n.col))

    def rec(partial: Multipartition3, placed: int, v: int):
        if placed == total:
            rows = tuple(
                tuple(
                    tuple(values[Node(r, c, l)] for c in range(1, length + 1))
                    for r, length in enumerate(shape.component(l).parts, start=1)
                )
                for l in range(1, 4)
            )
            results.append(StdMultitableau3(shape, rows))
            return
        pool = fillable(partial)
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
            nxt = partial
            for node in combo:
                values[node] = v
                nxt = nxt.add_node(node)
            rec(nxt, placed + len(combo), v + 1)
            for node in combo:
                del values[node]

    rec(Multipartition3(((), (), ()), m=shape.m), 0, 1)
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

    Subtract the row number from each entry and read every column bottom
    to top as a partition.
    """
    rows = tuple(tuple(int(v) for v in row) for row in rows)
    if not is_column_strict(rows):
        raise ValueError(f"not column-strict: {rows}")
    comps = []
    for c in range(3):
        vals = [rows[r][c] - (r + 1) for r in range(len(rows))]
        if any(v < 0 for v in vals):
            raise ValueError(f"column {c + 1} has entries below the row filling")
        comps.append(Partition(reversed(vals)))
    return Multipartition3(comps)


def multipartition_to_colstrict(shape: Multipartition3, nrows: int):
    """Inverse of colstrict_to_multipartition for a given row count."""
    rows = []
    for r in range(1, nrows + 1):
        row = []
        for l in range(1, 4):
            comp = shape.component(l)
            if len(comp) > nrows:
                raise ValueError(f"component {l} has more than {nrows} rows")
            # partition was read bottom-up: its i-th part sits at row nrows - i
            row.append(comp.row_length(nrows - r + 1) + r)
        rows.append(tuple(row))
    out = tuple(rows)
    if not is_column_strict(out):
        raise ValueError("shape does not yield a column-strict tableau")
    return out
