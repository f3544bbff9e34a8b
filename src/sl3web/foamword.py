"""Symbolic foams: idempotents, dots, half foams and the basis.

Foams are never evaluated topologically.  A half foam is an ordered list of
generators (zips, unzips, digon removals, shifts, dots, identity), each a
key (kind, degree, position, count); its degree is the sum of the generator
degrees.  Signs are not modeled.

The cellular basis is computed in degrees.  Per boundary state,
`cellular_halves` builds one frame of its nodes' residues and neighbours
(`_frame`); each flow's half walks its expanded filling to the superstandard
one on the frame's integers (`_half_keys`), one generator key per swap, and
keeps the sum of their degrees.  It raises unless that sum is the filling's
degree drop and the dots weigh twice the superstandard degree.  A pair weighs
its two filling degrees once `reflections`, which builds each distinct
generator and its reflection, has checked that each reflection keeps its degree.
`cellular_blocks` lists the basis by its cells, one block per upper half;
`enumerate_cellular_basis` flattens them, one foam per block and lower.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Iterator
from typing import NamedTuple

from sl3web.bijection import WebSurvey, survey
from sl3web.laurent import LaurentPoly
from sl3web.ladderweb import LTWord, enumerate_basis
from sl3web.tableaux import Multipartition3, StdMultitableau3


class FoamGen(NamedTuple):
    """One foam generator with its degree contribution."""

    kind: str  # zip | unzip | digon_removal | theta_removal | shift | dots | identity
    degree: int
    position: int | None = None  # word position acted on, where meaningful
    count: int = 0  # digons removed, or dots placed
    mirrored: bool = False  # True inside a reflected (upper) half

    def reflected(self) -> "FoamGen":
        return _reflect(self)

    def __str__(self):
        tag = f"{self.kind}"
        if self.position is not None:
            tag += f"@{self.position}"
        if self.count:
            tag += f"({self.count})"
        if self.mirrored:
            tag += "*"
        return tag


_MIRROR = {"zip": "unzip", "unzip": "zip"}  # reflection swaps these kinds, keeps the rest


def _reflect(g: FoamGen) -> FoamGen:
    return FoamGen(_MIRROR.get(g.kind, g.kind), g.degree, g.position, g.count, not g.mirrored)


# -- idempotents and dots ------------------------------------------------------


def idempotent(shape: Multipartition3) -> LTWord:
    """Undivided ladder word of a shape.

    The word has one factor per node, indexed by the residue sequence of
    the shape's superstandard filling (`_frame`); on
    `boundary_strand_count(shape)` strands at level m it never kills the
    highest weight vector.
    """
    return _idempotent(_frame(shape)[0])


def _idempotent(residues: tuple[int, ...]) -> LTWord:
    return LTWord(tuple((r, 1) for r in reversed(residues)))


def boundary_strand_count(shape: Multipartition3) -> int:
    """Strand count of the boundary encoded by a shape: the largest entry of its
    column-strict reading with m rows, the top row's m plus its longest first row."""
    return max(shape.m + max((c[0] for c in shape.components if c), default=0), 1)


def dot_placement(shape: Multipartition3) -> list[int]:
    """Dots per node step: addable nodes of equal residue after each node
    of the superstandard filling, counted on the entries up to that node.

    The superstandard filling grows the shape in reading order, so after a
    node (r, c) of component l every later row is empty.  The first cell of
    the next row has residue m - r, never the node's c - r + m; the first
    cells of the 3 - l later components have residue m, the node's exactly
    when c = r.  The dots sum to the superstandard filling's degree.
    """
    return [3 - l if c == r else 0
            for l, comp in enumerate(shape.components, start=1)
            for r, length in enumerate(comp, start=1) for c in range(1, length + 1)]


# -- permutations between fillings ---------------------------------------------


def _frame(shape: Multipartition3) -> tuple[tuple[int, ...], tuple[frozenset, ...]]:
    """Per node of the shape in reading order (component, row, column, as
    the superstandard filling numbers them): its residue, and the reading
    indices of its left and upper neighbours (-1 where there is none), from
    which a swap may not bring it the next entry: swapping j and j + 1
    breaks a standard filling exactly when j sits just left of or just above
    j + 1."""
    residues, blocked = [], []
    for comp in shape.components:
        for r, length in enumerate(comp):
            above = comp[r - 1] if r else 0
            for c in range(length):
                i = len(residues)
                residues.append(c - r + shape.m)
                blocked.append(frozenset((i - 1 if c else -1, i - above if r else -1)))
    return tuple(residues), tuple(blocked)


def _node_order(rows) -> tuple[list[int], list[int]]:
    """A filling's entries in reading order, and its nodes' reading indices
    in entry order, repeats leftmost component first: the nodes holding 1,
    2, ... once repeated entries are renumbered consecutively."""
    flat = [v for comp in rows for row in comp for v in row]
    return flat, sorted(range(len(flat)), key=flat.__getitem__)


# (kind, degree, count) of a swap by the residue of its low node less that of
# its high node; any other difference shifts
_SWAP_KINDS = {0: ("digon_removal", -2, 2), -1: ("zip", 1, 0), 1: ("unzip", 1, 0)}


# -- half foams and the basis ---------------------------------------------------

_FACE_KINDS = {2: ("digon_removal", -1), 3: ("theta_removal", -3)}
_IDENTITY = ("identity", 0, None, 0)


def _swap_keys(size: int) -> list[list[tuple]]:
    """Per entry v < size, the generator key of a swap of v and v + 1 by the residue
    difference d of its nodes, at index d of a list, a negative d counted from its end
    (`_SWAP_KINDS`, and a shift for any other d).  Two nodes' residues c - r + m differ
    by less than the size of a shape that holds both."""
    keys = []
    for v in range(size):
        row = [("shift", 0, v, 0)] * (2 * size + 1)
        for diff, (kind, degree, count) in _SWAP_KINDS.items():
            row[diff] = (kind, degree, v, count)
        keys.append(row)
    return keys


def _half_keys(t: StdMultitableau3, frame: tuple, swaps: list) -> list[tuple]:
    """Generator keys (kind, degree, position, count) of a filling's half foam on the
    frame of its shape: one face removal per repeated entry, then one of `swaps` per
    swap of its expanded filling on the way to the superstandard one; the identity if
    neither.

    The walk: for the n-th node in reading order, n = 1, 2, ..., the entry w it holds
    is walked down onto it by the swaps t(w-1), ..., tn, the entries below n already
    sitting on their nodes.  The swap tv exchanges v, on some node `low`, with v + 1,
    by then on the n-th node, and keeps the filling standard exactly when `low` is
    not that node's left or upper neighbour (`_frame`); one that breaks it raises
    RuntimeError.  After the swaps that node holds n, and each entry from n to w - 1
    is one higher, on the same node.
    """
    residues, blocked = frame
    flat, node_of = _node_order(t.rows)
    keys = []  # in node order the entries are sorted, so an entry's copies sit side by side
    for v, w in itertools.pairwise(map(flat.__getitem__, node_of)):
        if v == w:  # a second copy removes a digon, a third a theta
            if keys and keys[-1][2] == v:
                keys[-1] = (*_FACE_KINDS[3], v, 1)
            else:
                keys.append((*_FACE_KINDS[2], v, 1))
    for j, res in enumerate(residues):  # the node of reading index j takes entry j + 1
        if (w := node_of.index(j, j)) == j:  # it holds entry w + 1
            continue
        moving = node_of[j:w]  # the nodes of the entries j + 1, ..., w
        if not blocked[j].isdisjoint(moving):
            v = next(v for v in range(w, j, -1) if node_of[v - 1] in blocked[j])
            raise RuntimeError(
                f"transposition t{v} left the standard fillings on the way "
                f"from {t} to the superstandard filling"
            )
        v = w  # the swaps tw, ..., t(j + 1), the first with the node of entry w
        for low in reversed(moving):
            keys.append(swaps[v][residues[low] - res])
            v -= 1
        del node_of[w]
        node_of.insert(j, j)
    return keys or [_IDENTITY]


def _dot_generators(dots: list[int]) -> tuple[tuple, ...]:
    """The dot generators' keys, one per dotted node step."""
    return tuple(("dots", 2 * mk, k, mk) for k, mk in enumerate(dots, start=1) if mk)


class CellState(NamedTuple):
    """A boundary state's shape, residue sequence (its idempotent), one (filling,
    filling degree, half foam degree) per flow, and the distinct generator keys of the
    dots and the halves in order of first use."""

    shape: Multipartition3
    residues: tuple[int, ...]
    halves: list[tuple[StdMultitableau3, int, int]]
    keys: dict[tuple, None]


def reflections(states) -> dict[FoamGen, FoamGen]:
    """Each distinct generator of the states' keys, mapped to its reflection; this
    raises unless every reflection weighs what its generator weighs."""
    out = {}
    for key in dict.fromkeys(key for state in states for key in state.keys):
        g = FoamGen(*key, False)
        if (r := _reflect(g)).degree != g.degree:
            raise RuntimeError(f"basis foam degree: {g} reflects to {r} of degree {r.degree}")
        out[g] = r
    return out


def cellular_halves(surveys) -> Iterator[CellState]:
    """The `CellState` of every boundary state of one boundary's surveyed webs.

    Each half is walked once, and a state's halves only when the caller moves on to
    that state, on the state's frame (`_frame`) and the boundary's swap keys.  A half
    weighs its filling degree less the superstandard degree, the sum of the dots, and
    the dot generators twice that, or this raises."""
    groups: dict[tuple, list[tuple[StdMultitableau3, int]]] = {}
    for entry in surveys:
        for j, d, _w, _m, t in entry.records:
            groups.setdefault(j, []).append((t, d))
    swaps = _swap_keys(max((group[0][0].shape.size for group in groups.values()), default=0))
    for group in groups.values():
        shape = group[0][0].shape
        frame = _frame(shape)
        dots = dot_placement(shape)
        d_sup = sum(dots)
        walks, halves = [_half_keys(t, frame, swaps) for t, _d in group], []
        for (t, d), walk in zip(group, walks):
            degree = sum(map(operator.itemgetter(1), walk))
            if degree != d - d_sup:
                raise RuntimeError(f"half foam degree {degree} != degree drop {d - d_sup} for {t}")
            halves.append((t, d, degree))
        dot_keys = _dot_generators(dots)
        if (weight := sum(key[1] for key in dot_keys)) != 2 * d_sup:
            raise RuntimeError(f"basis foam degree: dots of {shape} weigh {weight}")
        yield CellState(shape, frame[0], halves, dict.fromkeys(itertools.chain(dot_keys, *walks)))


class BasisFoam(NamedTuple):
    """Cellular basis element: a shape, two fillings and its degree, the sum of theirs."""

    shape: Multipartition3
    top_tableau: StdMultitableau3
    bottom_tableau: StdMultitableau3
    degree: int


def cellular_blocks(S) -> list[tuple]:
    """The basis over a classical sign string by its cells: per upper half, in key order
    (residue sequence, top filling's rows), (shape, top filling, top degree, lowers), the
    lowers its state's (filling, degree, half degree) sorted by rows, one list shared by
    every upper of the state.  So a state's uppers come in the order of its lowers.

    A foam is a lower half, the dots and a reflected upper half: it weighs d_top + d_bot
    once each half weighs its degree drop, each state's dots twice its superstandard
    degree (`cellular_halves` checks both) and each distinct generator's reflection as
    much as it (`reflections`); all of it is checked before the list is returned.
    """
    states = list(cellular_halves(survey(enumerate_basis(S))))
    reflections(states)
    groups: dict[tuple, list] = {}
    for state in states:
        groups.setdefault(state.residues, []).append(
            (state.shape, sorted(state.halves, key=lambda h: h[0].rows)))
    blocks = []
    for _residues, group in sorted(groups.items()):
        uppers = [(shape, t, d, lowers) for shape, lowers in group for t, d, _h in lowers]
        blocks.extend(sorted(uppers, key=lambda upper: upper[1].rows))
    return blocks


def enumerate_cellular_basis(S) -> list[BasisFoam]:
    """All basis foams over a classical sign string, as a list: one per boundary state
    and ordered pair of flows with that state, in key order (residue sequence, top
    filling's rows, bottom filling's rows); the flattening of `cellular_blocks`."""
    return [BasisFoam(shape, top, t, d_top + d)
            for shape, top, d_top, lowers in cellular_blocks(S) for t, d, _h in lowers]


def graded_dim_pair(a: WebSurvey, b: WebSurvey) -> LaurentPoly:
    """Graded dimension between two surveyed basis webs, from filling degrees.

    Sums q^(deg + deg) over pairs of flows sharing a boundary state; the
    companion identity (tested, not assumed) is q^n * bracket(u glued v).
    """
    right = b.by_state
    exponents = Counter(
        d1 + d2 for j, left in a.by_state.items() for d1 in left for d2 in right.get(j, ())
    )
    return LaurentPoly(exponents)

