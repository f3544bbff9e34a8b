"""Symbolic foams: idempotents, dots, permutation words and the basis.

Foams are never evaluated topologically.  A foam word records an ordered
list of generators (zips, unzips, digon removals, shifts, dots, identity)
together with bottom and top ladder words; its degree is the sum of the
generator degrees.  Signs are not modeled.

The cellular basis is computed in degrees.  Per boundary state,
`cellular_halves` builds one frame of its nodes' residues and neighbours
(`_frame`); each flow's half walks its expanded filling to the superstandard
one on the frame's integers (`_swap_walk`), one generator key per swap, and
keeps the sum of their degrees.  A pair weighs its two filling degrees once
the dots and each distinct generator's reflection are checked.  Generators
(`_gen` interns them, reflected ones too) and words (`half_foam`) are built
on request only.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

from sl3web.bijection import WebSurvey, survey
from sl3web.laurent import LaurentPoly
from sl3web.ladderweb import LTWord, enumerate_basis
from sl3web.tableaux import (
    Multipartition3,
    StdMultitableau3,
    superstandard,
)


class FoamGen(NamedTuple):
    """One foam generator with its degree contribution; build it with `_gen`."""

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


@lru_cache(maxsize=None)
def _gen(kind: str, degree: int, position: int | None, count: int, mirrored: bool) -> FoamGen:
    """The one generator with these fields (pass all five positionally)."""
    return FoamGen(kind, degree, position, count, mirrored)


_MIRROR = {"zip": "unzip", "unzip": "zip"}  # reflection swaps these kinds, keeps the rest


def _reflect(g: FoamGen) -> FoamGen:
    return _gen(_MIRROR.get(g.kind, g.kind), g.degree, g.position, g.count, not g.mirrored)


class FoamWord(NamedTuple):
    """Generator list between two ladder words, with its degree, the sum of
    the generators' degrees; build it with `_word`."""

    bottom: LTWord
    top: LTWord
    generators: tuple[FoamGen, ...]
    degree: int

    def reflected(self) -> "FoamWord":
        return _word(self.top, self.bottom, tuple(map(_reflect, reversed(self.generators))))

    def __str__(self):
        gens = " . ".join(str(g) for g in self.generators) or "id"
        return f"[{self.bottom}] => [{self.top}] : {gens} (deg {self.degree})"


def _word(bottom: LTWord, top: LTWord, generators: tuple[FoamGen, ...]) -> FoamWord:
    return FoamWord(bottom, top, generators, sum(g.degree for g in generators))


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


def orthogonality_check(a: Multipartition3, b: Multipartition3) -> bool:
    """Whether the idempotents of two shapes are equal (else orthogonal)."""
    return (
        superstandard(a).residue_sequence() == superstandard(b).residue_sequence()
    )


def dot_placement(shape: Multipartition3) -> list[int]:
    """Dots per node step: addable nodes of equal residue after each node
    of the superstandard filling, counted in its truncation.

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


class Transposition(NamedTuple):
    """Swap of entries j and j+1, with the residues at those positions."""

    j: int
    res_low: int  # residue of the entry j before the swap
    res_high: int  # residue of the entry j+1 before the swap

    def __str__(self):
        return f"t{self.j}"


def _frame(shape: Multipartition3) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Per node of the shape in reading order (component, row, column, as
    the superstandard filling numbers them): its residue, and the reading
    indices of its right and lower neighbours (-1 where there is none), on
    which a swap may not put the next entry (`swap_keeps_standard`)."""
    residues, blocked = [], []
    for comp in shape.components:
        for r, length in enumerate(comp):
            below = comp[r + 1] if r + 1 < len(comp) else 0
            for c in range(length):
                i = len(residues)
                residues.append(c - r + shape.m)
                blocked.append((i + 1 if c + 1 < length else -1, i + length if c < below else -1))
    return tuple(residues), tuple(blocked)


def _node_order(rows) -> tuple[list[int], list[int]]:
    """A filling's entries in reading order, and its nodes' reading indices
    in entry order, repeats leftmost component first: the nodes of the
    expanded filling (`expand_repeats`) holding 1, 2, ..."""
    flat = [v for comp in rows for row in comp for v in row]
    return flat, sorted(range(len(flat)), key=flat.__getitem__)


def minimal_permutation(t: StdMultitableau3) -> tuple[list[Transposition], list[StdMultitableau3]]:
    """The `_swap_walk` carrying t (entries all distinct) to its shape's
    superstandard filling, as transpositions with the fillings after each
    swap, the last one the superstandard."""
    flat, node_of = _node_order(t.rows)
    if len(set(flat)) != len(flat):
        raise ValueError("minimal permutation needs all-distinct entries")
    residues, blocked = _frame(t.shape)
    seq: list[Transposition] = []
    steps: list[StdMultitableau3] = []
    for v, low, high in _swap_walk(node_of, blocked, t):
        seq.append(Transposition(v, residues[low], residues[high]))
        flat[low], flat[high] = v + 1, v
        it = iter(flat)
        rows = tuple(tuple(tuple(itertools.islice(it, n)) for n in comp) for comp in t.shape.components)
        steps.append(StdMultitableau3._make((t.shape, rows)))
    return seq, steps


def _swap_walk(
    node_of: list[int], blocked: tuple[tuple[int, int], ...], source
) -> Iterator[tuple[int, int, int]]:
    """The swaps (v, low, high) of entries v and v + 1, in order, moving the
    entries onto the superstandard filling; low held v and high v + 1
    before the swap.  Nodes are reading indices (`_frame`).

    ``node_of[v - 1]`` holds entry v of a standard all-distinct filling and
    is updated in place before each swap is yielded.  For j = 1, 2, ... in
    turn, the value w on the j-th node is walked down by t(w-1), ..., tj;
    entries below j already sit on their nodes.  A swap of consecutive
    entries keeps the filling standard exactly when high is not ``low``'s
    right or lower neighbour (``blocked[low]``); one that breaks it raises
    RuntimeError.
    """
    entry_at = [0] * len(node_of)
    for v, node in enumerate(node_of, start=1):
        entry_at[node] = v
    for j in range(1, len(node_of) + 1):
        w = entry_at[j - 1]
        if w < j:
            raise RuntimeError("target node holds a smaller entry; not reachable")
        for v in range(w - 1, j - 1, -1):
            low, high = node_of[v - 1], node_of[v]
            if high in blocked[low]:
                raise RuntimeError(
                    f"transposition t{v} left the standard fillings on the way "
                    f"from {source} to the superstandard filling"
                )
            node_of[v - 1], node_of[v] = high, low
            entry_at[low], entry_at[high] = v + 1, v
            yield v, low, high


def permutation_word(seq: list[Transposition]) -> str:
    """Display form with the first applied transposition rightmost."""
    return " ".join(str(tr) for tr in reversed(seq)) or "1"


# (kind, degree, count) of a swap by the residue of its low node less that of
# its high node; any other difference shifts
_SWAP_KINDS = {0: ("digon_removal", -2, 2), -1: ("zip", 1, 0), 1: ("unzip", 1, 0)}


def classify_transposition(res_a: int, res_b: int) -> tuple[str, int]:
    """Generator kind and degree of a transposition swapping residues a, b.

    Adjacent residues give a zip or unzip of degree 1 (a zip when the lower
    position carries the smaller residue), equal residues remove two digons
    at degree -2, and distant residues commute freely at degree 0.
    """
    return _SWAP_KINDS.get(res_a - res_b, ("shift", 0))[:2]


# -- half foams and the basis ---------------------------------------------------

_FACE_KINDS = {2: ("digon_removal", -1), 3: ("theta_removal", -3)}
_IDENTITY = ("identity", 0, None, 0)


def _swap_keys(size: int) -> list[tuple[dict, tuple]]:
    """Per entry v < size, the generator keys of a swap of v and v + 1 by the residue
    difference of its nodes (`_SWAP_KINDS`), and that of a shift, for any other."""
    return [({diff: (kind, degree, v, count) for diff, (kind, degree, count) in _SWAP_KINDS.items()},
             ("shift", 0, v, 0)) for v in range(size)]


def _half_keys(t: StdMultitableau3, frame: tuple, swaps: list) -> list[tuple]:
    """Generator keys (kind, degree, position, count) of a filling's half foam on the
    frame of its shape: one face removal per repeated entry, then one of `swaps` per
    swap of its expanded filling (`_swap_walk`); the identity if neither."""
    residues, blocked = frame
    flat, node_of = _node_order(t.rows)
    keys = []  # in node order the entries are sorted, so an entry's copies sit side by side
    for v, w in itertools.pairwise(map(flat.__getitem__, node_of)):
        if v == w:  # a second copy removes a digon, a third a theta
            if keys and keys[-1][2] == v:
                keys[-1] = (*_FACE_KINDS[3], v, 1)
            else:
                keys.append((*_FACE_KINDS[2], v, 1))
    for v, low, high in _swap_walk(node_of, blocked, t):
        kinds, shift = swaps[v]
        keys.append(kinds.get(residues[low] - residues[high], shift))
    return keys or [_IDENTITY]


def half_foam(t: StdMultitableau3, bottom: LTWord) -> FoamWord:
    """The half foam of a filling, from its web's word `bottom` to its shape's
    idempotent: the walk's keys (`_half_keys`) as interned generators.  Built on
    request only; the basis and the checks read the keys' degrees."""
    frame = _frame(t.shape)
    keys = _half_keys(t, frame, _swap_keys(t.shape.size))
    return _word(bottom, _idempotent(frame[0]), tuple(_gen(*key, False) for key in keys))


def _dot_generators(dots: list[int]) -> tuple[tuple, ...]:
    """The dot generators' keys, one per dotted node step."""
    return tuple(("dots", 2 * mk, k, mk) for k, mk in enumerate(dots, start=1) if mk)


def reflections(keys) -> dict[FoamGen, FoamGen]:
    """Each generator key's interned generator, mapped to its reflection."""
    return {g: _reflect(g) for g in (_gen(*key, False) for key in keys)}


class CellState(NamedTuple):
    """A boundary state's shape, residue sequence (its idempotent), dot generator keys,
    one (filling, filling degree, half foam degree) per flow, and the distinct generator
    keys of the dots and the halves in order of first use."""

    shape: Multipartition3
    residues: tuple[int, ...]
    dots: tuple[tuple, ...]
    halves: list[tuple[StdMultitableau3, int, int]]
    keys: dict[tuple, None]


def cellular_halves(surveys) -> Iterator[CellState]:
    """The `CellState` of every boundary state of one boundary's surveyed webs.

    Each half is walked once, and a state's halves only when the caller moves on to
    that state, on the state's frame (`_frame`) and the boundary's swap keys.  A half
    weighs its filling degree less the superstandard degree, the sum of the dots, or
    this raises."""
    groups: dict[tuple, list[tuple[StdMultitableau3, int]]] = {}
    for entry in surveys:
        for j, d, _flow, t in entry.records:
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
        keys = dict.fromkeys(itertools.chain(dot_keys, *walks))
        yield CellState(shape, frame[0], dot_keys, halves, keys)


class BasisFoam(NamedTuple):
    """Cellular basis element: a shape, two fillings and its degree, the sum of theirs."""

    shape: Multipartition3
    top_tableau: StdMultitableau3
    bottom_tableau: StdMultitableau3
    degree: int

    def __str__(self):
        return (
            f"F[{self.shape}] top={self.top_tableau} bottom={self.bottom_tableau} "
            f"deg={self.degree}"
        )


def enumerate_cellular_basis(S) -> list[BasisFoam]:
    """All basis foams over a classical sign string, as a list: one per
    boundary state and ordered pair of flows with that state, in key order
    (residue sequence, top filling's rows, bottom filling's rows).

    A foam is a lower half, the dots and a reflected upper half: it weighs d_top + d_bot
    once each half weighs its degree drop (`cellular_halves`), each state's dots twice
    its superstandard degree and each distinct generator's reflection as much as it;
    the last two are checked here, once each.  States with one residue sequence are
    taken together, each state's halves sorted once and the group's upper halves once.
    """
    groups: dict[tuple, list] = {}
    keys: dict[tuple, None] = {}
    for state in cellular_halves(survey(enumerate_basis(S))):
        _t, d, degree = state.halves[0]
        if (weight := sum(key[1] for key in state.dots)) != 2 * (d - degree):
            raise RuntimeError(f"basis foam degree: dots of {state.shape} weigh {weight}")
        keys.update(state.keys)
        groups.setdefault(state.residues, []).append(
            (state.shape, sorted(state.halves, key=lambda h: h[0].rows)))
    for g, r in reflections(keys).items():
        if r.degree != g.degree:
            raise RuntimeError(f"basis foam degree: {g} reflects to {r} of degree {r.degree}")
    basis = []
    for _residues, group in sorted(groups.items()):
        uppers = [(t, d, shape, lowers) for shape, lowers in group for t, d, _h in lowers]
        uppers.sort(key=lambda upper: upper[0].rows)
        for top, d_top, shape, lowers in uppers:
            basis.extend(BasisFoam(shape, top, t, d_top + d) for t, d, _h in lowers)
    return basis


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

