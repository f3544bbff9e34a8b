"""Symbolic foams: idempotents, dots, permutation words and the basis.

Foams are never evaluated topologically.  A foam word records an ordered
list of generators (zips, unzips, digon removals, shifts, dots, identity)
together with bottom and top ladder words; its degree is the sum of the
generator degrees.  Signs are not modeled.

The cellular basis splits into halves and pairs.  Per boundary state,
`cellular_halves` builds one frame of its nodes' residues and neighbours
(`_frame`), and each flow's half foam walks its expanded filling to the
superstandard one on the frame's integers (`_swap_walk`).  The basis
reflects each half once, joins two halves of one state around the dots,
weighs the pair by its parts and emits the pairs in key order unsorted.
`_gen` interns the generators, reflected ones too.
"""

from __future__ import annotations

import itertools
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
_SHIFT = ("shift", 0, 0)


def classify_transposition(res_a: int, res_b: int) -> tuple[str, int]:
    """Generator kind and degree of a transposition swapping residues a, b.

    Adjacent residues give a zip or unzip of degree 1 (a zip when the lower
    position carries the smaller residue), equal residues remove two digons
    at degree -2, and distant residues commute freely at degree 0.
    """
    return _SWAP_KINDS.get(res_a - res_b, _SHIFT)[:2]


# -- half foams and the basis ---------------------------------------------------

_FACE_KINDS = {2: ("digon_removal", -1), 3: ("theta_removal", -3)}


def _half_foam_from_tableau(
    t: StdMultitableau3, frame: tuple, bottom: LTWord, top: LTWord, drop: int
) -> FoamWord:
    """Half foam of a filling whose degree exceeds the superstandard one by
    ``drop``, walked on the frame of its shape: one face removal per
    repeated entry, then one generator per swap of its expanded filling."""
    residues, blocked = frame
    flat, node_of = _node_order(t.rows)
    gens = [_gen(*_FACE_KINDS[k], v, 1, False) for v, k in sorted(Counter(flat).items()) if k > 1]
    for v, low, high in _swap_walk(node_of, blocked, t):
        kind, deg, count = _SWAP_KINDS.get(residues[low] - residues[high], _SHIFT)
        gens.append(_gen(kind, deg, v, count, False))
    if not gens:
        gens.append(_gen("identity", 0, None, 0, False))
    word = _word(bottom, top, tuple(gens))
    if word.degree != drop:
        raise RuntimeError(
            f"half foam degree {word.degree} != degree drop {drop} for {t}"
        )
    return word


class BasisFoam(NamedTuple):
    """Cellular basis element indexed by a shape and two fillings."""

    shape: Multipartition3
    top_tableau: StdMultitableau3
    bottom_tableau: StdMultitableau3
    word: FoamWord

    @property
    def degree(self) -> int:
        return self.word.degree

    def __str__(self):
        return (
            f"F[{self.shape}] top={self.top_tableau} bottom={self.bottom_tableau} "
            f"deg={self.degree}"
        )


def _assemble_basis_foam(
    shape: Multipartition3,
    top: tuple[StdMultitableau3, int, FoamWord],
    bottom: tuple[StdMultitableau3, int, FoamWord],
    dot_gens: tuple[FoamGen, ...],
) -> BasisFoam:
    """Compose the bottom half, the dots and the already reflected top half.

    Each half comes as (filling, filling degree, half foam word); the pair
    weighs its halves and its dots, which must make the two filling degrees.
    """
    t_top, d_top, upper = top
    t_bot, d_bot, lower = bottom
    degree = lower.degree + sum(g.degree for g in dot_gens) + upper.degree
    if degree != d_top + d_bot:
        raise RuntimeError(f"basis foam degree {degree} != {d_top + d_bot} for {shape}")
    word = FoamWord(lower.bottom, upper.top, lower.generators + dot_gens + upper.generators, degree)
    return BasisFoam(shape, t_top, t_bot, word)


def _dot_generators(dots: list[int]) -> tuple[FoamGen, ...]:
    return tuple(_gen("dots", 2 * mk, k, mk, False) for k, mk in enumerate(dots, start=1) if mk)


def cellular_halves(surveys) -> Iterator[tuple[Multipartition3, tuple[FoamGen, ...], list[tuple]]]:
    """Per boundary state of one boundary's surveyed webs: its shape, the dot
    generators and one (filling, filling degree, lower half foam) per flow.

    Each half is built once, from its survey record's filling and degree,
    and a state's halves only when the caller moves on to that state.  The
    state's frame (`_frame`), its idempotent and its dots are computed once;
    a half weighs its filling degree less the superstandard degree, the sum
    of the dots.
    """
    groups: dict[tuple, list[tuple[StdMultitableau3, int, LTWord]]] = {}
    for entry in surveys:
        for j, d, _flow, t in entry.records:
            groups.setdefault(j, []).append((t, d, entry.web.word))
    for group in groups.values():
        shape = group[0][0].shape
        frame = _frame(shape)
        top = _idempotent(frame[0])
        dots = dot_placement(shape)
        d_sup = sum(dots)
        lowers = [(t, d, _half_foam_from_tableau(t, frame, bottom, top, d - d_sup))
                  for t, d, bottom in group]
        yield shape, _dot_generators(dots), lowers


def enumerate_cellular_basis(S) -> list[BasisFoam]:
    """All basis foams over a classical sign string, as a list: one per
    boundary state and ordered pair of flows with that state, in key order
    (residue sequence, top filling's rows, bottom filling's rows).

    States with one residue sequence (one idempotent, the halves' top word)
    are taken together; each state's halves are sorted once, and the
    group's reflected halves once, so no pair is sorted.
    """
    groups: dict[tuple, list] = {}
    for shape, dots, lowers in cellular_halves(survey(enumerate_basis(S))):
        residues = tuple(r for r, _k in reversed(lowers[0][2].top.factors))
        groups.setdefault(residues, []).append((shape, dots, sorted(lowers, key=lambda h: h[0].rows)))
    basis = []
    for residues in sorted(groups):
        uppers = [((t, d, lower.reflected()), state)
                  for state in groups[residues] for t, d, lower in state[2]]
        uppers.sort(key=lambda us: us[0][0].rows)
        for upper, (shape, dots, lowers) in uppers:
            basis.extend(_assemble_basis_foam(shape, upper, lower, dots) for lower in lowers)
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

