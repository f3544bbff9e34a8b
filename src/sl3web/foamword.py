"""Symbolic foams: idempotents, dots, permutation words and the basis.

Foams are never evaluated topologically.  A foam word records an ordered
list of generators (zips, unzips, digon removals, shifts, dots, identity)
together with bottom and top ladder words; its degree is the sum of the
generator degrees.  Signs are not modeled.

The cellular basis splits into halves and pairs.  Each flow's half foam
walks its expanded filling to the superstandard one (`cellular_halves`);
the basis reflects each half once, joins two halves of one boundary state
around the dots and sums its degree once.  `_gen` and `_reflect` intern
the generators.
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
    Node,
    StdMultitableau3,
    _same_residue_after,
    bkw_degree,
    multipartition_to_colstrict,
    residue,
    superstandard,
    swap_keeps_standard,
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


@lru_cache(maxsize=None)
def _reflect(g: FoamGen) -> FoamGen:
    kind = {"zip": "unzip", "unzip": "zip"}.get(g.kind, g.kind)
    return _gen(kind, g.degree, g.position, g.count, not g.mirrored)


class FoamWord:
    """Generator list between two ladder words; its degree is summed once, on first read."""

    __slots__ = ("bottom", "top", "generators", "_degree")

    def __init__(self, bottom: LTWord, top: LTWord, generators: tuple[FoamGen, ...]):
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_degree", None)

    def __setattr__(self, name, value):
        raise AttributeError("FoamWord is immutable")

    def __eq__(self, other):
        return isinstance(other, FoamWord) and (self.bottom, self.top, self.generators) == (
            other.bottom, other.top, other.generators)

    def __hash__(self):
        return hash((self.bottom, self.top, self.generators))

    @property
    def degree(self) -> int:
        if self._degree is None:
            object.__setattr__(self, "_degree", sum(g.degree for g in self.generators))
        return self._degree

    def reflected(self) -> "FoamWord":
        return FoamWord(self.top, self.bottom, tuple(map(_reflect, reversed(self.generators))))

    def __str__(self):
        gens = " . ".join(str(g) for g in self.generators) or "id"
        return f"[{self.bottom}] => [{self.top}] : {gens} (deg {self.degree})"


# -- idempotents and dots ------------------------------------------------------


def idempotent(shape: Multipartition3) -> LTWord:
    """Undivided ladder word of a shape.

    The word has one factor per node, indexed by the residue sequence of
    the shape's superstandard filling; on `boundary_strand_count(shape)`
    strands at level m it never kills the highest weight vector.
    """
    res = superstandard(shape).residue_sequence()
    return LTWord(tuple((r, 1) for r in reversed(res)))


def boundary_strand_count(shape: Multipartition3) -> int:
    """Strand count of the boundary encoded by a shape (its largest entry)."""
    if shape.size == 0:
        return max(shape.m, 1)
    rows = multipartition_to_colstrict(shape, shape.m)
    return max(max(row) for row in rows)


def orthogonality_check(a: Multipartition3, b: Multipartition3) -> bool:
    """Whether the idempotents of two shapes are equal (else orthogonal)."""
    return (
        superstandard(a).residue_sequence() == superstandard(b).residue_sequence()
    )


def dot_placement(shape: Multipartition3) -> list[int]:
    """Dots per node step: addable nodes of equal residue after each node
    of the superstandard filling, counted in its truncation."""
    # the superstandard filling grows the shape in reading order
    lengths: tuple[list[int], ...] = ([], [], [])
    out = []
    for l, comp in enumerate(shape.components, start=1):
        for r, length in enumerate(comp, start=1):
            lengths[l - 1].append(0)
            for c in range(1, length + 1):
                lengths[l - 1][r - 1] = c
                node = Node(r, c, l)
                after, _removable = _same_residue_after(
                    lengths, shape.m, node, residue(node, shape.m)
                )
                if after > 2:
                    raise RuntimeError(
                        f"node {len(out) + 1} of {shape} has {after} same-residue "
                        "addable nodes after it; such a shape is killed and must "
                        "not arise here"
                    )
                out.append(after)
    return out


# -- permutations between fillings ---------------------------------------------


class Transposition(NamedTuple):
    """Swap of entries j and j+1, with the residues at those positions."""

    j: int
    res_low: int  # residue of the entry j before the swap
    res_high: int  # residue of the entry j+1 before the swap

    def __str__(self):
        return f"t{self.j}"


def minimal_permutation(t: StdMultitableau3) -> tuple[list[Transposition], list[StdMultitableau3]]:
    """The `_swap_walk` carrying t (entries all distinct) to its shape's
    superstandard filling, as transpositions with the fillings after each
    swap, the last one the superstandard."""
    occ = t.entries()
    if any(len(nodes) > 1 for nodes in occ.values()):
        raise ValueError("minimal permutation needs all-distinct entries")

    m = t.shape.m
    grid = [[list(row) for row in comp] for comp in t.rows]  # node -> entry
    seq: list[Transposition] = []
    steps: list[StdMultitableau3] = []
    node_of = [occ[v][0] for v in range(1, len(occ) + 1)]
    for v, low, high in _swap_walk(node_of, superstandard(t.shape), t):
        seq.append(Transposition(v, residue(low, m), residue(high, m)))
        grid[low.comp - 1][low.row - 1][low.col - 1] = v + 1
        grid[high.comp - 1][high.row - 1][high.col - 1] = v
        rows = tuple(tuple(map(tuple, comp)) for comp in grid)
        steps.append(StdMultitableau3._trusted(t.shape, rows))
    return seq, steps


def _swap_walk(
    node_of: list[Node], reference: StdMultitableau3, source
) -> Iterator[tuple[int, Node, Node]]:
    """The swaps (v, low, high) of entries v and v + 1, in order, moving the
    entries onto the reference; low held v and high v + 1 before the swap.

    ``node_of[v - 1]`` holds entry v of a standard all-distinct filling and
    is updated in place before each swap is yielded.  For j = 1, 2, ... in
    turn, the value w on j's reference node is walked down by t(w-1), ...,
    tj; entries below j already sit on their reference nodes.  A swap of
    consecutive entries keeps the filling standard exactly when j + 1 is
    neither immediately right of nor below j in one component
    (`swap_keeps_standard`); one that breaks it raises RuntimeError.
    """
    target = reference.entries()
    entry_at = {node: v for v, node in enumerate(node_of, start=1)}
    for j in range(1, len(node_of) + 1):
        (goal,) = target[j]
        w = entry_at[goal]
        if w < j:
            raise RuntimeError("target node holds a smaller entry; not reachable")
        for v in range(w - 1, j - 1, -1):
            low, high = node_of[v - 1], node_of[v]
            if not swap_keeps_standard(low, high):
                raise RuntimeError(
                    f"transposition t{v} left the standard fillings on the way "
                    f"from {source} to {reference}"
                )
            node_of[v - 1], node_of[v] = high, low
            entry_at[low], entry_at[high] = v + 1, v
            yield v, low, high


def permutation_word(seq: list[Transposition]) -> str:
    """Display form with the first applied transposition rightmost."""
    return " ".join(str(tr) for tr in reversed(seq)) or "1"


def classify_transposition(res_a: int, res_b: int) -> tuple[str, int]:
    """Generator kind and degree of a transposition swapping residues a, b.

    Adjacent residues give a zip or unzip of degree 1 (a zip when the lower
    position carries the smaller residue), equal residues remove two digons
    at degree -2, and distant residues commute freely at degree 0.
    """
    if res_a == res_b:
        return "digon_removal", -2
    if abs(res_a - res_b) == 1:
        return ("zip", 1) if res_a < res_b else ("unzip", 1)
    return "shift", 0


# -- half foams and the basis ---------------------------------------------------


def _half_foam_from_tableau(
    t: StdMultitableau3, bottom: LTWord, top: LTWord, drop: int
) -> FoamWord:
    """Half foam of a filling whose degree exceeds the superstandard one by ``drop``.

    The expanded filling numbers the nodes of each entry consecutively,
    leftmost component first, so its nodes in entry order are read straight
    off ``t.entries()``.
    """
    occ = t.entries()
    gens: list[FoamGen] = []
    node_of: list[Node] = []
    for v in range(1, t.max_entry + 1):
        nodes = occ[v]
        if len(nodes) == 2:
            gens.append(_gen("digon_removal", -1, v, 1, False))
        elif len(nodes) == 3:
            gens.append(_gen("theta_removal", -3, v, 1, False))
        node_of.extend(nodes)
    m = t.shape.m
    for v, low, high in _swap_walk(node_of, superstandard(t.shape), t):
        kind, deg = classify_transposition(residue(low, m), residue(high, m))
        gens.append(_gen(kind, deg, v, 2 if kind == "digon_removal" else 0, False))
    if not gens:
        gens.append(_gen("identity", 0, None, 0, False))
    word = FoamWord(bottom=bottom, top=top, generators=tuple(gens))
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

    Each half comes as (filling, filling degree, half foam word).
    """
    t_top, d_top, upper = top
    t_bot, d_bot, lower = bottom
    word = FoamWord(
        bottom=lower.bottom,
        top=upper.top,
        generators=lower.generators + dot_gens + upper.generators,
    )
    if word.degree != d_top + d_bot:
        raise RuntimeError(f"basis foam degree {word.degree} != {d_top + d_bot} for {shape}")
    return BasisFoam(shape, t_top, t_bot, word)


def _dot_generators(shape: Multipartition3) -> tuple[FoamGen, ...]:
    return tuple(
        _gen("dots", 2 * mk, k, mk, False)
        for k, mk in enumerate(dot_placement(shape), start=1)
        if mk
    )


def cellular_halves(surveys) -> Iterator[tuple[Multipartition3, tuple[FoamGen, ...], list[tuple]]]:
    """Per boundary state of one boundary's surveyed webs: its shape, the dot
    generators and one (filling, filling degree, lower half foam) per flow.

    Each half is built once, from its survey record's filling and degree,
    and a state's halves only when the caller moves on to that state.  A
    half weighs its filling degree less the state's superstandard degree,
    which is computed once per state.
    """
    groups: dict[tuple, list[tuple[StdMultitableau3, int, LTWord]]] = {}
    for entry in surveys:
        for j, d, _flow, t in entry.records:
            groups.setdefault(j, []).append((t, d, entry.web.word))
    for group in groups.values():
        shape = group[0][0].shape
        top = idempotent(shape)
        d_sup = bkw_degree(superstandard(shape))[0]
        lowers = [
            (t, d, _half_foam_from_tableau(t, bottom, top, d - d_sup)) for t, d, bottom in group
        ]
        yield shape, _dot_generators(shape), lowers


def enumerate_cellular_basis(S) -> list[BasisFoam]:
    """All basis foams over a classical sign string, deterministically keyed:
    one per boundary state and ordered pair of flows with that state."""
    keyed = []
    for shape, dot_gens, lowers in cellular_halves(survey(enumerate_basis(S))):
        res = superstandard(shape).residue_sequence()
        uppers = [(t, d, lower.reflected()) for t, d, lower in lowers]
        for upper, lower in itertools.product(uppers, lowers):
            foam = _assemble_basis_foam(shape, upper, lower, dot_gens)
            keyed.append(((res, upper[0].rows, lower[0].rows), foam))
    keyed.sort(key=lambda kf: kf[0])
    return [foam for _key, foam in keyed]


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

