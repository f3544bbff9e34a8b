"""Symbolic foams: idempotents, dots, permutation words and the basis.

Foams are never evaluated topologically.  A foam word records an ordered
list of generators (zips, unzips, digon removals, shifts, dots, identity)
together with bottom and top ladder words; its degree is the sum of the
generator degrees.  Signs are not modeled.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from sl3web.bijection import WebSurvey, grow, iota, survey, survey_web
from sl3web.flows import Flow
from sl3web.laurent import LaurentPoly
from sl3web.ladderweb import LadderWeb, LTWord, build_web
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


@dataclass(frozen=True)
class FoamGen:
    """One foam generator with its degree contribution."""

    kind: str  # zip | unzip | digon_removal | theta_removal | shift | dots | identity
    degree: int
    position: int | None = None  # word position acted on, where meaningful
    count: int = 0  # digons removed, or dots placed
    mirrored: bool = False  # True inside a reflected (upper) half

    def reflected(self) -> "FoamGen":
        kind = {"zip": "unzip", "unzip": "zip"}.get(self.kind, self.kind)
        return FoamGen(kind, self.degree, self.position, self.count, not self.mirrored)

    def __str__(self):
        tag = f"{self.kind}"
        if self.position is not None:
            tag += f"@{self.position}"
        if self.count:
            tag += f"({self.count})"
        if self.mirrored:
            tag += "*"
        return tag


@dataclass(frozen=True)
class FoamWord:
    """Generator list between two ladder words, with cached degree."""

    bottom: LTWord
    top: LTWord
    generators: tuple[FoamGen, ...]

    @property
    def degree(self) -> int:
        return sum(g.degree for g in self.generators)

    def reflected(self) -> "FoamWord":
        return FoamWord(
            bottom=self.top,
            top=self.bottom,
            generators=tuple(g.reflected() for g in reversed(self.generators)),
        )

    def __str__(self):
        gens = " . ".join(str(g) for g in self.generators) or "id"
        return f"[{self.bottom}] => [{self.top}] : {gens} (deg {self.degree})"


# -- idempotents and dots ------------------------------------------------------


@lru_cache(maxsize=None)
def idempotent(shape: Multipartition3, n: int | None = None) -> tuple[LTWord, LadderWeb]:
    """Undivided ladder word of a shape and its (possibly elliptic) web.

    The word has one factor per node, indexed by the residue sequence of
    the shape's superstandard filling; it never kills the highest weight
    vector.
    """
    res = superstandard(shape).residue_sequence()
    factors = tuple((r, 1) for r in reversed(res))
    word = LTWord(factors)
    if n is None:
        n = boundary_strand_count(shape)
    web = build_web(word, n, shape.m)
    if web is None:
        raise RuntimeError(f"idempotent word of {shape} killed the highest weight vector")
    return word, web


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
    return list(_dot_vector(shape))


@lru_cache(maxsize=None)
def _dot_vector(shape: Multipartition3) -> tuple[int, ...]:
    # the superstandard filling grows the shape in reading order
    lengths: tuple[list[int], ...] = ([], [], [])
    out = []
    for l, comp in enumerate(shape.components, start=1):
        for r, length in enumerate(comp.parts, start=1):
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
    return tuple(out)


# -- permutations between fillings ---------------------------------------------


@dataclass(frozen=True)
class Transposition:
    """Swap of entries j and j+1, with the residues at those positions."""

    j: int
    res_low: int  # residue of the entry j before the swap
    res_high: int  # residue of the entry j+1 before the swap

    def __str__(self):
        return f"t{self.j}"


def minimal_permutation(
    t: StdMultitableau3, reference: StdMultitableau3 | None = None
) -> tuple[list[Transposition], list[StdMultitableau3]]:
    """Transpositions carrying t to the reference filling, applied in order.

    Works on fillings with all-distinct entries.  For j = 1, 2, ... in turn,
    if j is not on its reference node, the value w occupying that node is
    walked down one step at a time by t(w-1), ..., tj; entries below j
    already sit on their reference nodes and are never touched.  Every
    swap must keep the filling standard.  For consecutive entries of a
    standard all-distinct filling that holds exactly when j + 1 is neither
    immediately right of nor immediately below j in one component
    (`swap_keeps_standard`), because no other pair of entries changes
    order; a swap that breaks the rule raises RuntimeError.  Returns
    (transpositions, intermediates) where intermediates starts after the
    first swap and ends at the reference.
    """
    if reference is None:
        reference = superstandard(t.shape)
    if t.shape != reference.shape:
        raise ValueError("fillings have different shapes")
    occ = t.entries()
    if any(len(nodes) > 1 for nodes in occ.values()):
        raise ValueError("minimal permutation needs all-distinct entries")

    m = t.shape.m
    node_of = {v: nodes[0] for v, nodes in occ.items()}
    grid = [[list(row) for row in comp] for comp in t.rows]  # node -> entry
    target = reference.entries()
    seq: list[Transposition] = []
    steps: list[StdMultitableau3] = []
    for j in range(1, len(node_of) + 1):
        (goal,) = target[j]
        w = grid[goal.comp - 1][goal.row - 1][goal.col - 1]
        if w < j:
            raise RuntimeError("target node holds a smaller entry; not reachable")
        for v in range(w - 1, j - 1, -1):
            low, high = node_of[v], node_of[v + 1]
            if not swap_keeps_standard(low, high):
                raise RuntimeError(
                    f"transposition t{v} left the standard fillings on the way "
                    f"from {t} to {reference}"
                )
            seq.append(Transposition(v, residue(low, m), residue(high, m)))
            node_of[v], node_of[v + 1] = high, low
            grid[low.comp - 1][low.row - 1][low.col - 1] = v + 1
            grid[high.comp - 1][high.row - 1][high.col - 1] = v
            rows = tuple(tuple(map(tuple, comp)) for comp in grid)
            steps.append(StdMultitableau3._trusted(t.shape, rows))
    return seq, steps


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


def half_foam(web: LadderWeb, flow: Flow) -> FoamWord:
    """Foam from a web with flow up to its shape's idempotent web.

    Removes the internal faces created by expanding divided powers, then
    permutes the expanded filling to the superstandard one, recording one
    generator per transposition.  Its degree equals the degree of the
    filling minus the degree of the superstandard filling.
    """
    t = iota(web, flow)
    return _half_foam_from_tableau(t, web.word)


def _half_foam_from_tableau(t: StdMultitableau3, bottom: LTWord) -> FoamWord:
    shape = t.shape
    expanded = t.expand_repeats()
    gens: list[FoamGen] = []
    for v, nodes in sorted(t.entries().items()):
        if len(nodes) == 2:
            gens.append(FoamGen("digon_removal", -1, position=v, count=1))
        elif len(nodes) == 3:
            gens.append(FoamGen("theta_removal", -3, position=v, count=1))
    reference = superstandard(shape)
    seq, _steps = minimal_permutation(expanded, reference)
    for tr in seq:
        kind, deg = classify_transposition(tr.res_low, tr.res_high)
        count = 2 if kind == "digon_removal" else 0
        gens.append(FoamGen(kind, deg, position=tr.j, count=count))
    if not gens:
        gens.append(FoamGen("identity", 0))
    top, _web = idempotent(shape, n=_strands_of_tableau(t, bottom))
    word = FoamWord(bottom=bottom, top=top, generators=tuple(gens))
    expect = bkw_degree(t)[0] - bkw_degree(reference)[0]
    if word.degree != expect:
        raise RuntimeError(
            f"half foam degree {word.degree} != degree drop {expect} for {t}"
        )
    return word


def _strands_of_tableau(t: StdMultitableau3, bottom: LTWord) -> int:
    n = max((i + 1 for i, _ in bottom.factors), default=1)
    return max(n, boundary_strand_count(t.shape))


@dataclass(frozen=True)
class BasisFoam:
    """Cellular basis element indexed by a shape and two fillings."""

    shape: Multipartition3
    top_tableau: StdMultitableau3
    bottom_tableau: StdMultitableau3
    word: FoamWord

    @property
    def degree(self) -> int:
        return self.word.degree

    def key(self) -> tuple:
        return (
            superstandard(self.shape).residue_sequence(),
            self.top_tableau.rows,
            self.bottom_tableau.rows,
        )

    def __str__(self):
        return (
            f"F[{self.shape}] top={self.top_tableau} bottom={self.bottom_tableau} "
            f"deg={self.degree}"
        )


def basis_foam(
    shape: Multipartition3,
    top_tableau: StdMultitableau3,
    bottom_tableau: StdMultitableau3,
) -> BasisFoam:
    """Basis foam for two fillings of one shape, both in the image of iota.

    Both fillings are turned back into webs with flows; the word composes
    the bottom half upward, the dotted idempotent, and the reflected top
    half.  Its degree is the sum of the two filling degrees.
    """
    if top_tableau.shape != shape or bottom_tableau.shape != shape:
        raise ValueError("fillings do not match the shape")
    web_b, flow_b = grow(bottom_tableau)
    web_t, flow_t = grow(top_tableau)
    if iota(web_b, flow_b) != bottom_tableau or iota(web_t, flow_t) != top_tableau:
        raise ValueError("fillings are not in the image of the web-to-filling map")
    lower = _half_foam_from_tableau(bottom_tableau, web_b.word)
    upper = _half_foam_from_tableau(top_tableau, web_t.word).reflected()
    return _assemble_basis_foam(
        shape, top_tableau, upper, bottom_tableau, lower, _dot_generators(shape)
    )


def involution(foam: BasisFoam) -> BasisFoam:
    """Reflect a basis foam, swapping its two fillings."""
    return BasisFoam(
        shape=foam.shape,
        top_tableau=foam.bottom_tableau,
        bottom_tableau=foam.top_tableau,
        word=foam.word.reflected(),
    )


def _assemble_basis_foam(
    shape: Multipartition3,
    t_top: StdMultitableau3,
    upper_top: FoamWord,
    t_bot: StdMultitableau3,
    lower_bot: FoamWord,
    dot_gens: tuple[FoamGen, ...],
) -> BasisFoam:
    """Compose the bottom half, the dots and the already reflected top half."""
    word = FoamWord(
        bottom=lower_bot.bottom,
        top=upper_top.top,
        generators=lower_bot.generators + dot_gens + upper_top.generators,
    )
    foam = BasisFoam(shape, t_top, t_bot, word)
    expect = bkw_degree(t_top)[0] + bkw_degree(t_bot)[0]
    if foam.degree != expect:
        raise RuntimeError(f"basis foam degree {foam.degree} != {expect} for {shape}")
    return foam


def _dot_generators(shape: Multipartition3) -> tuple[FoamGen, ...]:
    return tuple(
        FoamGen("dots", 2 * mk, position=k, count=mk)
        for k, mk in enumerate(dot_placement(shape), start=1)
        if mk
    )


def enumerate_cellular_basis(S) -> list[BasisFoam]:
    """All basis foams over a classical sign string, deterministically keyed.

    One element per boundary state and ordered pair of flows with that
    state, ranging over all pairs of basis webs.
    """
    # per flow: its filling, its half foam and that half reflected
    halves: dict[tuple, list[tuple[StdMultitableau3, FoamWord, FoamWord]]] = {}
    for entry in survey(str(S)):
        for j, _d, _flow, t in entry.records:
            lower = _half_foam_from_tableau(t, entry.web.word)
            halves.setdefault(j, []).append((t, lower, lower.reflected()))
    out = []
    for j in sorted(halves):
        group = halves[j]
        shape = group[0][0].shape
        dot_gens = _dot_generators(shape)
        for (t_top, _, upper), (t_bot, lower, _) in itertools.product(group, repeat=2):
            out.append(
                _assemble_basis_foam(shape, t_top, upper, t_bot, lower, dot_gens)
            )
    return sorted(out, key=lambda f: f.key())


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


def web_of_shape(shape: Multipartition3) -> LadderWeb:
    """The basis web whose canonical boundary data the shape encodes."""
    from sl3web.ladderweb import is_semistandard, web_from_tableau

    rows = multipartition_to_colstrict(shape, shape.m)
    if not is_semistandard(rows):
        raise ValueError(f"{shape} does not encode a canonical boundary pair")
    return web_from_tableau(rows)


def graded_dim(shape_a: Multipartition3, shape_b: Multipartition3) -> LaurentPoly:
    """Graded dimension for two basis-web shapes, shifted by the strand count.

    Equals the bracket of the glued pair of the two encoded webs.
    """
    if shape_a.size != shape_b.size:
        raise ValueError("shapes have different node counts")
    u, v = web_of_shape(shape_a), web_of_shape(shape_b)
    if u.boundary != v.boundary:
        raise ValueError("shapes encode different boundaries")
    return graded_dim_pair(survey_web(u), survey_web(v)).shift(-u.n)
