"""From webs with flows to standard multitableaux and back.

The forward map `iota` walks the rungs of a ladder web in application
order: the k-th rung places a node with entry k into each component named
by the moved color subset, at that component's unique fillable node whose
residue equals the rung index.  The inverse `grow` reads a standard
multitableau as a tower of weight diagrams and re-emits one ladder rung
per level, recovering the web and the flow.

Every rung also carries a classification (family, type, color) determined
by which of its four edge germs are erased and by the flow; `iota`
cross-checks each placement against the static move table, so a
miscalibration of the state dictionary fails loudly.

`survey` is the one place that enumerates a boundary's flows and fills
them; the checks, the cellular basis, the graded dimensions and the
roundtrips all read its records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from sl3web.flows import COLORS, Flow, boundary_state, enumerate_flows, flow_to_colstrict
from sl3web.ladderweb import LadderWeb, LTWord, build_web, enumerate_basis
from sl3web.tableaux import (
    Multipartition3,
    Node,
    StdMultitableau3,
    bkw_degree,
    colstrict_to_multipartition,
)


@dataclass(frozen=True)
class MoveKind:
    family: str  # arc | y | h | shift_right | shift_left | empty_shift
    type: str | None  # 'a' or 'b'; None for empty_shift
    color: int | None  # 1, 0 or -1; None for empty_shift
    primed: bool = False

    def __str__(self):
        if self.family == "empty_shift":
            return "empty_shift"
        prime = "'" if self.primed else ""
        fam = {"shift_right": "right", "shift_left": "left", "arc": "Arc", "y": "Y", "h": "H"}[
            self.family
        ]
        return f"{fam}({self.type},{self.color}{prime})"


# Placement table: (family, type, color, primed) -> components receiving a
# node.  The h/b rows describe the leftward horizontal move, which ladder
# words built from lowering operators never produce; they are kept for the
# growth direction and flagged if ever reached.
MOVE_TABLE: dict[tuple[str, str | None, int | None, bool], tuple[int, ...]] = {
    ("arc", "a", 1, False): (2, 3),
    ("arc", "a", 0, False): (1, 3),
    ("arc", "a", -1, False): (1, 2),
    ("arc", "b", 1, False): (3,),
    ("arc", "b", 0, False): (2,),
    ("arc", "b", -1, False): (1,),
    ("y", "a", 1, False): (2,),
    ("y", "a", 1, True): (1,),
    ("y", "a", 0, False): (3,),
    ("y", "a", 0, True): (1,),
    ("y", "a", -1, False): (3,),
    ("y", "a", -1, True): (2,),
    ("y", "b", 1, False): (3,),
    ("y", "b", 1, True): (2,),
    ("y", "b", 0, False): (3,),
    ("y", "b", 0, True): (1,),
    ("y", "b", -1, False): (2,),
    ("y", "b", -1, True): (1,),
    ("h", "a", 1, False): (2,),
    ("h", "a", 1, True): (1,),
    ("h", "a", 0, False): (3,),
    ("h", "a", 0, True): (1,),
    ("h", "a", -1, False): (3,),
    ("h", "a", -1, True): (2,),
    ("h", "b", 1, False): (2,),
    ("h", "b", 1, True): (3,),
    ("h", "b", 0, False): (1,),
    ("h", "b", 0, True): (3,),
    ("h", "b", -1, False): (1,),
    ("h", "b", -1, True): (2,),
    ("shift_right", "a", 1, False): (1,),
    ("shift_right", "a", 0, False): (2,),
    ("shift_right", "a", -1, False): (3,),
    ("shift_right", "b", 1, False): (1, 2),
    ("shift_right", "b", 0, False): (1, 3),
    ("shift_right", "b", -1, False): (2, 3),
    ("shift_left", "a", 1, False): (2, 3),
    ("shift_left", "a", 0, False): (1, 3),
    ("shift_left", "a", -1, False): (1, 2),
    ("shift_left", "b", 1, False): (3,),
    ("shift_left", "b", 0, False): (2,),
    ("shift_left", "b", -1, False): (1,),
    ("empty_shift", None, None, False): (1, 2, 3),
}


def _pair_state(pair: frozenset) -> int:
    (missing,) = frozenset(COLORS) - pair
    return missing - 2


def classify_step(web: LadderWeb, flow: Flow, k: int) -> MoveKind:
    """The move kind of the k-th rung (1-based, application order)."""
    order = web.word.application_order()
    if not 1 <= k <= len(order):
        raise ValueError(f"step {k} out of range 1..{len(order)}")
    i, j = order[k - 1]
    below = web.layers[k - 1]
    a, b = below[i - 1], below[i]
    a_top, b_top = a - j, b + j
    subsets = flow.subsets()[k - 1]
    left, right = subsets[i - 1], subsets[i]
    moved = flow.moves[k - 1]

    erased_bl, erased_br = a in (0, 3), b in (0, 3)
    erased_tl, erased_tr = a_top in (0, 3), b_top in (0, 3)

    if erased_bl and erased_br and erased_tl and erased_tr:
        return MoveKind("empty_shift", None, None)
    if erased_bl and erased_br:
        # arc: both strands born at this rung
        if j == 2:
            (s,) = left - moved
            return MoveKind("arc", "a", 2 - s)
        return MoveKind("arc", "b", _pair_state(frozenset(COLORS) - moved))
    if erased_bl and erased_tr:
        if j == 1:
            (c,) = moved
            return MoveKind("shift_left", "b", c - 2)
        (r,) = right
        return MoveKind("shift_left", "a", 2 - r)
    if erased_br and erased_tl:
        if j == 1:
            (c,) = moved
            return MoveKind("shift_right", "a", 2 - c)
        return MoveKind("shift_right", "b", _pair_state(moved))
    erased = [erased_bl, erased_br, erased_tl, erased_tr]
    if sum(erased) == 1:
        (c,) = moved
        if erased_bl or erased_tl:
            # y of type b: color read off the visible bottom-right strand,
            # primed when the smaller of the two colors it could merge with
            # is the one that moved
            (r,) = right
            primed = c == min(frozenset(COLORS) - right)
            return MoveKind("y", "b", 2 - r, primed)
        # y of type a: color read off the visible bottom-left pair
        primed = c == min(left)
        return MoveKind("y", "a", _pair_state(left), primed)
    if not any(erased):
        (c,) = moved
        primed = c == min(left)
        return MoveKind("h", "a", _pair_state(left), primed)
    raise RuntimeError(
        f"rung {k} with weights ({a},{b})->({a_top},{b_top}) matches no move"
    )


def shape_of_boundary(web: LadderWeb, flow: Flow) -> Multipartition3:
    """Multipartition encoding the boundary pair of the web with flow."""
    return colstrict_to_multipartition(flow_to_colstrict(web, flow))


def iota(web: LadderWeb, flow: Flow) -> StdMultitableau3:
    """Standard filling of the boundary multipartition from a web with flow.

    Step k adds a node labeled k with residue equal to the rung index to
    every component named by the moved color subset.
    """
    shape = shape_of_boundary(web, flow)
    m = shape.m
    filled: dict[int, list[list[int]]] = {
        l: [[0] * length for length in shape.component(l).parts] for l in (1, 2, 3)
    }

    def fillable_node(l: int, res: int) -> Node:
        comp = shape.component(l)
        hits = []
        for r, length in enumerate(comp.parts, start=1):
            for c in range(1, length + 1):
                if filled[l][r - 1][c - 1]:
                    continue
                if c - r + m != res:
                    continue
                north_ok = r == 1 or filled[l][r - 2][c - 1]
                west_ok = c == 1 or filled[l][r - 1][c - 2]
                if north_ok and west_ok:
                    hits.append(Node(r, c, l))
        if len(hits) != 1:
            raise RuntimeError(
                f"component {l} offers {len(hits)} nodes of residue {res}; "
                "the state dictionary and the shape disagree"
            )
        return hits[0]

    order = web.word.application_order()
    for step, (i, _j) in enumerate(order, start=1):
        moved = flow.moves[step - 1]
        kind = classify_step(web, flow, step)
        expected = MOVE_TABLE[(kind.family, kind.type, kind.color, kind.primed)]
        if tuple(sorted(moved)) != expected:
            raise RuntimeError(
                f"step {step}: moved colors {sorted(moved)} do not match "
                f"move {kind} placing into {expected}"
            )
        for l in sorted(moved):
            node = fillable_node(l, i)
            filled[l][node.row - 1][node.col - 1] = step
    rows = tuple(
        tuple(tuple(row) for row in filled[l]) for l in (1, 2, 3)
    )
    return StdMultitableau3(shape, rows)


# -- weight diagrams and the growth algorithm --------------------------------


@dataclass(frozen=True)
class WeightDiagram:
    """Z-graded entries over {x, o, +1, 0, -1}, optionally starred.

    Entries equal the trivial diagram (x at positions <= 0, o above)
    outside the stored window.
    """

    entries: tuple[tuple[int, str, bool], ...]  # (position, symbol, starred)

    @staticmethod
    def trivial_symbol(position: int) -> str:
        return "x" if position <= 0 else "o"

    def symbol(self, position: int) -> tuple[str, bool]:
        for p, s, star in self.entries:
            if p == position:
                return s, star
        return self.trivial_symbol(position), False

    def window(self, lo: int, hi: int) -> tuple[str, ...]:
        out = []
        for p in range(lo, hi + 1):
            s, star = self.symbol(p)
            out.append(s + ("*" if star else ""))
        return tuple(out)

    def __str__(self):
        ps = [p for p, _, _ in self.entries]
        lo, hi = min(ps + [0]) - 1, max(ps + [0]) + 1
        return " ".join(self.window(lo, hi))


def _occupancy_vectors(t: StdMultitableau3, j: int) -> list[list[int]]:
    """Per component, the positions row_length(r) - (r - 1) of the truncation.

    Row r of the truncation at j keeps the entries <= j of row r of t.
    """
    depth = max(t.shape.m, max(len(c) for c in t.shape.components), 1) + 1
    out = []
    for comp in t.rows:
        lengths = [sum(v <= j for v in row) for row in comp]
        lengths += [0] * (depth - len(lengths))
        out.append([length - r for r, length in enumerate(lengths)])
    return out


def _diagram_from_vectors(vectors, lo: int, hi: int) -> WeightDiagram:
    entries = []
    for p in range(lo, hi + 1):
        holders = [l for l in (1, 2, 3) if p in set(vectors[l - 1])]
        count = len(holders)
        if count == 3:
            sym, star = "x", False
        elif count == 0:
            sym, star = "o", False
        else:
            star = count == 2
            if holders in ([1], [1, 2]):
                sym = "1"
            elif holders in ([2], [1, 3]):
                sym = "0"
            else:  # [3] or [2, 3]
                sym = "-1"
        if sym != WeightDiagram.trivial_symbol(p) or star:
            entries.append((p, sym, star))
    return WeightDiagram(tuple(entries))


def weight_diagram_tower(t: StdMultitableau3) -> list[WeightDiagram]:
    """Tower of weight diagrams, one level per entry, trivial at the bottom."""
    k = t.max_entry
    depth = max(t.shape.m, max(len(c) for c in t.shape.components), 1) + 1
    hi = max((c.row_length(1) for c in t.shape.components), default=0) + 1
    lo = -depth
    out = []
    for j in range(0, k + 1):
        vectors = _occupancy_vectors(t, j)
        out.append(_diagram_from_vectors(vectors, lo, hi))
    return out


def grow(t: StdMultitableau3, n: int | None = None) -> tuple[LadderWeb, Flow]:
    """Web with flow grown from a standard multitableau.

    Level j moves, for every component holding entry j, the occupancy
    particle at position p to p + 1; all particles of one level share p and
    the level contributes the rung F_(p + m) moving exactly those
    components as colors.  The result can be elliptic but is always a
    valid ladder web.
    """
    m = t.shape.m
    k = t.max_entry
    occ = t.entries()
    factors_app: list[tuple[int, int]] = []
    moves: list[frozenset] = []
    for j in range(1, k + 1):
        vectors = _occupancy_vectors(t, j - 1)
        comps = [node.comp for node in occ[j]]
        positions = {vectors[node.comp - 1][node.row - 1] for node in occ[j]}
        if len(positions) != 1:
            raise RuntimeError(f"entry {j} moves particles at several positions")
        (p,) = positions
        index = p + m
        if index < 1:
            raise RuntimeError(f"entry {j} yields non-positive ladder index {index}")
        factors_app.append((index, len(comps)))
        moves.append(frozenset(comps))
    if n is None:
        n = max((i + 1 for i, _ in factors_app), default=m + 1)
        n = max(n, m)
    word = LTWord(tuple(reversed(factors_app)))
    web = build_web(word, n, m)
    if web is None:
        raise RuntimeError("grown word killed the highest weight vector")
    return web, Flow(web, tuple(moves))


def roundtrip_holds(web: LadderWeb, flow: Flow, t: StdMultitableau3) -> bool:
    """Whether grow(t), for t = iota(web, flow), returns the web and flow unchanged."""
    web2, flow2 = grow(t, n=web.n)
    return web2.word == web.word and flow2.moves == flow.moves


# -- the boundary survey --------------------------------------------------------


@dataclass(frozen=True)
class WebSurvey:
    """A basis web with every flow on it enumerated and filled once."""

    web: LadderWeb
    # per flow: (boundary state, filling degree, flow, filling iota(web, flow))
    records: tuple[tuple, ...]
    # boundary state -> filling degrees of the flows with that state, in flow order
    by_state: dict[tuple[int, ...], tuple[int, ...]] = field(compare=False, repr=False)


def survey_web(web: LadderWeb) -> WebSurvey:
    """Enumerate the flows on one web, with their states, fillings and degrees."""
    records, by_state = [], {}
    for flow in enumerate_flows(web):
        t = iota(web, flow)
        j, d = boundary_state(web, flow), bkw_degree(t)[0]
        records.append((j, d, flow, t))
        by_state.setdefault(j, []).append(d)
    return WebSurvey(web, tuple(records), {j: tuple(ds) for j, ds in by_state.items()})


@lru_cache(maxsize=None)
def survey(signs: str) -> tuple[WebSurvey, ...]:
    """The basis webs over a classical sign string, each surveyed once."""
    return tuple(survey_web(web) for _rows, web in enumerate_basis(signs))
