"""From webs with flows to standard multitableaux and back.

The forward map `iota` walks the rungs of a ladder web in application
order: the k-th rung places a node with entry k into each component named
by the moved color subset, at that component's unique fillable node whose
residue equals the rung index.  The inverse `grow` reads the entries of a
standard multitableau level by level and re-emits one ladder rung per
level at the residue of that level's nodes, recovering the web and the
flow; `roundtrip_holds` compares the rungs it reads off the filling's
residues with the web's.

Every rung also carries a classification (family, type, color) determined
by which of its four edge germs are erased and by the flow, and the static
move table names the components each kind places into.  Every rung but a
cap (`cap_step`) has a kind, and the table places into its moved colors.

`survey` is the one place that fills a boundary's flows; the checks, the
cellular basis, the graded dimensions and the roundtrips all read its
records, plain (state, degree, weight, moves, filling) tuples.  It reads
each web's flow prefixes off `flows._flow_walk`, placing a rung's nodes and
adding their degree share at the prefix, so every prefix is filled and
graded once.  It places them as `iota` and `tableaux.bkw_degree` do, with
`tableaux._place` on the abacus: three ints per prefix.  It keeps nothing
between calls: a caller that reads one boundary several times holds on to
the survey.
"""

from __future__ import annotations

from typing import NamedTuple

from sl3web.flows import COLORS, Flow, _flow_walk, _top_state, flow_from_moves
from sl3web.ladderweb import LadderWeb, LTWord, build_web
from sl3web.tableaux import (
    Multipartition3,
    StdMultitableau3,
    _abacus,
    _abacus_rows,
    _empty_abacus,
    _place,
    _row_length,
)


class MoveKind(NamedTuple):
    """A rung's move; as a tuple it is its key in MOVE_TABLE."""

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
# node.  The h/b rows, kept for the growth direction, describe the leftward
# horizontal move, which ladder words built from lowering operators never produce.
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
    below, subsets = web.layers[k - 1], flow.layers[k - 1]
    return _classify(k, below[i - 1], below[i], j, subsets[i - 1], subsets[i], flow.moves[k - 1])


def _classify(k: int, a: int, b: int, j: int, left: frozenset, right: frozenset,
              moved: frozenset) -> MoveKind:
    """The move kind of rung k taking weights (a, b) to (a - j, b + j) and
    moving `moved` from the subset `left` onto the subset `right`."""
    a_top, b_top = a - j, b + j
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


def shape_of_boundary(web: LadderWeb, top: tuple[frozenset, ...]) -> Multipartition3:
    """Multipartition encoding the boundary pair of the web with a flow of this top layer.

    Component c is read off the strands k_1 < ... < k_ell that hold color c on top,
    column c of the column-strict reading: its parts are k_r - r for r = ell, ..., 1,
    weakly decreasing, with the zeros dropped.  The shift m is the most parts of a
    component."""
    strands: tuple[list[int], ...] = ([], [], [])
    for k, subset in enumerate(top, start=1):
        for c in subset:
            strands[c - 1].append(k)
    comps = []
    for c, held in enumerate(strands, start=1):
        if len(held) != web.ell:
            raise RuntimeError(f"color {c} held by {len(held)} strands, not {web.ell}")
        comps.append(tuple(part for r in range(web.ell, 0, -1) if (part := held[r - 1] - r)))
    return Multipartition3._make((tuple(comps), max(map(len, comps))))


def cap_step(web: LadderWeb) -> int | None:
    """The first rung (1-based, application order) whose two strands both end there,
    taking weights (j, 3 - j) to (0, 3): a cap, which has no move kind; or None."""
    for step, (i, j) in enumerate(web.word.application_order(), start=1):
        if j < 3 and web.layers[step - 1][i - 1:i + 1] == (j, 3 - j):
            return step
    return None


def iota(web: LadderWeb, flow: Flow) -> StdMultitableau3:
    """Standard filling of the boundary multipartition from a web with flow.

    Step k adds a node labeled k with residue equal to the rung index to
    every component named by the moved color subset.  Rows fill left to
    right, so each component offers at most one node of a residue: the one
    that `tableaux._place` finds on its abacus.
    """
    if (cap := cap_step(web)) is not None:
        raise RuntimeError(f"rung {cap} of {web} is a cap, which matches no move")
    shape = shape_of_boundary(web, flow.layers[-1])
    parts, m = shape.components, shape.m
    filled = [[[0] * length for length in p] for p in parts]
    masks = _empty_abacus(m)
    for step, (i, _j) in enumerate(web.word.application_order(), start=1):
        masks, _share, cells = _place(masks, sorted(flow.moves[step - 1]), i, m)
        for l, r, c in cells:
            if c >= _row_length(parts[l], r + 1):
                raise RuntimeError(f"component {l + 1} has no room for residue {i} in {shape}")
            filled[l][r][c] = step
    return StdMultitableau3(shape, filled)


# -- the growth algorithm ----------------------------------------------------


def _read_word(t: StdMultitableau3) -> tuple[LTWord, tuple[frozenset, ...]]:
    """The ladder word and the moved colors that `grow` reads off t: level j, up to
    the first absent entry, moves entry j's components by the rung of their common
    residue col - row + m.  (A standard filling's cells left of a node hold smaller
    entries, so at level j the node's particle sits at position col - row.)"""
    levels: dict[int, list[tuple[int, int]]] = {}  # entry -> (residue, component) per node
    for comp, rows in enumerate(t.rows, start=1):
        for row, cells in enumerate(rows, start=1):
            for residue, entry in enumerate(cells, start=1 - row + t.shape.m):
                levels.setdefault(entry, []).append((residue, comp))
    factors, moves = [], []
    j = 1
    while nodes := levels.get(j):
        residue = nodes[0][0]
        if any(other != residue for other, _comp in nodes):
            raise RuntimeError(f"entry {j} moves particles at several positions")
        if residue < 1:
            raise RuntimeError(f"entry {j} yields non-positive ladder index {residue}")
        factors.append((residue, len(nodes)))
        moves.append(frozenset(comp for _residue, comp in nodes))
        j += 1
    return LTWord(tuple(reversed(factors))), tuple(moves)


def grow(t: StdMultitableau3, n: int | None = None) -> tuple[LadderWeb, Flow]:
    """Web with flow grown from a standard multitableau.

    Level j moves, for every component holding entry j, the occupancy
    particle at position p to p + 1; all particles of one level share p and
    the level contributes the rung F_(p + m) moving exactly those
    components as colors.  The result can be elliptic but is always a
    valid ladder web.
    """
    m = t.shape.m
    word, moves = _read_word(t)
    if n is None:
        n = max(max((i + 1 for i, _ in word.factors), default=m + 1), m)
    web = build_web(word, n, m)
    if web is None:
        raise RuntimeError("grown word killed the highest weight vector")
    return web, flow_from_moves(web, moves)


def roundtrip_holds(web: LadderWeb, moves: tuple[frozenset, ...], t: StdMultitableau3) -> bool:
    """Whether grow(t), for t the filling of the flow with these moves on the web,
    returns the web and flow unchanged: whether the word and moves it reads off t's
    residues are theirs."""
    return _read_word(t) == (web.word, moves)


# -- the boundary survey --------------------------------------------------------


class WebSurvey(NamedTuple):
    """A basis web with every flow on it filled once: per flow (state, filling degree,
    weight, moves, filling), and per state its degrees."""

    web: LadderWeb
    records: tuple[tuple, ...]
    by_state: dict


def survey_web(web: LadderWeb, states: dict) -> WebSurvey:
    """Enumerate the flows on one web, with their states, fillings and degrees.

    A reader of `flows._flow_walk`, so in `enumerate_flows` order.  A prefix carries
    (entries placed, degree, abacus, moves, link).  The abacus is three ints, each
    component's beta numbers (`tableaux._place`).  A move places the sorted colors'
    nodes on the parent's abacus as `iota` does, adds that entry's share of
    `bkw_degree`, and links the nodes' cells to the parent's link; the walk adds the
    weight.  The residue shift is the web's: ell less the leading weight-3 strands on
    top, whose rows are empty in every component.  With the shift fixed and a residue
    naming one row, no placement needs the shape: a leaf checks that its abacus is the
    one of the shape `shape_of_boundary` reads off its top layer, with the web's shift,
    and fills the rows from its links.  A top layer fixes the state and the shape, so
    `states` maps it to (state, shape, abacus), read once; `survey` shares the map
    between the webs of a boundary, which share ell and top weights.
    """
    if (cap := cap_step(web)) is not None:
        raise RuntimeError(f"rung {cap} of {web} is a cap, which matches no move")
    residues = [i for i, _j in web.word.application_order()]
    top = web.layers[-1]
    m = web.ell - next((s for s, w in enumerate(top) if w != 3), len(top))

    def step(prefix, move, _layer):
        k, degree, masks, moves, link = prefix
        masks, share, cells = _place(masks, move[4], residues[k], m)
        return k + 1, degree + share, masks, moves + move[:1], (link, cells)

    records, by_state = [], {}
    root = (0, 0, _empty_abacus(m), (), None)
    for layer, weight, (k, degree, masks, moves, link) in _flow_walk(web, root, step):
        if (known := states.get(layer)) is None:
            shape = shape_of_boundary(web, layer)
            grown = tuple(_abacus(comp, shape.m) for comp in shape.components)
            known = states[layer] = (_top_state(layer), shape, grown)
        state, shape, grown = known
        # rows grown out of order, or with another shift than the shape's, differ
        if masks != grown:
            lengths = [_abacus_rows(mask, m) for mask in masks]
            raise RuntimeError(f"flow {moves} on {web} fills rows {lengths}, not {shape}")
        a, b, c = rows = [[[0] * n for n in comp] for comp in shape.components]
        while link is not None:
            link, cells = link
            for l, r, col in cells:
                rows[l][r][col] = k
            k -= 1
        filled = (tuple(map(tuple, a)), tuple(map(tuple, b)), tuple(map(tuple, c)))
        records.append((state, degree, weight, moves, StdMultitableau3._make((shape, filled))))
        by_state.setdefault(state, []).append(degree)
    return WebSurvey(web, tuple(records), {j: tuple(ds) for j, ds in by_state.items()})


def survey(basis: list[tuple[tuple, LadderWeb]]) -> tuple[WebSurvey, ...]:
    """The webs of a basis, as `enumerate_basis` lists them, each surveyed once."""
    states: dict = {}  # a boundary state's shape is read once, by its first flow
    return tuple(survey_web(web, states) for _rows, web in basis)
