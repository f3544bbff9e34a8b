"""From webs with flows to standard multitableaux and back.

The forward map `iota` walks the rungs of a ladder web in application
order: the k-th rung places a node with entry k into each component named
by the moved color subset, at that component's unique fillable node whose
residue equals the rung index.  The inverse `grow` reads the entries of a
standard multitableau level by level and re-emits one ladder rung per
level at the residue of that level's nodes, recovering the web and the
flow; `roundtrip_holds` compares the rungs it reads off the filling's
residues with the web's.  `weight_diagram_tower` draws the same levels as
weight diagrams, for display.

Every rung also carries a classification (family, type, color) determined
by which of its four edge germs are erased and by the flow, and the static
move table names the components each kind places into.  Every rung but a
cap (`cap_step`) has a kind, and the table places into its moved colors.

`survey` is the one place that fills a boundary's flows; the checks, the
cellular basis, the graded dimensions and the roundtrips all read its
records.  It walks each web's flow-prefix tree once, placing a rung's
nodes and adding their degree share at the prefix, so every prefix is
filled and graded once; `iota` and `bkw_degree` stay the per-flow
definitions it is tested against.  It keeps nothing between calls: a
caller that reads one boundary several times holds on to the survey.
"""

from __future__ import annotations

from typing import NamedTuple

from sl3web.flows import (
    COLORS, Flow, _bottom_subsets, _legal, _top_state, flow_from_moves, flow_to_colstrict,
)
from sl3web.ladderweb import LadderWeb, LTWord, build_web
from sl3web.tableaux import (
    Multipartition3,
    Node,
    StdMultitableau3,
    _entry_degree,
    colstrict_to_multipartition,
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


def shape_of_boundary(web: LadderWeb, flow: Flow) -> Multipartition3:
    """Multipartition encoding the boundary pair of the web with flow."""
    return colstrict_to_multipartition(flow_to_colstrict(web, flow))


def cap_step(web: LadderWeb) -> int | None:
    """The first rung (1-based, application order) whose two strands both end there,
    taking weights (j, 3 - j) to (0, 3): a cap, which has no move kind; or None."""
    for step, (i, j) in enumerate(web.word.application_order(), start=1):
        if j < 3 and web.layers[step - 1][i - 1:i + 1] == (j, 3 - j):
            return step
    return None


def _next_node(lengths: list[int], l: int, res: int, m: int) -> Node:
    """The node of residue res that rows of these lengths in component l take next.

    A partition's next cells have distinct contents, so there is at most one.
    """
    for r, c in enumerate(lengths):
        if c - r + m == res:
            if r == 0 or lengths[r - 1] > c:
                return Node(r + 1, c + 1, l)
            break
    raise RuntimeError(
        f"component {l} offers 0 nodes of residue {res}; "
        "the state dictionary and the diagram disagree"
    )


def iota(web: LadderWeb, flow: Flow) -> StdMultitableau3:
    """Standard filling of the boundary multipartition from a web with flow.

    Step k adds a node labeled k with residue equal to the rung index to
    every component named by the moved color subset.  Rows fill left to
    right, so each row offers one candidate cell: the one after its filled
    prefix.
    """
    if (cap := cap_step(web)) is not None:
        raise RuntimeError(f"rung {cap} of {web} is a cap, which matches no move")
    shape = shape_of_boundary(web, flow)
    parts = shape.components
    filled = [[[0] * length for length in p] for p in parts]
    front = [[0] * len(p) for p in parts]  # filled prefix length of every row
    for step, (i, _j) in enumerate(web.word.application_order(), start=1):
        for l in sorted(flow.moves[step - 1]):
            node = _next_node(front[l - 1], l, i, shape.m)
            if node.col > parts[l - 1][node.row - 1]:
                raise RuntimeError(f"component {l} has no room for residue {i} in {shape}")
            filled[l - 1][node.row - 1][node.col - 1] = step
            front[l - 1][node.row - 1] += 1
    return StdMultitableau3(shape, filled)


# -- weight diagrams and the growth algorithm --------------------------------


class WeightDiagram(NamedTuple):
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


def _occupancy(t: StdMultitableau3):
    """Per level j = 0, 1, ..., max entry: the row lengths of t cut at j, per
    component, padded with empty rows so the trivial diagram shows below them.
    The lengths are one list, grown in place as the entries are added."""
    depth = max(t.shape.m, max(len(c) for c in t.shape.components), 1) + 1
    lengths = [[0] * depth for _ in range(3)]
    occ = t.entries()
    for j in range(1, t.max_entry + 2):
        yield lengths
        for node in occ.get(j, ()):
            lengths[node.comp - 1][node.row - 1] += 1


def _diagram(lengths, lo: int, hi: int) -> WeightDiagram:
    """The weight diagram of the occupancy positions length(r) - (r - 1)."""
    positions = [{length - r for r, length in enumerate(comp)} for comp in lengths]
    entries = []
    for p in range(lo, hi + 1):
        holders = [l for l in (1, 2, 3) if p in positions[l - 1]]
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
    hi = max((c[0] for c in t.shape.components if c), default=0) + 1
    return [_diagram(lengths, -len(lengths[0]), hi) for lengths in _occupancy(t)]


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


def roundtrip_holds(web: LadderWeb, flow: Flow, t: StdMultitableau3) -> bool:
    """Whether grow(t), for t = iota(web, flow), returns the web and flow
    unchanged: whether the word and moves it reads off t's residues are theirs."""
    return _read_word(t) == (web.word, flow.moves)


# -- the boundary survey --------------------------------------------------------


class WebSurvey(NamedTuple):
    """A basis web with every flow on it filled once: per flow (state, filling degree,
    flow, iota(web, flow)), and per state its degrees."""

    web: LadderWeb
    records: tuple[tuple, ...]
    by_state: dict


def survey_web(web: LadderWeb, states: dict) -> WebSurvey:
    """Enumerate the flows on one web, with their states, fillings and degrees.

    One depth-first walk over the flow-prefix tree, in `enumerate_flows`
    order, reading a rung's moves off `flows._moves` once per web.  A prefix
    node places the moved colors' nodes as `iota` does and adds that entry's
    share of `bkw_degree` and the move's exponent to the flow's weight, on
    state the walk undoes when it backtracks.  The residue shift is the web's:
    ell less the leading weight-3 strands on top, whose rows are empty in
    every component.  With the shift fixed and a residue naming one row
    (`_next_node`), no placement needs the shape: a leaf checks that the grown
    row lengths, with the web's shift, are the shape `shape_of_boundary` reads
    off the flow.  A top layer fixes the state and the shape, so `states` maps
    it to (state, shape, row lengths padded to the shift), read off its first
    flow, and the leaf hands the state to its flow; `survey` shares the map
    between the webs of a boundary, which share ell and top weights.
    """
    if (cap := cap_step(web)) is not None:
        raise RuntimeError(f"rung {cap} of {web} is a cap, which matches no move")
    order = web.word.application_order()
    top = web.layers[-1]
    m = web.ell - next((s for s, w in enumerate(top) if w != 3), len(top))
    lengths = ([0] * m, [0] * m, [0] * m)  # row lengths grown so far, per component
    rows = tuple([[] for _ in range(m)] for _ in range(3))  # and their entries
    moves, layers = [], [_bottom_subsets(web)]
    records, by_state = [], {}
    table: dict = {}  # (left, right, j) -> _moves, for this web only

    def leaf(degree: int, exponent: int) -> None:
        if (known := states.get(layers[-1])) is None:
            flow = Flow(web, tuple(moves), tuple(layers), exponent, _top_state(layers[-1]))
            shape = shape_of_boundary(web, flow)
            padded = tuple(list(comp) + [0] * (shape.m - len(comp)) for comp in shape.components)
            known = states[layers[-1]] = (flow.state, shape, padded)
        state, shape, padded = known
        flow = Flow(web, tuple(moves), tuple(layers), exponent, state)
        # rows grown out of order, or with another shift than the shape's, differ
        if lengths != padded:
            raise RuntimeError(f"flow {flow.moves} on {web} fills rows {lengths}, not {shape}")
        filled = tuple(tuple(tuple(row) for row in comp if row) for comp in rows)
        records.append((state, degree, flow, StdMultitableau3._make((shape, filled))))
        by_state.setdefault(state, []).append(degree)

    def walk(step: int, degree: int, exponent: int) -> None:
        if step > len(order):
            return leaf(degree, exponent)
        i, j = order[step - 1]
        cur = layers[-1]
        head, tail = cur[:i - 1], cur[i + 1:]
        for h, left, right, e, combo in _legal(table, cur, i, j):
            nodes = [_next_node(lengths[l - 1], l, i, m) for l in combo]
            grown = degree + _entry_degree(lengths, m, nodes, i)
            for node in nodes:
                rows[node.comp - 1][node.row - 1].append(step)
            moves.append(h)
            layers.append(head + (left, right) + tail)
            walk(step + 1, grown, exponent + e)
            moves.pop()
            layers.pop()
            for node in nodes:
                lengths[node.comp - 1][node.row - 1] -= 1
                rows[node.comp - 1][node.row - 1].pop()

    walk(1, 0, 0)
    del walk, leaf  # walk calls itself through its cell: free the cycle now, not at a collection
    return WebSurvey(web, tuple(records), {j: tuple(ds) for j, ds in by_state.items()})


def survey(basis: list[tuple[tuple, LadderWeb]]) -> tuple[WebSurvey, ...]:
    """The webs of a basis, as `enumerate_basis` lists them, each surveyed once."""
    states: dict = {}  # a boundary state's shape is read once, by its first flow
    return tuple(survey_web(web, states) for _rows, web in basis)
