"""Flows on ladder webs as state-subset labelings.

A flow assigns to every edge of a ladder web a subset of the three colors
{1, 2, 3} whose size is the edge label; at every rung the subset leaving a
strand is carried across and must land on colors absent from the target
strand.  A flow is stored as the tuple of moved subsets, one per rung, in
application order.  `_moves` lists a rung's legal moves, each walk keeps them in
a table local to the call, and rung exponents have no cache.  `_flow_walk` is the
one walk over a web's flow prefixes, rung by rung on one move table; each reader
builds only what it needs of a prefix from its parent's: `enumerate_flows` the
moves and layers tuples, `flow_at` a link to the parent, unwound for the one flow
it returns, the CLI's `flows enumerate` the rows' text (a state's from its top layer),
and `bijection.survey_web` the filling's row lengths, degree and moves.

Every rung transition carries an integer exponent (an inversion count
between the moved colors and the colors staying behind or already present);
the sum over rungs is the weight of the flow on a web with boundary, carried
by the flow as `exponent` next to its boundary `state`.  The flow vector
A_w(j) of a web sums q^-weight over its flows of state j.  `_top_counts`
counts a web's flow prefixes per exponent and top layer, building no flow; a
top layer fixes the state, so `web_vector` is one polynomial per top layer, and
the CLI's `flows expand` writes one text per state, from the top layer and its counts.
`flow_vector` sums (state, weight) pairs, the checks' from the survey's records.
A closed web, presented as a pair (u, v) glued along a common boundary,
adds one plus the boundary state per strand, so its bracket is the
`pairing` sum_j q^-(len j + sum j) A_u(j) A_v(j) of the two vectors;
`bracket` pairs the halves' layer counts by top layer, as the halves share
their top weights.  `closed_flows` pairs the halves' flows one by one, the
flow-by-flow side that the tests and reports/calibration.md weigh it against.
The convention is pinned by reports/calibration.md and by the exact
divided-power identity that the tests check against single-color moves.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from sl3web.laurent import LaurentPoly, at_minus_q
from sl3web.ladderweb import LadderWeb

COLORS = (1, 2, 3)


# -- transition exponents ----------------------------------------------------


def transition_exponent(left: frozenset, right: frozenset, moved: frozenset) -> int:
    """Exponent of the divided-power transition moving `moved` left-to-right: for each
    moved color, the colors above it already on the right less those staying behind."""
    if not moved <= left or not moved.isdisjoint(right):
        raise ValueError("moved colors must leave the left strand onto free colors")
    e = 0
    for h in moved:
        for b in right:
            if b > h and b not in left:
                e += 1
        for b in left:
            if b > h and b not in right and b not in moved:
                e -= 1
    return e


# -- flows on a single ladder web -------------------------------------------


class Flow(NamedTuple):
    """Moved color subsets per rung, in application order, strand subsets per layer,
    bottom to top, the weight (the rungs' transition exponents summed) and the
    boundary state.  Built by `enumerate_flows`, `flow_at` or `flow_from_moves`."""

    web: LadderWeb
    moves: tuple[frozenset, ...]
    layers: tuple[tuple[frozenset, ...], ...]
    exponent: int
    state: tuple[int, ...]


def _bottom_subsets(web: LadderWeb) -> tuple[frozenset, ...]:
    return tuple(frozenset(COLORS) if w == 3 else frozenset() for w in web.layers[0])


# `state_of_subset` of a classical strand: it holds as many colors as its weight
_SUBSET_STATE = {frozenset({1}): 1, frozenset({2}): 0, frozenset({3}): -1,
                 frozenset({2, 3}): -1, frozenset({1, 3}): 0, frozenset({1, 2}): 1}


def _top_state(top: tuple[frozenset, ...]) -> tuple[int, ...]:
    return tuple([_SUBSET_STATE[s] for s in top if s in _SUBSET_STATE])


def _moves(left: frozenset, right: frozenset, j: int) -> list[tuple]:
    """A rung's legal moves of j colors from `left` onto `right`, in flow order, as
    (moved subset, left after, right after, exponent, sorted colors).  Callers keep
    them in a dict local to one call, not in a module cache: no table outlives the
    call, and a rule patched in as `flows.transition_exponent` reaches every one."""
    out = []
    for combo in itertools.combinations(sorted(left - right), j):
        h = frozenset(combo)
        out.append((h, left - h, right | h, transition_exponent(left, right, h), combo))
    return out


def flow_from_moves(web: LadderWeb, moves) -> Flow:
    """The flow on the web moving these color subsets, one per rung in
    application order; ValueError on a wrong count or an illegal move."""
    order = web.word.application_order()
    if len(moves) != len(order):
        raise ValueError(f"{len(moves)} moves for {len(order)} rungs")
    layers, exponent = [_bottom_subsets(web)], 0
    for step, ((i, j), h) in enumerate(zip(order, moves)):
        cur = list(layers[-1])
        if len(h) != j or not h <= cur[i - 1] or (h & cur[i]):
            raise ValueError(f"illegal move {sorted(h)} at step {step + 1}")
        exponent += transition_exponent(cur[i - 1], cur[i], h)
        cur[i - 1], cur[i] = cur[i - 1] - h, cur[i] | h
        layers.append(tuple(cur))
    return Flow(web, tuple(moves), tuple(layers), exponent, _top_state(layers[-1]))


def _flow_walk(web: LadderWeb, root, step) -> list[tuple]:
    """(top layer, weight, payload) of every flow on the web, in `enumerate_flows` order.

    The prefixes grow rung by rung on one move table local to the call, filled from
    `_moves` on a miss; a prefix's payload is `step(parent's payload, move, new layer)`,
    the move as `_moves` lists it; the empty prefix's is `root`."""
    table: dict = {}
    partial = [(_bottom_subsets(web), 0, root)]
    for i, j in web.word.application_order():
        grown = []
        for cur, weight, payload in partial:
            head, tail = cur[:i - 1], cur[i + 1:]
            if (legal := table.get(key := (cur[i - 1], cur[i], j))) is None:
                legal = table[key] = _moves(*key)
            for move in legal:
                _h, left, right, e, _combo = move
                layer = head + (left, right) + tail
                grown.append((layer, weight + e, step(payload, move, layer)))
        partial = grown
    return partial


def enumerate_flows(web: LadderWeb) -> list[Flow]:
    """All flows on the web, in a deterministic order."""
    walk = _flow_walk(web, ((), (_bottom_subsets(web),)),
                      lambda p, move, layer: (p[0] + move[:1], p[1] + (layer,)))
    return [Flow(web, moves, layers, weight, _top_state(top))
            for top, weight, (moves, layers) in walk]


def flow_at(web: LadderWeb, k: int) -> tuple[Flow | None, int]:
    """`enumerate_flows(web)[k]` (None unless 0 <= k < count) and the count.  A prefix
    links to its parent, so only the k-th flow's moves and layers are unwound."""
    walk = _flow_walk(web, None, lambda parent, move, layer: (parent, move[0], layer))
    if not 0 <= k < len(walk):
        return None, len(walk)
    top, weight, link = walk[k]
    moves, layers = [], []
    while link is not None:
        link, h, layer = link
        moves.append(h)
        layers.append(layer)
    layers.append(_bottom_subsets(web))
    return Flow(web, tuple(moves[::-1]), tuple(layers[::-1]), weight, _top_state(top)), len(walk)


def _top_counts(web: LadderWeb, table: dict) -> dict[tuple, dict[int, int]]:
    """Each top layer of the web's flows -> {q-exponent, minus the weight: flow prefixes},
    counted rung by rung over distinct layers on the caller's move table, filled from
    `_moves` on a miss."""
    layers = {_bottom_subsets(web): {0: 1}}
    for i, j in web.word.application_order():
        grown: dict = {}
        for cur, counts in layers.items():
            head, tail = cur[:i - 1], cur[i + 1:]
            if (legal := table.get(key := (cur[i - 1], cur[i], j))) is None:
                legal = table[key] = _moves(*key)
            for _h, left, right, e, _combo in legal:
                out = grown.setdefault(head + (left, right) + tail, {})
                for x, c in counts.items():
                    out[x - e] = out.get(x - e, 0) + c
        layers = grown
    return layers


def web_vector(web: LadderWeb) -> dict[tuple[int, ...], LaurentPoly]:
    """The flow vector of `enumerate_flows(web)`, states in the same order, built with
    no flow: a top layer fixes the state, so each one's counts are one polynomial."""
    return {_top_state(top): LaurentPoly(counts) for top, counts in _top_counts(web, {}).items()}


def flow_vector(pairs) -> dict[tuple[int, ...], LaurentPoly]:
    """Sum of q^-weight over the (state, weight) of each flow of one web, per state."""
    counts: dict[tuple[int, ...], Counter] = {}
    for state, weight in pairs:
        counts.setdefault(state, Counter())[-weight] += 1
    return {j: LaurentPoly(c) for j, c in counts.items()}


# -- boundary states ---------------------------------------------------------


def state_of_subset(weight: int, subset: frozenset) -> int:
    """State in {-1,0,+1} of a boundary strand: +1,0,-1 for colors 1,2,3 on
    an upward strand, the reversed order on a downward strand."""
    if weight == 1:
        (c,) = subset
        return 2 - c
    if weight == 2:
        (c,) = frozenset(COLORS) - subset
        return c - 2
    raise ValueError(f"strand of weight {weight} carries no state")


def boundary_state(web: LadderWeb, flow: Flow) -> tuple[int, ...]:
    """States of the classical boundary strands, left to right, strand by strand:
    the definition that the state a flow carries is tested against."""
    return tuple(state_of_subset(w, subset)
                 for w, subset in zip(web.layers[-1], flow.layers[-1]) if w in (1, 2))


# -- closed webs as glued pairs ----------------------------------------------


class ClosedWeb(NamedTuple("_Glued", [("u", LadderWeb), ("v", LadderWeb)])):
    """The closed web obtained by reflecting v and gluing it on top of u."""

    __slots__ = ()

    def __new__(cls, u: LadderWeb, v: LadderWeb):
        if u.boundary != v.boundary:
            raise ValueError(f"boundaries differ: {u.boundary} vs {v.boundary}")
        return super().__new__(cls, u, v)


def _pairing_exponent(j: tuple[int, ...]) -> int:
    return len(j) + sum(j)


def _paired(shared) -> LaurentPoly:
    """Sum of q^-(len j + sum j) a b over (state j, a, b), the factors read as
    exponent -> coefficient: the shifted products summed in one dict, one polynomial."""
    out: dict[int, int] = {}
    for j, a, b in shared:
        shift = _pairing_exponent(j)
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2 - shift
                out[e] = out.get(e, 0) + c1 * c2
    return LaurentPoly(out)


def pairing(left: dict, right: dict) -> LaurentPoly:
    """The bracket of u glued to v, from their flow vectors A_u and A_v: their shared
    states paired (`_paired`)."""
    return _paired((j, a, b) for j, a in left.items() if (b := right.get(j)) is not None)


def bracket(web) -> LaurentPoly:
    """Kuperberg bracket of a closed web.  A glued pair reads both halves' `_top_counts`
    off one move table and pairs them by top layer; a closed ladder web reads its own."""
    if isinstance(web, ClosedWeb):
        table: dict = {}
        tops = _top_counts(web.v, table)
        return _paired((_top_state(top), a, b) for top, a in _top_counts(web.u, table).items()
                       if (b := tops.get(top)) is not None)
    if isinstance(web, LadderWeb):
        if any(w in (1, 2) for w in web.layers[-1]):
            raise ValueError(f"web with boundary {web.boundary} is not closed")
        return web_vector(web).get((), LaurentPoly())
    raise TypeError(f"cannot take the bracket of {web!r}")


# -- the flow-by-flow definition of the closed bracket ---------------------------


class ClosedFlow(NamedTuple):
    bottom: Flow
    top: Flow


def closed_flows(closed: ClosedWeb) -> list[ClosedFlow]:
    """Flow pairs agreeing along the gluing boundary, deterministic order."""
    by_top: dict[tuple, list[Flow]] = {}
    for f in enumerate_flows(closed.v):
        by_top.setdefault(f.layers[-1], []).append(f)
    out = []
    for fu in enumerate_flows(closed.u):
        for fv in by_top.get(fu.layers[-1], []):
            out.append(ClosedFlow(bottom=fu, top=fv))
    return out


# -- tensor expansion --------------------------------------------------------


def tensor_expansion(vector: dict) -> dict:
    """Coefficients of a web on elementary tensors, from its flow vector, keyed by state.

    Each flow contributes v^weight with v = -q^(-1), i.e. the monomial
    (-1)^w q^(-w): the flow vector with q -> -q (`at_minus_q`).
    """
    return {j: LaurentPoly({e: at_minus_q(e, c) for e, c in p.items()})
            for j, p in vector.items()}


# -- column-strict reading ---------------------------------------------------


def tableau_state(rows) -> tuple[int, ...]:
    """The state of the flow whose column-strict reading is `rows`, a basis web's
    leading state: column c lists, increasing, the strands holding color c in the
    flow's top layer, so strand k holds color c when column c lists k."""
    n = max(map(max, rows), default=0)
    return _top_state(tuple(frozenset(c for c, col in zip(COLORS, zip(*rows)) if k in col)
                            for k in range(1, n + 1)))

