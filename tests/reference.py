"""Definitions that the tests compare the program against.

Each one is the direct, unoptimised statement of something `src/` computes
another way, and none of them is run by the tool:

- the node-by-node degree (`addable_nodes`, `removable_nodes`,
  `strictly_after`, `nodes_after`, `add_node`) against
  `tableaux._entry_degree`;
- `truncate` and `nodes_with_entry` against `foamword.dot_placement`;
- `superstandard` and `residue_sequence` against `foamword.idempotent` and
  `foamword._frame`, and `expand_repeats` and `swap_keeps_standard` against
  the frame's blocked pairs;
- `standard_tableaux`, every standard filling of a shape, the domain of the
  tableau tests;
- `is_column_strict` and `multipartition_to_colstrict` against
  `tableaux.colstrict_to_multipartition`;
- `is_semistandard` against `ladderweb._lowerable` and
  `ladderweb.semistandard_tableaux`;
- the single-color moves (`_single_exponent`, `_transition_poly`,
  `divided_power_identity_holds`) against `flows.transition_exponent`;
- `closed_weight`, the weight of a pair of glued flows, against
  `flows.bracket`, and `canonical_flow` against `flows.tableau_state`;
- `qfactorial`.
"""

from __future__ import annotations

import itertools

from sl3web.flows import (
    COLORS,
    ClosedFlow,
    ClosedWeb,
    Flow,
    flow_to_colstrict,
    transition_exponent,
)
from sl3web.laurent import LaurentPoly, monomial, qint
from sl3web.ladderweb import LadderWeb
from sl3web.tableaux import Multipartition3, Node, StdMultitableau3, _row_length

# -- quantum factorials ---------------------------------------------------------

ONE = LaurentPoly({0: 1})


def qfactorial(a: int) -> LaurentPoly:
    """Quantum factorial [a]! = [a][a-1]...[1]."""
    if a < 0:
        raise ValueError(f"quantum factorial needs a >= 0, got {a}")
    out = ONE
    for i in range(2, a + 1):
        out = out * qint(i)
    return out


# -- transition exponents, one color at a time -------------------------------------


def _single_exponent(h: int, left: frozenset, right: frozenset) -> int:
    """Exponent for moving one color h from left to right strand."""
    e = 0
    for b in COLORS:
        if b <= h:
            continue
        w = (b in left and b not in right) - (b in right and b not in left)
        e -= w
    return e


def _transition_poly(left: frozenset, right: frozenset, moved: frozenset) -> LaurentPoly:
    """Brute-force k-fold single moves summed over orderings of `moved`.

    Equals [k]! * q^transition_exponent; the identity is asserted by the
    test suite and the calibration report, keeping the closed form honest.
    """
    total = LaurentPoly()
    for order in itertools.permutations(sorted(moved)):
        l, r, e = set(left), set(right), 0
        for h in order:
            e += _single_exponent(h, frozenset(l), frozenset(r))
            l.remove(h)
            r.add(h)
        total = total + monomial(e)
    return total


def divided_power_identity_holds(left: frozenset, right: frozenset, moved: frozenset) -> bool:
    expected = qfactorial(len(moved)) * monomial(transition_exponent(left, right, moved))
    return _transition_poly(left, right, moved) == expected


# -- closed flows and the canonical flow -----------------------------------------------


def closed_weight(closed: ClosedWeb, cf: ClosedFlow) -> int:
    """Weight of a closed flow: both halves plus one per boundary strand
    corrected by the shared boundary state."""
    j = cf.bottom.state
    return cf.bottom.exponent + cf.top.exponent + len(j) + sum(j)


def canonical_flow(web: LadderWeb, tableau, flows) -> Flow:
    """The unique flow whose column-strict reading is `tableau`, the one the web
    was built from, searched among `flows`, which are all the flows on the web."""
    wanted = tuple(tuple(r) for r in tableau)
    matches = [f for f in flows if flow_to_colstrict(web, f.layers[-1]) == wanted]
    if len(matches) != 1:
        raise RuntimeError(
            f"expected a unique canonical flow on {web}, found {len(matches)}"
        )
    return matches[0]


# -- semi-standard and column-strict tableaux -------------------------------------------


def is_semistandard(rows) -> bool:
    """Rows weakly increase, columns strictly increase."""
    for row in rows:
        for a, b in zip(row, row[1:]):
            if a > b:
                return False
    for r in range(len(rows) - 1):
        if len(rows[r + 1]) > len(rows[r]):
            return False
        for c in range(len(rows[r + 1])):
            if rows[r][c] >= rows[r + 1][c]:
                return False
    return True


def is_column_strict(rows) -> bool:
    for row in rows:
        if len(row) != 3:
            return False
    for c in range(3):
        for r in range(len(rows) - 1):
            if rows[r][c] >= rows[r + 1][c]:
                return False
    return True


def multipartition_to_colstrict(shape: Multipartition3, nrows: int):
    """Inverse of colstrict_to_multipartition for a given row count."""
    rows = []
    for r in range(1, nrows + 1):
        row = []
        for l in range(1, 4):
            comp = shape.components[l - 1]
            if len(comp) > nrows:
                raise ValueError(f"component {l} has more than {nrows} rows")
            # partition was read bottom-up: its i-th part sits at row nrows - i
            row.append(_row_length(comp, nrows - r + 1) + r)
        rows.append(tuple(row))
    out = tuple(rows)
    if not is_column_strict(out):
        raise ValueError("shape does not yield a column-strict tableau")
    return out


# -- addable and removable nodes, node by node -----------------------------------------
# A node comes before another if its component is smaller, or the components
# agree and its row is smaller-or-equal.


def strictly_after(node: Node, ref: Node) -> bool:
    return node.comp > ref.comp or (node.comp == ref.comp and node.row > ref.row)


def addable_nodes(shape: Multipartition3, k: int) -> list[Node]:
    """Addable nodes of residue k, ordered by the before/after order."""
    return [
        Node(r, length + 1, l)
        for l, comp in enumerate(shape.components, start=1)
        for r, length in enumerate(comp + (0,), start=1)
        if (r == 1 or comp[r - 2] > length) and length + 1 - r + shape.m == k
    ]


def removable_nodes(shape: Multipartition3, k: int) -> list[Node]:
    return [
        Node(r, length, l)
        for l, comp in enumerate(shape.components, start=1)
        for r, length in enumerate(comp, start=1)
        if length > (comp + (0,))[r] and length - r + shape.m == k
    ]


def nodes_after(shape: Multipartition3, node: Node, kind: str) -> list[Node]:
    """Addable or removable nodes of node's residue strictly after it."""
    k = shape.residue(node)
    pool = addable_nodes(shape, k) if kind == "addable" else removable_nodes(shape, k)
    return [n for n in pool if strictly_after(n, node)]


def add_node(shape: Multipartition3, node: Node) -> Multipartition3:
    if node not in addable_nodes(shape, shape.residue(node)):
        comp = shape.components[node.comp - 1]
        raise ValueError(f"cell {(node.row, node.col)} not addable to {comp}")
    comps = [list(c) + [0] for c in shape.components]
    comps[node.comp - 1][node.row - 1] += 1
    return Multipartition3(comps, m=shape.m)


# -- fillings ---------------------------------------------------------------------------


def nodes_with_entry(t: StdMultitableau3, v: int) -> tuple[Node, ...]:
    return t.entries().get(v, ())


def truncate(t: StdMultitableau3, j: int) -> StdMultitableau3:
    """Delete all nodes with entries strictly bigger than j (keeps m)."""
    if not 0 <= j <= t.max_entry:
        raise ValueError(f"truncation level {j} out of range")
    comps, rows = [], []
    for comp in t.rows:
        new_rows = []
        for row in comp:
            kept = tuple(v for v in row if v <= j)
            if kept:
                new_rows.append(kept)
        rows.append(tuple(new_rows))
        comps.append([len(r) for r in new_rows])
    shape = Multipartition3(comps, m=t.shape.m)
    # kept entries form a prefix of every row and column: still standard
    return StdMultitableau3._make((shape, tuple(rows)))


def residue_sequence(t: StdMultitableau3) -> tuple[int, ...]:
    """Residue of the entry-j nodes for j = 1..max (repeats share one)."""
    occ = t.entries()
    return tuple(t.shape.residue(occ[j][0]) for j in range(1, t.max_entry + 1))


def expand_repeats(t: StdMultitableau3) -> StdMultitableau3:
    """Replace repeated entries by consecutive ones, leftmost smallest."""
    grid = [[list(row) for row in comp] for comp in t.rows]
    occ = t.entries()
    nodes = (node for v in range(1, t.max_entry + 1) for node in occ[v])
    for value, node in enumerate(nodes, start=1):
        grid[node.comp - 1][node.row - 1][node.col - 1] = value
    return StdMultitableau3(t.shape, grid)


def superstandard(shape: Multipartition3) -> StdMultitableau3:
    """The filling with 1..k in reading order, component by component."""
    rows, next_entry = [], 1
    for comp in shape.components:
        comp_rows = []
        for length in comp:
            comp_rows.append(tuple(range(next_entry, next_entry + length)))
            next_entry += length
        rows.append(tuple(comp_rows))
    # distinct entries growing along every row and down every column
    return StdMultitableau3._make((shape, tuple(rows)))


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


def standard_tableaux(shape: Multipartition3) -> list[StdMultitableau3]:
    """All standard fillings of the shape, repeats allowed, in a fixed order.

    Entries are assigned in increasing order; at each step every non-empty
    set of simultaneously fillable equal-residue nodes in distinct
    components may receive the next value.  The output order is the
    lexicographic order of the chosen node sets along the way.
    """
    total = shape.size
    parts = shape.components
    filled = [[0] * len(p) for p in parts]  # filled prefix length of every row
    grid = [[[0] * length for length in p] for p in parts]
    results: list[StdMultitableau3] = []

    def fillable() -> list[Node]:
        # the first empty cell of a row, once the row above reaches past it;
        # component, row, column order
        return [
            Node(r + 1, c + 1, l + 1)
            for l in range(3)
            for r, c in enumerate(filled[l])
            if c < parts[l][r] and (r == 0 or filled[l][r - 1] > c)
        ]

    def rec(placed: int, v: int):
        if placed == total:
            results.append(StdMultitableau3(shape, grid))
            return
        pool = fillable()
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
            for node in combo:
                grid[node.comp - 1][node.row - 1][node.col - 1] = v
                filled[node.comp - 1][node.row - 1] += 1
            rec(placed + len(combo), v + 1)
            for node in combo:
                filled[node.comp - 1][node.row - 1] -= 1

    rec(0, 1)
    return results
