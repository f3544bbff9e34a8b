"""Definitions that the tests compare the program against.

Each one is the direct, unoptimised statement of something `src/` computes
another way, and none of them is run by the tool:

- the node-by-node degree (`addable_nodes`, `removable_nodes`,
  `strictly_after`, `nodes_after`, `add_node`), and the degree grown on row
  lengths (`next_node`, `entry_degree`, `same_residue_after`,
  `degree_by_rows`), against `tableaux._place` and `tableaux.bkw_degree`, and
  `iota_by_rows` against `bijection.iota` and the survey;
- `truncate` and `nodes_with_entry` against `foamword.dot_placement`;
- `superstandard` and `residue_sequence` against `foamword.idempotent` and
  `foamword._frame`, and `expand_repeats`, `swap_keeps_standard` and
  `swap_walk` against the frame's blocked pairs and `foamword._half_keys`;
- `standard_tableaux`, every standard filling of a shape, the domain of the
  tableau tests;
- `flow_to_colstrict` and `colstrict_to_multipartition` against
  `bijection.shape_of_boundary`, and `is_column_strict` and
  `multipartition_to_colstrict` against them;
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

from sl3web.flows import COLORS, ClosedFlow, ClosedWeb, Flow, transition_exponent
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


def flow_to_colstrict(web: LadderWeb, top: tuple[frozenset, ...]):
    """Column c lists the strands holding color c in a flow's top layer, top to bottom."""
    columns = []
    for c in COLORS:
        strands = sorted(k for k, subset in enumerate(top, start=1) if c in subset)
        if len(strands) != web.ell:
            raise RuntimeError(f"color {c} held by {len(strands)} strands, not {web.ell}")
        columns.append(strands)
    return tuple(
        tuple(columns[c][r] for c in range(3)) for r in range(web.ell)
    )


def colstrict_to_multipartition(rows) -> Multipartition3:
    """Read a column-strict 3-column tableau as a 3-multipartition.

    Subtract the row number from each entry, which leaves an increasing column
    of positive entries non-negative, and read it bottom to top as a partition.
    """
    return Multipartition3([[row[c] - r for r, row in enumerate(rows, start=1)][::-1]
                            for c in range(3)])


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


# -- the degree grown on row lengths ---------------------------------------------------
# Each component is its list of row lengths, grown one node at a time.

MULTIPLICITY_CORRECTION = {1: 0, 2: 1, 3: 3}


def next_node(lengths: list[int], l: int, res: int, m: int) -> Node:
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


def entry_degree(lengths: tuple[list[int], ...], m: int, nodes, k: int) -> int:
    """One entry's share of the degree: its nodes, of residue k, grow the
    row lengths in place one at a time, leftmost component first, and each
    adds its `same_residue_after`."""
    contribution = 0
    for node in nodes:
        grown = lengths[node.comp - 1]
        if node.row > len(grown):
            grown.append(0)
        grown[node.row - 1] += 1
        contribution += same_residue_after(lengths, m, node, k)
    return contribution - MULTIPLICITY_CORRECTION[len(nodes)]


def same_residue_after(lengths: tuple[list[int], ...], m: int, node: Node, k: int) -> int:
    """Addable less removable nodes of residue k strictly after ``node``, the
    last cell of its row r, in the diagram with these row lengths per component.

    The node's own component has none: every cell below row r has a residue
    below k = length(r) - r + m, save the next cell of row r + 1 when that row
    is as long, and then that cell is not addable.  A later component with beta
    numbers B = {length(s) - s + m : s >= 1}, empty rows included, has an
    addable node of residue k exactly when k - 1 is in B and k is not, and a
    removable one exactly when k is in B and k - 1 is not: it adds
    [k - 1 in B] - [k in B].
    """
    out = 0
    for rows in lengths[node.comp:]:
        betas = {length - s + m for s, length in enumerate(rows, start=1)}
        empty = m - len(rows)  # the rows past the list are every beta number below this
        out += (k - 1 in betas or k - 1 < empty) - (k in betas or k < empty)
    return out


def iota_by_rows(web: LadderWeb, flow: Flow) -> StdMultitableau3:
    """The filling of a web with flow, its shape read off the column-strict reading
    and each step's nodes taken by `next_node` on the rows filled so far."""
    shape = colstrict_to_multipartition(flow_to_colstrict(web, flow.layers[-1]))
    parts = shape.components
    filled = [[[0] * length for length in p] for p in parts]
    front = [[0] * len(p) for p in parts]  # filled prefix length of every row
    for step, (i, _j) in enumerate(web.word.application_order(), start=1):
        for l in sorted(flow.moves[step - 1]):
            node = next_node(front[l - 1], l, i, shape.m)
            if node.col > parts[l - 1][node.row - 1]:
                raise RuntimeError(f"component {l} has no room for residue {i} in {shape}")
            filled[l - 1][node.row - 1][node.col - 1] = step
            front[l - 1][node.row - 1] += 1
    return StdMultitableau3(shape, filled)


def degree_by_rows(t: StdMultitableau3) -> tuple[int, list[int]]:
    """The degree and its per-entry breakdown, grown on row lengths (`entry_degree`)."""
    lengths: tuple[list[int], ...] = ([], [], [])
    occ = t.entries()
    breakdown = [entry_degree(lengths, t.shape.m, occ[j], t.shape.residue(occ[j][0]))
                 for j in range(1, t.max_entry + 1)]
    return sum(breakdown), breakdown


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


def swap_walk(t: StdMultitableau3) -> list[tuple[int, Node, Node]]:
    """The swaps (v, low, high) of entries v and v + 1, in order, that move the
    all-distinct filling t onto the superstandard one; low held v and high v + 1
    before the swap.

    For the n-th node in reading order, n = 1, 2, ..., the entry w on it is walked
    down by t(w-1), ..., tn; entries below n already sit on their nodes.  A swap
    that leaves the standard fillings (`swap_keeps_standard`) raises RuntimeError.
    """
    node_of = {v: node for v, (node,) in t.entries().items()}
    entry_at = {node: v for v, node in node_of.items()}
    targets = [Node(r, c, l) for l, comp in enumerate(t.shape.components, start=1)
               for r, length in enumerate(comp, start=1) for c in range(1, length + 1)]
    swaps = []
    for n, target in enumerate(targets, start=1):
        for v in range(entry_at[target] - 1, n - 1, -1):
            low, high = node_of[v], node_of[v + 1]
            if not swap_keeps_standard(low, high):
                raise RuntimeError(
                    f"transposition t{v} left the standard fillings on the way "
                    f"from {t} to the superstandard filling"
                )
            node_of[v], node_of[v + 1] = high, low
            entry_at[low], entry_at[high] = v + 1, v
            swaps.append((v, low, high))
    return swaps


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
