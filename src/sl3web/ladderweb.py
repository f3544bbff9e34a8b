"""Webs presented as ladder words of divided-power operators.

A ladder word is a sequence of factors F_i^(j) written in the order the
algorithm that generates them emits them; the *rightmost* factor acts first
on the highest weight sequence (3,...,3,0,...,0).  Each factor moves j units
of weight from strand i to strand i+1; a step that leaves the interval
[0, 3] kills the web, signalled by the ZERO sentinel (None).
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

SIGN_TO_WEIGHT = {"o": 0, "+": 1, "-": 2, "x": 3}
WEIGHT_TO_SIGN = {v: k for k, v in SIGN_TO_WEIGHT.items()}

#: Sentinel for a word that kills the highest weight vector.
ZERO = None


def sign_weights(signs: str) -> tuple[int, ...]:
    """Weights of an enhanced sign string over {o, +, -, x}; ValueError when a
    sign is unknown or the total weight is not a multiple of three."""
    for s in signs:
        if s not in SIGN_TO_WEIGHT:
            raise ValueError(f"bad sign {s!r}; expected one of o + - x")
    weights = tuple(SIGN_TO_WEIGHT[s] for s in signs)
    if sum(weights) % 3:
        raise ValueError(f"total weight {sum(weights)} of {signs} not divisible by 3")
    return weights


def c_of_S(S: str) -> int:
    """Node-count constant of a classical sign string."""
    weights = sign_weights(S)
    if not set(S) <= {"+", "-"}:
        raise ValueError(f"c(S) needs a classical sign string, got {S}")
    ell = sum(weights) // 3
    return sum(k * w for k, w in enumerate(weights, start=1)) - 3 * ell * (ell + 1) // 2


class LTWord(NamedTuple):
    """A word of divided-power factors (index, power), rightmost applied first.

    Build one from int pairs, or from text with `parse`, which checks them."""

    factors: tuple[tuple[int, int], ...] = ()

    def __repr__(self):
        return f"LTWord({self!s})"

    def __str__(self):
        if not self.factors:
            return "1"
        return " ".join(
            f"F{i}" if j == 1 else f"F{i}^{j}" for i, j in self.factors
        )

    @property
    def length(self) -> int:
        return len(self.factors)

    @property
    def total_length(self) -> int:
        return sum(j for _, j in self.factors)

    def application_order(self) -> tuple[tuple[int, int], ...]:
        """Factors in the order they act on the highest weight vector."""
        return tuple(reversed(self.factors))

    @classmethod
    def parse(cls, text: str) -> "LTWord":
        text = text.strip()
        if text in ("", "1"):
            return cls()
        factors = []
        for token in text.split():
            m = re.fullmatch(r"[Ff](\d+)(?:\^(?:\((\d+)\)|(\d+)))?", token)
            if not m:
                raise ValueError(f"cannot parse ladder factor {token!r}")
            factors.append((int(m.group(1)), int(m.group(2) or m.group(3) or 1)))
        for i, j in factors:
            if i < 1:
                raise ValueError(f"ladder index {i} must be positive")
            if j not in (1, 2, 3):
                raise ValueError(f"divided power {j} must be 1, 2 or 3")
        return cls(tuple(factors))


def highest_weight(n: int, ell: int) -> tuple[int, ...]:
    if ell > n:
        raise ValueError(f"level {ell} exceeds strand count {n}")
    return (3,) * ell + (0,) * (n - ell)


def apply_F(weights, i: int, j: int):
    """Move j units from strand i to strand i+1; ZERO if a weight leaves [0,3]."""
    weights = tuple(weights)
    if not 1 <= i <= len(weights) - 1:
        raise ValueError(f"index {i} out of range for {len(weights)} strands")
    a, b = weights[i - 1] - j, weights[i] + j
    if a < 0 or b > 3:
        return ZERO
    return weights[: i - 1] + (a, b) + weights[i + 1 :]


class LadderWeb(NamedTuple):
    """A ladder word with its weight layers, bottom to top."""

    word: LTWord
    n: int
    ell: int
    layers: tuple[tuple[int, ...], ...]

    @property
    def boundary(self) -> str:
        return "".join(WEIGHT_TO_SIGN[w] for w in self.layers[-1])

    def __str__(self):
        return f"{self.word} on {self.n} strands (level {self.ell})"


def build_web(word: LTWord, n: int, ell: int):
    """Apply the word to the highest weight sequence; ZERO if any step dies."""
    layers = [highest_weight(n, ell)]
    for i, j in word.application_order():
        nxt = apply_F(layers[-1], i, j)
        if nxt is ZERO:
            return ZERO
        layers.append(nxt)
    return LadderWeb(word, n, ell, tuple(layers))


# -- the ladder-word algorithm on semi-standard tableaux --------------------


def _lower_all(rows, v: int, cells):
    """The rows with v lowered by one on `cells`, the (1-based) cells holding v above
    row v.  Only values `_lowerable` offers keep the tableau semi-standard."""
    new_rows = [list(row) for row in rows]
    for r, c in cells:
        new_rows[r - 1][c - 1] = v - 1
    return tuple(map(tuple, new_rows))


def _entry(rows, r: int, c: int):
    if 1 <= r <= len(rows) and 1 <= c <= len(rows[r - 1]):
        return rows[r - 1][c - 1]
    return None


def _is_extraordinary(rows, v: int, cells) -> bool:
    """Whether lowering v, above its own row on `cells`, must be deferred to a
    higher value.

    The deferral patterns require v to sit exactly once above its own row,
    at position (v-1, 2), with the start of row v equal to v, and either a
    v+1 at the start of row v+1 (a nested component below) or a v+1 right of
    the focal cell at (v-1, 3).
    """
    if cells != [(v - 1, 2)]:
        return False
    if _entry(rows, v, 1) != v:
        return False
    return _entry(rows, v + 1, 1) == v + 1 or _entry(rows, v - 1, 3) == v + 1


def _lowerable(rows) -> dict[int, list[tuple[int, int]]]:
    """Each value v above row v whose lowering keeps the tableau semi-standard, in
    ascending order, mapped to its (1-based) cells above row v in reading order; one
    pass.  A lowered cell's left neighbour holds at most v (and is lowered too if it
    holds v), its right one at least v and the cell below more than v, so only the
    cell above can break it: v is blocked when one holds v - 1."""
    found, blocked = {}, set()
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if r + 1 < v:
                found.setdefault(v, []).append((r + 1, c + 1))
                if r and rows[r - 1][c] == v - 1:
                    blocked.add(v)
    return {v: found[v] for v in sorted(found.keys() - blocked)}


def lt_generators(rows) -> LTWord:
    """The ladder word that reduces a semi-standard tableau to row filling.

    Repeatedly takes the lowest entry v found above its own row that can be
    lowered (`_lowerable`) and lowers all such occurrences at once, emitting
    F_{v-1}^(count).  When v matches a deferral pattern the step instead uses
    the next higher value whose above-row occurrences reach beyond the first
    two columns ("outside first"); the target is re-tested against the
    patterns.  Each step scans the tableau once (`_lowerable`) and lowers only the
    chosen v on the cells that scan found: one `_lower_all` per factor.
    """
    factors = []
    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            raise RuntimeError("ladder-word algorithm did not terminate")
        candidates = _lowerable(rows)
        if not candidates:
            break
        v = next(iter(candidates))
        while _is_extraordinary(rows, v, candidates[v]):
            higher = [w for w in candidates if w > v]
            outside = [w for w in higher if any(c >= 3 for _, c in candidates[w])] or [
                w for w in higher if any(c >= 2 for _, c in candidates[w])]
            if not outside:
                break
            v = outside[0]
        rows = _lower_all(rows, v, candidates[v])
        factors.append((v - 1, len(candidates[v])))
    return LTWord(tuple(factors))


def web_from_tableau(rows, n: int | None = None):
    """Build the ladder web of a semi-standard tableau (never ZERO)."""
    ell = len(rows)
    if n is None:
        n = max((max(row) for row in rows if row), default=ell)
    word = lt_generators(rows)
    web = build_web(word, n, ell)
    if web is ZERO:
        raise RuntimeError(f"ladder word of {rows} killed the highest weight vector")
    return web


def semistandard_tableaux(ell: int, content: tuple[int, ...]) -> list[tuple]:
    """All semi-standard 3-column tableaux with ell rows and given content.

    content[k-1] is the multiplicity of the entry k.  The cells holding k form
    a horizontal strip, so the shape grows value by value: row r may gain at
    most (length of row r-1) - (length of row r) cells, row 1 up to three.
    Sorted in lexicographic order of reading words.
    """
    if sum(content) != 3 * ell:
        raise ValueError("content does not fill the tableau")
    partial = [((),) * ell]
    for k, m in enumerate(content, start=1):
        grown = []
        for rows in partial:
            room = [(r, (len(rows[r - 1]) if r else 3) - len(row)) for r, row in enumerate(rows)]
            room = [(r, a) for r, a in room if a]
            for adds in itertools.product(*(range(a + 1) for _r, a in room)):
                if sum(adds) == m:
                    new = list(rows)
                    for (r, _a), d in zip(room, adds):
                        new[r] += (k,) * d
                    grown.append(tuple(new))
        partial = grown
    partial.sort()  # full rows of three: tuple order is reading-word order
    return partial


def enumerate_basis(S: str) -> list[tuple[tuple, LadderWeb]]:
    """All (tableau, web) pairs for a classical sign string.

    Entry k appears once for a plus and twice for a minus; one basis web
    per semi-standard tableau with that content.
    """
    content = sign_weights(S)
    if not set(S) <= {"+", "-"}:
        raise ValueError(f"basis enumeration needs a classical sign string, got {S}")
    out = []
    for rows in semistandard_tableaux(sum(content) // 3, content):
        web = web_from_tableau(rows, n=len(S))
        if web.boundary != S:
            raise RuntimeError(f"tableau {rows} produced boundary {web.boundary}, wanted {S}")
        out.append((rows, web))
    return out
