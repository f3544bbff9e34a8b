"""The fixed job sets of the three workloads and the counts they must show."""

from __future__ import annotations

import itertools


def classical(min_n: int, max_n: int) -> list[str]:
    """All +/- boundary strings of weight divisible by three, by length then lex."""
    return [
        "".join(p)
        for n in range(min_n, max_n + 1)
        for p in itertools.product("+-", repeat=n)
        if sum(1 if c == "+" else 2 for c in p) % 3 == 0
    ]


# verify-sweep: every classical 5-strand boundary, 0.2-0.6 s each.
VERIFY_SIGNS = tuple(classical(5, 5))

# foam-basis: the 6-strand boundaries whose basis takes a second or less;
# +-+-+- (1224 foams) takes nearly three, so the traced run's scale table
# covers it instead.
FOAM_SIGNS = ("-+--++", "--+-++", "---+++", "--++-+", "-+-+-+", "++++++")

# Counts fixed by the worked examples, checked on every run that sees them:
# (what, boundary) -> count.
KNOWN = {
    ("five-strand boundaries", ""): 10,
    ("foams", "+-+-+-"): 1224,
    ("foams", "-+--++"): 636,
    ("foams", "--+-++"): 636,
    ("webs", "+-+-+-"): 6,
    ("flows", "+-+-+-"): 282,
    ("foams", "+++-+-+"): 6648,
    ("flows", "+-+-+-+-"): 4632,
}

# The traced run's scale table: one fresh process per boundary.  Foams on
# eight strands are too many to enumerate inside the run's time limit.
SCALE_SIGNS = ("+-+-+-", "+++-+-+", "+-+-+-+-")
SCALE_WITHOUT_FOAMS = ("+-+-+-+-",)


def verify_argv(signs: str) -> list[str]:
    return ["--format", "json", "verify", "all", "--signs", signs]


def foam_argv(signs: str) -> list[str]:
    return ["--format", "json", "foam", "basis", "--signs", signs]
