#!/usr/bin/env python3
"""Regenerate reports/move_table.md: the placement table with witnesses.

For every (family, type, color, primed) row of the step classification
table this collects, from all basis webs on at most six strands, one
witnessing rung: its weight change, the flow subsets around it and the
moved colors.  The placements always equal the moved color set; rows never
witnessed by ladder words (the leftward horizontal move) are marked.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sl3web.bijection import MOVE_TABLE, classify_step
from sl3web.checks import classical_sign_strings
from sl3web.flows import enumerate_flows
from sl3web.ladderweb import enumerate_basis


def render() -> str:
    """The text of reports/move_table.md."""
    witnesses = {}
    for signs in classical_sign_strings(6):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                layers = flow.layers
                for k, (i, j) in enumerate(web.word.application_order(), start=1):
                    kind = classify_step(web, flow, k)
                    key = (kind.family, kind.type, kind.color, kind.primed)
                    if key in witnesses:
                        continue
                    below = web.layers[k - 1]
                    a, b = below[i - 1], below[i]
                    left, right = layers[k - 1][i - 1], layers[k - 1][i]
                    witnesses[key] = {
                        "weights": f"({a},{b})->({a - j},{b + j})",
                        "left": sorted(left),
                        "right": sorted(right),
                        "moved": sorted(flow.moves[k - 1]),
                    }

    lines = [
        "# Step classification and placement table",
        "",
        "Placement components always equal the moved color set; the table",
        "lists one witnessing rung per row, harvested from every basis web",
        "with at most six strands.",
        "",
        "| family | type | color | primed | places into | witness weights | left | right | moved |",
        "|--------|------|-------|--------|-------------|-----------------|------|-------|-------|",
    ]
    for key in sorted(MOVE_TABLE, key=lambda k: (k[0], str(k[1]), str(k[2]), k[3])):
        family, typ, color, primed = key
        target = MOVE_TABLE[key]
        w = witnesses.get(key)
        if w is None:
            cells = ["never emitted by ladder words", "", "", ""]
        else:
            assert tuple(w["moved"]) == target, (key, w)
            cells = [w["weights"], str(w["left"]), str(w["right"]), str(w["moved"])]
        lines.append(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |".format(
                family, typ, color, "yes" if primed else "", list(target), *cells
            )
        )
    unwitnessed = [k for k in MOVE_TABLE if k not in witnesses]
    lines += [
        "",
        f"Rows without ladder-word witnesses: {unwitnessed or 'none'}.",
        "",
    ]
    return "\n".join(lines)


def main() -> int:
    text = render()
    out = Path(__file__).resolve().parent.parent / "reports" / "move_table.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
