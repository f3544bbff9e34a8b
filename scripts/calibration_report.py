#!/usr/bin/env python3
"""Regenerate reports/calibration.md: why the shipped weight table is the one.

The rung-local weight of a flow transition is an inversion count between
the moved colors and the colors staying behind or already present.  Four
sign/direction conventions are a priori possible; this script evaluates
all of them against three calibration targets and records that exactly
one survives:

  (a) the six closed theta flows weigh {3, 1, 1, -1, -1, -3};
  (b) the three closed circle flows weigh {2, 0, -2};
  (c) filling degree equals minus the flow weight on every flow of every
      basis web with at most five boundary strands.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sl3web.bijection import iota
from sl3web.checks import classical_sign_strings
from sl3web.flows import ClosedWeb, boundary_state, closed_flows, enumerate_flows
from sl3web.ladderweb import enumerate_basis, web_from_tableau
from sl3web.tableaux import bkw_degree

COLORS = (1, 2, 3)


def variant_exponent(sign: int, direction: str, left, right, moved) -> int:
    """Inversion count with a chosen sign and comparison direction."""
    stay = (left - right) - moved
    occupied = right - left
    e = 0
    for h in moved:
        if direction == "above":
            e += sum(1 for b in occupied if b > h) - sum(1 for b in stay if b > h)
        else:
            e += sum(1 for b in occupied if b < h) - sum(1 for b in stay if b < h)
    return sign * e


def flow_weight(variant, web, flow) -> int:
    sign, direction = variant
    total = 0
    layers = flow.layers
    for step, (i, _j) in enumerate(web.word.application_order()):
        left, right = layers[step][i - 1], layers[step][i]
        total += variant_exponent(sign, direction, left, right, flow.moves[step])
    return total


def closed_flow_weight(variant, closed, cf) -> int:
    j = boundary_state(closed.u, cf.bottom)
    return (
        flow_weight(variant, closed.u, cf.bottom)
        + flow_weight(variant, closed.v, cf.top)
        + len(j)
        + sum(j)
    )


def evaluate(variant):
    results = {}
    y = web_from_tableau(((1, 2, 3),))
    theta = ClosedWeb(y, y)
    ws = sorted(closed_flow_weight(variant, theta, cf) for cf in closed_flows(theta))
    results["theta"] = (ws, ws == [-3, -1, -1, 1, 1, 3])

    arc = web_from_tableau(((1, 2, 2),))
    circle = ClosedWeb(arc, arc)
    ws = sorted(closed_flow_weight(variant, circle, cf) for cf in closed_flows(circle))
    results["circle"] = (ws, ws == [-2, 0, 2])

    dual = True
    for signs in classical_sign_strings(5):
        for _rows, web in enumerate_basis(signs):
            for flow in enumerate_flows(web):
                if bkw_degree(iota(web, flow))[0] != -flow_weight(variant, web, flow):
                    dual = False
                    break
            if not dual:
                break
        if not dual:
            break
    results["degree-duality"] = (None, dual)
    return results


def render() -> str:
    """The text of reports/calibration.md."""
    variants = {
        "+above": (1, "above"),
        "-above": (-1, "above"),
        "+below": (1, "below"),
        "-below": (-1, "below"),
    }
    lines = [
        "# Flow weight calibration",
        "",
        "Local rule: moving colors H from the left strand (subset S) onto the",
        "right strand (subset T) contributes, for each moved color h, the",
        "number of occupied colors (T minus S) on one side of h minus the",
        "number of staying colors (S minus T minus H) on the same side.",
        "Closed pairs additionally collect 1 + state per glued boundary strand.",
        "",
        "| variant | circle weights | theta weights | degree duality (n <= 5) |",
        "|---------|----------------|---------------|-------------------------|",
    ]
    survivors = []
    for name, variant in variants.items():
        res = evaluate(variant)
        ok = all(flag for _, flag in res.values())
        if ok:
            survivors.append(name)
        lines.append(
            "| {} | {} {} | {} {} | {} |".format(
                name,
                res["circle"][0],
                "ok" if res["circle"][1] else "FAIL",
                res["theta"][0],
                "ok" if res["theta"][1] else "FAIL",
                "ok" if res["degree-duality"][1] else "FAIL",
            )
        )
    lines += [
        "",
        f"Surviving variant(s): {', '.join(survivors)}.",
        "",
        "The library hard-codes the `+above` rule: for each moved color, count",
        "the occupied colors above it minus the staying colors above it.  The",
        "closed multisets alone would also admit `+below`; degree duality",
        "rejects it.  The same rule satisfies the divided-power identity",
        "F^k = [k]! F^(k) checked exhaustively in tests/test_flows.py.",
        "",
    ]
    return "\n".join(lines)


def main() -> int:
    text = render()
    out = Path(__file__).resolve().parent.parent / "reports" / "calibration.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(text)
    print(f"wrote {out}")
    if "\nSurviving variant(s): +above.\n" not in text:
        print("UNEXPECTED calibration outcome", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
