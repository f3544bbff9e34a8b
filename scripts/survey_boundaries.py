#!/usr/bin/env python3
"""Print a per-boundary summary: webs, flows, node count, basis dimension.

Usage: survey_boundaries.py [MAX_N]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sl3web.bijection import survey
from sl3web.checks import classical_sign_strings
from sl3web.foamword import graded_dim_pair
from sl3web.ladderweb import c_of_S, enumerate_basis


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print(f"{'signs':>8} {'c(S)':>5} {'webs':>5} {'flows':>6} {'dim K_S':>8}")
    for signs in classical_sign_strings(max_n):
        entries = survey(enumerate_basis(signs))
        flows = sum(len(e.records) for e in entries)
        dim = sum(graded_dim_pair(a, b)(1) for a in entries for b in entries)
        print(f"{signs:>8} {c_of_S(signs):>5} {len(entries):>5} {flows:>6} {dim:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
