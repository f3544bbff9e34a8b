"""Desk-scale structural checks shared by the verify commands and the tests.

Each check returns (ok, counterexample) where the counterexample is a JSON
payload that can be replayed through the command line.  Every flow-level
check folds over `bijection.survey`, which enumerates and fills each
boundary once; the bracket, the tensor expansion and the canonical flow
keep their own enumeration in `flows` as the second code path the
bracket-symmetry, graded-dim and unitriangularity checks compare against.
`run_checks` turns an exception inside one check into a failing result.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from sl3web.bijection import WebSurvey, roundtrip_holds, survey
from sl3web.flows import (
    ClosedWeb,
    boundary_state,
    bracket,
    canonical_flow,
    tensor_expansion,
    weight,
)
from sl3web.foamword import enumerate_cellular_basis, graded_dim_pair, involution
from sl3web.laurent import monomial
from sl3web.tableaux import bkw_degree


def classical_sign_strings(max_n: int, min_n: int = 2) -> list[str]:
    """All +/- strings with weight divisible by three, by length then lex."""
    out = []
    for n in range(min_n, max_n + 1):
        for signs in itertools.product("+-", repeat=n):
            s = "".join(signs)
            if sum(1 if c == "+" else 2 for c in s) % 3 == 0:
                out.append(s)
    return out


def flow_pairs(a: WebSurvey, b: WebSurvey) -> int:
    """Pairs of flows on a and b with equal boundary states: sum_j |a_j|*|b_j|."""
    right = b.by_state
    return sum(len(ds) * len(right.get(j, ())) for j, ds in a.by_state.items())


@lru_cache(maxsize=None)
def cellular_basis(signs: str):
    return enumerate_cellular_basis(signs)


def _payload(signs: str, **extra) -> dict:
    return {"signs": signs, **extra}


def check_roundtrip(signs: str):
    """iota is injective and grow(iota(u_f)) returns every web with flow unchanged."""
    seen: dict[tuple, tuple] = {}
    for entry in survey(signs):
        for _j, _d, flow, t in entry.records:
            val = (entry.web.word, flow.moves)
            if seen.setdefault((t.shape, t.rows), val) != val:
                return False, _payload(
                    signs, word=str(entry.web.word), reason="iota not injective"
                )
            if not roundtrip_holds(entry.web, flow, t):
                return False, _payload(
                    signs,
                    word=str(entry.web.word),
                    flow=[sorted(h) for h in flow.moves],
                    reason="grow did not invert",
                )
    return True, None


def check_degree_duality(signs: str):
    """Filling degree equals minus the flow weight, flow by flow."""
    for entry in survey(signs):
        for j, d, flow, _t in entry.records:
            w = weight(entry.web, flow)
            if d != -w:
                return False, _payload(
                    signs, word=str(entry.web.word), state=list(j), weight=w, degree=d
                )
    return True, None


def check_unitriangularity(signs: str):
    """Tensor coefficients: exactly 1 at the defining state, rest lower."""
    for entry in survey(signs):
        cf = canonical_flow(entry.web, entry.web.tableau)
        leading = boundary_state(entry.web, cf)
        expansion = tensor_expansion(entry.web)
        if expansion.get(leading) != monomial(0):
            return False, _payload(
                signs, word=str(entry.web.word), state=list(leading),
                coefficient=str(expansion.get(leading)),
            )
        for j in expansion:
            if j > leading:
                return False, _payload(
                    signs, word=str(entry.web.word), state=list(j),
                    reason="nonzero coefficient above the defining state",
                )
    return True, None


def check_total_length(signs: str):
    """All basis words over one boundary share their total length."""
    lengths = {entry.web.word.total_length for entry in survey(signs)}
    if len(lengths) > 1:
        return False, _payload(signs, total_lengths=sorted(lengths))
    return True, None


def check_bracket_symmetry(signs: str):
    """Closed brackets are symmetric under q -> 1/q and count flows at q=1."""
    entries = survey(signs)
    for a, b in itertools.product(entries, repeat=2):
        br = bracket(ClosedWeb(a.web, b.web))
        if br != br.bar():
            return False, _payload(signs, pair=[str(a.web.word), str(b.web.word)])
        matches = flow_pairs(a, b)
        if br(1) != matches:
            return False, _payload(
                signs, pair=[str(a.web.word), str(b.web.word)],
                bracket_at_one=br(1), flow_pairs=matches,
            )
    return True, None


def check_graded_dim(signs: str):
    """Sum of q^(deg+deg) over matched flow pairs is q^n times the bracket."""
    entries = survey(signs)
    n = len(signs)
    for a, b in itertools.product(entries, repeat=2):
        lhs = graded_dim_pair(a, b)
        rhs = bracket(ClosedWeb(a.web, b.web)).shift(n)
        if lhs != rhs:
            return False, _payload(
                signs, pair=[str(a.web.word), str(b.web.word)],
                graded_dim=str(lhs), shifted_bracket=str(rhs),
            )
    return True, None


def check_homogeneity(signs: str):
    """Every basis foam's degree is the sum of its two filling degrees."""
    for foam in cellular_basis(signs):
        want = bkw_degree(foam.top_tableau)[0] + bkw_degree(foam.bottom_tableau)[0]
        if foam.degree != want:
            return False, _payload(
                signs, shape=foam.shape.to_json(), degree=foam.degree, expected=want
            )
        if sum(g.degree for g in foam.word.generators) != foam.degree:
            return False, _payload(signs, shape=foam.shape.to_json(),
                                   reason="generator degrees do not sum")
    return True, None


def check_cellularity(signs: str):
    """Cell-datum properties: involution, index cardinality (homogeneity is its own check)."""
    foams = cellular_basis(signs)
    for foam in foams:
        flipped = involution(foam)
        if flipped.degree != foam.degree:
            return False, _payload(signs, reason="involution changed a degree")
        if involution(flipped).word != foam.word:
            return False, _payload(signs, reason="involution is not involutive")
        fixed = flipped.key() == foam.key()
        if fixed != (foam.top_tableau == foam.bottom_tableau):
            return False, _payload(signs, reason="involution fixes a non-diagonal")
    entries = survey(signs)
    dim = sum(flow_pairs(a, b) for a, b in itertools.product(entries, repeat=2))
    if len(foams) != dim:
        return False, _payload(signs, basis=len(foams), dimension=dim)
    return True, None


CHECKS = {
    "roundtrip": check_roundtrip,
    "degree": check_degree_duality,
    "unitriangular": check_unitriangularity,
    "total-length": check_total_length,
    "bracket-symmetry": check_bracket_symmetry,
    "graded-dim": check_graded_dim,
    "homogeneity": check_homogeneity,
    "cellular": check_cellularity,
}


def run_checks(names, signs_list):
    """Run named checks over boundary strings, one result per (check, signs), in order.

    An exception inside one check on one boundary is a failure whose
    counterexample names the error and the command that replays it.
    """
    results = []
    for name in names:
        for signs in signs_list:
            try:
                ok, ce = CHECKS[name](signs)
            except Exception as e:
                ok, ce = False, _payload(
                    signs, error=f"{type(e).__name__}: {e}",
                    replay=f"sl3web verify {name} --signs {signs}",
                )
            results.append({"check": name, "signs": signs, "ok": ok, "counterexample": ce})
    return results
