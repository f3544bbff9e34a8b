"""Desk-scale structural checks shared by the verify commands and the tests.

Each check returns (ok, counterexample) where the counterexample is a JSON
payload that can be replayed through the command line.  Every flow-level
check folds over `bijection.survey`, which enumerates and fills each
boundary once.  The bracket-symmetry, graded-dim, unitriangularity and
cellular checks compare it against `flows.flow_vector`, one more enumeration
per web weighed by rung exponents instead of filling degrees: the bracket of
a glued pair is a bilinear form on two flow vectors, the tensor expansion a
substitution.  Homogeneity and cellularity read `foamword.cellular_halves`,
never a basis foam: a pair is a lower half, the dots and a reflected upper
half, so its degree and its involution follow from theirs.
`run_checks` turns an exception inside one check into a failing result.
"""

from __future__ import annotations

import itertools

from sl3web.bijection import WebSurvey, roundtrip_holds, survey
from sl3web.flows import (
    ClosedWeb,
    boundary_state,
    bracket,
    canonical_flow,
    tensor_expansion,
)
from sl3web.foamword import cellular_halves, graded_dim_pair
from sl3web.ladderweb import enumerate_basis
from sl3web.laurent import monomial
from sl3web.tableaux import bkw_degree, superstandard


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
            w = flow.exponent
            if d != -w:
                return False, _payload(
                    signs, word=str(entry.web.word), state=list(j), weight=w, degree=d
                )
    return True, None


def check_unitriangularity(signs: str):
    """Tensor coefficients: 1 at the defining state, rest lower; defining states distinct."""
    leaders: dict[tuple[int, ...], str] = {}
    for entry in survey(signs):
        cf = canonical_flow(entry.web, flows=[flow for _j, _d, flow, _t in entry.records])
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
        if leading in leaders:
            return False, _payload(
                signs, words=[leaders[leading], str(entry.web.word)], state=list(leading),
                reason="two basis webs share their defining state",
            )
        leaders[leading] = str(entry.web.word)
    return True, None


def check_total_length(signs: str):
    """Basis words over one boundary share their total length and are pairwise distinct."""
    words = [web.word for _rows, web in enumerate_basis(signs)]
    lengths = {word.total_length for word in words}
    if len(lengths) > 1:
        return False, _payload(signs, total_lengths=sorted(lengths))
    repeated = {str(w) for w in words if words.count(w) > 1}
    if repeated:
        return False, _payload(signs, repeated_words=sorted(repeated))
    return True, None


def check_bracket_symmetry(signs: str):
    """Closed brackets are symmetric under q -> 1/q and count flows at q=1.

    The count, bracket(1) == flow_pairs, only restates the state grouping."""
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
    """A half weighs filling minus superstandard degree (`cellular_halves` raises
    otherwise), also reflected; the dots weigh twice the superstandard degree."""
    for shape, dots, halves in cellular_halves(signs):
        want = 2 * bkw_degree(superstandard(shape))[0]
        got = sum(g.degree for g in dots)
        if got != want:
            return False, _payload(signs, shape=shape.to_json(), dot_degree=got, expected=want)
        for t, _d, half in halves:
            if half.reflected().degree != half.degree:
                return False, _payload(
                    signs, tableau=t.to_json(), reason="reflection changed a degree"
                )
    return True, None


def check_cellularity(signs: str):
    """Halves and dot words reflect back; a state's fillings are distinct, so the
    involution fixes only the diagonal; sum_j n_j^2 = sum bracket(u, v)(1)."""
    count = 0
    for shape, dots, halves in cellular_halves(signs):
        words = dots + tuple(half for _t, _d, half in halves)
        if any(w.reflected().reflected() != w for w in words):
            return False, _payload(
                signs, shape=shape.to_json(), reason="involution is not involutive"
            )
        if len({t for t, _d, _half in halves}) != len(halves):
            return False, _payload(
                signs, shape=shape.to_json(), reason="involution fixes a non-diagonal"
            )
        count += len(halves) ** 2
    webs = [entry.web for entry in survey(signs)]
    dim = sum(bracket(ClosedWeb(u, v))(1) for u, v in itertools.product(webs, repeat=2))
    if count != dim:
        return False, _payload(signs, basis=count, dimension=dim)
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
