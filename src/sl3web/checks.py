"""Desk-scale structural checks shared by the verify commands and the tests.

Each check reads one `Boundary` and returns (ok, counterexample), where the
counterexample is a JSON payload that can be replayed through the command
line.  `run_checks` builds one `Boundary` per sign string, hands it to every
check and drops it before the next.  A `Boundary` builds on first read the
basis, its `bijection.survey` (the only enumeration of the boundary's flows),
one `flows.flow_vector` per web (the survey records' states and weights: rung
exponents instead of filling degrees), their pairing per ordered pair of webs
(the bracket of the glued pair), the halves of `foamword.cellular_halves`
(degrees and generator keys, no foam word) and their distinct generators, each
built once with its reflection by `foamword.reflections`: a pair's degree and
involution follow from theirs.  Those two raise on a degree that breaks
homogeneity, and an exception inside one check is a failing result.  A part
whose build raised is not built again: every check that reads it gets the
same exception.
"""

from __future__ import annotations

import itertools

from sl3web.bijection import roundtrip_holds, survey
from sl3web.flows import flow_vector, pairing, tableau_state, tensor_expansion
from sl3web.foamword import cellular_halves, graded_dim_pair, reflections
from sl3web.ladderweb import enumerate_basis
from sl3web.laurent import monomial


def classical_sign_strings(max_n: int, min_n: int = 2) -> list[str]:
    """All +/- strings with weight divisible by three, by length then lex."""
    out = []
    for n in range(min_n, max_n + 1):
        for signs in itertools.product("+-", repeat=n):
            s = "".join(signs)
            if sum(1 if c == "+" else 2 for c in s) % 3 == 0:
                out.append(s)
    return out


class _part:
    """A `Boundary` part, built on its first read and kept as long as the value;
    an exception its build raises is kept too, and every later read raises it
    again rather than building the part anew."""

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, b, owner=None):
        if b is None:
            return self
        if (error := b.failed.get(self.name)) is not None:
            raise error
        try:
            # later reads find the value in the instance dict and skip this descriptor
            value = b.__dict__[self.name] = self.build(b)
        except Exception as e:
            b.failed[self.name] = e
            raise
        return value


class Boundary:
    """One classical sign string and what the checks read of it, each part
    built once, on its first read (`_part`)."""

    def __init__(self, signs: str):
        self.signs = signs
        self.failed: dict[str, Exception] = {}  # part name -> what its build raised

    @_part
    def basis(self):
        return enumerate_basis(self.signs)

    @_part
    def surveys(self):
        return survey(self.basis)

    @_part
    def vectors(self):
        return [flow_vector((j, w) for j, _d, w, _m, _t in entry.records) for entry in self.surveys]

    @_part
    def brackets(self):
        """(survey of u, survey of v, pairing of their flow vectors) per ordered pair."""
        pairs = itertools.product(zip(self.surveys, self.vectors), repeat=2)
        return [(u, v, pairing(a, c)) for (u, a), (v, c) in pairs]

    @_part
    def halves(self):
        """The `foamword.CellState` of every boundary state: halves as degrees."""
        return list(cellular_halves(self.surveys))

    @_part
    def generators(self):
        """Each distinct generator of the dots and the halves, mapped to its reflection
        (`reflections` raises on one that changes a degree)."""
        return reflections(self.halves)


def _payload(signs: str, **extra) -> dict:
    return {"signs": signs, **extra}


def check_roundtrip(b: Boundary):
    """iota is injective and grow(iota(u_f)) returns every web with flow unchanged."""
    seen: dict[tuple, tuple] = {}
    for entry in b.surveys:
        for _j, _d, _w, moves, t in entry.records:
            val = (entry.web.word, moves)
            if seen.setdefault((t.shape, t.rows), val) != val:
                return False, _payload(
                    b.signs, word=str(entry.web.word), reason="iota not injective"
                )
            if not roundtrip_holds(entry.web, moves, t):
                return False, _payload(
                    b.signs,
                    word=str(entry.web.word),
                    flow=[sorted(h) for h in moves],
                    reason="grow did not invert",
                )
    return True, None


def check_degree_duality(b: Boundary):
    """Filling degree equals minus the flow weight, flow by flow."""
    for entry in b.surveys:
        for j, d, w, _m, _t in entry.records:
            if d != -w:
                return False, _payload(
                    b.signs, word=str(entry.web.word), state=list(j), weight=w, degree=d
                )
    return True, None


def check_unitriangularity(b: Boundary):
    """Tensor coefficients: 1 at the defining state, rest lower; defining states distinct."""
    leaders: dict[tuple[int, ...], str] = {}
    for (tableau, _web), entry, vector in zip(b.basis, b.surveys, b.vectors):
        leading = tableau_state(tableau)
        expansion = tensor_expansion(vector)
        if expansion.get(leading) != monomial(0):
            return False, _payload(
                b.signs, word=str(entry.web.word), state=list(leading),
                coefficient=str(expansion.get(leading)),
            )
        for j in expansion:
            if j > leading:
                return False, _payload(
                    b.signs, word=str(entry.web.word), state=list(j),
                    reason="nonzero coefficient above the defining state",
                )
        if leading in leaders:
            return False, _payload(
                b.signs, words=[leaders[leading], str(entry.web.word)], state=list(leading),
                reason="two basis webs share their defining state",
            )
        leaders[leading] = str(entry.web.word)
    return True, None


def check_total_length(b: Boundary):
    """Basis words over one boundary share their total length and are pairwise distinct."""
    words = [web.word for _rows, web in b.basis]
    lengths = {word.total_length for word in words}
    if len(lengths) > 1:
        return False, _payload(b.signs, total_lengths=sorted(lengths))
    repeated = {str(w) for w in words if words.count(w) > 1}
    if repeated:
        return False, _payload(b.signs, repeated_words=sorted(repeated))
    return True, None


def check_bracket_symmetry(b: Boundary):
    """Closed brackets are symmetric under q -> 1/q and count flows at q=1.

    The count, the graded dimension at q=1, only restates the state grouping."""
    for u, v, br in b.brackets:
        if br != br.bar():
            return False, _payload(b.signs, pair=[str(u.web.word), str(v.web.word)])
        matches = graded_dim_pair(u, v)(1)
        if br(1) != matches:
            return False, _payload(
                b.signs, pair=[str(u.web.word), str(v.web.word)],
                bracket_at_one=br(1), flow_pairs=matches,
            )
    return True, None


def check_graded_dim(b: Boundary):
    """Sum of q^(deg+deg) over matched flow pairs is q^n times the bracket."""
    n = len(b.signs)
    for u, v, br in b.brackets:
        lhs = graded_dim_pair(u, v)
        rhs = br.shift(n)
        if lhs != rhs:
            return False, _payload(
                b.signs, pair=[str(u.web.word), str(v.web.word)],
                graded_dim=str(lhs), shifted_bracket=str(rhs),
            )
    return True, None


def check_homogeneity(b: Boundary):
    """A half weighs filling minus superstandard degree and the dots twice the
    superstandard degree (`cellular_halves` raises otherwise), and a reflected half as
    much as the half (`reflections` raises unless every generator's reflection does)."""
    b.generators  # read for its checks: the halves and reflections raise, or both hold
    return True, None


def check_cellularity(b: Boundary):
    """Generators reflect back, so the halves and dot words do; a state's fillings are
    distinct, so the involution fixes only the diagonal; sum_j n_j^2 = sum bracket(u, v)(1)."""
    for g, r in b.generators.items():
        if r.reflected() != g:
            return False, _payload(b.signs, generator=str(g), reason="involution is not involutive")
    count = 0
    for shape, _residues, halves, _keys in b.halves:
        if len({t for t, _d, _degree in halves}) != len(halves):
            return False, _payload(
                b.signs, shape=shape.to_json(), reason="involution fixes a non-diagonal"
            )
        count += len(halves) ** 2
    dim = sum(br(1) for _u, _v, br in b.brackets)
    if count != dim:
        return False, _payload(b.signs, basis=count, dimension=dim)
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

    Each boundary is read once, by every check in turn, and dropped before the
    next.  An exception inside one check on one boundary is a failure whose
    counterexample names the error and the command that replays it.
    """
    per_boundary = []
    for signs in signs_list:
        b, results = Boundary(signs), []
        for name in names:
            try:
                ok, ce = CHECKS[name](b)
            except Exception as e:
                ok, ce = False, _payload(
                    signs, error=f"{type(e).__name__}: {e}",
                    replay=f"sl3web verify {name} --signs {signs}",
                )
            results.append({"check": name, "signs": signs, "ok": ok, "counterexample": ce})
        per_boundary.append(results)
    return [result for per_check in zip(*per_boundary) for result in per_check]
