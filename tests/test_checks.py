"""Every check reads one survey per boundary and can still fail."""

import contextlib
import importlib.util
import inspect
import io
import json
import types
from collections import Counter
from pathlib import Path

import pytest

from sl3web import bijection, checks, flows, foamword, tableaux
from sl3web.cli import main
from sl3web.flows import enumerate_flows
from sl3web.ladderweb import enumerate_basis
from sl3web.tableaux import Multipartition3, StdMultitableau3

SIGNS = "+-+-"
ROOT = Path(__file__).resolve().parent.parent


def test_roundtrip_fails_when_grow_returns_another_flow(monkeypatch):
    real = bijection._read_word
    webs = {web.word: web for _rows, web in enumerate_basis(SIGNS)}

    def another_flow(t):
        # the moves of a legal flow on the same web, just not the one that was filled
        word, moves = real(t)
        return word, next(f.moves for f in enumerate_flows(webs[word]) if f.moves != moves)

    monkeypatch.setattr(bijection, "_read_word", another_flow)
    ok, ce = checks.check_roundtrip(checks.Boundary(SIGNS))
    assert not ok
    assert ce["signs"] == SIGNS
    assert ce["reason"] == "grow did not invert"


def test_roundtrip_fails_when_iota_collides(monkeypatch):
    real = StdMultitableau3._make
    first: dict = {}

    def collide(cls, fields):
        # every flow of one state gets the filling of the first flow filled with it
        return first.setdefault(fields[0], real(fields))

    monkeypatch.setattr(StdMultitableau3, "_make", classmethod(collide))
    ok, ce = checks.check_roundtrip(checks.Boundary(SIGNS))
    assert not ok
    assert ce["reason"] == "iota not injective"


def test_roundtrip_runs_iota_once_per_flow(monkeypatch):
    # the survey fills each flow once, on its prefix-tree walk; iota is not run
    calls = []

    class Counted(StdMultitableau3):
        @classmethod
        def _make(cls, fields):
            calls.append(fields[1])
            return super()._make(fields)

    monkeypatch.setattr(bijection, "StdMultitableau3", Counted)
    monkeypatch.setattr(bijection, "iota", None)
    flows = sum(len(enumerate_flows(web)) for _rows, web in enumerate_basis(SIGNS))
    results = checks.run_checks(list(checks.CHECKS), [SIGNS])
    assert all(r["ok"] for r in results), results
    assert len(calls) == flows
    # a command keeps nothing for the next: the basis surveys the boundary anew
    calls.clear()
    foamword.enumerate_cellular_basis(SIGNS)
    assert len(calls) == flows


def test_checks_enumerate_no_flows(monkeypatch):
    # the survey walks its own prefix tree, and the flow vectors and the
    # canonical flow are read off the survey's flows; the count wraps every
    # module that holds enumerate_flows by name, so no import escapes it
    real = flows.enumerate_flows
    calls: Counter = Counter()

    def counted(web):
        calls[web] += 1
        return real(web)

    for module in (flows, bijection, checks, foamword):
        if getattr(module, "enumerate_flows", None) is real:
            monkeypatch.setattr(module, "enumerate_flows", counted)
    results = checks.run_checks(list(checks.CHECKS), [SIGNS])
    assert all(r["ok"] for r in results), results
    assert not calls, calls


def test_survey_fed_vectors_equal_enumerated_vectors():
    webs = 0
    for signs in checks.classical_sign_strings(6):
        b = checks.Boundary(signs)
        for entry, vector in zip(b.surveys, b.vectors):
            want = flows.flow_vector((f.state, f.exponent) for f in enumerate_flows(entry.web))
            assert vector == want, (signs, entry.web)
            webs += 1
    assert webs == 176  # every basis web over the 42 boundaries with n <= 6


def test_negated_weight_rule_fails_the_weight_checks(monkeypatch):
    # the survey-fed flow vectors still see a wrong rung exponent
    real = flows.transition_exponent
    monkeypatch.setattr(flows, "transition_exponent", lambda *sets: -real(*sets))
    results = checks.run_checks(list(checks.CHECKS), [SIGNS])
    failed = {r["check"] for r in results if not r["ok"]}
    assert failed == {"degree", "bracket-symmetry", "graded-dim"}, results


def _failing_boundaries(max_n):
    """{check: boundaries it fails} for every check over n <= max_n."""
    failing: dict = {}
    for r in checks.run_checks(list(checks.CHECKS), checks.classical_sign_strings(max_n)):
        if not r["ok"]:
            failing.setdefault(r["check"], []).append(r["signs"])
    return failing


def test_multiplicity_correction_off_by_one_fails_the_degree_checks(monkeypatch):
    # a triple entry corrected by 2, not 3: only the three boundaries with such a rung see
    # it; `tableaux._place` reads the table at each call
    monkeypatch.setattr(tableaux, "_MULTIPLICITY_CORRECTION", {1: 0, 2: 1, 3: 2})
    triples = ["+--++-", "+--+-+", "+---++"]
    assert _failing_boundaries(6) == dict.fromkeys(
        ("degree", "graded-dim", "homogeneity", "cellular"), triples)


def test_weight_rule_counting_below_fails_degree_and_unitriangular(monkeypatch):
    # reports/calibration.md's +below rule gives the circle and theta their weights
    spec = importlib.util.spec_from_file_location(
        "calibration_report", ROOT / "scripts" / "calibration_report.py")
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    monkeypatch.setattr(flows, "transition_exponent",
                        lambda *sets: report.variant_exponent(1, "below", *sets))
    every = checks.classical_sign_strings(4)
    assert _failing_boundaries(4) == {"degree": every, "unitriangular": every}


@pytest.mark.parametrize("signs", ["+-", "+++", SIGNS])
def test_off_pairing_fails_bracket_checks(monkeypatch, signs):
    monkeypatch.setattr(flows, "_pairing_exponent", lambda j: len(j) + 1 + sum(j))
    assert not checks.check_graded_dim(checks.Boundary(signs))[0]
    assert not checks.check_bracket_symmetry(checks.Boundary(signs))[0]


def test_duplicate_basis_web_fails_basis_checks(monkeypatch):
    # the n >= 7 defect in small: one web twice, another missing
    first, _second = enumerate_basis(SIGNS)
    monkeypatch.setattr(checks, "enumerate_basis", lambda signs: [first, first])
    ok, ce = checks.check_total_length(checks.Boundary(SIGNS))
    assert not ok
    assert ce["repeated_words"] == [str(first[1].word)]
    ok, ce = checks.check_unitriangularity(checks.Boundary(SIGNS))
    assert not ok
    assert ce["reason"] == "two basis webs share their defining state"


@pytest.mark.xfail(strict=True, reason="lt_generators gives two tableaux one web (ROADMAP item 5)")
@pytest.mark.parametrize("signs", ["+--+---", "+---+--", "+-+-+-+-"])
def test_basis_words_distinct_beyond_six_strands(signs):
    assert checks.check_total_length(checks.Boundary(signs))[0]


def test_graded_dim_at_one_counts_matching_states():
    # bracket-symmetry's flow count: sum_j |a_j| * |b_j| over shared states
    (arc,) = bijection.survey(enumerate_basis("+-"))
    assert foamword.graded_dim_pair(arc, arc)(1) == 3


BOUNDARIES = ["+-", "+++", SIGNS]


def test_run_checks_reports_check_major_over_boundaries():
    names = ["degree", "total-length", "bracket-symmetry"]
    results = checks.run_checks(names, BOUNDARIES)
    assert [(r["check"], r["signs"]) for r in results] == [
        (name, signs) for name in names for signs in BOUNDARIES
    ]
    assert all(r["ok"] for r in results), results


def test_verify_all_reads_each_boundary_once(monkeypatch):
    calls: Counter = Counter()

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(checks, name, counted)

    for name in ("enumerate_basis", "survey", "cellular_halves", "pairing"):
        spy(name, getattr(checks, name))
    results = checks.run_checks(list(checks.CHECKS), BOUNDARIES)
    assert all(r["ok"] for r in results), results
    webs = [len(enumerate_basis(signs)) for signs in BOUNDARIES]
    assert calls == {
        "enumerate_basis": len(BOUNDARIES),
        "survey": len(BOUNDARIES),
        "cellular_halves": len(BOUNDARIES),
        "pairing": sum(k * k for k in webs),
    }


def test_verify_builds_no_superstandard_filling(monkeypatch):
    # a state's superstandard degree is the sum of its dots, which are a closed form;
    # a call to the per-filling degree would make a check fail
    real = tableaux.bkw_degree
    for module in (tableaux, bijection, foamword, checks):
        if getattr(module, "bkw_degree", None) is real:
            monkeypatch.setattr(module, "bkw_degree", None)
    results = checks.run_checks(list(checks.CHECKS), checks.classical_sign_strings(5, 5))
    assert all(r["ok"] for r in results), results


@pytest.mark.parametrize("module, name", [(bijection, "shape_of_boundary"), (foamword, "_frame")])
def test_verify_reads_each_state_once(monkeypatch, module, name):
    # a state's shape (per survey) and its frame (per boundary's halves), not a flow's
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    results = checks.run_checks(list(checks.CHECKS), checks.classical_sign_strings(5, 5))
    assert all(r["ok"] for r in results), results
    # 360 states over the ten 5-strand boundaries, which have 618 flows
    assert len(calls) == 360


def test_crash_inside_a_check_is_a_replayable_failure(monkeypatch):
    def broken(t):
        raise RuntimeError("seeded invariant break")

    monkeypatch.setattr(bijection, "_read_word", broken)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", "verify", "roundtrip", "--signs", "+-"])
    assert code == 1
    (result,) = json.loads(out.getvalue())
    assert not result["ok"]
    assert result["counterexample"] == {
        "signs": "+-",
        "error": "RuntimeError: seeded invariant break",
        "replay": "sl3web verify roundtrip --signs +-",
    }


# -- seeded defects: each must make a named check fail on SIGNS ---------------------


def _failure(name):
    (result,) = checks.run_checks([name], [SIGNS])
    assert not result["ok"], result
    return result["counterexample"]


def _mutant(module, old, new):
    """A fresh copy of a module with one line of its source replaced."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    mutant = types.ModuleType(module.__name__)
    exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
    return mutant


def test_homogeneity_and_cellular_build_no_pair_foam(monkeypatch, capsys):
    # each distinct generator and its reflection are built once, not one per half or pair
    real = foamword.FoamGen
    for argv in (["--format", "json", "foam", "basis", "--signs", SIGNS],
                 ["verify", "all", "--signs", SIGNS]):
        calls = []
        monkeypatch.setattr(foamword, "FoamGen", lambda *key: calls.append(key) or real(*key))
        assert main(argv) == 0, capsys.readouterr()
        built = [key for key in calls if not key[4]]
        mirrored = [key for key in calls if key[4]]
        assert len(mirrored) == len(set(mirrored)) == len(set(built)) > 10
        if argv[0] != "verify":
            assert len(built) == len(set(built))
        else:  # save cellular's second reflection, which gives the generator back
            assert Counter(built) == dict.fromkeys(built, 2)


def _basis_degree_error(name):
    """The error of a check that `foamword` failed on a basis foam degree; it replays."""
    ce = _failure(name)
    assert ce["error"].startswith("RuntimeError: basis foam degree: "), ce
    assert ce["replay"] == f"sl3web verify {name} --signs {SIGNS}"
    return ce["error"]


def _foam_basis_fails_with(capsys, error):
    assert main(["--format", "json", "foam", "basis", "--signs", SIGNS]) == 1
    assert capsys.readouterr() == ("", f"internal error: {error}\n")


def test_reflection_that_changes_a_degree_fails_cellular(monkeypatch, capsys):
    # `reflections` raises as it builds the generators both checks read
    real = foamword._reflect

    def heavier(g):
        r = real(g)
        return r._replace(degree=r.degree + 1)

    monkeypatch.setattr(foamword, "_reflect", heavier)
    error = _basis_degree_error("cellular")
    assert " reflects to " in error
    assert _basis_degree_error("homogeneity") == error
    _foam_basis_fails_with(capsys, error)


def test_reflection_that_is_no_involution_fails_cellular(monkeypatch):
    # every degree kept, so homogeneity holds, but a second reflection moves the
    # generator one more position instead of giving it back
    real = foamword._reflect
    monkeypatch.setattr(foamword, "_reflect",
                        lambda g: real(g)._replace(position=(g.position or 0) + 1))
    assert _failure("cellular")["reason"] == "involution is not involutive"
    (result,) = checks.run_checks(["homogeneity"], [SIGNS])
    assert result["ok"], result


def test_dots_dropped_at_their_source_fail_homogeneity(monkeypatch):
    # one dot short on every dotted node of the closed form: the superstandard
    # degree summed from it is short too, so no half weighs its degree drop
    real = foamword.dot_placement
    monkeypatch.setattr(foamword, "dot_placement", lambda shape: [max(k - 1, 0) for k in real(shape)])
    ce = _failure("homogeneity")
    assert ce["error"].startswith("RuntimeError: half foam degree")


def test_dot_generators_dropped_fail_homogeneity(monkeypatch, capsys):
    monkeypatch.setattr(foamword, "_dot_generators", lambda dots: ())
    error = _basis_degree_error("homogeneity")
    assert error.startswith("RuntimeError: basis foam degree: dots of ") and error.endswith(" weigh 0")
    _foam_basis_fails_with(capsys, error)


def test_failing_halves_are_built_once_per_boundary(monkeypatch):
    # homogeneity and cellular both read the halves; the exception their build raised
    # is kept, so each check fails with it and the halves are not built again
    monkeypatch.setattr(foamword, "_dot_generators", lambda dots: ())
    real, built = checks.cellular_halves, []
    monkeypatch.setattr(checks, "cellular_halves", lambda surveys: built.append(1) or real(surveys))
    every = checks.classical_sign_strings(5)
    results = checks.run_checks(list(checks.CHECKS), every)
    assert len(built) == len(every) == 20
    for r in results:
        assert r["ok"] == (r["check"] not in ("homogeneity", "cellular")), r
        if not r["ok"]:
            ce = r["counterexample"]
            assert ce["error"].startswith("RuntimeError: basis foam degree: dots of "), ce
            assert ce["replay"] == f"sl3web verify {r['check']} --signs {r['signs']}"


def test_a_failing_part_raises_the_same_exception_on_every_read(monkeypatch):
    calls = []

    def broken(basis):
        calls.append(basis)
        raise RuntimeError("seeded invariant break")

    monkeypatch.setattr(checks, "survey", broken)
    b = checks.Boundary(SIGNS)
    errors = []
    for part in ("surveys", "vectors", "halves", "generators", "surveys"):
        with pytest.raises(RuntimeError, match="seeded invariant break") as caught:
            getattr(b, part)
        errors.append(caught.value)
    assert len(calls) == 1 and all(e is errors[0] for e in errors)
    assert b.basis == enumerate_basis(SIGNS)  # a part that built is read as before


def test_blocked_swap_fails_homogeneity_and_cellular(monkeypatch, capsys):
    # a frame whose neighbour test forbids every swap: the halves' walk raises
    real = foamword._frame

    def blocking(shape):
        residues, _blocked = real(shape)
        return residues, (frozenset(range(len(residues))),) * len(residues)

    monkeypatch.setattr(foamword, "_frame", blocking)
    for name in ("homogeneity", "cellular"):
        ce = _failure(name)
        assert ce["error"].startswith("RuntimeError: transposition t"), ce
        assert " left the standard fillings on the way from " in ce["error"]
        assert ce["replay"] == f"sl3web verify {name} --signs {SIGNS}"
    _foam_basis_fails_with(capsys, ce["error"])


def test_pair_without_dots_fails_basis_assembly(monkeypatch):
    # a pair weighs d_top + d_bot only if its state's dots weigh twice the superstandard degree
    monkeypatch.setattr(foamword, "_dot_generators", lambda dots: ())
    with pytest.raises(RuntimeError, match="basis foam degree"):
        foamword.enumerate_cellular_basis(SIGNS)


def test_reflection_that_changes_a_degree_fails_basis_assembly(monkeypatch):
    # ... and only if each distinct generator's reflection weighs what it weighs
    real = foamword._reflect

    def heavier(g):
        r = real(g)
        return r._replace(degree=r.degree + 1)

    monkeypatch.setattr(foamword, "_reflect", heavier)
    with pytest.raises(RuntimeError, match="basis foam degree"):
        foamword.enumerate_cellular_basis(SIGNS)


def test_digon_swap_taken_for_a_shift_fails_homogeneity(monkeypatch, capsys):
    # the half's degree no longer makes its filling's degree drop
    monkeypatch.setitem(foamword._SWAP_KINDS, 0, ("shift", 0, 0))
    ce = _failure("homogeneity")
    assert ce["error"].startswith("RuntimeError: half foam degree")
    assert ce["replay"] == f"sl3web verify homogeneity --signs {SIGNS}"
    _foam_basis_fails_with(capsys, ce["error"])
    with pytest.raises(RuntimeError, match="half foam degree"):
        foamword.enumerate_cellular_basis(SIGNS)


def test_a_dropped_half_fails_cellular_on_the_count(monkeypatch):
    real = foamword.cellular_halves

    def drop_one(surveys):
        first, *rest = real(surveys)
        return [first._replace(halves=first.halves[1:]), *rest]

    monkeypatch.setattr(checks, "cellular_halves", drop_one)
    ce = _failure("cellular")
    assert ce["basis"] < ce["dimension"]


def test_residue_read_one_too_high_fails_roundtrip(monkeypatch):
    # every rung grow reads off the filling lands one strand to the right
    high = _mutant(bijection, "start=1 - row + t.shape.m", "start=2 - row + t.shape.m")
    monkeypatch.setattr(bijection, "_read_word", high._read_word)
    assert _failure("roundtrip")["reason"] == "grow did not invert"


def test_verify_reflects_no_half_word():
    # the checks reflect each distinct generator; src/ holds no half word to reflect
    results = checks.run_checks(["homogeneity", "cellular"], [SIGNS])
    assert all(r["ok"] for r in results), results


def test_frontier_that_never_advances_fails_roundtrip(monkeypatch):
    # the survey's abacus grows where each entry's degree share is counted: a node
    # placed without moving its bead leaves the next node of its row no room
    frozen = _mutant(tableaux, "grown[l - 1] = mask ^ 3 << shift", "grown[l - 1] = mask")
    monkeypatch.setattr(bijection, "_place", frozen._place)
    assert "offers 0 nodes" in _failure("roundtrip")["error"]


def _first_row_longer(shape):
    comps = list(shape.components)
    l = next(l for l, comp in enumerate(comps) if comp)
    comps[l] = (comps[l][0] + 1, *comps[l][1:])
    return Multipartition3(comps, m=shape.m)


@pytest.mark.parametrize(
    "bend",
    [lambda shape: Multipartition3(shape.components, m=shape.m + 1), _first_row_longer],
    ids=["shift", "row"],
)
def test_shape_other_than_the_grown_rows_fails_roundtrip(monkeypatch, capsys, bend):
    # the survey leaf compares its grown rows and shift with the flow's shape
    real = bijection.shape_of_boundary
    monkeypatch.setattr(bijection, "shape_of_boundary", lambda web, flow: bend(real(web, flow)))
    assert main(["verify", "roundtrip", "--signs", SIGNS]) == 1
    out = capsys.readouterr().out
    assert "verify roundtrip: 1 FAILURES" in out and "fills rows" in out


def test_doubled_survey_fails_unitriangular_on_its_coefficient(monkeypatch):
    # the leading state is read off the tableau; two flows there weigh it 2
    real = bijection.survey_web

    def doubled(web, states):
        entry = real(web, states)
        return bijection.WebSurvey(entry.web, entry.records * 2, entry.by_state)

    monkeypatch.setattr(bijection, "survey_web", doubled)
    assert _failure("unitriangular")["coefficient"] == "2"


def test_verify_reproves_no_rule_per_flow(monkeypatch):
    # the move table is checked once, by its own tests; verify reads the leading state
    # off the tableau and reflects each distinct generator, and never classifies a rung
    def refuse(*args):
        raise AssertionError("verify re-proved a rule")

    real = bijection._classify
    for other in (bijection, flows, foamword, checks):
        if getattr(other, "_classify", None) is real:
            monkeypatch.setattr(other, "_classify", refuse)
    results = checks.run_checks(list(checks.CHECKS), checks.classical_sign_strings(5))
    assert all(r["ok"] for r in results), [r for r in results if not r["ok"]]


def test_verify_and_foam_basis_build_no_flow(monkeypatch, capsys):
    # the survey's records are plain tuples: no check and no basis foam builds a flow
    argvs = (["verify", "all", "--max-n", "5"], ["foam", "basis", "--signs", "-+--++"])
    plain = [(main(argv), capsys.readouterr().out) for argv in argvs]
    assert all(out for _code, out in plain)

    def refuse(*fields):
        raise AssertionError("a flow was built")

    for module in (flows, bijection):
        monkeypatch.setattr(module, "Flow", refuse)
    for argv, want in zip(argvs, plain):
        assert (main(argv), capsys.readouterr().out) == want, argv


def test_foam_basis_builds_no_basis_foam(monkeypatch, capsys):
    # `foam basis` writes its rows off the cells, one per state and ordered pair of its
    # halves, with no record per foam
    argvs = [["--format", fmt, "foam", "basis", "--signs", "-+--++"]
             for fmt in ("json", "text", "csv")]
    plain = [(main(argv), capsys.readouterr().out) for argv in argvs]
    assert all(code == 0 and out for code, out in plain)

    def refuse(*fields):
        raise AssertionError("a basis foam was built")

    monkeypatch.setattr(foamword, "BasisFoam", refuse)
    for argv, want in zip(argvs, plain):
        assert (main(argv), capsys.readouterr().out) == want, argv
    for signs in checks.classical_sign_strings(5):
        b = checks.Boundary(signs)
        count = sum(len(halves) ** 2 for _shape, _residues, halves, _keys in b.halves)
        assert count == sum(br(1) for _u, _v, br in b.brackets)
        assert main(["--format", "json", "foam", "basis", "--signs", signs]) == 0
        assert len(json.loads(capsys.readouterr().out)) == count, signs
