"""Ladder words, web building and basis enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import is_semistandard
from sl3web import ladderweb
from sl3web.checks import classical_sign_strings
from sl3web.ladderweb import (
    LTWord,
    ZERO,
    apply_F,
    build_web,
    c_of_S,
    enumerate_basis,
    lt_generators,
    semistandard_tableaux,
    sign_weights,
    web_from_tableau,
)


# -- apply_F -------------------------------------------------------------------


def test_apply_f_moves_weight():
    assert apply_F((3, 3, 0, 0), 2, 2) == (3, 1, 2, 0)


def test_apply_f_full_transfer():
    assert apply_F((3, 0), 1, 3) == (0, 3)


def test_apply_f_overflow_is_zero():
    assert apply_F((1, 3), 1, 1) is ZERO


def test_apply_f_index_error_distinct_from_zero():
    with pytest.raises(ValueError):
        apply_F((3, 0), 2, 1)


# -- word parsing and lengths ----------------------------------------------------


def test_word_text_roundtrip():
    w = LTWord.parse("F1 F2^2 F1")
    assert str(w) == "F1 F2^2 F1"
    assert w.factors == ((1, 1), (2, 2), (1, 1))
    assert w.application_order() == ((1, 1), (2, 2), (1, 1))[::-1]


def test_word_lengths():
    w = LTWord.parse("F1 F2^2")
    assert (w.total_length, w.length) == (3, 2)
    assert (LTWord().total_length, LTWord().length) == (0, 0)


def test_hexagon_word_lengths():
    w = LTWord.parse("F1 F2 F3^2 F2 F1 F4 F3 F2 F5^2 F4^2 F3^2")
    # sum of the powers of the quoted word
    assert w.total_length == 15
    assert w.length == 11


def test_word_parse_accepts_parenthesized_powers():
    assert LTWord.parse("F3^(2) F1") == LTWord(((3, 2), (1, 1)))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=3)
        ),
        max_size=8,
    )
)
@settings(max_examples=60)
def test_random_word_text_roundtrip(factors):
    w = LTWord(tuple(factors))
    assert LTWord.parse(str(w)) == w
    assert w.total_length == sum(j for _, j in factors)


# -- generating ladder words -------------------------------------------------------


def test_arc_words():
    assert str(lt_generators(((1, 1, 2),))) == "F1"
    assert str(lt_generators(((1, 2, 2),))) == "F1^2"


def test_theta_words():
    assert str(lt_generators(((1, 1, 2), (2, 3, 3)))) == "F1 F2^2"
    assert str(lt_generators(((1, 2, 3),))) == "F1 F2 F1"


def test_hexagon_word():
    w = lt_generators(((1, 2, 4), (2, 3, 5), (4, 6, 6)))
    assert str(w) == "F1 F2 F3^2 F2 F1 F4 F3 F2 F5^2 F4^2 F3^2"


def test_circle_pair_words():
    assert str(lt_generators(((1, 2, 3), (2, 4, 4)))) == "F2 F1^2 F3^2 F2^2"
    assert str(lt_generators(((1, 2, 2), (3, 4, 4)))) == "F1^2 F2 F3^2 F2^2"


def _classical_tableaux(max_n: int, min_n: int = 2):
    """(signs, tableau) for every basis tableau of the classical boundaries."""
    for signs in classical_sign_strings(max_n, min_n):
        content = sign_weights(signs)
        for rows in semistandard_tableaux(sum(content) // 3, content):
            yield signs, rows


def _above_row_cells(rows, v):
    """The (1-based) cells holding v in rows above row v, in reading order."""
    return [(r, c) for r, row in enumerate(rows[:v - 1], start=1)
            for c, entry in enumerate(row, start=1) if entry == v]


def _reference_lowerable(rows):
    """The candidates as lt_generators once computed them, each with its cells above
    its row: every value above its own row whose lowering, copied and re-checked,
    stays semi-standard, in ascending order."""
    def lowered(v):
        copy = [list(row) for row in rows]
        for r, c in _above_row_cells(rows, v):
            copy[r - 1][c - 1] = v - 1
        return copy

    return {
        v: _above_row_cells(rows, v)
        for v in sorted({x for row in rows for x in row})
        if _above_row_cells(rows, v) and is_semistandard(lowered(v))
    }


def test_lowerable_matches_the_lowering_test(monkeypatch):
    # at every step of every basis tableau with n <= 8, the one-pass candidates are
    # the values whose lowered copy passes is_semistandard, in order, with their cells
    real, steps = ladderweb._lowerable, []

    def checked(rows):
        got = real(rows)
        want = _reference_lowerable(rows)
        assert list(got.items()) == list(want.items()), rows
        steps.append(rows)
        return got

    monkeypatch.setattr(ladderweb, "_lowerable", checked)
    for _signs, rows in _classical_tableaux(8):
        lt_generators(rows)
    assert len(steps) > 10_000


def test_lt_generators_lowers_once_per_factor(monkeypatch):
    # only the chosen value is lowered: one copy of the tableau per emitted factor
    real, calls = ladderweb._lower_all, []

    def counted(rows, v, cells):
        calls.append(v)
        return real(rows, v, cells)

    monkeypatch.setattr(ladderweb, "_lower_all", counted)
    tableaux = 0
    for _signs, rows in _classical_tableaux(6):
        calls.clear()
        word = lt_generators(rows)
        assert len(calls) == word.length, rows
        tableaux += 1
    assert tableaux == 176


# -- building webs -----------------------------------------------------------------


def test_build_half_theta_layers():
    web = build_web(LTWord.parse("F1 F2^2"), 3, 2)
    assert web.layers == ((3, 3, 0), (3, 1, 2), (2, 2, 2))
    assert web.boundary == "---"


def test_build_empty_word_identity():
    web = build_web(LTWord(), 4, 2)
    assert web.boundary == "xxoo"


def test_build_dies_on_overdraw():
    assert build_web(LTWord.parse("F1^3 F1^3"), 2, 1) is ZERO


# -- basis enumeration ---------------------------------------------------------------


def test_basis_sizes_from_tableau_counts():
    # oracle: direct semi-standard enumeration with the prescribed content
    for signs, expected in (("---", 1), ("+-", 1), ("+-+-", 2), ("++++++", 5)):
        content = tuple(2 if s == "-" else 1 for s in signs)
        count = len(semistandard_tableaux(sum(content) // 3, content))
        assert count == expected
        assert len(enumerate_basis(signs)) == count


def test_basis_contains_both_circle_webs():
    words = {str(web.word) for _, web in enumerate_basis("+-+-")}
    assert words == {"F2 F1^2 F3^2 F2^2", "F1^2 F2 F3^2 F2^2"}


def test_basis_needs_classical_string():
    with pytest.raises(ValueError):
        enumerate_basis("x+-")
    with pytest.raises(ValueError, match=r"total weight 2 of \+\+ not divisible by 3"):
        sign_weights("++")
    with pytest.raises(ValueError, match=r"bad sign 'y'; expected one of o \+ - x"):
        sign_weights("+y-")


def _reference_semistandard_tableaux(ell: int, content: tuple[int, ...]) -> list[tuple]:
    """All semi-standard 3-column tableaux with ell rows and given content.

    content[k-1] is the multiplicity of the entry k.  Cells are filled in
    reading order with the smallest legal values first, so the output is in
    lexicographic order of reading words.
    """
    if sum(content) != 3 * ell:
        raise ValueError("content does not fill the tableau")
    n = len(content)
    rows = [[0] * 3 for _ in range(ell)]
    remaining = list(content)
    out = []

    def rec(pos: int):
        if pos == 3 * ell:
            out.append(tuple(tuple(row) for row in rows))
            return
        r, c = divmod(pos, 3)
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, n + 1):
            if remaining[v - 1] == 0:
                continue
            rows[r][c] = v
            remaining[v - 1] -= 1
            rec(pos + 1)
            remaining[v - 1] += 1
            rows[r][c] = 0

    rec(0)
    return out


def test_tableaux_match_the_cell_by_cell_search():
    # the strip-by-strip growth lists what the backtracking fill lists, in its order
    total = 0
    for signs in classical_sign_strings(9):
        content = sign_weights(signs)
        ell = sum(content) // 3
        got = semistandard_tableaux(ell, content)
        assert got == _reference_semistandard_tableaux(ell, content), signs
        total += len(got)
    assert total == 10_564  # over the 340 classical boundaries with n <= 9


def test_tableaux_of_unclassical_contents():
    for ell, content in ((0, ()), (1, (3,)), (1, (0, 2, 1)), (2, (1, 1, 4)), (2, (2, 2, 2))):
        assert semistandard_tableaux(ell, content) == _reference_semistandard_tableaux(ell, content)
    with pytest.raises(ValueError, match="content does not fill the tableau"):
        semistandard_tableaux(2, (1, 1))


def test_webs_never_die_and_boundaries_match():
    for signs in classical_sign_strings(5):
        for rows, web in enumerate_basis(signs):
            assert web is not ZERO
            assert web.boundary == signs


def test_web_of_a_tableau_is_the_web_of_its_word():
    web = web_from_tableau(((1, 2, 3),))
    plain = build_web(lt_generators(((1, 2, 3),)), 3, 1)
    assert web == plain and hash(web) == hash(plain)
    with pytest.raises(AttributeError):
        web.word = None


def test_total_length_constant_over_each_boundary():
    for signs in classical_sign_strings(6):
        lengths = {web.word.total_length for _, web in enumerate_basis(signs)}
        assert len(lengths) <= 1, signs


# -- the node-count constant -----------------------------------------------------------


def test_c_of_s_values():
    assert c_of_S("+-+-") == 7
    assert c_of_S("+-") == 2
    assert c_of_S("---") == 3


def test_c_of_s_rejects_bad_strings():
    with pytest.raises(ValueError):
        c_of_S("+")


def test_c_of_s_counts_nodes():
    from sl3web.bijection import shape_of_boundary
    from sl3web.flows import enumerate_flows

    for signs in classical_sign_strings(5):
        constant = c_of_S(signs)
        for _, web in enumerate_basis(signs):
            for flow in enumerate_flows(web)[:3]:
                assert shape_of_boundary(web, flow.layers[-1]).size == constant
