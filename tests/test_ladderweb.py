"""Ladder words, web building and basis enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3web.checks import classical_sign_strings
from sl3web.ladderweb import (
    LTWord,
    SignString,
    ZERO,
    apply_F,
    build_web,
    c_of_S,
    enumerate_basis,
    lt_generators,
    semistandard_tableaux,
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
    w = LTWord(factors)
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


def test_lt_generators_rejects_bad_tableau():
    with pytest.raises(ValueError):
        lt_generators(((2, 1, 1),))


# -- building webs -----------------------------------------------------------------


def test_build_half_theta_layers():
    web = build_web(LTWord.parse("F1 F2^2"), 3, 2)
    assert web.layers == ((3, 3, 0), (3, 1, 2), (2, 2, 2))
    assert web.boundary == SignString("---")


def test_build_empty_word_identity():
    web = build_web(LTWord(), 4, 2)
    assert web.boundary == SignString("xxoo")


def test_build_dies_on_overdraw():
    assert build_web(LTWord.parse("F1^3 F1^3"), 2, 1) is ZERO


# -- basis enumeration ---------------------------------------------------------------


def test_basis_sizes_from_tableau_counts():
    # oracle: direct semi-standard enumeration with the prescribed content
    for signs, expected in (("---", 1), ("+-", 1), ("+-+-", 2), ("++++++", 5)):
        S = SignString(signs)
        content = tuple(2 if s == "-" else 1 for s in signs)
        count = len(semistandard_tableaux(S.ell, content))
        assert count == expected
        assert len(enumerate_basis(signs)) == count


def test_basis_contains_both_circle_webs():
    words = {str(web.word) for _, web in enumerate_basis("+-+-")}
    assert words == {"F2 F1^2 F3^2 F2^2", "F1^2 F2 F3^2 F2^2"}


def test_basis_needs_classical_string():
    with pytest.raises(ValueError):
        enumerate_basis("x+-")
    with pytest.raises(ValueError):
        SignString("++")  # weight not divisible by three


def test_webs_never_die_and_boundaries_match():
    for signs in classical_sign_strings(5):
        for rows, web in enumerate_basis(signs):
            assert web is not ZERO
            assert web.boundary == SignString(signs)


def test_web_equality_and_hash_ignore_the_tableau():
    tagged = web_from_tableau(((1, 2, 3),))
    plain = build_web(tagged.word, tagged.n, tagged.ell)
    assert (plain.tableau, tagged.tableau) == (None, ((1, 2, 3),))
    assert plain == tagged and hash(plain) == hash(tagged)
    with pytest.raises(AttributeError):
        tagged.tableau = None


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
                assert shape_of_boundary(web, flow).size == constant
