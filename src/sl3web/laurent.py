"""Exact integer Laurent polynomials in one variable q.

Polynomials are stored as a mapping {exponent: coefficient} with zero
coefficients dropped, so the zero polynomial is the empty mapping and
equality is equality of mappings.  Coefficients are Python ints, hence
arbitrary precision.
"""

from __future__ import annotations


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        object.__setattr__(self, "_coeffs", {e: c for e, c in (coeffs or {}).items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- basic accessors ------------------------------------------------

    def items(self):
        return self._coeffs.items()

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k, i.e. raise every exponent by k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def bar(self) -> "LaurentPoly":
        """Exponent negation q -> q^-1."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    def __call__(self, value: int):
        """Evaluate exactly at a nonzero integer q: the sum over the largest negative power
        q^-k, divided once by q^k, is an int wherever that divides (always at q = +-1)."""
        k = max(0, -min(self._coeffs, default=0))
        total = sum(c * value ** (e + k) for e, c in self._coeffs.items())
        if total % value**k:
            from fractions import Fraction
            return Fraction(total, value**k)
        return total // value**k

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(sorted(self._coeffs.items())))

    # -- text and JSON forms ---------------------------------------------

    def __str__(self) -> str:
        return poly_text(self._coeffs)

    def __repr__(self) -> str:
        return f"LaurentPoly({self!s})"


def at_minus_q(e: int, c: int) -> int:
    """The coefficient c of q^e once q -> -q: negated on an odd power."""
    return -c if e % 2 else c


def poly_text(coeffs, sign=None) -> str:
    """The one text of a polynomial, as `LaurentPoly.__str__` writes it, from its {exponent:
    nonzero coefficient} mapping, each c of q^e as sign(e, c) if `sign` is given: so
    `flows expand` writes one text per state from a top layer's counts (`at_minus_q`)."""
    parts = []
    for e in sorted(coeffs, reverse=True):
        c = coeffs[e] if sign is None else sign(e, coeffs[e])
        parts.append(("+ " if c > 0 else "- ") + _term_str(abs(c), e))
    text = " ".join(parts)  # a leading "+ a" is written "a", a leading "- a" as "-a"
    return "0" if not text else text[2:] if text[0] == "+" else "-" + text[2:]


def _term_str(c: int, e: int) -> str:
    if e == 0:
        return str(c)
    q = "q" if e == 1 else f"q^{e}"
    return q if c == 1 else f"{c}*{q}"


def monomial(exponent: int, coefficient: int = 1) -> LaurentPoly:
    return LaurentPoly({exponent: coefficient})


def qint(a: int) -> LaurentPoly:
    """Quantum integer [a] = q^(a-1) + q^(a-3) + ... + q^-(a-1) for a >= 1."""
    if a < 1:
        raise ValueError(f"quantum integer needs a >= 1, got {a}")
    return LaurentPoly({a - 1 - 2 * i: 1 for i in range(a)})

