"""Sparse Laurent polynomials (the group algebra of the lattice) as term tables, and
the divided-difference operators dual to the integral-reflection operators."""

from __future__ import annotations


class LaurentPolynomial:
    """Sparse Laurent polynomial: exponent tuple in Z^k -> rational coefficient.

    Zero coefficients are never stored.  A term holder only: weighted_T_check
    and pairing read and build the term table directly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for exp, coeff in terms.items():
            if coeff != 0:
                clean[tuple(exp)] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, exponent):
        return cls({tuple(exponent): 1})


def apply_T_check(i, p, params):
    """The divided-difference operator on Laurent polynomials, index 1 <= i < k.

    T^check_i = s_i + (alpha e^{v_{i+1}} + 1 - beta) * (1 - s_i) / (1 - e^{v_{i+1} - v_i}),
    written out by ``weighted_T_check`` with the weights 1, 1 - beta and alpha.
    """
    if not 1 <= i < params.k:
        raise ValueError("T^check index must satisfy 1 <= i < k")
    return weighted_T_check(i, p, (1, 1 - params.beta, params.alpha))


def weighted_T_check(i, p, weights):
    """The expansion of T^check_i p with the weights (u, b, a) of its three
    kinds of terms, in one pass: c e^x adds c u at s_i x, and each step
    y = x + j (v_{i+1} - v_i) of the telescoped quotient (j in [0, a_i(x))
    with sign +, in [a_i(x), 0) with sign -) adds +-c b at y and +-c a at
    y + v_{i+1}.  With (1, 1 - beta, alpha) it is T^check_i p; with int
    weights D, D (1 - beta) and D alpha, D a common denominator of alpha and
    1 - beta, it is D T^check_i p, with int coefficients when p has them.
    """
    unit, one_minus_beta, alpha = weights
    out = {}
    for exp, c in p.terms.items():
        head, a, b, tail = exp[: i - 1], exp[i - 1], exp[i], exp[i + 1 :]
        y = head + (b, a) + tail
        out[y] = out.get(y, 0) + c * unit
        n = a - b
        if n < 0:
            c = -c
        for j in range(n) if n > 0 else range(n, 0):
            y = head + (a - j, b + j) + tail
            out[y] = out.get(y, 0) + c * one_minus_beta
            y = head + (a - j, b + j + 1) + tail
            out[y] = out.get(y, 0) + c * alpha
    return LaurentPolynomial(out)


def pairing(f, p):
    """Bilinear pairing of a lattice function with a polynomial: (f, e^x) = f(x)."""
    return sum(coeff * f(exp) for exp, coeff in p.terms.items())
