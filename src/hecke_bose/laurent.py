"""Sparse Laurent polynomials (the group algebra of the lattice) and the
divided-difference operators dual to the integral-reflection operators."""

from __future__ import annotations

from fractions import Fraction

from . import weyl


class LaurentPolynomial:
    """Sparse Laurent polynomial: exponent tuple in Z^k -> rational coefficient.

    Zero coefficients are never stored.  Instances are value-like: all
    operations return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff != 0:
                    clean[tuple(exp)] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, exponent, coeff=1):
        return cls({tuple(exponent): coeff})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls, k):
        return cls.monomial((0,) * k)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            c = out.get(exp, 0) + coeff
            if c == 0:
                out.pop(exp, None)
            else:
                out[exp] = c
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p.terms = out
        return p

    def __neg__(self):
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p.terms = {exp: -c for exp, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(exp, 0) + c1 * c2
                if c == 0:
                    out.pop(exp, None)
                else:
                    out[exp] = c
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p.terms = out
        return p

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar):
        if scalar == 0:
            return LaurentPolynomial.zero()
        p = LaurentPolynomial.__new__(LaurentPolynomial)
        p.terms = {exp: scalar * c for exp, c in self.terms.items()}
        return p

    def __repr__(self):
        if not self.terms:
            return "LaurentPolynomial(0)"
        bits = ["%s*e%s" % (c, list(exp)) for exp, c in sorted(self.terms.items())]
        return "LaurentPolynomial(%s)" % " + ".join(bits)


def weyl_act_poly(w, p):
    """Action of a (extended) affine Weyl element on exponents: w(e^x) = e^{w x}."""
    out = {}
    for exp, coeff in p.terms.items():
        moved = weyl.act(w, exp)
        out[moved] = out.get(moved, 0) + coeff
    return LaurentPolynomial(out)


def apply_T_check(i, p, params):
    """The divided-difference operator on Laurent polynomials, index 1 <= i < k.

    T^check_i = s_i + (alpha e^{v_{i+1}} + 1 - beta) * (1 - s_i) / (1 - e^{v_{i+1} - v_i}),
    in one pass: c e^x adds c at s_i x, and each step y = x + j (v_{i+1} - v_i) of the
    telescoped quotient (j in [0, a_i(x)) with sign +, in [a_i(x), 0) with sign -)
    adds +-c (1 - beta) at y and +-c alpha at y + v_{i+1}.
    """
    if not 1 <= i < params.k:
        raise ValueError("T^check index must satisfy 1 <= i < k")
    alpha, one_minus_beta = params.alpha, 1 - params.beta
    out = {}
    for exp, c in p.terms.items():
        head, a, b, tail = exp[: i - 1], exp[i - 1], exp[i], exp[i + 1 :]
        y = head + (b, a) + tail
        out[y] = out.get(y, 0) + c
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
