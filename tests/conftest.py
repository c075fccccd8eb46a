"""Shared helpers: window iteration, random exact scalars, oracles (among
them the affine roots and the element of a word, the Laurent polynomial
ring with the affine Weyl action on exponents, and the undeformed
Hamiltonian)."""

import itertools
import random
from dataclasses import dataclass

from hecke_bose import laurent, weyl
from hecke_bose.functions import random_fraction as rand_fraction
from hecke_bose.verify import random_distinct_fractions as rand_distinct_fractions
from hecke_bose.verify import window_points as window
from hecke_bose.weyl import AffineWeylElement, compose, simple_reflection_element


def rand_params_pair(rng):
    """A generic (alpha, beta) pair with beta nonzero."""
    return rand_fraction(rng), rand_fraction(rng, nonzero=True)


@dataclass(frozen=True)
class AffineRoot:
    """The affine root alpha_{ij} + m*L*delta, with 1-based indices i != j."""

    i: int
    j: int
    m: int = 0

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("affine root requires i != j")


def simple_root(i, k):
    """The simple affine root a_i, 0 <= i < k (a_0 = -alpha_{1k} + L*delta)."""
    if i == 0:
        return AffineRoot(k, 1, 1)
    return AffineRoot(i, i + 1, 0)


def eval_root(a, x, L):
    """Evaluate the affine root a at the point x: x_i - x_j + m*L."""
    return x[a.i - 1] - x[a.j - 1] + a.m * L


def reflect(a, x, L):
    """Orthogonal reflection of x in the hyperplane where a vanishes."""
    c = eval_root(a, x, L)
    y = list(x)
    y[a.i - 1] -= c
    y[a.j - 1] += c
    return tuple(y)


def identity_element(k):
    return AffineWeylElement(tuple(range(k)), (0,) * k)


def from_word(word, k, L):
    """The element s_{word[0]} s_{word[1]} ... (left factor acts last)."""
    w = identity_element(k)
    for letter in word:
        w = compose(w, simple_reflection_element(letter, k, L))
    return w


class LaurentPolynomial(laurent.LaurentPolynomial):
    """The ring on top of the package's term holder: sums, products, scaling
    and equality, for the ring-axiom and relation tests."""

    __slots__ = ()

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


def apply_H_tilde(f, x, params):
    """The undeformed periodic Hamiltonian: discrete Laplacian plus pair coincidences.

    (H~ f)(x) = sum_i ( f(x - v_i) - f(x) ) + #{i < j : x_i = x_j mod L} f(x).
    Counted directly, independent of the d_i^{+-} functions.
    """
    k, L = params.k, params.L
    fx = f(x)
    total = 0
    for i in range(k):
        shifted = list(x)
        shifted[i] -= 1
        total += f(tuple(shifted)) - fx
    pairs = sum(
        1
        for i in range(k)
        for j in range(i + 1, k)
        if (x[i] - x[j]) % L == 0
    )
    return total + pairs * fx


def monomial_symmetric(lam, z):
    """Brute-force monomial symmetric polynomial m_lambda(z)."""
    lam = tuple(lam) + (0,) * (len(z) - len(lam))
    total = 0
    for perm in set(itertools.permutations(lam)):
        term = 1
        for e, zz in zip(perm, z):
            term *= zz ** e
        total += term
    return total


def schur(lam, z):
    """Schur polynomial via the bialternant ratio, exact arithmetic."""
    k = len(z)
    lam = tuple(lam) + (0,) * (k - len(lam))

    def alternant(exps):
        total = 0
        for perm in itertools.permutations(range(k)):
            sign = _parity(perm)
            term = 1
            for row, col in enumerate(perm):
                term *= z[col] ** exps[row]
            total += sign * term
        return total

    num = alternant([lam[i] + k - 1 - i for i in range(k)])
    den = alternant([k - 1 - i for i in range(k)])
    return num / den


def _parity(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def seeded(name):
    return random.Random(name)
