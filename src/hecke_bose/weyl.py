"""Lattice points, affine roots of type A, and the (extended) affine Weyl group.

Points of the lattice are plain integer tuples of length k.  Group elements
are stored as a permutation of coordinate slots together with a raw
translation vector, so that an element acts by ``x -> perm(x) + trans``.
Translations by single basis vectors (needed for the shift operators on
functions) are therefore representable directly; membership in the affine
Weyl group W requires ``trans`` to lie in L * Q^vee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Complex

from .functions import LatticeFunction


@dataclass(frozen=True)
class Params:
    """Global parameters: particle number k, period L, couplings alpha, beta."""

    k: int
    L: int
    alpha: Complex = Fraction(0)
    beta: Complex = Fraction(1)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.L < 1:
            raise ValueError("L must be at least 1")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")
        if isinstance(self.alpha, int):
            object.__setattr__(self, "alpha", Fraction(self.alpha))
        if isinstance(self.beta, int):
            object.__setattr__(self, "beta", Fraction(self.beta))


@dataclass(frozen=True)
class AffineRoot:
    """The affine root alpha_{ij} + m*L*delta, with 1-based indices i != j."""

    i: int
    j: int
    m: int = 0

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("affine root requires i != j")

    def is_positive(self):
        # basis {a_0, ..., a_{k-1}}: positive iff m > 0, or m = 0 and i < j
        return self.m > 0 or (self.m == 0 and self.i < self.j)


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


@dataclass(frozen=True)
class AffineWeylElement:
    """Element of the extended affine Weyl group, acting by x -> perm(x) + trans.

    ``perm`` is 0-based: basis vector v_{i+1} is sent to v_{perm[i]+1}.
    ``trans`` is the raw translation vector (already including any L factor).
    """

    perm: tuple
    trans: tuple

    @property
    def k(self):
        return len(self.perm)

    def in_affine_weyl_group(self, L):
        return sum(self.trans) == 0 and all(t % L == 0 for t in self.trans)


def identity_element(k):
    return AffineWeylElement(tuple(range(k)), (0,) * k)


def translation_element(vec):
    k = len(vec)
    return AffineWeylElement(tuple(range(k)), tuple(vec))


def simple_reflection_element(i, k, L):
    """The generator s_i as a group element, 0 <= i < k."""
    perm = list(range(k))
    trans = [0] * k
    if i == 0:
        perm[0], perm[k - 1] = perm[k - 1], perm[0]
        trans[0], trans[k - 1] = L, -L
    else:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return AffineWeylElement(tuple(perm), tuple(trans))


def pi_element(k, L):
    """The diagram rotation pi = t_{L v_1} s_1 ... s_{k-1}."""
    w = translation_element((L,) + (0,) * (k - 1))
    for i in range(1, k):
        w = compose(w, simple_reflection_element(i, k, L))
    return w


def _apply_perm(perm, vec):
    out = [0] * len(vec)
    for i, p in enumerate(perm):
        out[p] = vec[i]
    return tuple(out)


def compose(u, w):
    """The product u*w, acting as u after w."""
    perm = tuple(u.perm[p] for p in w.perm)
    shifted = _apply_perm(u.perm, w.trans)
    trans = tuple(s + t for s, t in zip(shifted, u.trans))
    return AffineWeylElement(perm, trans)


def inverse(w):
    k = w.k
    pinv = [0] * k
    for i, p in enumerate(w.perm):
        pinv[p] = i
    pinv = tuple(pinv)
    trans = tuple(-t for t in _apply_perm(pinv, w.trans))
    return AffineWeylElement(pinv, trans)


def act(w, x):
    """Apply the group element w to the lattice point x."""
    out = list(w.trans)
    for i, p in enumerate(w.perm):
        out[p] += x[i]
    return tuple(out)


def act_on_function(w, f):
    """The action on functions: (w f)(x) = f(w^{-1} x)."""
    winv = inverse(w)
    return LatticeFunction(lambda x: f(act(winv, x)))


def from_word(word, k, L):
    """The element s_{word[0]} s_{word[1]} ... (left factor acts last)."""
    w = identity_element(k)
    for letter in word:
        w = compose(w, simple_reflection_element(letter, k, L))
    return w


def is_dominant(x, params):
    """True iff a_i(x) >= 0 for every simple affine root a_i."""
    k, L = params.k, params.L
    return all(eval_root(simple_root(i, k), x, L) >= 0 for i in range(k))


def shortest_element(x, params):
    """The shortest w with w(x) dominant, together with a reduced word for it.

    Greedy descent: repeatedly apply the smallest-index simple reflection
    whose root is negative at the current point.  The collected letters,
    reversed, form a reduced word read left to right.
    """
    k, L = params.k, params.L
    simples = [simple_root(i, k) for i in range(k)]
    letters = []
    y = x
    while True:
        for i in range(k):
            if eval_root(simples[i], y, L) < 0:
                letters.append(i)
                y = reflect(simples[i], y, L)
                break
        else:
            break
    word = tuple(reversed(letters))
    return from_word(word, k, L), word


def inversion_set(x, params):
    """All positive affine roots negative at x (a finite set)."""
    k, L = params.k, params.L
    out = set()
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i == j:
                continue
            diff = x[j - 1] - x[i - 1]  # a(x) < 0 iff m*L < diff
            if i < j and diff > 0:
                out.add(AffineRoot(i, j, 0))
            m = 1
            while m * L < diff:
                out.add(AffineRoot(i, j, m))
                m += 1
    return out


def is_regular(x, params):
    """True iff x avoids every affine root hyperplane (x_i - x_j never in L*Z)."""
    k, L = params.k, params.L
    for i in range(k):
        for j in range(i + 1, k):
            if (x[i] - x[j]) % L == 0:
                return False
    return True
