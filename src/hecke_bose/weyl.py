"""Lattice points and the (extended) affine Weyl group of type A.

Points of the lattice are plain integer tuples of length k.  Group elements
are stored as a permutation of coordinate slots together with a raw
translation vector, so that an element acts by ``x -> perm(x) + trans``.
Translations by single basis vectors (needed for the shift operators on
functions) are therefore representable directly; membership in the affine
Weyl group W requires ``trans`` to lie in L * Q^vee.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def is_dominant(x, params):
    """True iff a_i(x) >= 0 for every simple affine root a_i, that is
    x_1 >= x_2 >= ... >= x_k >= x_1 - L."""
    return x[-1] + params.L >= x[0] and all(a >= b for a, b in zip(x, x[1:]))


def shortest_element(x, params):
    """The shortest w with w(x) dominant, together with a reduced word for it.

    Greedy descent: repeatedly apply the smallest-index simple reflection
    whose root is negative at the current point.  The collected letters,
    reversed, form a reduced word read left to right.  The descent moves
    the coordinates of x between slots, so it tracks which coordinate sits
    in each slot; w's permutation is read off that and its translation is
    w(x) - perm(x).
    """
    k, L = params.k, params.L
    y = list(x)
    src = list(range(k))  # src[s]: the coordinate of x now in slot s
    letters = []
    while True:
        if y[-1] - y[0] + L < 0:  # a_0(y) < 0
            letter, a, b = 0, 0, k - 1
            y[0], y[-1] = y[-1] + L, y[0] - L
        else:
            for a in range(k - 1):
                if y[a] < y[a + 1]:  # a_{a+1}(y) < 0
                    break
            else:
                break
            letter, b = a + 1, a + 1
            y[a], y[b] = y[b], y[a]
        src[a], src[b] = src[b], src[a]
        letters.append(letter)
    perm = [0] * k
    for slot, j in enumerate(src):
        perm[j] = slot
    trans = tuple(y[slot] - x[j] for slot, j in enumerate(src))
    return AffineWeylElement(tuple(perm), trans), tuple(reversed(letters))


def dominant_point(x, params):
    """act(shortest_element(x)[0], x) without a word: the orbit keeps the
    residues mod L and the sum of x, and with (q, e) = divmod((sum x - sum of
    residues) / L, k) the e smallest residues rise by L(q + 1), the rest by Lq."""
    L = params.L
    r = sorted(v % L for v in x)
    q, e = divmod((sum(x) - sum(r)) // L, params.k)
    return tuple(sorted((v + L * (q + (i < e)) for i, v in enumerate(r)), reverse=True))


def is_regular(x, params):
    """True iff x avoids every affine root hyperplane (x_i - x_j never in L*Z)."""
    k, L = params.k, params.L
    for i in range(k):
        for j in range(i + 1, k):
            if (x[i] - x[j]) % L == 0:
                return False
    return True
