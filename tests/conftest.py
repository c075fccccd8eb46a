"""Shared helpers: window iteration, random exact scalars, oracles (among
them the affine roots and the element of a word)."""

import itertools
import random
from dataclasses import dataclass

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
