"""Shared helpers: window iteration, random exact scalars, oracles."""

import itertools
import random

from hecke_bose.functions import random_fraction as rand_fraction
from hecke_bose.verify import random_distinct_fractions as rand_distinct_fractions
from hecke_bose.verify import window_points as window


def rand_params_pair(rng):
    """A generic (alpha, beta) pair with beta nonzero."""
    return rand_fraction(rng), rand_fraction(rng, nonzero=True)


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
