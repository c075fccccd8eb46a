"""Lattice functions: memoizing evaluators from integer points to scalars."""

from __future__ import annotations

import random
from fractions import Fraction


class LatticeFunction:
    """A function on the lattice, wrapped with a transparent memo cache.

    The evaluator must be deterministic; the cache only ever stores values
    the evaluator returned, so the wrapper agrees with the evaluator.
    Values may be exact rationals or complex floats, by caller's choice.
    """

    __slots__ = ("_eval", "_memo")

    def __init__(self, evaluator):
        self._eval = evaluator
        self._memo = {}

    def __call__(self, x):
        x = tuple(x)
        memo = self._memo
        v = memo.get(x)
        if v is None:
            v = self._eval(x)
            memo[x] = v
        return v


def random_fraction(rng, nonzero=False):
    """A random a/b with |a| <= 9 and 1 <= b <= 6, drawn from ``rng``."""
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if v != 0 or not nonzero:
            return v


def random_rational_function(seed):
    """A deterministic pseudo-random rational-valued lattice function.

    The value at each point is derived from (seed, point) alone, so the
    function is reproducible across runs and processes.
    """
    return LatticeFunction(
        lambda x: random_fraction(random.Random("%s|%s" % (seed, ",".join(map(str, x)))))
    )
