"""The propagation operator G and plane waves."""

from __future__ import annotations

import functools
from fractions import Fraction
from numbers import Rational

from .hecke import QWordEngine
from . import weyl


def propagate(f, params):
    """G(f)(x) = (Q_{w_x} f)(w_x x), with w_x the shortest element moving x
    into the dominant chamber.  On dominant points G(f) agrees with f."""
    engine = QWordEngine(f, params)

    def G(x):
        scale, values, _ = propagate_many(engine, (x,))
        return Fraction(values[x], scale)

    return functools.cache(G)


def propagate_many(engine, points):
    """G(f) at many points as ints at one scale: T, {x: G(f)(x) * T} and the
    descents {x: weyl.shortest_element(x)} it read w_x and w_x x from.
    One engine read asks each w_x at its w_x x, and the engine evaluates
    each distinct word once."""
    descents = {x: weyl.shortest_element(x, engine.params) for x in points}
    scale, columns = engine.ints((word, (wx,)) for (_, wx), word in descents.values())
    return scale, {x: v for x, (v,) in zip(descents, columns)}, descents


def plane_wave(p):
    """The plane wave x -> prod_i p_i^{-x_i} as exact Fractions; eigenfunction
    of sum_i t_{v_i} with eigenvalue sum_i p_i.  The p_i must be nonzero
    rationals (ints or Fractions): plane waves feed the exact engine, and a
    float p_i would not be the value it looks like."""
    p = tuple(p)
    if not all(isinstance(v, Rational) for v in p):
        raise TypeError("plane wave requires rational p_i, got %r" % (p,))
    if any(v == 0 for v in p):
        raise ValueError("plane wave requires all p_i nonzero")
    parts = [(v.numerator, v.denominator) for v in p]
    tables = [{} for _ in p]  # per coordinate: x_i -> (numerator, denominator) of p_i^{-x_i}

    def ev(x):
        num = den = 1
        for (n, d), table, xi in zip(parts, tables, x):
            power = table.get(xi)
            if power is None:
                power = table[xi] = (n**-xi, d**-xi) if xi <= 0 else (d**xi, n**xi)
            num *= power[0]
            den *= power[1]
        return Fraction(num, den)

    return ev

