"""The propagation operator G and plane waves."""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .functions import LatticeFunction
from .hamiltonian import _d_counts
from .hecke import QWordEngine
from . import weyl


def propagate(f, params):
    """G(f)(x) = (Q_{w_x} f)(w_x x), with w_x the shortest element moving x
    into the dominant chamber.  On dominant points G(f) agrees with f."""
    engine = QWordEngine(f, params)
    return LatticeFunction(lambda x: propagate_many(engine, (x,))[x])


def propagate_many(engine, points):
    """G(f) at many points, as {x: G(f)(x)}.  The points are grouped by their
    reduced word w_x, and each group takes one engine call."""
    return _propagate(engine, {x: weyl.shortest_element(x, engine.params) for x in points})


def _propagate(engine, descents):
    """propagate_many on points already descended: {x: weyl.shortest_element(x)}."""
    groups = {}  # w_x -> [(x, w_x x)]
    for x, (w, word) in descents.items():
        groups.setdefault(word, []).append((x, weyl.act(w, x)))
    values = {}
    for word, pairs in groups.items():
        xs, moved = zip(*pairs)
        values.update(zip(xs, engine.values(word, moved)))
    return values


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


def with_neighbours(points):
    """The points with their neighbours x - v_i: where H and the lemma read G."""
    return set(points).union(
        x[:i] + (x[i] - 1,) + x[i + 1 :] for x in points for i in range(len(x))
    )


def verify_lemma_main(f, points, params):
    """Check the key commutation identity behind the eigenfunction theorem:

    ((t_{v_i} - alpha d_i^+) G(f))(x)
      = ((t_{v_sigma(i)} + (1-beta) sum_{j=1}^{d_i^+(x)} t_{v_{sigma(i)+j}}) Q_{w_x} f)(w_x x)

    where sigma is the coordinate permutation of w_x.  Yields (x, i, ok) for
    every point x (an integer tuple) and i = 1, ..., k, x-major, with ok True
    iff the two sides agree exactly.

    One Q-word engine for f serves both sides: each point and neighbour
    descends once, for G and for grouping, and the right-hand sides of the
    points sharing a reduced word w_x take one engine call.
    """
    k, alpha, beta = params.k, params.alpha, params.beta
    points = list(points)
    engine = QWordEngine(f, params)
    descents = {x: weyl.shortest_element(x, params) for x in with_neighbours(points)}
    G = _propagate(engine, descents)
    groups = {}  # w_x -> [(position of x, x, w_x x, sigma)]
    for n, x in enumerate(points):
        w, word = descents[x]
        groups.setdefault(word, []).append((n, x, weyl.act(w, x), w.perm))

    results = [[] for _ in points]  # ok for i = 1, ..., k, per point
    for word, cases in groups.items():
        sides = []  # (position of x, lhs, the right-hand points, v_sigma(i) first)
        for n, x, wx, sigma in cases:
            for i, dp in enumerate(_d_counts(x, params)[0], 1):
                lhs = G[x[: i - 1] + (x[i - 1] - 1,) + x[i:]]
                if dp and alpha != 0:
                    lhs -= alpha * dp * G[x]
                terms = dp + 1 if beta != 1 else 1  # at beta = 1 only t_{v_sigma(i)} is left
                slots = [(sigma[i - 1] + j) % k for j in range(terms)]
                sides.append((n, lhs, [wx[:s] + (wx[s] - 1,) + wx[s + 1 :] for s in slots]))
        needed = [y for *_, ys in sides for y in ys]
        Q = dict(zip(needed, engine.values(word, needed)))
        for n, lhs, (y, *rest) in sides:
            results[n].append(lhs == Q[y] + (1 - beta) * sum(Q[z] for z in rest))
    for x, oks in zip(points, results):
        for i, ok in enumerate(oks, 1):
            yield x, i, ok
