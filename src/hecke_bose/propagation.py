"""The propagation operator G and plane waves."""

from __future__ import annotations

import functools
from fractions import Fraction
from numbers import Rational

from .hecke import QWordEngine, exact_couplings
from . import weyl


def propagate(f, params):
    """G(f)(x) = (Q_{w_x} f)(w_x x), with w_x the shortest element moving x
    into the dominant chamber, as an exact lattice function.  On dominant
    points G(f) agrees with f.

    A plane wave with pairwise distinct p_i is propagated in closed form:
    each Q_i maps the span of the k! plane waves g_{sigma p} into itself, so
    G reads (Q_{w_x} g_p)(w_x x) from a combination of at most k! of them,
    at O(|w_x| k!) rational operations for each new word (see
    ``_plane_wave_propagation``).  Every other f, a plane wave with a
    repeated p_i included, is read through one Q-word engine, each new point
    as ``propagate_many`` at that point alone: the read rebuilds the layers
    its word does not share with the word read before it.  Either way this
    call raises TypeError at a non-rational alpha or beta, and ValueError
    at a plane wave whose length is not k."""
    if isinstance(f, PlaneWave) and len(f.p) != params.k:
        raise ValueError("plane wave length %d is not k = %d" % (len(f.p), params.k))
    if isinstance(f, PlaneWave) and len(set(f.p)) == len(f.p):
        G = _plane_wave_propagation(f.p, params)
    else:
        engine = QWordEngine(f, params)

        def G(x):
            scale, read, _ = propagate_many(engine, {x: weyl.shortest_element(x, params)})
            return Fraction(read[x], scale)

    return functools.cache(G)


def propagate_many(engine, descents, requests=()):
    """G(f) at the points of ``descents``, {x: weyl.shortest_element(x)},
    and the (word, points) ``requests`` in one ``walk`` of the engine, which
    asks each w_x at its w_x x.  Returns T, {x: G(f)(x) * T} and, per
    request, the list of the ints (Q_word f)(y) * T at its points."""
    reads = [(word, (wx,)) for (_, wx), word in descents.values()]
    scale, columns = engine.walk(reads + list(requests))
    return scale, {x: v for x, (v,) in zip(descents, columns)}, columns[len(reads) :]


def _plane_wave_propagation(p, params):
    """G(g_p) for pairwise distinct p_i, in closed form.

    The n-term sum of Q_i is geometric on a plane wave
    g_q(x) = prod_j q_j^{-x_j}: with a, b = q_i, q_{i+1} and
    t = (alpha + (1 - beta) b) / (b - a),

      Q_i g_q = t g_q + (1 - t) g_{s_i q}

    for every sign of a_i(x).  Q_0 = pi^{-1} Q_1 pi reads a, b = q_k, q_1
    and gives Q_0 g_q = t g_q + (1 - t) (a / b)^L g_{s q}, s swapping q_1
    and q_k.  So Q_w g_p is a combination of the g_{sigma p}, kept as
    {sigma: coefficient} with sigma the tuple of indices into p that the
    slots hold, and each distinct word suffix is built once, from
    the combination of the suffix one letter shorter, in a plain loop.
    The combinations sit in a trie read from the last letter, one node per
    suffix, so a word of n letters costs n nodes, not n^2/2 key slots.  The
    weights are Fractions and each g_{sigma p} is a PlaneWave, exact for int p.
    """
    k, L = params.k, params.L
    D, A, C = exact_couplings(params)  # D, D alpha and D (1 - beta) as ints
    p = [Fraction(v) for v in p]
    # (stay, move) per letter class and ordered pair (i, j) of indices into p
    # read at the root's two slots: the weights of g_q and of its swap
    plain, affine = {}, {}
    for i, a in enumerate(p):
        for j, b in enumerate(p):
            if i != j:
                t = (A + C * b) / (D * (b - a))
                plain[i, j] = t, 1 - t
                affine[i, j] = t, (1 - t) * (a / b) ** L
    letters = [(k - 1, 0, affine)] + [(i - 1, i, plain) for i in range(1, k)]
    # a trie of word suffixes read from the last letter, the empty word at the
    # root: a node is ({sigma: coefficient}, {letter: the node one letter longer})
    root = ({tuple(range(k)): Fraction(1)}, {})
    wave = functools.cache(lambda sigma: PlaneWave([p[i] for i in sigma]))  # g_{sigma p}

    def G(x):
        (_, y), word = weyl.shortest_element(x, params)
        node, d = root, len(word)
        while d:  # the longest suffix built so far
            child = node[1].get(word[d - 1])
            if child is None:
                break
            node, d = child, d - 1
        for d in range(d - 1, -1, -1):  # prepend the letters one at a time
            a, b, weights = letters[word[d]]
            out = {}
            for sigma, c in node[0].items():
                stay, move = weights[sigma[a], sigma[b]]
                swapped = list(sigma)
                swapped[a], swapped[b] = sigma[b], sigma[a]
                swapped = tuple(swapped)
                out[sigma] = out.get(sigma, 0) + c * stay
                out[swapped] = out.get(swapped, 0) + c * move
            node[1][word[d]] = node = (out, {})
        return sum(c * wave(sigma)(y) for sigma, c in node[0].items())

    return G


class PlaneWave:
    """The plane wave x -> prod_i p_i^{-x_i} as exact Fractions; eigenfunction
    of sum_i t_{v_i} with eigenvalue sum_i p_i.  The p_i must be nonzero
    rationals (ints or Fractions): plane waves feed the exact engine, and a
    float p_i would not be the value it looks like.

    The wave carries its p, so ``propagate`` can take it in closed form when
    the p_i are pairwise distinct.  It keeps no memo and no table: each call
    multiplies the int powers of the p_i's numerators and denominators and
    reduces once.  A point whose length is not len(p) raises ValueError."""

    __slots__ = ("p",)

    def __init__(self, p):
        p = tuple(p)
        if not all(isinstance(v, Rational) for v in p):
            raise TypeError("plane wave requires rational p_i, got %r" % (p,))
        if any(v == 0 for v in p):
            raise ValueError("plane wave requires all p_i nonzero")
        self.p = p

    def __call__(self, x):
        if len(x) != len(self.p):
            raise ValueError("plane wave of length %d read at %r" % (len(self.p), x))
        num = den = 1
        for v, xi in zip(self.p, x):
            n, d = (v.numerator, v.denominator) if xi <= 0 else (v.denominator, v.numerator)
            num *= n ** abs(xi)
            den *= d ** abs(xi)
        return Fraction(num, den)


plane_wave = PlaneWave
