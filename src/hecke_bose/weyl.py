"""Lattice points and the action of the (extended) affine Weyl group of type A.

Points of the lattice are plain integer tuples of length k.  The group enters
only through its action on points: the simple reflections s_0, ..., s_{k-1},
the diagram rotation pi (which lies outside W), and the greedy descent that
moves a point into the dominant chamber along a reduced word.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Complex


@dataclass(frozen=True)
class Params:
    """Global parameters: particle number k, period L, couplings alpha, beta.
    k and L must be ints, not bools (TypeError otherwise): the lattice
    points and the Q-word engine's packed points shift coordinates by L."""

    k: int
    L: int
    alpha: Complex
    beta: Complex

    def __post_init__(self):
        for name in ("k", "L"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError("%s must be an int, got %r" % (name, value))
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.L < 1:
            raise ValueError("L must be at least 1")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")


def simple_reflection(j, x, L):
    """s_j x for 0 <= j < k: s_j (j >= 1) swaps x_j and x_{j+1}, and s_0 sends x
    to (x_k + L, x_2, ..., x_{k-1}, x_1 - L)."""
    if j == 0:
        return (x[-1] + L,) + x[1:-1] + (x[0] - L,)
    return x[: j - 1] + (x[j], x[j - 1]) + x[j + 1 :]


def rotate(x, L):
    """The diagram rotation pi = t_{L v_1} s_1 ... s_{k-1}, which sends x to
    (x_k + L, x_1, ..., x_{k-1})."""
    return (x[-1] + L,) + x[:-1]


def is_dominant(x, params):
    """True iff a_i(x) >= 0 for every simple affine root a_i, that is
    x_1 >= x_2 >= ... >= x_k >= x_1 - L."""
    return x[-1] + params.L >= x[0] and all(a >= b for a, b in zip(x, x[1:]))


def shortest_element(x, params):
    """The shortest w with w(x) dominant, as ((perm, w(x)), word).

    Greedy descent: repeatedly apply the largest-index simple reflection
    among s_{k-1}, ..., s_1 whose root is negative at the current point, and
    s_0 only when none of them is, until the point is dominant; that point
    is w(x).  The collected letters, reversed, form a reduced word for w
    read left to right.  The descent moves the coordinates of x between
    slots, so it tracks which coordinate sits in each slot: w's coordinate
    permutation, 0-based, sends slot i of x to slot perm[i] of w(x).

    Every reduced word of w gives the same Q_w, but not the same work for
    the Q-word engine, which builds one layer per letter of a word on the
    longest suffix it shares with the word read before it.  This order
    makes its layers enter fewer points and extend fewer line sums than
    taking s_0 first and then the smallest index: a fifth fewer for
    lemma-main at k = 4, L = 3, window 2, and 13 % fewer at the k = 3 far
    point (8, 0, -8).  A point whose length is not k raises ValueError.
    """
    k, L = params.k, params.L
    if len(x) != k:
        raise ValueError("point %r does not have k = %d coordinates" % (x, k))
    y = list(x)
    src = list(range(k))  # src[s]: the coordinate of x now in slot s
    letters = []
    while True:
        for a in range(k - 2, -1, -1):
            if y[a] < y[a + 1]:  # a_{a+1}(y) < 0
                letter, b = a + 1, a + 1
                y[a], y[b] = y[b], y[a]
                break
        else:
            if y[-1] - y[0] + L >= 0:  # a_0(y) >= 0 as well: y is dominant
                break
            letter, a, b = 0, 0, k - 1
            y[0], y[-1] = y[-1] + L, y[0] - L
        src[a], src[b] = src[b], src[a]
        letters.append(letter)
    perm = [0] * k
    for slot, j in enumerate(src):
        perm[j] = slot
    return (tuple(perm), tuple(y)), tuple(reversed(letters))


def orbit_key(x, L):
    """(sorted residues of x mod L, sum x): W keeps both, and they fix the W-orbit,
    so two points share a key iff they share a dominant point."""
    return tuple(sorted([v % L for v in x])), sum(x)


def dominant_point(key, params):
    """The dominant point w_x x of shortest_element(x) for any x with this
    orbit_key, without the descent: with (q, e) = divmod((sum x - sum of residues)
    / L, k) the e smallest residues rise by L(q + 1), the rest by Lq."""
    (r, total), L = key, params.L
    q, e = divmod((total - sum(r)) // L, params.k)
    return tuple(sorted((v + L * (q + (i < e)) for i, v in enumerate(r)), reverse=True))


def is_regular(x, params):
    """True iff x avoids every affine root hyperplane (x_i - x_j never in L*Z)."""
    k, L = params.k, params.L
    for i in range(k):
        for j in range(i + 1, k):
            if (x[i] - x[j]) % L == 0:
                return False
    return True
