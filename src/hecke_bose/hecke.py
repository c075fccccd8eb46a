"""Integral-reflection operators on lattice functions, and the Q-word engine
that evaluates them."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import accumulate, cycle
from numbers import Rational
from operator import itemgetter, mul


class _Reflection:
    """One letter of a Q-word: Q_letter applied to a source function.

    Holds the points evaluated so far and, for every line y_a + y_b = s (the
    other coordinates fixed) that they lie on, the sums of
    h(t) = alpha f(y(t) + v_b) + (1 - beta) f(y(t)) over the line's points
    y(t) = (..., t, s - t, ...), taken outwards from m = floor(s/2):
    ``up[j]`` sums h over m+1 .. m+j and ``down[j]`` over m-j+1 .. m.  So
    C_s(m + j) = up[j] and C_s(m - j) = -down[j].  A line only grows, and
    only as far as the points evaluated on it reach, so it reads the same
    source points as the n-term sums would.

    The letter 0 acts through a_0(x) = x_k - x_1 + L: a point x enters with
    z_a = x_k + L, z_b = x_1 and the other coordinates x_2, ..., x_{k-1}, and
    s_0 x = (x_k + L, x_2, ..., x_{k-1}, x_1 - L).  ``period`` is L for it and
    None for the other letters, which enter x as it is: z = x.
    """

    __slots__ = ("a", "period", "swap", "unit", "terms", "memo", "lines")

    def __init__(self, a, k, period, unit, terms):
        self.a = a  # 0-based coordinate slots (a, a + 1) of the root
        self.period = period
        # z -> s_a z for the letters other than 0: exchanges slots a and a + 1
        self.swap = itemgetter(*range(a), a + 1, a, *range(a + 2, k)) if period is None else None
        self.unit = unit  # D, the common denominator of alpha and 1 - beta
        self.terms = terms  # (D * coefficient, shift of slot a + 1) per nonzero term of h
        self.memo = {}
        self.lines = {}  # (s, coordinates before slot a, those after slot a + 1) -> (up, down)

    def plan(self, points, below):
        """Enter ``points`` and build, once, every source point that
        evaluating there reads.  Returns the work for ``fill`` and the set of
        those source points that ``below`` lacks.  The work is the entered
        points, as (x, the point s_a z reads at, the line's (up, down) or None,
        index into up, index into down, z_a > z_b); the line extensions, as
        (sums, how many t they grow by); and the points the terms of h read at
        each of those t, one extension after the other."""
        a, b, L, swap, lines = self.a, self.a + 2, self.period, self.swap, self.lines
        shifts = [shift for _, shift in self.terms]
        entered = []
        want = {}  # line whose sums must grow -> [its sums, how far up and down they must reach]
        needed = set()
        for x in points:
            if L is None:
                za, zb = x[a], x[a + 1]
                y = swap(x)
                s = za + zb
                key = (s, x[:a], x[b:])
            else:
                za, zb = x[-1] + L, x[0]
                y = (za, *x[1:-1], zb - L)
                s = za + zb
                key = (s, (), x[1:-1])
            needed.add(y)
            if za == zb or not shifts:  # no sum, or h = 0 (alpha = 0, beta = 1)
                entered.append((x, y, None, 0, 0, False))
                continue
            m = s // 2  # min(z_a, z_b) <= m < max(z_a, z_b)
            if za > zb:
                i, j = za - m, m - zb
            else:
                i, j = zb - m, m - za
            sides = lines.get(key)
            if sides is None:
                sides = lines[key] = ([0], [0])
                want[key] = [sides, i, j]
            elif i >= len(sides[0]) or j >= len(sides[1]):  # the sums must grow
                w = want.get(key)
                if w is None:
                    want[key] = [sides, i, j]
                else:
                    if i > w[1]:
                        w[1] = i
                    if j > w[2]:
                        w[2] = j
            entered.append((x, y, sides, i, j, za > zb))
        extensions, reads = [], []
        for (s, head, tail), ((up, down), i, j) in want.items():
            m = s // 2
            ts = []  # the t the line's sums grow by, up and then down
            if i >= len(up):  # up reaches t = m + len(up) - 1
                extensions.append((up, i + 1 - len(up)))
                ts += range(m + len(up), m + i + 1)
            if j >= len(down):  # down reaches t = m - len(down) + 2
                extensions.append((down, j + 1 - len(down)))
                ts += range(m - len(down) + 1, m - j, -1)
            if L is None:
                for t in ts:
                    for shift in shifts:
                        reads.append((*head, t, s - t + shift, *tail))
            else:  # x_1 = z_b = s - t + shift, x_k = z_a - L = t - L
                for t in ts:
                    for shift in shifts:
                        reads.append((s - t + shift, *tail, t - L))
        needed.update(reads)
        return (entered, extensions, reads), needed.difference(below)

    def fill(self, entered, extensions, reads, below):
        """Evaluate at the entered points, first extending the line sums.

        ``below`` must hold every point that ``plan`` found missing.  With
        s = z_a + z_b, the value is the telescoped sum
        (Q f)(x) = f(s_a z) + C_s(z_a) - C_s(z_b): f(s_a z) plus or minus the
        sum of h from min(z_a, z_b) + 1 to max(z_a, z_b).  Source values are
        ints over some scale S; the line sums and the values are ints over
        S * D, because the terms carry their coefficients times D.
        """
        weighted = map(mul, cycle([c for c, _ in self.terms]), map(below.__getitem__, reads))
        steps = list(map(sum, zip(*[weighted] * len(self.terms))))  # D h(t), t after t
        n0 = 0  # where the steps of the next extension start
        for sums, n in extensions:
            if n == 1:
                sums.append(sums[-1] + steps[n0])
            else:  # go on from the last sum
                sums[-1:] = accumulate(steps[n0 : n0 + n], initial=sums[-1])
            n0 += n
        unit, memo = self.unit, self.memo
        for x, y, sides, i, j, positive in entered:
            v = unit * below[y]
            if sides is not None:
                up, down = sides
                d = up[i] + down[j]
                v = v + d if positive else v - d
            memo[x] = v

    def rescale(self, m):
        """Multiply every stored value and line sum by m."""
        memo = self.memo
        for x, v in memo.items():
            memo[x] = v * m
        for sides in self.lines.values():
            for sums in sides:
                sums[:] = [v * m for v in sums]


def exact_couplings(params):
    """(D, D alpha, D (1 - beta)) as ints, with D the lcm of the denominators
    of alpha and beta.  Raises TypeError unless alpha and beta are rationals
    (ints or Fractions): the exact paths compute in them."""
    for name in ("alpha", "beta"):
        value = getattr(params, name)
        if not isinstance(value, Rational):
            raise TypeError(
                "the Q-word engine computes exactly and needs a rational %s, got %r"
                % (name, value)
            )
    unit = math.lcm(params.alpha.denominator, params.beta.denominator)  # D
    return unit, int(unit * params.alpha), int(unit * (1 - params.beta))


class QWordEngine:
    """Evaluates Q_w f = Q_{w[0]} ... Q_{w[-1]} f for words w, without recursion.

    ``walk`` is the engine's one read, for one word at one point or for many
    words at many points.  The layer of a word applies its first letter to
    the layer of the rest.  The engine holds f's table and the chain of
    layers of the word it last read: each read cuts the chain back to the
    suffix its word shares with that word and builds the rest on it, so
    after any read the engine holds exactly the layers of its last word.
    An evaluation plans the points each layer is missing from the top layer
    down, then fills them from the bottom up in plain loops.

    All arithmetic is on Python ints.  ``couplings`` is (D, D alpha,
    D (1 - beta)) as ints, D the lcm of the denominators of alpha and beta.
    f is read once per point, into a table of the ints f(x) * S, S the lcm
    of the denominators read so far; a layer of height h holds its values
    and line sums as ints over S * D^h.  A read that brings a new
    denominator grows S by a factor m and multiplies every stored int by m.
    So alpha, beta and the values of f must be rationals (ints or
    Fractions).  S stays inside the engine: ``walk`` hands out its words at
    one scale T.
    """

    def __init__(self, f, params):
        self.f = f
        self.params = params
        self.couplings = exact_couplings(params)
        self._terms = [(c, shift) for c, shift in zip(self.couplings[1:], (1, 0)) if c]
        self._scale = 1  # S
        self._base = {}  # point -> f(point) * S
        self._word = ()  # the word last read
        self._chain = []  # its layers, innermost first: Q_word[-1], then Q_word[-2] on it, ...

    def walk(self, requests):
        """The values of several words at their points, as ints at one scale.

        ``requests`` is a sequence of (word, points), points a sequence.  Each
        distinct word is evaluated once, over all the points its requests ask
        for.  Returns T and, per request, the list of the ints
        (Q_word f)(x) * T at its points: T = S * D^H, with H the length of
        the longest requested word.  The empty word reads f itself, and
        ``walk([])`` returns (S, []).

        The words are read sorted by their reversal, depth-first in the trie
        of suffixes, so the readers of a layer come one after another and no
        layer is built twice.  Each word's ints are kept at the scale S of
        its read and multiplied up to T = S * D^H at the end."""
        requests = [(tuple(word), points) for word, points in requests]
        asked = {}  # word -> the indices of the requests that ask it
        for n, (word, _) in enumerate(requests):
            asked.setdefault(word, []).append(n)
        order = sorted(asked, key=lambda word: word[::-1])
        columns, scales = [None] * len(requests), []
        for word in order:
            top = self._evaluate(word, set().union(*(requests[n][1] for n in asked[word])))
            for n in asked[word]:
                columns[n] = [top[x] for x in requests[n][1]]
            scales.append(self._scale)
        unit, height = self.couplings[0], max(map(len, asked), default=0)
        for word, scale in zip(order, scales):
            m = self._scale // scale * unit ** (height - len(word))
            if m != 1:
                for n in asked[word]:
                    columns[n] = [v * m for v in columns[n]]
        return self._scale * unit**height, columns

    def _evaluate(self, word, points):
        """Make sure (Q_word f) is stored at the given points; return the table of
        the word's top layer (f's own table for the empty word).  The letters
        beyond the suffix the word shares with the chain are built on it."""
        chain, last, unit = self._chain, self._word, self.couplings[0]
        shared = 0  # the length of the longest suffix word and the last word share
        while shared < min(len(word), len(last)) and word[-1 - shared] == last[-1 - shared]:
            shared += 1
        del chain[shared:]
        for letter in reversed(word[: len(word) - len(chain)]):
            a, period = (letter - 1, None) if letter else (0, self.params.L)
            chain.append(_Reflection(a, self.params.k, period, unit, self._terms))
        self._word = word
        layers = chain[::-1]
        memos = [layer.memo for layer in layers] + [self._base]
        missing = {x for x in points if x not in memos[0]}
        plans = []
        for layer, below in zip(layers, memos[1:]):
            if not missing:
                break
            work, missing = layer.plan(missing, below)
            plans.append((layer, work, below))
        self._read(missing)  # nonempty only when the plan reached f
        for layer, work, below in reversed(plans):
            layer.fill(*work, below)
        return memos[0]

    def _read(self, points):
        """Read f at the given points, none of them in the table yet, in one
        pass: at most one rescale however many new denominators they bring."""
        read = [(x, self.f(x)) for x in points]
        for x, v in read:
            if not isinstance(v, Rational):
                raise TypeError(
                    "the Q-word engine computes exactly and needs rational values, got f%s = %r"
                    % (x, v)
                )
        scale = math.lcm(self._scale, *{v.denominator for _, v in read})
        if scale != self._scale:
            self._rescale(scale // self._scale)
            self._scale = scale
        base = self._base
        for x, v in read:
            base[x] = v.numerator * (scale // v.denominator)

    def _rescale(self, m):
        """Multiply every stored int, f's table and the chain's, by m."""
        base = self._base
        for x, v in base.items():
            base[x] = v * m
        for layer in self._chain:
            layer.rescale(m)


def apply_Q(i, f, params):
    """The integral-reflection operator Q_i, 1 <= i < k, applied lazily to f.

    For n = a_i(x) = x_i - x_{i+1}:
      n > 0: f(s_i x) + sum_{j=1}^{n} ( alpha f(s_i x + j a_i^vee + v_{i+1})
                                        + (1-beta) f(s_i x + j a_i^vee) )
      n = 0: f(x)
      n < 0: f(s_i x) - sum_{j=0}^{-n-1} ( alpha f(s_i x - j a_i^vee + v_{i+1})
                                           + (1-beta) f(s_i x - j a_i^vee) )
    with a_i^vee = v_i - v_{i+1}.

    The sums telescope along the line y_i + y_{i+1} = s through x, with
    s = x_i + x_{i+1}.  Let C_s be the running sum of
    h(y) = alpha f(y + v_{i+1}) + (1-beta) f(y) along that line, indexed by
    y_i and normalised to C_s(floor(s/2)) = 0.  Then for every sign of n

      (Q_i f)(x) = f(s_i x) + C_s(x_i) - C_s(x_{i+1}),

    so each line's sums are built once and every point on it costs O(1).
    """
    if not 1 <= i < params.k:
        raise ValueError("Q_i index must satisfy 1 <= i < k")
    return apply_Qw((i,), f, params)


def apply_Qw(word, f, params):
    """Q_w = Q_{word[0]} ... Q_{word[-1]} for a reduced word, applied to f.
    The letters run over 0, ..., k-1; the letter 0 is Q_0 = pi^{-1} Q_1 pi,
    conjugated by the diagram rotation.  Each new point is one ``walk`` of
    one engine, whose chain of the word's layers serves every read."""
    word = tuple(word)
    if not word:
        return f
    if not all(0 <= letter < params.k for letter in word):
        raise ValueError("Q_i index must satisfy 0 <= i < k")
    engine = QWordEngine(f, params)

    def Qw(x):
        scale, ((v,),) = engine.walk([(word, (x,))])
        return Fraction(v, scale)

    return functools.cache(Qw)
