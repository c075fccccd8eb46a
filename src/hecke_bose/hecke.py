"""Integral-reflection operators on lattice functions, and the Q-word engine
that evaluates them."""

from __future__ import annotations

from functools import partial

from .functions import LatticeFunction
from . import weyl


def _same(x):
    return x


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

    The letter 0 is Q_1 in rotated coordinates: a point x enters as pi x and
    the source is read at pi^{-1} y.
    """

    __slots__ = ("a", "enter", "leave", "terms", "memo", "lines", "above")

    def __init__(self, a, enter, leave, terms):
        self.a = a  # 0-based coordinate slots (a, a + 1) of the root
        self.enter = enter
        self.leave = leave
        self.terms = terms  # (coefficient, shift of slot a + 1) per nonzero term of h
        self.memo = {}
        self.lines = {}  # (s, other coordinates) -> (up, down)
        self.above = {}  # letter c -> the layer of Q_c applied to this one

    def plan(self, points):
        """Enter ``points`` and find the lines that evaluating there reads.
        Returns the entered points as (x, z, line) triples, with line None
        where z_a = z_b, and the lines as {line: (lo, hi)}: the line's sums
        must reach from lo to hi."""
        a, enter = self.a, self.enter
        entered = []
        want = {}
        for x in points:
            z = enter(x)
            lo, hi = sorted(z[a : a + 2])
            if lo == hi:
                entered.append((x, z, None))
                continue
            key = (lo + hi,) + z[:a] + z[a + 2 :]
            entered.append((x, z, key))
            prev_lo, prev_hi = want.get(key, (lo, hi))
            want[key] = (min(lo, prev_lo), max(hi, prev_hi))
        return entered, want

    def _extensions(self, want):
        """For each side of each line in ``want``: its list of sums, the t of
        the terms h(t) it still lacks, and the line as s, head and tail, whose
        point at t is head + (t, s - t) + tail."""
        a = self.a
        for key, (lo, hi) in want.items():
            s, head, tail = key[0], key[1 : a + 1], key[a + 1 :]
            m = s // 2
            up, down = self.lines.setdefault(key, ([0], [0]))
            yield up, range(m + len(up), hi + 1), s, head, tail
            yield down, range(m - len(down) + 1, lo, -1), s, head, tail

    def _reflected(self, z):
        """The source point at which the f(s_a z) term reads."""
        a = self.a
        return self.leave(z[:a] + (z[a + 1], z[a]) + z[a + 2 :])

    def needs(self, entered, want):
        """The source points that ``fill(entered, want, source)`` reads."""
        leave, terms = self.leave, self.terms
        for _, z, _ in entered:
            yield self._reflected(z)
        for _, ts, s, head, tail in self._extensions(want):
            for t in ts:
                for _, shift in terms:
                    yield leave(head + (t, s - t + shift) + tail)

    def fill(self, entered, want, source):
        """Evaluate at the entered points, first extending the lines in ``want``.

        ``source`` must answer at every point that ``needs`` yields.  With
        s = z_a + z_b, the value is the telescoped sum
        (Q f)(x) = f(s_a z) + C_s(z_a) - C_s(z_b): f(s_a z) plus or minus the
        sum of h from min(z_a, z_b) + 1 to max(z_a, z_b).
        """
        leave, terms = self.leave, self.terms
        for sums, ts, s, head, tail in self._extensions(want):
            total = sums[-1]
            for t in ts:
                for c, shift in terms:
                    total += c * source(leave(head + (t, s - t + shift) + tail))
                sums.append(total)
        a, lines, memo = self.a, self.lines, self.memo
        for x, z, key in entered:
            v = source(self._reflected(z))
            if key is not None:
                za, zb = z[a], z[a + 1]
                lo, hi = (zb, za) if za > zb else (za, zb)
                m = key[0] // 2  # lo <= m < hi
                up, down = lines[key]
                d = up[hi - m] + down[m - lo] if lo < m else up[hi - m]
                v = v + d if za > zb else v - d
            memo[x] = v


class QWordEngine:
    """Evaluates Q_w f = Q_{w[0]} ... Q_{w[-1]} f for words w, without recursion.

    The layers form a suffix trie: the layer of a word applies its first
    letter to the layer of the rest, so words that share a suffix share its
    evaluated points and line sums.  An evaluation collects the points each
    layer is missing from the top layer down, then fills them from the
    bottom up in plain loops; only the bottom layer calls f.
    """

    def __init__(self, f, params):
        self.f = f
        self.params = params
        terms = ((params.alpha, 1), (1 - params.beta, 0))
        self._terms = [(c, shift) for c, shift in terms if c != 0]
        self._rotation = None  # (pi, pi^{-1}) on points, made with the first Q_0 layer
        self._bottom = {}  # letter c -> the layer of the one-letter word (c,)

    def _new_layer(self, letter):
        if letter != 0:
            return _Reflection(letter - 1, _same, _same, self._terms)
        if self._rotation is None:
            pi = weyl.pi_element(self.params.k, self.params.L)
            self._rotation = (partial(weyl.act, pi), partial(weyl.act, weyl.inverse(pi)))
        return _Reflection(0, *self._rotation, self._terms)

    def layers(self, word):
        """The layers of word[d:] for d = 0, 1, ..., top first."""
        layers = []
        above = self._bottom
        for letter in reversed(word):
            layer = above.get(letter)
            if layer is None:
                layer = above[letter] = self._new_layer(letter)
            layers.append(layer)
            above = layer.above
        layers.reverse()
        return layers

    def values(self, word, points):
        """The values (Q_word f)(x) at the given points (integer tuples)."""
        if not word:
            return [self.f(x) for x in points]
        layers = self.layers(tuple(word))
        top = layers[0].memo
        missing = {x for x in points if x not in top}
        plans = []
        for depth, layer in enumerate(layers):
            if not missing:
                break
            entered, want = layer.plan(missing)
            plans.append((layer, entered, want))
            if depth + 1 < len(layers):
                below = layers[depth + 1].memo
                missing = {y for y in layer.needs(entered, want) if y not in below}
        for depth in range(len(plans) - 1, -1, -1):
            layer, entered, want = plans[depth]
            source = layers[depth + 1].memo.__getitem__ if depth + 1 < len(layers) else self.f
            layer.fill(entered, want, source)
        return [top[x] for x in points]


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


def apply_Q0(f, params):
    """Q_0 = pi^{-1} Q_1 pi, by conjugation with the diagram rotation."""
    return apply_Qw((0,), f, params)


def apply_Q_letter(letter, f, params):
    return apply_Qw((letter,), f, params)


def apply_Qw(word, f, params):
    """Q_w = Q_{word[0]} ... Q_{word[-1]} for a reduced word, applied to f."""
    word = tuple(word)
    if not word:
        return f
    if not all(0 <= letter < params.k for letter in word):
        raise ValueError("Q_i index must satisfy 0 <= i < k")
    engine = QWordEngine(f, params)
    memo = engine.layers(word)[0].memo

    def ev(x):
        v = memo.get(x)
        return engine.values(word, (x,))[0] if v is None else v

    return LatticeFunction(ev, memoize=False)
