"""Integral-reflection operators on lattice functions, and the Q-word engine
that evaluates them."""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .functions import LatticeFunction


def _rotate(x, L):
    """The diagram rotation on points: pi x = (x_k + L, x_1, ..., x_{k-1})."""
    return (x[-1] + L,) + x[:-1]


def _unrotate(y, L):
    """Its inverse: pi^{-1} y = (y_2, ..., y_k, y_1 - L)."""
    return y[1:] + (y[0] - L,)


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
    the source is read at pi^{-1} y.  ``rotation`` is L for it and None for
    the other letters, whose layers use the points as they are.
    """

    __slots__ = ("a", "rotation", "unit", "terms", "memo", "lines")

    def __init__(self, a, rotation, unit, terms):
        self.a = a  # 0-based coordinate slots (a, a + 1) of the root
        self.rotation = rotation
        self.unit = unit  # D, the common denominator of alpha and 1 - beta
        self.terms = terms  # (D * coefficient, shift of slot a + 1) per nonzero term of h
        self.memo = {}
        self.lines = {}  # (s, other coordinates) -> (up, down)

    def plan(self, points, below):
        """Enter ``points`` and find what evaluating there reads.  Returns the
        entered points as (x, z, line) triples, with line None where z_a = z_b;
        the lines as {line: (lo, hi)}, whose sums must reach from lo to hi; and
        the set of source points that ``fill`` reads and ``below`` lacks."""
        a, rotation, terms = self.a, self.rotation, self.terms
        entered = []
        want = {}
        missing = set()
        for x in points:
            z = x if rotation is None else _rotate(x, rotation)
            y = self._reflected(z)
            if y not in below:
                missing.add(y)
            za, zb = z[a], z[a + 1]
            key = None
            if za != zb:
                lo, hi = (zb, za) if za > zb else (za, zb)
                key = (lo + hi,) + z[:a] + z[a + 2 :]
                prev_lo, prev_hi = want.get(key, (lo, hi))
                want[key] = (min(lo, prev_lo), max(hi, prev_hi))
            entered.append((x, z, key))
        for _, ts, s, head, tail in self._extensions(want):
            for t in ts:
                for _, shift in terms:
                    y = head + (t, s - t + shift) + tail
                    y = y if rotation is None else _unrotate(y, rotation)
                    if y not in below:
                        missing.add(y)
        return entered, want, missing

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
        a, rotation = self.a, self.rotation
        y = z[:a] + (z[a + 1], z[a]) + z[a + 2 :]
        return y if rotation is None else _unrotate(y, rotation)

    def fill(self, entered, want, source):
        """Evaluate at the entered points, first extending the lines in ``want``.

        ``source`` must answer at every point that ``plan`` found.  With
        s = z_a + z_b, the value is the telescoped sum
        (Q f)(x) = f(s_a z) + C_s(z_a) - C_s(z_b): f(s_a z) plus or minus the
        sum of h from min(z_a, z_b) + 1 to max(z_a, z_b).  Source values are
        ints over some scale S; the line sums and the values are ints over
        S * D, because the terms carry their coefficients times D.
        """
        rotation, terms = self.rotation, self.terms
        for sums, ts, s, head, tail in self._extensions(want):
            total = sums[-1]
            for t in ts:
                for c, shift in terms:
                    y = head + (t, s - t + shift) + tail
                    total += c * source(y if rotation is None else _unrotate(y, rotation))
                sums.append(total)
        a, lines, memo, unit = self.a, self.lines, self.memo, self.unit
        for x, z, key in entered:
            v = unit * source(self._reflected(z))
            if key is not None:
                za, zb = z[a], z[a + 1]
                lo, hi = (zb, za) if za > zb else (za, zb)
                m = key[0] // 2  # lo <= m < hi
                up, down = lines[key]
                d = up[hi - m] + down[m - lo]
                v = v + d if za > zb else v - d
            memo[x] = v

    def rescale(self, m):
        """Multiply every stored value and line sum by m."""
        memo = self.memo
        for x, v in memo.items():
            memo[x] = v * m
        for sides in self.lines.values():
            for sums in sides:
                sums[:] = [v * m for v in sums]


class QWordEngine:
    """Evaluates Q_w f = Q_{w[0]} ... Q_{w[-1]} f for words w, without recursion.

    The engine keeps one table of layers keyed by word suffix: the layer of a
    word applies its first letter to the layer of the rest, so words that
    share a suffix share its evaluated points and line sums.  An evaluation
    plans the points each layer is missing from the top layer down, then
    fills them from the bottom up in plain loops.

    All arithmetic is on Python ints.  f is read once per point, into a
    table of the ints f(x) * S with S the least common multiple of the
    denominators read so far; a layer of height h holds its values and line
    sums as ints over S * D^h, with D the common denominator of alpha and
    1 - beta.  When a read brings a new denominator, S grows by a factor m
    and every stored int is multiplied by m.  So alpha, beta and the values
    of f must be rationals (ints or Fractions); ``values`` returns Fractions.
    """

    def __init__(self, f, params):
        for name in ("alpha", "beta"):
            value = getattr(params, name)
            if not isinstance(value, Rational):
                raise TypeError(
                    "the Q-word engine computes exactly and needs a rational %s, got %r"
                    % (name, value)
                )
        self.f = f
        self.params = params
        terms = ((params.alpha, 1), (1 - params.beta, 0))
        self._unit = math.lcm(*(c.denominator for c, _ in terms))  # D
        self._terms = [(int(c * self._unit), shift) for c, shift in terms if c != 0]
        self._scale = 1  # S
        self._base = {}  # point -> f(point) * S
        self._layers = {}  # word -> the layer of Q_word[0] applied to that of word[1:]

    def values(self, word, points):
        """The values (Q_word f)(x) at the given points (integer tuples), as
        Fractions."""
        word = tuple(word)
        layers = []
        for d, letter in enumerate(word):
            layer = self._layers.get(word[d:])
            if layer is None:
                a, rotation = (letter - 1, None) if letter else (0, self.params.L)
                layer = self._layers[word[d:]] = _Reflection(a, rotation, self._unit, self._terms)
            layers.append(layer)
        memos = [layer.memo for layer in layers] + [self._base]
        missing = {x for x in points if x not in memos[0]}
        plans = []
        for layer, below in zip(layers, memos[1:]):
            if not missing:
                break
            entered, want, missing = layer.plan(missing, below)
            plans.append((layer, entered, want, below))
        self._read(missing)  # nonempty only when the plan reached f
        for layer, entered, want, below in reversed(plans):
            layer.fill(entered, want, below.__getitem__)
        top, scale = memos[0], self._scale * self._unit ** len(layers)
        return [Fraction(top[x], scale) for x in points]

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
        """Multiply every stored int, f's table and each layer's, by m."""
        base = self._base
        for x, v in base.items():
            base[x] = v * m
        for layer in self._layers.values():
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
    conjugated by the diagram rotation."""
    word = tuple(word)
    if not word:
        return f
    if not all(0 <= letter < params.k for letter in word):
        raise ValueError("Q_i index must satisfy 0 <= i < k")
    engine = QWordEngine(f, params)
    return LatticeFunction(lambda x: engine.values(word, (x,))[0])
