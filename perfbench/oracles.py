"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the definitions (the formulas quoted in the
package docstrings and in the paper), without calling into ``hecke_bose``,
so that a fault in the program cannot also hide in its own check.  Values
are exact ``Fraction`` arithmetic unless the inputs are complex.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def window(k, w):
    """All integer points with |x_j| <= w, in lexicographic order."""
    return itertools.product(range(-w, w + 1), repeat=k)


def simple_values(x, L):
    """a_0(x), ..., a_{k-1}(x) with a_0 = x_k - x_1 + L and a_m = x_m - x_{m+1}."""
    k = len(x)
    return [x[k - 1] - x[0] + L] + [x[m - 1] - x[m] for m in range(1, k)]


def is_dominant(x, L):
    return all(v >= 0 for v in simple_values(x, L))


def is_regular(x, L):
    return all((a - b) % L for a, b in itertools.combinations(x, 2))


def dominant_rep(x, L):
    """The point of the closed dominant alcove in the orbit of x, by reflecting
    in any simple affine root that is negative until none is."""
    y = list(x)
    while True:
        vals = simple_values(y, L)
        m = next((m for m, v in enumerate(vals) if v < 0), None)
        if m is None:
            return tuple(y)
        y = reflect_simple(m, y, L)


def reflect_simple(m, x, L):
    """Reflection of x in the hyperplane of the simple affine root a_m."""
    y = list(x)
    if m == 0:
        c = y[-1] - y[0] + L
        y[-1] -= c
        y[0] += c
    else:
        y[m - 1], y[m] = y[m], y[m - 1]
    return y


def inversion_count(x, L):
    """Number of positive affine roots alpha_ij + m L delta that are negative at x,
    which is the length of the shortest element moving x into the dominant alcove."""
    count = 0
    for i, j in itertools.permutations(range(len(x)), 2):
        d = x[j] - x[i]  # the root is negative iff m L < d
        if d <= 0:
            continue
        ceil = -(-d // L)  # number of m >= 0 with m L < d
        count += ceil if i < j else ceil - 1
    return count


def expected_checks(suite, k, L, w):
    """The number of checks a `verify` suite must run on the window |x_j| <= w."""
    n = (2 * w + 1) ** k
    if suite == "hecke":
        far_pairs = sum(
            1 for i, j in itertools.combinations(range(k), 2) if (j - i) % k not in (1, k - 1)
        )
        return k * n + (k * n if k >= 3 else 0) + far_pairs * n
    if suite == "duality":
        return (k - 1) * n
    if suite == "d-change":
        return k * k * n
    if suite == "w-invariance":
        return k * sum(1 for x in window(k, w) if is_regular(x, L))
    if suite == "lemma-main":
        return k * n
    if suite == "theorem":
        return n
    if suite == "hl-identity":
        return sum(1 for x in window(k, w) if is_dominant(x, L))
    raise ValueError("unknown suite %r" % suite)


def _memo(ev):
    cache = {}

    def f(x):
        x = tuple(x)
        v = cache.get(x)
        if v is None:
            v = cache[x] = ev(x)
        return v

    return f


def _rotate(x, L):
    """The diagram rotation pi = t_{L v_1} s_1 ... s_{k-1} on a point."""
    y = list(x)
    for i in range(len(y) - 1, 0, -1):
        y[i - 1], y[i] = y[i], y[i - 1]
    y[0] += L
    return tuple(y)


def _unrotate(x, L):
    y = list(x)
    y[0] -= L
    for i in range(1, len(y)):
        y[i - 1], y[i] = y[i], y[i - 1]
    return tuple(y)


def q_letter(i, f, k, L, alpha, beta):
    """The integral reflection Q_i (0 <= i < k) from its defining sum; Q_0 is
    pi^{-1} Q_1 pi."""
    if i == 0:
        inner = q_letter(1, lambda y: f(_unrotate(y, L)), k, L, alpha, beta)
        return _memo(lambda x: inner(_rotate(x, L)))
    a, b = i - 1, i
    one_minus_beta = 1 - beta

    def ev(x):
        n = x[a] - x[b]
        if n == 0:
            return f(x)
        s = list(x)
        s[a], s[b] = s[b], s[a]
        total = f(tuple(s))
        sign, offsets = (1, range(1, n + 1)) if n > 0 else (-1, range(0, n, -1))
        for j in offsets:
            y = list(s)
            y[a] += j
            y[b] -= j
            total += sign * one_minus_beta * f(tuple(y))
            y[b] += 1
            total += sign * alpha * f(tuple(y))
        return total

    return _memo(ev)


def q_word(word, f, k, L, alpha, beta):
    """Q_{word[0]} ... Q_{word[-1]} f."""
    g = f
    for letter in reversed(word):
        g = q_letter(letter, g, k, L, alpha, beta)
    return g


def d_count(i, x, L, sign):
    """d_i^+ (sign 1) or d_i^- (sign -1): the number of p in 1..k-1 whose partial
    sum of simple-root values, read forwards or backwards from i, is a
    non-positive multiple of L."""
    vals = simple_values(x, L)
    k = len(x)
    s = count = 0
    for p in range(1, k):
        s += vals[(i + p - 1) % k] if sign > 0 else vals[(i - p) % k]
        if s <= 0 and s % L == 0:
            count += 1
    return count


def h_apply(f, x, L, alpha, beta):
    """(H f)(x) = sum_i beta^{d_i^-(x)} (f(x - v_i) - alpha d_i^+(x) f(x))."""
    total = 0
    for i in range(1, len(x) + 1):
        y = list(x)
        y[i - 1] -= 1
        total += beta ** d_count(i, x, L, -1) * (f(tuple(y)) - alpha * d_count(i, x, L, 1) * f(x))
    return total


def parity(sigma):
    inv = sum(1 for a, b in itertools.combinations(sigma, 2) if a > b)
    return -1 if inv % 2 else 1


def scattering_sum(p, x, alpha, beta):
    """sum_sigma sgn(sigma) prod_{i<j} (beta p_s(i) - p_s(j) - alpha) prod_i p_s(i)^{-x_i},
    with the sum of the terms' absolute values as a scale for float comparisons."""
    k = len(p)
    total = scale = 0
    for sigma in itertools.permutations(range(k)):
        q = [p[s] for s in sigma]
        term = parity(sigma)
        for i, j in itertools.combinations(range(k), 2):
            term *= beta * q[i] - q[j] - alpha
        for qi, xi in zip(q, x):
            term *= qi ** (-xi)
        total += term
        scale += abs(term)
    return total, scale


def bethe_wave(p, x, L, alpha, beta):
    """The Bethe wave function: the scattering sum at the dominant representative."""
    return scattering_sum(p, dominant_rep(x, L), alpha, beta)


def bethe_defect(p, L, alpha, beta):
    """max_i |p_i^L - prod_{j != i} (beta p_i - p_j - alpha) / (p_i - beta p_j + alpha)|."""
    worst = 0.0
    for i, pi in enumerate(p):
        prod = 1
        for j, pj in enumerate(p):
            if j != i:
                prod *= (beta * pi - pj - alpha) / (pi - beta * pj + alpha)
        worst = max(worst, abs(pi ** L - prod))
    return worst


def hl_normalization(parts, n, t):
    """v_lambda(t) = prod_a prod_{m=1}^{m_a} (1 - t^m)/(1 - t), zero parts padded to n."""
    padded = tuple(parts) + (0,) * (n - len(parts))
    v = Fraction(1)
    for a in set(padded):
        for m in range(1, padded.count(a) + 1):
            v *= sum(t ** e for e in range(m))  # (1 - t^m)/(1 - t)
    return v


def hl_P(parts, z, t):
    """Hall-Littlewood P_lambda(z; t) in the coset form of Macdonald III (2.2):
    a sum over the distinct arrangements mu of lambda of
    z^mu prod_{mu_a > mu_b} (z_a - t z_b)/(z_a - z_b)."""
    n = len(z)
    padded = tuple(parts) + (0,) * (n - len(parts))
    total = 0
    for mu in set(itertools.permutations(padded)):
        term = 1
        for a in range(n):
            term *= z[a] ** mu[a]
            for b in range(n):
                if mu[a] > mu[b]:
                    term *= (z[a] - t * z[b]) / (z[a] - z[b])
        total += term
    return total
