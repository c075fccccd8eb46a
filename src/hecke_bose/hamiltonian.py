"""Counting functions d_i^{+-} and the two-parameter deformed Hamiltonian."""

from __future__ import annotations

from functools import lru_cache

from . import weyl


def _d_count(x, params, i, sign):
    """d_i^+ (sign 1) or d_i^- (sign -1), read off the coordinates.

    With r = i - 1 mod k, the partial sums a_i(x) + a_{i+1}(x) + ...
    telescope to x_r - x_j, plus L once the run passes a_0.  So d_i^+ counts
    the multiples of L among the x_j - x_r, non-negative ones for j > r and
    positive ones for j < r; d_i^- counts the x_r - x_j with the sides swapped.
    """
    r = (i - 1) % params.k
    L, xr = params.L, x[r]
    weak, strict = (x[r + 1 :], x[:r]) if sign > 0 else (x[:r], x[r + 1 :])
    count = 0
    for ys, least in ((weak, 0), (strict, 1)):
        for y in ys:
            d = sign * (y - xr)
            if d >= least and d % L == 0:
                count += 1
    return count


def d_plus(i, x, params):
    """Count p in 1..k-1 with a_i(x) + ... + a_{i+p-1}(x) a non-positive multiple of L.

    Root indices are read modulo k; zero counts as a non-positive multiple.
    """
    return _d_count(x, params, i, 1)


def d_minus(i, x, params):
    """Count p in 1..k-1 with a_{i-p}(x) + ... + a_{i-1}(x) a non-positive multiple of L."""
    return _d_count(x, params, i, -1)


def apply_H(f, x, params):
    """Evaluate (H f)(x) = sum_i beta^{d_i^-(x)} ( f(x - v_i) - alpha d_i^+(x) f(x) )."""
    k, alpha, beta = params.k, params.alpha, params.beta
    total = 0
    fx = by_beta = None
    for i in range(1, k + 1):
        term = f((*x[: i - 1], x[i - 1] - 1, *x[i:]))
        if by_beta is None:
            kind = type(term)
            by_alpha, by_beta = _weights(alpha, beta, k, kind)
        dp = d_plus(i, x, params)
        if dp and alpha != 0:
            if fx is None:
                fx = f(x)
            term = term - (by_alpha[dp] if 0 < dp < k else _weight(alpha, dp, 0, kind)) * fx
        dm = d_minus(i, x, params)
        total += (by_beta[dm] if 0 <= dm < k else _weight(beta, dm, 1, kind)) * term
    return total


@lru_cache(maxsize=None, typed=True)
def _weight(base, n, power, kind):
    """base ** n (power 1) or base * n, made complex once for a complex kind, as Fraction does."""
    w = base ** n if power else base * n
    return complex(w) if issubclass(kind, complex) else w


@lru_cache(maxsize=None, typed=True)
def _weights(alpha, beta, k, kind):
    """The _weight tables of alpha * n and beta ** n for n in range(k), the values
    d_i^{+-} take: apply_H hashes its couplings once per call, not at every term."""
    by_alpha = [_weight(alpha, n, 0, kind) for n in range(k)]
    return by_alpha, [_weight(beta, n, 1, kind) for n in range(k)]


def verify_d_change(x, i, j, params):
    """Check how d_i^{+-} transform under the simple reflection s_j.

    Expected: unchanged when i is away from {j, j+1} mod k; otherwise the
    indices j and j+1 swap roles, with a correction of theta(a_j(x) = 0).
    s_j fixes x exactly where a_j(x) = 0, so theta reads sx == x.
    Returns True iff both signs match.
    """
    k = params.k
    sx = weyl.act(weyl.simple_reflection_element(j, k, params.L), x)
    theta = 1 if sx == x else 0
    for d, sign in ((d_plus, 1), (d_minus, -1)):
        got = d(i, sx, params)
        if i % k == j % k:
            expected = d(j + 1, x, params) + sign * theta
        elif i % k == (j + 1) % k:
            expected = d(j, x, params) - sign * theta
        else:
            expected = d(i, x, params)
        if got != expected:
            return False
    return True
