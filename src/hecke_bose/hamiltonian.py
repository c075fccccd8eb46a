"""Counting functions d_i^{+-} and the two-parameter deformed Hamiltonian."""

from __future__ import annotations


def _d_counts(x, params):
    """The lists (d^+, d^-) of the counts d_i^{+-}(x) at index i - 1, in one pass
    over the coordinate pairs.

    With r = i - 1 mod k, the partial sums a_i(x) + a_{i+1}(x) + ...
    telescope to x_r - x_j, plus L once the run passes a_0.  So d_i^+ counts
    the multiples of L among the x_j - x_r, non-negative ones for j > r and
    positive ones for j < r; d_i^- counts the x_r - x_j with the sides swapped.
    A pair r < j with L | x_j - x_r thus adds one to d^+ at r and to d^- at j
    when x_j >= x_r, and one to d^- at r and to d^+ at j otherwise.
    """
    k, L = params.k, params.L
    plus, minus = [0] * k, [0] * k
    for r in range(k - 1):
        xr = x[r]
        for j in range(r + 1, k):
            d = x[j] - xr
            if d % L == 0:
                if d >= 0:
                    plus[r] += 1
                    minus[j] += 1
                else:
                    minus[r] += 1
                    plus[j] += 1
    return plus, minus


def d_plus(i, x, params):
    """Count p in 1..k-1 with a_i(x) + ... + a_{i+p-1}(x) a non-positive multiple of L.

    Root indices are read modulo k; zero counts as a non-positive multiple.
    """
    return _d_counts(x, params)[0][(i - 1) % params.k]


def d_minus(i, x, params):
    """Count p in 1..k-1 with a_{i-p}(x) + ... + a_{i-1}(x) a non-positive multiple of L."""
    return _d_counts(x, params)[1][(i - 1) % params.k]


def apply_H(f, x, params):
    """Evaluate (H f)(x) = sum_i beta^{d_i^-(x)} ( f(x - v_i) - alpha d_i^+(x) f(x) ).

    The weights alpha d and beta^d are taken in the couplings' own type: pass
    complex couplings to act on complex f at float speed."""
    alpha, beta = params.alpha, params.beta
    total = 0
    fx = None
    for i, (dp, dm) in enumerate(zip(*_d_counts(x, params))):
        term = f((*x[:i], x[i] - 1, *x[i + 1 :]))
        if dp and alpha != 0:
            if fx is None:
                fx = f(x)
            term = term - alpha * dp * fx
        total += beta ** dm * term if dm else term
    return total

