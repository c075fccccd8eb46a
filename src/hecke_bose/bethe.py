"""Bethe equations, their homotopy-continuation solver, Bethe wave functions,
and Hall-Littlewood polynomials."""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations

from . import weyl
from .functions import LatticeFunction

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60
ACCEPT_RESIDUAL = 1e-10
DEFECT_TOL = 1e-8
COLLISION_TOL = 1e-8
POLE_TOL = 1e-12


class BetheSolverError(RuntimeError):
    """Continuation failure; carries the homotopy parameter where it occurred."""

    def __init__(self, message, s=None):
        super().__init__(message)
        self.s = s


@dataclass(frozen=True)
class SpectralPoint:
    """A candidate Bethe root: spectral parameters and the equation defect."""

    p: tuple
    residual: float


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if any(a < 0 for a in parts):
            raise ValueError("partition parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def normalization(self, t, length):
        """v_lambda(t) = prod_{a>=0} prod_{n=1}^{m_a} (1-t^n)/(1-t), each factor
        summed as 1 + t + ... + t^{n-1}, which is n at t = 1.

        The multiplicity m_0 of zero parts counts the padding up to
        ``length``, the number of variables; this is the normalization
        making P_lambda monic in the monomial basis.
        """
        if length < len(self.parts):
            raise ValueError("length shorter than the partition")
        v = 1
        for m in Counter(self.parts + (0,) * (length - len(self.parts))).values():
            for n in range(1, m + 1):
                v *= sum(t ** e for e in range(n))
        return v


def _scattering_row(p, i, alpha, beta):
    """The factors S_ij = (beta p_i - p_j - alpha)/(p_i - beta p_j + alpha)
    of row i as numerators, denominators and ratios (None at j = i), and
    their product over j != i.  Raises at a vanishing denominator."""
    k = len(p)
    nums = [None] * k
    dens = [None] * k
    ratios = [None] * k
    prod = 1
    for j in range(k):
        if j == i:
            continue
        nums[j] = beta * p[i] - p[j] - alpha
        dens[j] = p[i] - beta * p[j] + alpha
        if abs(complex(dens[j])) < POLE_TOL:
            raise BetheSolverError(
                "Bethe equation denominator vanishes at (i, j) = (%d, %d)" % (i + 1, j + 1)
            )
        ratios[j] = nums[j] / dens[j]
        prod *= ratios[j]
    return nums, dens, ratios, prod


def _bethe_system(p, L, alpha, beta):
    """Residuals r_i = p_i^L - prod_{j != i} S_ij and the Jacobian
    dr_i/dp_j as a list of rows.

    Plain arithmetic on the elements of p, so rational p gives exact
    residuals.  The Jacobian uses the partial products over l != i, j rather
    than dividing by S_ij, which may vanish.
    """
    k = len(p)
    res = []
    jac = []
    for i in range(k):
        nums, dens, ratios, prod = _scattering_row(p, i, alpha, beta)
        res.append(p[i] ** L - prod)
        row = [0] * k
        row[i] = L * p[i] ** (L - 1)
        for j in range(k):
            if j == i:
                continue
            partial = 1
            for l in range(k):
                if l != i and l != j:
                    partial *= ratios[l]
            den2 = dens[j] ** 2
            row[i] -= partial * ((beta * dens[j] - nums[j]) / den2)
            row[j] = -partial * ((-dens[j] + beta * nums[j]) / den2)
        jac.append(row)
    return res, jac


def bethe_residual(p, params):
    """Defect vector of the Bethe equations:
    p_i^L - prod_{j != i} (beta p_i - p_j - alpha)/(p_i - beta p_j + alpha)."""
    p = tuple(getattr(p, "p", p))
    alpha, beta = params.alpha, params.beta
    return [p[i] ** params.L - _scattering_row(p, i, alpha, beta)[3] for i in range(len(p))]


def _solve(jac, res):
    """The x with jac x = res, by Gaussian elimination with partial pivoting.
    Plain arithmetic on the entries; a zero pivot raises ZeroDivisionError."""
    k = len(res)
    rows = [list(row) + [r] for row, r in zip(jac, res)]
    for c in range(k):
        pivot = max(range(c, k), key=lambda i: abs(rows[i][c]))
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        for row in rows[c + 1 :]:
            factor = row[c] / top[c]
            for j in range(c + 1, k + 1):
                row[j] -= factor * top[j]
    x = [0] * k
    for i in reversed(range(k)):
        row = rows[i]
        x[i] = (row[k] - sum(row[j] * x[j] for j in range(i + 1, k))) / row[i]
    return x


def _newton(p, L, a, b):
    """Newton refinement at couplings (a, b) on a tuple of Python complex.  A zero pivot,
    an overflow or a non-finite iterate is a failed step: Python complex raises where
    it can, and a product can still overflow to inf without raising.  An iteration is
    a pure function of p, so a repeated iterate is a cycle of failed states: stop with
    the error NEWTON_MAX_ITER would end in."""
    p = tuple(p)
    seen = set()
    while len(seen) < NEWTON_MAX_ITER and p not in seen:
        seen.add(p)
        try:
            res, jac = _bethe_system(p, L, a, b)
            if all(abs(r) < NEWTON_TOL for r in res):
                return p
            p = tuple(v - step for v, step in zip(p, _solve(jac, res)))
            finite = all(map(cmath.isfinite, p))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise BetheSolverError("Newton step not finite")
    raise BetheSolverError("Newton did not converge")


def seed_roots_of_unity(seed_selection, L):
    """Distinct L-th roots of unity, selected by index."""
    sel = tuple(seed_selection)
    if len(sel) != len(set(m % L for m in sel)):
        raise ValueError("seed selection indices must be distinct mod L")
    return tuple(cmath.exp(2j * cmath.pi * (m % L) / L) for m in sel)


def solve_bethe(params, seed_selection, homotopy_steps=40):
    """Continue a free solution (alpha, beta) = (0, 1) to the target couplings.

    At the free point the Bethe equations reduce to p_i^L = 1, so any choice
    of k distinct L-th roots of unity is a solution.  The path is the
    straight segment in (alpha, beta); steps halve adaptively on Newton
    failure.  Root collisions and denominator poles abort with a diagnostic,
    and so does a path that spends more than max(400, 20 * homotopy_steps)
    Newton calls, as one that creeps towards a singular coupling does.
    """
    k, L = params.k, params.L
    if len(tuple(seed_selection)) != k:
        raise ValueError("need exactly k seed indices")
    a_t = complex(params.alpha)
    b_t = complex(params.beta)
    p = seed_roots_of_unity(seed_selection, L)

    s = 0.0
    ds = 1.0 / max(1, homotopy_steps)
    budget = max(400, 20 * homotopy_steps)
    while s < 1.0:
        if budget == 0:
            raise BetheSolverError("continuation budget exhausted at s = %.6g" % s, s=s)
        budget -= 1
        s_next = min(1.0, s + ds)
        a = s_next * a_t
        b = 1.0 + s_next * (b_t - 1.0)
        try:
            q = _newton(p, L, a, b)
        except BetheSolverError as err:
            ds /= 2
            if ds < 1e-8:
                raise BetheSolverError(
                    "continuation stalled at s = %.6g: %s" % (s_next, err), s=s_next
                ) from err
            continue
        for i, j in combinations(range(k), 2):
            if abs(q[i] - q[j]) < COLLISION_TOL:
                raise BetheSolverError(
                    "root collision at s = %.6g between p_%d and p_%d"
                    % (s_next, i + 1, j + 1),
                    s=s_next,
                )
        p = q
        s = s_next

    # at the complex couplings the path continued to
    residual = _max_or_nan(abs(r) for r in _bethe_system(p, L, a_t, b_t)[0])
    if not (residual <= ACCEPT_RESIDUAL and all(map(cmath.isfinite, p))):
        raise BetheSolverError(
            "final residual %.3g above acceptance threshold" % residual, s=1.0
        )
    return SpectralPoint(p, residual)


def _max_or_nan(values):
    """max(values), or NaN if any is NaN: max() passes over a NaN after the first
    slot, since NaN > x is False."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def _symmetrized_terms(pair):
    """The k! pairs (sigma, prod_{i<j} pair[sigma(i)][sigma(j)]) of a k x k
    table of pair factors, sigma in lexicographic order."""
    k = len(pair)
    ij = list(combinations(range(k), 2))
    return [(s, math.prod(pair[s[i]][s[j]] for i, j in ij)) for s in permutations(range(k))]


def _sum_terms(terms, z, exps):
    """sum over (sigma, coef) in terms of coef * prod_i z_{sigma(i)}^{exps_i},
    from one k x k table of powers."""
    powers = [[v ** e for v in z] for e in exps]
    total = 0
    for sigma, coef in terms:
        mono = 1
        for row, s in zip(powers, sigma):
            mono *= row[s]
        total += coef * mono
    return total


def _wave_terms(p, alpha, beta):
    """The terms (sigma, sgn(sigma) prod_{i<j} (beta p_{sigma(i)} - p_{sigma(j)} - alpha)):
    the factor of a pair (a, b) is negated when a > b, so every inversion of
    sigma flips the sign once."""
    k = len(p)
    pair = [[beta * p[a] - p[b] - alpha for b in range(k)] for a in range(k)]
    for a in range(k):
        for b in range(a):
            pair[a][b] = -pair[a][b]
    return _symmetrized_terms(pair)


def bethe_wave(p, x, params):
    """The Bethe wave function h_p at the point x (see bethe_wave_function)."""
    return bethe_wave_function(p, params)(x)


def bethe_wave_function(p, params):
    """h_p: sum_sigma sgn(sigma) prod_{i<j} (beta p_{sigma(i)} - p_{sigma(j)} - alpha)
    prod_i p_{sigma(i)}^{-x_i} on the dominant chamber, Weyl-invariant, as a
    memoizing lattice function.  The k! coefficients are computed once, here, and
    the k! sum once per W-orbit: an inner memo is keyed on the dominant point."""
    p = tuple(getattr(p, "p", p))
    terms = _wave_terms(p, params.alpha, params.beta)
    on_dominant = LatticeFunction(lambda y: _sum_terms(terms, p, [-e for e in y]))
    return LatticeFunction(lambda x: on_dominant(weyl.dominant_point(x, params)))


def hall_littlewood_R(lam, z, t):
    """The symmetrized sum R_lambda(z; t) = sum_sigma prod_{i<j}
    (z_{sigma(i)} - t z_{sigma(j)})/(z_{sigma(i)} - z_{sigma(j)}) *
    prod_i z_{sigma(i)}^{lambda_i}.

    Accepts any integer exponent tuple of length <= k (padded with zeros).
    """
    z = tuple(z)
    k = len(z)
    exps = tuple(getattr(lam, "parts", lam))
    if len(exps) > k:
        raise ValueError("exponent tuple longer than variable list")
    return _hl_R(z, t)(exps + (0,) * (k - len(exps)))


def _hl_R(z, t):
    """lambda -> R_lambda(z; t) at fixed z and t, for exponent tuples of length
    k.  The k! coefficients are computed once, here."""
    k = len(z)
    pair = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            if z[a] == z[b]:
                raise ValueError("coincident variables z_%d = z_%d" % (a + 1, b + 1))
            pair[a][b] = (z[a] - t * z[b]) / (z[a] - z[b])
    terms = _symmetrized_terms(pair)
    return lambda exps: _sum_terms(terms, z, exps)


def hall_littlewood_P(lam, z, t):
    """P_lambda(z; t) = R_lambda(z; t) / v_lambda(t)."""
    if not isinstance(lam, Partition):
        lam = Partition(tuple(lam))
    return hall_littlewood_R(lam.parts, z, t) / lam.normalization(t, length=len(tuple(z)))

