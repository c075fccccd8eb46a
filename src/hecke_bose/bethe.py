"""Bethe equations, their homotopy-continuation solver, Bethe wave functions,
and Hall-Littlewood polynomials."""

from __future__ import annotations

import cmath
import functools
import math
import types
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from numbers import Rational

from . import weyl

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60
ACCEPT_RESIDUAL = 1e-10
DEFECT_TOL = 1e-8
COLLISION_TOL = 1e-8
POLE_TOL = 1e-12


class BetheSolverError(RuntimeError):
    """Continuation failure; carries the homotopy parameter s where it occurred,
    None for a failure outside the continuation: a residual at a pole, or a
    Newton run, which the continuation reports as a stall at its own s."""

    def __init__(self, message, s):
        super().__init__(message)
        self.s = s


@dataclass(frozen=True)
class SpectralPoint:
    """A candidate Bethe root: spectral parameters and the equation defect."""

    p: tuple
    residual: float


def _elimination(k):
    """The lines of Gaussian elimination with partial pivoting for k unknowns,
    straight-line: they solve J x = r for x0, ..., x{k-1}, with the augmented
    matrix [J | r] held in the names a{i}_{j} and r{i}, which they overwrite.
    The pivot is the first entry of maximal modulus, as ``max`` picks it, and
    a back-substitution sum goes through ``sum()``.  The arithmetic is plain,
    so a zero pivot raises ZeroDivisionError and rational entries give the
    exact x."""

    def cell(i, j):  # of the augmented matrix [J | r]
        return "r%d" % i if j == k else "a%d_%d" % (i, j)

    lines = []
    for c in range(k):
        lines.append("top = abs(%s)" % cell(c, c))
        if c + 1 < k:
            lines.append("piv = %d" % c)
        for r in range(c + 1, k):
            lines += ["v = abs(%s)" % cell(r, c), "if v > top:", "    top = v", "    piv = %d" % r]
        for r in range(c + 1, k):
            mine = [cell(c, j) for j in range(c, k + 1)]
            theirs = [cell(r, j) for j in range(c, k + 1)]
            lines += ["%s piv == %d:" % ("if" if r == c + 1 else "elif", r),
                      "    %s = %s" % (", ".join(mine + theirs), ", ".join(theirs + mine))]
        for r in range(c + 1, k):
            lines.append("f = %s / %s" % (cell(r, c), cell(c, c)))
            lines += ["%s -= f * %s" % (cell(r, j), cell(c, j)) for j in range(c + 1, k + 1)]
    for i in reversed(range(k)):
        terms = "".join("%s * x%d, " % (cell(i, j), j) for j in range(i + 1, k))
        total = "sum((%s))" % terms if terms else "0"
        lines.append("x%d = (%s - %s) / %s" % (i, cell(i, k), total, cell(i, i)))
    return lines


def _kernel_source(k):
    """Python source of ``residuals``, ``newton`` and ``separation`` for k
    particles, unrolled into straight-line code.

    ``residuals(p, L, alpha, beta)`` gives r_i = p_i^L - prod_{j != i} S_ij,
    with S_ij = (beta p_i - p_j - alpha)/(p_i - beta p_j + alpha), and raises
    at a vanishing denominator.  ``newton(p, L, alpha, beta)`` is the whole
    Newton iteration, one loop around straight-line code.  Each iteration adds
    its iterate to a set of seen iterates; it returns the iterate when every
    |r_i| < NEWTON_TOL, and else steps to p - J^{-1} r, where J = dr_i/dp_j
    takes the partial products over l != i, j rather than dividing by S_ij,
    which may vanish.  It raises "Newton did not converge" at the first
    iterate that repeats (an iteration is a pure function of p, so that is a
    cycle of failed states) or after NEWTON_MAX_ITER iterations, and "Newton
    step not finite" at a zero pivot, an overflow or a non-finite iterate:
    Python complex raises where it can, and a product can still overflow to
    inf without raising.  A vanishing denominator raises as in ``residuals``.
    ``separation(p, s)`` raises the root-collision error, at homotopy
    parameter s, for the first pair of roots closer than COLLISION_TOL.
    The step's elimination is the lines of ``_elimination(k)``.

    ``residuals`` and ``newton`` run the same generated lines, written out
    once, with one pole test, abs(d) < POLE_TOL.  They are plain arithmetic
    on the elements of p, so rational p stays exact in ``residuals``, and a
    Fraction denominator is compared exactly.  Every operation keeps its
    operands and its order: the factors of row i are formed for j ascending,
    each denominator is checked as it is formed and r_i follows its row; a
    product starts from the int 1.  A value that is needed twice, beta p_i or
    a product over a prefix of a row, is computed once, where it is first
    needed.
    """

    def system():
        # the lines of r_i and of J
        known = {}

        def let(lines, name, expr):
            # bind expr to name where it is first needed; later uses read the name
            if expr not in known:
                known[expr] = name
                lines.append("%s = %s" % (name, expr))
            return known[expr]

        def product(lines, i, ls):
            # 1 * s_i,l1 * s_i,l2 * ..., each prefix named
            if not ls:
                return "1"
            head = product(lines, i, ls[:-1])
            name = "m%d_%s" % (i, "_".join(map(str, ls)))
            return let(lines, name, "%s * s%d_%d" % (head, i, ls[-1]))

        rows = []
        for i in range(k):
            others = [j for j in range(k) if j != i]
            for n, j in enumerate(others):
                num, den, ratio = "n%d_%d" % (i, j), "d%d_%d" % (i, j), "s%d_%d" % (i, j)
                bp_i = let(rows, "bp%d" % i, "beta * p%d" % i)
                rows.append("%s = %s - p%d - alpha" % (num, bp_i, j))
                bp_j = let(rows, "bp%d" % j, "beta * p%d" % j)
                rows.append("%s = p%d - %s + alpha" % (den, i, bp_j))
                rows.append("if abs(%s) < %r:" % (den, POLE_TOL))
                rows.append("    raise BetheSolverError(%r, s=None)" % (
                    "Bethe equation denominator vanishes at (i, j) = (%d, %d)" % (i + 1, j + 1)))
                rows.append("%s = %s / %s" % (ratio, num, den))
                product(rows, i, others[: n + 1])
            rows.append("r%d = p%d ** L - %s" % (i, i, product(rows, i, others)))

        jacobian = []
        for i in range(k):
            jacobian.append("a%d_%d = L * p%d ** (L - 1)" % (i, i, i))
            for j in range(k):
                if j == i:
                    continue
                partial = product(jacobian, i, [l for l in range(k) if l not in (i, j)])
                num, den, den2 = "n%d_%d" % (i, j), "d%d_%d" % (i, j), "e%d_%d" % (i, j)
                jacobian += [
                    "%s = %s ** 2" % (den2, den),
                    "a%d_%d -= %s * ((beta * %s - %s) / %s)" % (i, i, partial, den, num, den2),
                    "a%d_%d = -%s * ((-%s + beta * %s) / %s)" % (i, j, partial, den, num, den2),
                ]
        return rows, jacobian

    def function(signature, unpack, body):
        return "\n    ".join(["def %s:" % signature] + unpack + body) + "\n"

    def indent(lines):
        return ["    " + line for line in lines]

    unpack_p = ["[%s] = p" % ", ".join("p%d" % i for i in range(k))]
    iterate = "(%s)" % "".join("p%d, " % i for i in range(k))
    converged = " and ".join("abs(r%d) < %r" % (i, NEWTON_TOL) for i in range(k))
    finite = " and ".join("isfinite(p%d)" % i for i in range(k))
    rows, jacobian = system()
    step = (rows + ["if %s:" % converged, "    return %s" % iterate] + jacobian
            + _elimination(k) + ["p%d = p%d - x%d" % (i, i, i) for i in range(k)]
            + ["finite = %s" % finite])
    # seen grows by one at each iteration, so it falls behind n at the first
    # iterate that repeats
    loop = (["seen = set()", "for n in range(1, %d):" % (NEWTON_MAX_ITER + 1)]
            + indent(["seen.add(%s)" % iterate, "if len(seen) < n:", "    break", "try:"]
                     + indent(step)
                     + ["except (OverflowError, ZeroDivisionError):", "    finite = False",
                        "if not finite:",
                        "    raise BetheSolverError(%r, s=None)" % "Newton step not finite"])
            + ["raise BetheSolverError(%r, s=None)" % "Newton did not converge"])
    separation = []
    for i, j in combinations(range(k), 2):
        separation += ["if abs(p%d - p%d) < %r:" % (i, j, COLLISION_TOL),
                       "    raise BetheSolverError(%r %% s, s=s)"
                       % ("root collision at s = %%.6g between p_%d and p_%d" % (i + 1, j + 1))]
    return "\n".join([
        function("residuals(p, L, alpha, beta)", unpack_p,
                 rows + ["return [%s]" % ", ".join("r%d" % i for i in range(k))]),
        function("newton(p, L, alpha, beta)", unpack_p, loop),
        function("separation(p, s)", unpack_p, separation),
    ])


@functools.cache
def _kernel(k):
    """The residuals, the Newton loop and the separation check for k particles
    (see _kernel_source), compiled on first use."""
    namespace = {"BetheSolverError": BetheSolverError, "isfinite": cmath.isfinite}
    exec(compile(_kernel_source(k), "<bethe kernel k=%d>" % k, "exec"), namespace)
    return types.SimpleNamespace(
        **{name: namespace[name] for name in ("residuals", "newton", "separation")}
    )


def bethe_residual(p, params):
    """Defect vector of the Bethe equations, exact Fractions at rational input:
    p_i^L - prod_{j != i} (beta p_i - p_j - alpha)/(p_i - beta p_j + alpha)."""
    # p may also be a SpectralPoint, as perfbench/probes.py passes it
    p = tuple(getattr(p, "p", p))
    if len(p) != params.k:
        raise ValueError("need exactly k = %d spectral parameters, got %d" % (params.k, len(p)))
    if all(isinstance(v, Rational) for v in (*p, params.alpha, params.beta)):
        p = tuple(map(Fraction, p))  # an int quotient would be a float
    return _kernel(len(p)).residuals(p, params.L, params.alpha, params.beta)


def seed_roots_of_unity(seed_selection, L):
    """Distinct L-th roots of unity, selected by index."""
    sel = tuple(seed_selection)
    if len(sel) != len(set(m % L for m in sel)):
        raise ValueError("seed selection indices must be distinct mod L")
    return tuple(cmath.exp(2j * cmath.pi * (m % L) / L) for m in sel)


def solve_bethe(params, seed_selection, homotopy_steps):
    """Continue a free solution (alpha, beta) = (0, 1) to the target couplings.

    At the free point the Bethe equations reduce to p_i^L = 1, so any choice
    of k distinct L-th roots of unity is a solution.  The path is the
    straight segment in (alpha, beta); steps halve adaptively on Newton
    failure.  Root collisions and denominator poles abort with a diagnostic,
    and so does a path that spends more than max(400, 20 * homotopy_steps)
    Newton calls, as one that creeps towards a singular coupling does.
    The roots returned are finite, pairwise at least COLLISION_TOL apart,
    and meet the Bethe equations to ACCEPT_RESIDUAL.  ``homotopy_steps``
    must be a positive int: TypeError otherwise, ValueError below 1.
    """
    k, L = params.k, params.L
    if len(tuple(seed_selection)) != k:
        raise ValueError("need exactly k seed indices")
    if not isinstance(homotopy_steps, int) or isinstance(homotopy_steps, bool):
        raise TypeError("homotopy_steps must be an int, got %r" % (homotopy_steps,))
    if homotopy_steps < 1:
        raise ValueError("homotopy_steps must be positive, got %d" % homotopy_steps)
    a_t = complex(params.alpha)
    b_t = complex(params.beta)
    p = seed_roots_of_unity(seed_selection, L)
    kernel = _kernel(k)

    s = 0.0
    ds = 1.0 / homotopy_steps
    budget = max(400, 20 * homotopy_steps)
    while s < 1.0:
        if budget == 0:
            raise BetheSolverError("continuation budget exhausted at s = %.6g" % s, s=s)
        budget -= 1
        s_next = min(1.0, s + ds)
        a = s_next * a_t
        b = 1.0 + s_next * (b_t - 1.0)
        try:
            q = kernel.newton(p, L, a, b)
        except BetheSolverError as err:
            ds /= 2
            if ds < 1e-8:
                raise BetheSolverError(
                    "continuation stalled at s = %.6g: %s" % (s_next, err), s=s_next
                ) from err
            continue
        kernel.separation(q, s_next)
        p = q
        s = s_next

    # at the complex couplings the path continued to
    residual = _max_or_nan(abs(r) for r in kernel.residuals(p, L, a_t, b_t))
    if not (residual <= ACCEPT_RESIDUAL and all(map(cmath.isfinite, p))):
        raise BetheSolverError(
            "final residual %.3g above acceptance threshold" % residual, s=1.0
        )
    # the roots returned are distinct, whatever path led to them
    kernel.separation(p, 1.0)
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


def _symmetrizer(pair, z):
    """exps -> sum_sigma prod_{i<j} pair[sigma(i)][sigma(j)] prod_i z_{sigma(i)}^{exps_i}
    for a k x k table of pair factors (its diagonal is not read) and k variables
    z, at integer exponent tuples of length k.  The k! coefficients are computed
    once, here.

    When every pair factor and every z_i is rational (ints included), the sum
    runs in ints: the pair table over one common denominator D_p, so the
    coefficients are ints over D_p^(k(k-1)/2); z_i = m_i / D_z; the exponents
    shifted by u = min(0, min(exps)) to be nonnegative.  Each value is then one
    exact Fraction, total / (D_p^(k(k-1)/2) D_z^(sum e)) times (prod z)^u.
    Otherwise the sum runs in the arithmetic of the inputs."""
    k = len(z)
    off = [pair[a][b] for a, b in permutations(range(k), 2)]
    if not all(isinstance(v, Rational) for v in off + list(z)):
        terms = _symmetrized_terms(pair)
        return lambda exps: _sum_terms(terms, z, exps)
    d_p = math.lcm(*(v.denominator for v in off))
    terms = _symmetrized_terms(
        [[v.numerator * (d_p // v.denominator) if a != b else None for b, v in enumerate(row)]
         for a, row in enumerate(pair)]
    )
    d_terms = d_p ** (k * (k - 1) // 2)
    d_z = math.lcm(*(v.denominator for v in z))
    m = [v.numerator * (d_z // v.denominator) for v in z]
    # prod z = prod m / D_z^k
    prod_m, d_prod = math.prod(m), d_z ** k

    def value(exps):
        u = min((0, *exps))
        e = [n - u for n in exps]
        num, den = _sum_terms(terms, m, e), d_terms * d_z ** sum(e)
        if u:
            num, den = num * d_prod ** -u, den * prod_m ** -u
        return Fraction(num, den)

    return value


def _wave_pairs(p, alpha, beta):
    """The pair factors (beta p_a - p_b - alpha) of h_p, the factor of a pair
    (a, b) negated when a > b, so every inversion of sigma flips the sign once:
    the symmetrized coefficients are sgn(sigma) prod_{i<j} (beta p_{sigma(i)}
    - p_{sigma(j)} - alpha)."""
    k = len(p)
    pair = [[beta * p[a] - p[b] - alpha for b in range(k)] for a in range(k)]
    for a in range(k):
        for b in range(a):
            pair[a][b] = -pair[a][b]
    return pair


def bethe_wave(p, x, params):
    """The Bethe wave function h_p at the point x (see bethe_wave_function)."""
    return bethe_wave_function(p, params)(x)


def bethe_wave_function(p, params):
    """h_p: sum_sigma sgn(sigma) prod_{i<j} (beta p_{sigma(i)} - p_{sigma(j)} - alpha)
    prod_i p_{sigma(i)}^{-x_i} on the dominant chamber, Weyl-invariant, as a
    memoizing lattice function.  The k! coefficients are computed once, here, and
    the k! sum once per W-orbit: an inner memo is keyed on weyl.orbit_key(x), and
    only its misses find the orbit's dominant point y and sum at the exponents -y.
    At rational p and couplings (ints included) the sum runs in ints over one
    common denominator and each value is one exact Fraction (see _symmetrizer).
    A p of the wrong length, with a zero or with a repeat raises ValueError,
    and so does a point whose length is not k."""
    p, L = tuple(p), params.L
    if len(p) != params.k:
        raise ValueError("need exactly k = %d spectral parameters, got %d" % (params.k, len(p)))
    if 0 in p:
        raise ValueError("p_%d = 0, but h_p takes the powers p_i^(-x_i)" % (p.index(0) + 1))
    for j, v in enumerate(p):
        if v in p[:j]:
            raise ValueError("p_%d = p_%d, so h_p vanishes identically" % (p.index(v) + 1, j + 1))
    sym = _symmetrizer(_wave_pairs(p, params.alpha, params.beta), p)
    on_orbit = functools.cache(lambda key: sym([-e for e in weyl.dominant_point(key, params)]))

    def h(x):
        if len(x) != params.k:
            raise ValueError("point %r does not have k = %d coordinates" % (x, params.k))
        return on_orbit(weyl.orbit_key(x, L))

    return functools.cache(h)


def hall_littlewood_R(lam, z, t):
    """The symmetrized sum R_lambda(z; t) = sum_sigma prod_{i<j}
    (z_{sigma(i)} - t z_{sigma(j)})/(z_{sigma(i)} - z_{sigma(j)}) *
    prod_i z_{sigma(i)}^{lambda_i}.

    Accepts any integer exponent tuple of length <= k (padded with zeros).
    Every z_i takes every exponent in some term, so a negative exponent with
    some z_i = 0 raises ValueError, naming that z_i.  At rational z and t
    (ints included) the value is one exact Fraction, summed in ints over one
    common denominator (see _hl_R).
    """
    z = tuple(z)
    k = len(z)
    exps = tuple(lam)
    if len(exps) > k:
        raise ValueError("exponent tuple longer than variable list")
    if min(exps, default=0) < 0 and 0 in z:
        raise ValueError("z_%d = 0 cannot take the negative exponent %d"
                         % (z.index(0) + 1, min(exps)))
    return _hl_R(z, t)(exps + (0,) * (k - len(exps)))


def _hl_R(z, t):
    """lambda -> R_lambda(z; t) at fixed z and t, for exponent tuples of length
    k.  The k! coefficients are computed once, here.  At rational z and t the
    pair factors are exact Fractions, so each R_lambda is summed in ints over
    one common denominator and comes back as one Fraction (see _symmetrizer)."""
    k = len(z)
    exact = all(isinstance(v, Rational) for v in (*z, t))
    pair = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            if z[a] == z[b]:
                raise ValueError("coincident variables z_%d = z_%d" % (a + 1, b + 1))
            num = z[a] - t * z[b]
            pair[a][b] = (Fraction(num) if exact else num) / (z[a] - z[b])
    return _symmetrizer(pair, z)


def hall_littlewood_P(lam, z, t):
    """P_lambda(z; t) = R_lambda(z; t) / v_lambda(t) for a partition lam, a weakly
    decreasing tuple of nonnegative integers.  v_lambda(t) = prod_{a>=0}
    prod_{n=1}^{m_a} (1 + t + ... + t^{n-1}), with m_0 counting the zero parts padded
    up to len(z): the normalization making P_lambda monic in the monomial basis."""
    lam = tuple(lam)
    if any(a < 0 for a in lam):
        raise ValueError("partition parts must be nonnegative")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    z = tuple(z)
    R = hall_littlewood_R(lam, z, t)
    counts = Counter(lam + (0,) * (len(z) - len(lam)))
    v = 1
    for m in counts.values():
        for n in range(1, m + 1):
            v *= sum(t ** e for e in range(n))
    if v == 0:
        # a factor 1 + t + ... + t^{n-1} with n <= m_a vanishes; if any does, the one
        # of the most repeated part does (at rational t: t = -1 and m_a >= 2)
        raise ValueError("v_lambda(t) vanishes at t = %s with part %d repeated"
                         % (t, max(counts, key=counts.get)))
    return R / v
