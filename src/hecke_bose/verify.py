"""Named verification suites over lattice windows, shared by tests and CLI.

Each suite is a generator of ``(x, ok, detail)`` checks with deterministic
pseudo-randomness; ``run_suite`` runs one and builds its machine-readable
report.  The exactness of the rational arithmetic means every comparison is
equality, never a tolerance.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import random
import time
from fractions import Fraction

from . import bethe, hamiltonian, hecke, laurent, propagation, weyl
from .laurent import LaurentPolynomial

_CHECKS = {}  # suite name -> (check generator, pinned params), in registration order


def window_points(k, window):
    """All integer points with |x_j| <= window, in lexicographic order."""
    return itertools.product(range(-window, window + 1), repeat=k)


def random_fraction(rng):
    """A random a/b with |a| <= 9 and 1 <= b <= 6, drawn from ``rng``."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_rational_function(seed):
    """A deterministic pseudo-random rational-valued lattice function, memoized.

    The value at each point is derived from (seed, point) alone, so the
    function is reproducible across runs and processes.
    """
    return functools.cache(
        lambda x: random_fraction(random.Random("%s|%s" % (seed, ",".join(map(str, x)))))
    )


def random_distinct_fractions(rng, k):
    """k distinct nonzero random fractions, drawn from ``rng``."""
    vals = []
    while len(vals) < k:
        v = random_fraction(rng)
        if v and v not in vals:
            vals.append(v)
    return tuple(vals)


def _neighbourhood(points):
    """The points with their neighbours x - v_i: where H and the lemma read G."""
    return set(points).union(
        x[:i] + (x[i] - 1,) + x[i + 1 :] for x in points for i in range(len(x))
    )


def params_dict(params):
    """The report block naming the parameters, shared with the CLI reports."""
    return {
        "k": params.k,
        "L": params.L,
        "alpha": str(params.alpha),
        "beta": str(params.beta),
    }


def run_suite(name, params, window, seed):
    """Run the named suite and report its checks; a run with none is vacuous."""
    try:
        checks, pinned = _CHECKS[name]
    except KeyError:
        raise ValueError("unknown suite %r; choose from %s" % (name, ", ".join(SUITES)))
    params = dataclasses.replace(params, **pinned)
    t0 = time.perf_counter()
    count = 0
    failures = []
    for x, ok, detail in checks(params, window, seed):
        count += 1
        if not ok:
            failures.append({"x": list(x), "detail": detail})
    report = {
        "schema": 1,
        "suite": name,
        "params": params_dict(params),
        "window": window,
        "seed": seed,
        "checks_run": count,
        "failures": failures,
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    if not count:
        report["vacuous"] = True
    return report


def _suite(name, **pinned):
    """Register a check generator as the suite ``name`` that ``run_suite``
    runs.  The suite runs, and reports, the ``pinned`` parameter values."""

    def register(checks):
        _CHECKS[name] = checks, pinned
        return checks

    return register


@_suite("hecke")
def suite_hecke(params, window, seed):
    """Quadratic relations for all Q_i and braid/commutation relations.

    One engine for f serves every relation, each of which reads its words'
    ints over the whole window at one scale, so the checks are int
    equalities.  With beta = b_n / b_d, the quadratic relation
    Q_i^2 = (1 - beta) Q_i + beta reads h b_d = (b_d - b_n) g + b_n f for
    h, g, f the ints of Q_i^2 f, Q_i f and f.  After each relation the
    engine drops the layers no later relation reads, so it holds the single
    letters and one relation's layers at a time."""
    k = params.k
    f = random_rational_function("hecke-%s" % seed)
    points = list(window_points(k, window))
    engine = hecke.QWordEngine(f, params)
    bn, bd = params.beta.numerator, params.beta.denominator
    quadratic = lambda h, g, fx: h * bd == (bd - bn) * g + bn * fx
    relations = [(((i, i), (i,), ()), quadratic, "quadratic relation fails for Q_%d" % i)
                 for i in range(k)]
    # braids of the letters adjacent on the affine Dynkin cycle (none for
    # k = 2), then commutation of those that are not
    adjacent = [(i, (i + 1) % k) for i in range(k)] if k >= 3 else []
    distant = [(i, j) for i, j in itertools.combinations(range(k), 2) if 1 < j - i < k - 1]
    relations += [(((i, j, i), (j, i, j)), operator.eq,
                   "braid relation fails for (Q_%d, Q_%d)" % (i, j)) for i, j in adjacent]
    relations += [(((i, j), (j, i)), operator.eq, "commutation fails for (Q_%d, Q_%d)" % (i, j))
                  for i, j in distant]
    for n, (words, holds, detail) in enumerate(relations):
        _, columns = engine.ints([(word, points) for word in words])
        engine.keep(word for later, _, _ in relations[n + 1 :] for word in later)
        for x, *ints in zip(points, *columns):
            yield x, holds(*ints), detail


@_suite("duality")
def suite_duality(params, window, seed):
    """(Q_i f)(x) = (f, T^check_i e^x): the defining duality, cross-module,
    compared in ints.

    One engine read gives every Q_i f on the window as ints q at one scale
    T.  Laurent's expansion, run with the int weights D, D (1 - beta) and
    D alpha (D the common denominator of alpha and 1 - beta), gives
    D T^check_i e^x with int coefficients, and it is paired with the ints
    f M, M the lcm of f's denominators over the pairings' support.  Then
    (Q_i f)(x) = q / T and (f, T^check_i e^x) = P / (D M), so each check is
    q D M == T P."""
    k, alpha, beta = params.k, params.alpha, params.beta
    f = random_rational_function("duality-%s" % seed)
    points = list(window_points(k, window))
    letters = range(1, k)
    scale, columns = hecke.QWordEngine(f, params).ints(((i,), points) for i in letters)
    unit = math.lcm(alpha.denominator, beta.denominator)  # D
    weights = tuple(int(unit * w) for w in (1, 1 - beta, alpha))
    tables = [[laurent.weighted_T_check(i, LaurentPolynomial.monomial(x), weights).terms
               for x in points] for i in letters]
    values = {y: f(y) for rows in tables for table in rows for y in table}
    m = math.lcm(*{v.denominator for v in values.values()})  # M
    fm = {y: v.numerator * (m // v.denominator) for y, v in values.items()}
    for i, column, rows in zip(letters, columns, tables):
        detail = "duality fails for i = %d" % i
        for x, q, table in zip(points, column, rows):
            yield x, q * unit * m == scale * sum(c * fm[y] for y, c in table.items()), detail


@_suite("d-change")
def suite_d_change(params, window, seed):
    """Exhaustive check of the d_i^{+-} transformation under simple reflections.

    Expected: d_i^{+-}(s_j x) = d_i^{+-}(x) when i is away from {j, j+1} mod k;
    otherwise the indices j and j+1 swap roles, with a correction of
    +-theta(a_j(x) = 0).  s_j fixes x exactly where a_j(x) = 0, so theta reads
    s_j x == x.  The counts are taken once per point and per reflected point."""
    k = params.k
    # (index of d_i, j, index of the d read at x, sign of theta in d^+, detail)
    cases = []
    for i in range(1, k + 1):
        for j in range(k):
            if i % k == j:
                src, c = j, 1
            elif i % k == (j + 1) % k:
                src, c = j - 1, -1
            else:
                src, c = i - 1, 0
            cases.append((i - 1, j, src, c, "d-change fails for (i, j) = (%d, %d)" % (i, j)))
    for x in window_points(k, window):
        plus, minus = hamiltonian._d_counts(x, params)
        reflected = []
        for j in range(k):
            sx = weyl.simple_reflection(j, x, params.L)
            reflected.append((*hamiltonian._d_counts(sx, params), sx == x))
        for r, j, src, c, detail in cases:
            sx_plus, sx_minus, theta = reflected[j]
            shift = c * theta
            yield x, sx_plus[r] == plus[src] + shift and sx_minus[r] == minus[src] - shift, detail


@_suite("w-invariance")
def suite_w_invariance(params, window, seed):
    """w H w^{-1} f = H f on regular points, for every simple reflection."""
    k, L = params.k, params.L
    f = random_rational_function("winv-%s" % seed)
    for j in range(k):
        # (s_j f)(y) = f(s_j^{-1} y), and s_j is its own inverse
        sj_f = lambda y, j=j: f(weyl.simple_reflection(j, y, L))
        detail = "W-invariance fails for s_%d" % j
        for x in window_points(k, window):
            if weyl.is_regular(x, params):
                lhs = hamiltonian.apply_H(sj_f, weyl.simple_reflection(j, x, L), params)
                yield x, lhs == hamiltonian.apply_H(f, x, params), detail


@_suite("lemma-main")
def suite_lemma_main(params, window, seed):
    """The key commutation identity behind the eigenfunction theorem,
    exhaustively on the window:

    ((t_{v_i} - alpha d_i^+) G(f))(x)
      = ((t_{v_sigma(i)} + (1-beta) sum_{j=1}^{d_i^+(x)} t_{v_{sigma(i)+j}}) Q_{w_x} f)(w_x x)

    with sigma the coordinate permutation of w_x, for i = 1, ..., k, x-major.
    One Q-word engine for f serves both sides: ``propagate_many`` gives G(f)
    on the window and its neighbours as ints at one scale T_G, with the
    descents that give sigma, w_x and w_x x, and one read gives each w_x at
    the points near w_x x as ints at one scale T_Q.  A check multiplies the
    left-hand side by T_Q, the right-hand side by T_G and both by the
    denominators of alpha and 1 - beta, so it compares ints."""
    k, alpha, beta = params.k, params.alpha, params.beta
    an, ad = alpha.numerator, alpha.denominator
    cn, cd = (1 - beta).numerator, (1 - beta).denominator
    f = random_rational_function("lemma-%s" % seed)
    points = list(window_points(k, window))
    engine = hecke.QWordEngine(f, params)
    scale_g, G, descents = propagation.propagate_many(engine, _neighbourhood(points))
    needed = {}  # w_x -> the points near w_x x that the right-hand sides read
    sides = []  # (x, i, d_i^+(x), w_x, the right-hand points, v_sigma(i) first), x-major
    for x in points:
        (sigma, wx), word = descents[x]
        for i, dp in enumerate(hamiltonian._d_counts(x, params)[0], 1):
            terms = dp + 1 if beta != 1 else 1  # at beta = 1 only t_{v_sigma(i)} is left
            slots = [(sigma[i - 1] + j) % k for j in range(terms)]
            ys = [wx[:s] + (wx[s] - 1,) + wx[s + 1 :] for s in slots]
            sides.append((x, i, dp, word, ys))
            needed.setdefault(word, set()).update(ys)
    requests = [(word, list(ys)) for word, ys in needed.items()]
    scale_q, columns = engine.ints(requests)
    Q = {word: dict(zip(ys, column)) for (word, ys), column in zip(requests, columns)}
    for x, i, dp, word, (y, *rest) in sides:
        q, left = Q[word], G[x[: i - 1] + (x[i - 1] - 1,) + x[i:]]  # G(x - v_i)
        lhs = scale_q * cd * (ad * left - an * dp * G[x])
        rhs = scale_g * ad * (cd * q[y] + cn * sum(q[z] for z in rest))
        yield x, lhs == rhs, "lemma identity fails for i = %d" % i


@_suite("theorem")
def suite_theorem(params, window, seed):
    """H G(g_p) = (sum p_i) G(g_p) for a random rational plane wave, exactly.
    H is linear, so the suite applies it to G's ints at their one scale."""
    p = random_distinct_fractions(random.Random("theorem-%s" % seed), params.k)
    points = list(window_points(params.k, window))
    engine = hecke.QWordEngine(propagation.plane_wave(p), params)
    _, G, _ = propagation.propagate_many(engine, _neighbourhood(points))
    lam = sum(p)
    detail = "eigenfunction identity fails, p = %s" % (p,)
    for x in points:
        yield x, hamiltonian.apply_H(G.__getitem__, x, params) == lam * G[x], detail


@_suite("hl-identity", alpha=Fraction(0))
def suite_hl_identity(params, window, seed):
    """h_p(x) = Delta(p) R_x(1/p_1, ..., 1/p_k; beta) at alpha = 0, exactly on
    dominant points, with Delta(p) = prod_{i<j} (p_i - p_j).  The identity is
    stated at alpha = 0, so the suite runs and reports alpha = 0 whatever alpha
    it is given.  h_p, Delta(p) and R at z = 1/p are built once per suite."""
    p = random_distinct_fractions(random.Random("hl-%s" % seed), params.k)
    h = bethe.bethe_wave_function(p, params)
    delta = math.prod(a - b for a, b in itertools.combinations(p, 2))
    R = bethe._hl_R(tuple(1 / v for v in p), params.beta)
    detail = "HL identity fails, p = %s" % (p,)
    for x in window_points(params.k, window):
        if weyl.is_dominant(x, params):
            yield x, h(x) == delta * R(x), detail


SUITES = tuple(_CHECKS)
