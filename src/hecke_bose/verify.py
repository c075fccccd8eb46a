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
import zlib
from fractions import Fraction

from . import bethe, hamiltonian, hecke, laurent, propagation, weyl

_CHECKS = {}  # suite name -> (check generator, pinned params), in registration order


def window_points(k, window):
    """All integer points with |x_j| <= window, in lexicographic order."""
    return itertools.product(range(-window, window + 1), repeat=k)


def random_fraction(rng):
    """A random a/b with |a| <= 9 and 1 <= b <= 6, drawn from ``rng``."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


# a/b at index h % 114 = 19 (b - 1) + (a + 9), so a = h % 19 - 9 and b = h // 19 % 6 + 1
_VALUES = [Fraction(a, b) for b in range(1, 7) for a in range(-9, 10)]


def _value_at(state, x):
    """The value at x of the function whose seed prefix has CRC-32 ``state``."""
    return _VALUES[zlib.crc32(",".join(map(str, x)).encode(), state) % 114]


def random_rational_function(seed):
    """A deterministic pseudo-random rational-valued lattice function, memoized.

    The value at x = (x_1, ..., x_k) is a/b with a = h % 19 - 9 and
    b = h // 19 % 6 + 1, where h is the CRC-32 of the string
    "seed|x_1,...,x_k"; the CRC of the seed prefix is taken once per
    function.  So the value is derived from (seed, x) alone and is the same
    in every process, on every platform and Python version, and each point
    is evaluated once.  A ``random.Random`` seeded per point would cost a
    SHA-512 and a Mersenne Twister initialisation each time, about ten
    times the CRC; ``hashlib`` would load OpenSSL and add about 15 % to a
    verify run's peak memory; ``hash()`` of a string changes with the
    process's hash seed.
    """
    return functools.cache(functools.partial(_value_at, zlib.crc32(("%s|" % seed).encode())))


def random_distinct_fractions(rng, k):
    """k distinct nonzero random fractions, drawn from ``rng``."""
    vals = []
    while len(vals) < k:
        v = random_fraction(rng)
        if v and v not in vals:
            vals.append(v)
    return tuple(vals)


def _descents(points, params):
    """{x: weyl.shortest_element(x)} over the points and their neighbours
    x - v_i: where H and the lemma read G."""
    near = set(points).union(
        x[:i] + (x[i] - 1,) + x[i + 1 :] for x in points for i in range(len(x))
    )
    return {x: weyl.shortest_element(x, params) for x in near}


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

    One walk of an engine for f reads every relation's words over the whole
    window as ints at one scale, so the checks are int equalities.  With the
    engine's couplings D and C = D (1 - beta), the quadratic relation
    Q_i^2 = (1 - beta) Q_i + beta reads D h = C g + (D - C) f for h, g, f
    the ints of Q_i^2 f, Q_i f and f.  The walk drops each layer after the
    last word that reads it, so the engine holds one word's layers at a
    time."""
    k = params.k
    f = random_rational_function("hecke-%s" % seed)
    points = list(window_points(k, window))
    engine = hecke.QWordEngine(f, params)
    unit, _, c = engine.couplings
    quadratic = lambda h, g, fx: unit * h == c * g + (unit - c) * fx
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
    _, columns = engine.walk([(word, points) for words, _, _ in relations for word in words])
    columns = iter(columns)
    for words, holds, detail in relations:
        for x, *ints in zip(points, *itertools.islice(columns, len(words))):
            yield x, holds(*ints), detail


@_suite("duality")
def suite_duality(params, window, seed):
    """(Q_i f)(x) = (f, T^check_i e^x): the defining duality, cross-module,
    compared in ints.

    Laurent's expansion, run with the engine's int couplings
    (D, C, A) = (D, D (1 - beta), D alpha) as weights, gives
    D T^check_i e^x = sum_y c_y e^y with int c_y.  One walk of the engine
    gives every Q_i f on the window and f itself, the empty word, on the
    expansions' support, as ints q and f_T at one scale T.  Then
    (Q_i f)(x) = q / T and (f, T^check_i e^x) = sum_y c_y f_T(y) / (D T), so
    each check is q D == sum_y c_y f_T(y).  The walk drops each letter's
    layer after its read."""
    k = params.k
    points = list(window_points(k, window))
    letters = range(1, k)
    engine = hecke.QWordEngine(random_rational_function("duality-%s" % seed), params)
    unit, a, c = engine.couplings
    tables = [[laurent.weighted_T_check(i, {x: 1}, (unit, c, a)) for x in points]
              for i in letters]
    support = list({y for rows in tables for table in rows for y in table})
    _, (base, *columns) = engine.walk([((), support)] + [((i,), points) for i in letters])
    f_t = dict(zip(support, base))
    for i, column, rows in zip(letters, columns, tables):
        detail = "duality fails for i = %d" % i
        for x, q, table in zip(points, column, rows):
            yield x, q * unit == sum(c * f_t[y] for y, c in table.items()), detail


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
    # H f at each regular x once, for all j; the checks stay j-major
    rhs = {x: hamiltonian.apply_H(f, x, params)
           for x in window_points(k, window) if weyl.is_regular(x, params)}
    for j in range(k):
        # (s_j f)(y) = f(s_j^{-1} y), and s_j is its own inverse
        sj_f = lambda y, j=j: f(weyl.simple_reflection(j, y, L))
        detail = "W-invariance fails for s_%d" % j
        for x, hx in rhs.items():
            lhs = hamiltonian.apply_H(sj_f, weyl.simple_reflection(j, x, L), params)
            yield x, lhs == hx, detail


@_suite("lemma-main")
def suite_lemma_main(params, window, seed):
    """The key commutation identity behind the eigenfunction theorem,
    exhaustively on the window:

    ((t_{v_i} - alpha d_i^+) G(f))(x)
      = ((t_{v_sigma(i)} + (1-beta) sum_{j=1}^{d_i^+(x)} t_{v_{sigma(i)+j}}) Q_{w_x} f)(w_x x)

    with sigma the coordinate permutation of w_x, for i = 1, ..., k, x-major.
    One walk of a Q-word engine for f reads both sides: ``propagate_many``
    gives G(f) on the window and its neighbours and, with a request per
    (x, i), w_x at the points near w_x x, all as ints at one scale; the
    descents give sigma, w_x and w_x x.  A layer a word of G and a request
    share is alive for both.  With the engine's couplings
    (D, A, C) = (D, D alpha, D (1 - beta)), a check is
    D G(x - v_i) - A d_i^+ G(x) == D q + C sum q, in ints."""
    k = params.k
    f = random_rational_function("lemma-%s" % seed)
    points = list(window_points(k, window))
    engine = hecke.QWordEngine(f, params)
    unit, a, c = engine.couplings
    descents = _descents(points, params)
    sides = []  # (x, i, d_i^+(x)), x-major
    requests = []  # per side: w_x and the right-hand points, v_sigma(i) first
    for x in points:
        (sigma, wx), word = descents[x]
        for i, dp in enumerate(hamiltonian._d_counts(x, params)[0], 1):
            terms = dp + 1 if c else 1  # at beta = 1 only t_{v_sigma(i)} is left
            slots = [(sigma[i - 1] + j) % k for j in range(terms)]
            sides.append((x, i, dp))
            requests.append((word, [wx[:s] + (wx[s] - 1,) + wx[s + 1 :] for s in slots]))
    _, G, columns = propagation.propagate_many(engine, descents, requests)
    for (x, i, dp), (q, *rest) in zip(sides, columns):
        left = G[x[: i - 1] + (x[i - 1] - 1,) + x[i:]]  # G(x - v_i)
        lhs = unit * left - a * dp * G[x]
        yield x, lhs == unit * q + c * sum(rest), "lemma identity fails for i = %d" % i


@_suite("theorem")
def suite_theorem(params, window, seed):
    """H G(g_p) = (sum p_i) G(g_p) for a random rational plane wave, exactly.

    H is linear, so the suite applies it to G's ints at their one scale and
    compares ints.  With the engine's couplings D, A = D alpha and
    C = D (1 - beta), so that D - C = D beta, and sum p_i = l/m in lowest
    terms, the identity times m D^k reads

      m sum_i (D - C)^(d_i^-) D^(k-1-d_i^-) (D G(x - v_i) - A d_i^+ G(x)) = l D^k G(x),

    since d_i^- <= k - 1; the weights D^(k-1) beta^d = (D - C)^d D^(k-1-d)
    come from a k-entry table."""
    k = params.k
    p = random_distinct_fractions(random.Random("theorem-%s" % seed), k)
    points = list(window_points(k, window))
    engine = hecke.QWordEngine(propagation.plane_wave(p), params)
    unit, a, c = engine.couplings
    _, G, _ = propagation.propagate_many(engine, _descents(points, params))
    weights = [(unit - c) ** d * unit ** (k - 1 - d) for d in range(k)]  # D^(k-1) beta^d
    lam = sum(p)
    rhs = lam.numerator * unit**k
    detail = "eigenfunction identity fails, p = %s" % (p,)
    for x in points:
        gx = G[x]
        lhs = 0
        for i, (dp, dm) in enumerate(zip(*hamiltonian._d_counts(x, params))):
            lhs += weights[dm] * (unit * G[x[:i] + (x[i] - 1,) + x[i + 1 :]] - a * dp * gx)
        yield x, lam.denominator * lhs == rhs * gx, detail


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
