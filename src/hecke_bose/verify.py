"""Named verification suites over lattice windows, shared by tests and CLI.

Each suite runs one family of identities with deterministic pseudo-randomness
and returns a machine-readable report dict.  The exactness of the rational
arithmetic means every comparison is equality, never a tolerance.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import hamiltonian, hecke, laurent, propagation, weyl
from .bethe import verify_hl_identity
from .functions import random_rational_function
from .laurent import LaurentPolynomial

SUITES = (
    "hecke",
    "duality",
    "d-change",
    "w-invariance",
    "lemma-main",
    "theorem",
    "hl-identity",
)


def window_points(k, window):
    """All integer points with |x_j| <= window, in lexicographic order."""
    return itertools.product(range(-window, window + 1), repeat=k)


def random_fraction(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if v != 0 or not nonzero:
            return v


def random_distinct_fractions(rng, k):
    vals = []
    while len(vals) < k:
        v = random_fraction(rng, nonzero=True)
        if v not in vals:
            vals.append(v)
    return tuple(vals)


def params_dict(params):
    """The report block naming the parameters, shared with the CLI reports."""
    return {
        "k": params.k,
        "L": params.L,
        "alpha": str(params.alpha),
        "beta": str(params.beta),
    }


def _report(suite, params, window, seed, checks, failures, t0):
    return {
        "schema": 1,
        "suite": suite,
        "params": params_dict(params),
        "window": window,
        "seed": seed,
        "checks_run": checks,
        "failures": failures,
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
    }


def _fail(failures, x, detail):
    failures.append({"x": list(x), "detail": detail})


def _compare(f, params, lhs, rhs, points, failures, detail):
    """Check Q_lhs f = Q_rhs f at the points through one engine; returns the
    number of checks."""
    engine = hecke.QWordEngine(f, params)
    for x, left, right in zip(points, engine.values(lhs, points), engine.values(rhs, points)):
        if left != right:
            _fail(failures, x, detail)
    return len(points)


def suite_hecke(params, window, seed):
    """Quadratic relations for all Q_i and braid/commutation relations.

    Each relation evaluates its Q-words over the whole window through one
    engine for f, dropped once the relation is checked."""
    t0 = time.perf_counter()
    k, beta = params.k, params.beta
    f = random_rational_function("hecke-%s" % seed)
    points = list(window_points(k, window))
    f_values = [f(x) for x in points]
    checks = 0
    failures = []

    for i in range(k):
        engine = hecke.QWordEngine(f, params)
        h = engine.values((i, i), points)
        g = engine.values((i,), points)
        checks += len(points)
        for x, hx, gx, fx in zip(points, h, g, f_values):
            if hx + (beta - 1) * gx - beta * fx != 0:
                _fail(failures, x, "quadratic relation fails for Q_%d" % i)

    if k >= 3:
        for i in range(k):
            j = (i + 1) % k
            detail = "braid relation fails for (Q_%d, Q_%d)" % (i, j)
            checks += _compare(f, params, (i, j, i), (j, i, j), points, failures, detail)

    for i in range(k):
        for j in range(i + 1, k):
            if (j - i) % k in (1, k - 1):
                continue  # adjacent on the affine Dynkin cycle
            detail = "commutation fails for (Q_%d, Q_%d)" % (i, j)
            checks += _compare(f, params, (i, j), (j, i), points, failures, detail)

    return _report("hecke", params, window, seed, checks, failures, t0)


def suite_duality(params, window, seed):
    """(Q_i f)(x) = (f, T^check_i e^x): the defining duality, cross-module."""
    t0 = time.perf_counter()
    k = params.k
    f = random_rational_function("duality-%s" % seed)
    checks = 0
    failures = []
    for i in range(1, k):
        qf = hecke.apply_Q(i, f, params)
        for x in window_points(k, window):
            checks += 1
            rhs = laurent.pairing(f, laurent.apply_T_check(i, LaurentPolynomial.monomial(x), params))
            if qf(x) != rhs:
                _fail(failures, x, "duality fails for i = %d" % i)
    return _report("duality", params, window, seed, checks, failures, t0)


def suite_d_change(params, window, seed):
    """Exhaustive check of the d_i^{+-} transformation under simple reflections."""
    t0 = time.perf_counter()
    k = params.k
    checks = 0
    failures = []
    for x in window_points(k, window):
        for i in range(1, k + 1):
            for j in range(k):
                checks += 1
                if not hamiltonian.verify_d_change(x, i, j, params):
                    _fail(failures, x, "d-change fails for (i, j) = (%d, %d)" % (i, j))
    return _report("d-change", params, window, seed, checks, failures, t0)


def suite_w_invariance(params, window, seed):
    """w H w^{-1} f = H f on regular points, for every simple reflection."""
    t0 = time.perf_counter()
    k = params.k
    f = random_rational_function("winv-%s" % seed)
    checks = 0
    failures = []
    for j in range(k):
        w = weyl.simple_reflection_element(j, k, params.L)
        winv_f = weyl.act_on_function(weyl.inverse(w), f)
        winv = weyl.inverse(w)
        for x in window_points(k, window):
            if not weyl.is_regular(x, params):
                continue
            checks += 1
            lhs = hamiltonian.apply_H(winv_f, weyl.act(winv, x), params)
            if lhs != hamiltonian.apply_H(f, x, params):
                _fail(failures, x, "W-invariance fails for s_%d" % j)
    return _report("w-invariance", params, window, seed, checks, failures, t0)


def suite_lemma_main(params, window, seed):
    """The shift/propagation commutation identity, exhaustively on the window."""
    t0 = time.perf_counter()
    k = params.k
    f = random_rational_function("lemma-%s" % seed)
    qword = hecke.QWordEngine(f, params)
    G = propagation.propagate_with(qword)
    checks = 0
    failures = []
    for x in window_points(k, window):
        for i in range(1, k + 1):
            checks += 1
            if not propagation.verify_lemma_main(f, x, i, params, G=G, qword=qword):
                _fail(failures, x, "lemma identity fails for i = %d" % i)
    return _report("lemma-main", params, window, seed, checks, failures, t0)


def suite_theorem(params, window, seed):
    """H G(g_p) = (sum p_i) G(g_p) for a random rational plane wave, exactly."""
    t0 = time.perf_counter()
    k = params.k
    rng = random.Random("theorem-%s" % seed)
    p = random_distinct_fractions(rng, k)
    G = propagation.propagate(propagation.plane_wave(p), params)
    lam = sum(p)
    checks = 0
    failures = []
    for x in window_points(k, window):
        checks += 1
        if hamiltonian.apply_H(G, x, params) != lam * G(x):
            _fail(failures, x, "eigenfunction identity fails, p = %s" % (p,))
    return _report("theorem", params, window, seed, checks, failures, t0)


def suite_hl_identity(params, window, seed):
    """alpha = 0 Bethe sum vs Hall-Littlewood R, exactly on dominant points."""
    t0 = time.perf_counter()
    k = params.k
    rng = random.Random("hl-%s" % seed)
    p = random_distinct_fractions(rng, k)
    checks = 0
    failures = []
    for x in window_points(k, window):
        if not weyl.is_dominant(x, params):
            continue
        checks += 1
        if not verify_hl_identity(p, x, params.beta, params):
            _fail(failures, x, "HL identity fails, p = %s" % (p,))
    return _report("hl-identity", params, window, seed, checks, failures, t0)


_SUITE_FUNCS = {
    "hecke": suite_hecke,
    "duality": suite_duality,
    "d-change": suite_d_change,
    "w-invariance": suite_w_invariance,
    "lemma-main": suite_lemma_main,
    "theorem": suite_theorem,
    "hl-identity": suite_hl_identity,
}


def run_suite(name, params, window, seed):
    try:
        func = _SUITE_FUNCS[name]
    except KeyError:
        raise ValueError("unknown suite %r; choose from %s" % (name, ", ".join(SUITES)))
    return func(params, window, seed)
