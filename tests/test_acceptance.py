"""End-to-end acceptance checks for the whole package.

Each test covers one headline property at its pinned tolerance and prints a
single pass/fail line, so `pytest -s tests/test_acceptance.py` reads as a
checklist.  Rational arithmetic is compared exactly; only the floating-point
spectral pipeline uses tolerances.
"""

import functools
import random
from fractions import Fraction
from itertools import permutations, product

from conftest import apply_H_tilde, monomial_symmetric, rand_params_pair, schur, window
from hecke_bose import verify, weyl
from hecke_bose.bethe import (
    bethe_residual,
    bethe_wave_function,
    hall_littlewood_P,
    seed_roots_of_unity,
    solve_bethe,
)
from hecke_bose.functions import random_rational_function
from hecke_bose.hamiltonian import apply_H
from hecke_bose.hecke import apply_Qw
from hecke_bose.weyl import Params

RESIDUAL_TOL = 1e-10
EIGEN_TOL = 1e-8
PI_TOL = 1e-8
CONTROL_FLOOR = 1e-4


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("criterion %2d FAIL: %s" % (number, title))
                raise
            print("criterion %2d PASS: %s" % (number, title))

        return run

    return wrap


def _instances(grid, per_combo, extras=()):
    """Deterministic (k, L, seed) triples spreading instances over the grid."""
    out = []
    for (k, L) in grid:
        for rep in range(per_combo):
            out.append((k, L, "%d-%d-%d" % (k, L, rep)))
    for idx, (k, L) in enumerate(extras):
        out.append((k, L, "extra-%d" % idx))
    return out


def _random_params(k, L, seed):
    alpha, beta = rand_params_pair(random.Random("acc-%s" % seed))
    return Params(k, L, alpha, beta)


GRID_FULL = [(k, L) for k in (2, 3, 4) for L in (1, 2, 3)]
GRID_SMALL = [(k, L) for k in (2, 3) for L in (2, 3)]


@criterion(1, "Hecke quadratic, braid, and commutation relations, exact")
def test_criterion_01_hecke_relations():
    for n, (k, L, seed) in enumerate(
        _instances(GRID_FULL, 2, extras=[(2, 2), (3, 3)])
    ):
        params = _random_params(k, L, "hecke-%s" % seed)
        report = verify.run_suite("hecke", params, 3, n)
        assert report["failures"] == []
        assert report["checks_run"] > 0


@criterion(2, "duality between integral reflections and divided differences")
def test_criterion_02_duality():
    for n, (k, L, seed) in enumerate(
        _instances(GRID_FULL, 2, extras=[(2, 2), (3, 3)])
    ):
        params = _random_params(k, L, "dual-%s" % seed)
        report = verify.run_suite("duality", params, 3, n)
        assert report["failures"] == []
        assert report["checks_run"] > 0


@criterion(3, "counting-function change under every simple reflection")
def test_criterion_03_d_change():
    for (k, L) in GRID_FULL:
        report = verify.run_suite("d-change", Params(k, L), 4, 0)
        assert report["failures"] == []
        assert report["checks_run"] == (9 ** k) * k * k


@criterion(4, "W-invariance of the Hamiltonian on regular points")
def test_criterion_04_w_invariance():
    nonvacuous = 0
    for (k, L) in GRID_FULL:
        params = _random_params(k, L, "winv-%d-%d" % (k, L))
        report = verify.run_suite("w-invariance", params, 4, 0)
        assert report["failures"] == []
        if report["checks_run"]:
            nonvacuous += 1
    # regular points exist only when k <= L on this grid
    assert nonvacuous >= 3


@criterion(5, "propagated plane waves are exact Hamiltonian eigenfunctions")
def test_criterion_05_eigenfunction_theorem():
    for n, (k, L, seed) in enumerate(_instances(GRID_SMALL, 5)):
        params = _random_params(k, L, "thm-%s" % seed)
        report = verify.run_suite("theorem", params, 4, n)
        assert report["failures"] == []
        assert report["checks_run"] == 9 ** k


@criterion(6, "shift identity for the propagation operator, exhaustive")
def test_criterion_06_lemma_main():
    for (k, L) in GRID_SMALL:
        params = _random_params(k, L, "lemma-%d-%d" % (k, L))
        report = verify.run_suite("lemma-main", params, 4, 0)
        assert report["failures"] == []
        assert report["checks_run"] == (9 ** k) * k


@criterion(7, "composed reflection operators respect reduced-word equality")
def test_criterion_07_reduced_word_independence():
    params = _random_params(3, 2, "words")
    f = random_rational_function("acc-words")
    a = apply_Qw((1, 2, 1), f, params)
    b = apply_Qw((2, 1, 2), f, params)
    for x in window(3, 3):
        assert a(x) == b(x)


@criterion(8, "Bethe pipeline: residuals, defects, and negative control")
def test_criterion_08_bethe_pipeline():
    # free point: distinct roots of unity solve the system outright
    free = Params(2, 2, Fraction(0), Fraction(1))
    p0 = seed_roots_of_unity((0, 1), 2)
    assert max(abs(r) for r in bethe_residual(p0, free)) < 1e-14

    for L in (2, 3):
        for alpha, beta in [(Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1, 2))]:
            params = Params(2, L, alpha, beta)
            sp = solve_bethe(params, (0, 1), homotopy_steps=40)
            assert sp.residual < RESIDUAL_TOL
            h = bethe_wave_function(sp, params)
            lam = sum(sp.p)
            pi = weyl.pi_element(2, L)
            for x in window(2, 4):
                scale = 1.0 + abs(h(x))
                assert abs(apply_H(h, x, params) - lam * h(x)) / scale < EIGEN_TOL
                assert abs(h(weyl.act(pi, x)) - h(x)) / scale < PI_TOL

    # non-Bethe spectral parameters must break the periodicity
    params = Params(2, 2, Fraction(-1), Fraction(1))
    generic = bethe_wave_function((1.3 + 0j, 0.7 + 0j), params)
    pi = weyl.pi_element(2, 2)
    defect = max(
        abs(generic(weyl.act(pi, x)) - generic(x)) / (1.0 + abs(generic(x)))
        for x in window(2, 4)
    )
    assert defect > CONTROL_FLOOR


def _oracle_hl_P(lam, z, t):
    """Independent brute-force evaluation: symmetrize the monomial times the
    scattering product over all of S_n, then divide by the standalone
    normalization (multiplicities including zero parts)."""
    n = len(z)
    exps = tuple(lam) + (0,) * (n - len(lam))
    total = Fraction(0)
    for sigma in permutations(range(n)):
        term = Fraction(1)
        for a in range(n):
            for b in range(a + 1, n):
                term *= (z[sigma[a]] - t * z[sigma[b]]) / (z[sigma[a]] - z[sigma[b]])
        for a in range(n):
            term *= z[sigma[a]] ** exps[a]
        total += term

    norm = Fraction(1)
    for part in set(exps):
        m = exps.count(part)
        for j in range(1, m + 1):
            norm *= (1 - t ** j) / (1 - t) if t != 1 else Fraction(j)
    return total / norm


def _partitions_up_to(total_max, max_len):
    found = set()
    for length in range(1, max_len + 1):
        for combo in product(range(total_max, 0, -1), repeat=length):
            if sorted(combo, reverse=True) == list(combo) and sum(combo) <= total_max:
                found.add(combo)
    return sorted(found)


@criterion(9, "Hall-Littlewood values against brute force, Schur and monomial limits")
def test_criterion_09_hall_littlewood():
    rng = random.Random("acc-hl")
    for nvars in (2, 3):
        for lam in _partitions_up_to(4, nvars):
            zero = hall_littlewood_P(lam, _distinct(rng, nvars), Fraction(0))
            z0 = _distinct(rng, nvars)
            assert hall_littlewood_P(lam, z0, Fraction(0)) == schur(lam, z0)
            z1 = _distinct(rng, nvars)
            assert hall_littlewood_P(lam, z1, Fraction(1)) == monomial_symmetric(lam, z1)
            for _ in range(10):
                # |t| < 1 keeps the normalization away from its zeros
                t = Fraction(rng.randint(-9, 9), rng.randint(10, 13))
                z = _distinct(rng, nvars)
                assert hall_littlewood_P(lam, z, t) == _oracle_hl_P(lam, z, t)
            assert zero is not None

    # the alpha = 0 Bethe sum factors through Hall-Littlewood, exactly
    for (k, L) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        report = verify.run_suite("hl-identity", Params(k, L), 4, 0)
        assert report["failures"] == []
        assert report["checks_run"] > 0


def _distinct(rng, n):
    return verify.random_distinct_fractions(rng, n)


@criterion(10, "reduction to the undeformed Hamiltonian up to a constant")
def test_criterion_10_reduction_constant():
    constants = {}
    for (k, L) in GRID_SMALL:
        params = Params(k, L, Fraction(-1), Fraction(1))
        f = random_rational_function("acc-reduction-%d-%d" % (k, L))
        seen = set()
        for x in window(k, 3):
            fx = f(x)
            if fx == 0:
                continue
            seen.add((apply_H(f, x, params) - apply_H_tilde(f, x, params)) / fx)
        assert len(seen) == 1
        constants[(k, L)] = seen.pop()
        assert constants[(k, L)] == k
    print("reduction constants by (k, L): %s" % constants)
