"""Bethe equations, continuation solver, wave functions, Hall-Littlewood."""

import cmath
import functools
import math
import random
from fractions import Fraction
from itertools import count, permutations

import pytest

from conftest import (
    monomial_symmetric,
    rand_distinct_fractions,
    schur,
    window,
)
from hecke_bose import bethe, verify, weyl
from hecke_bose.bethe import (
    BetheSolverError,
    Partition,
    SpectralPoint,
    bethe_residual,
    bethe_wave,
    bethe_wave_function,
    hall_littlewood_P,
    hall_littlewood_R,
    seed_roots_of_unity,
    solve_bethe,
)
from hecke_bose.bethe import NEWTON_TOL, POLE_TOL, _bethe_system
from hecke_bose.hamiltonian import apply_H
from hecke_bose.weyl import Params


def test_residual_zero_at_free_point():
    # alpha = 0, beta = 1: distinct L-th roots of unity solve the system
    for L, k in [(1, 2), (2, 2), (3, 3)]:
        if k > L:
            continue
        params = Params(k, L, Fraction(0), Fraction(1))
        p = seed_roots_of_unity(range(k), L)
        assert max(abs(r) for r in bethe_residual(p, params)) < 1e-12


def test_residual_simple_case():
    # p = (1, -1) are the two square roots of unity; at the free couplings
    # the scattering product telescopes to 1 and p_i^L = 1 closes the system
    params = Params(2, 2, Fraction(0), Fraction(1))
    res = bethe_residual((1.0, -1.0), params)
    assert max(abs(r) for r in res) < 1e-14


def test_residual_nonzero_generic():
    params = Params(2, 2, Fraction(-1, 2), Fraction(1))
    res = bethe_residual((1.5 + 0j, 0.4 + 0j), params)
    assert max(abs(r) for r in res) > 1e-3


def test_residual_pole_detection():
    params = Params(2, 2, Fraction(0), Fraction(1))
    with pytest.raises(BetheSolverError):
        bethe_residual((1.0 + 0j, 1.0 + 0j), params)


def test_seed_selection_validation():
    with pytest.raises(ValueError):
        seed_roots_of_unity((0, 2), 2)  # 2 = 0 mod 2
    params = Params(2, 2, Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        solve_bethe(params, (0,))


def test_solver_free_point_returns_seed():
    params = Params(2, 2, Fraction(0), Fraction(1))
    sp = solve_bethe(params, (0, 1), homotopy_steps=4)
    expected = seed_roots_of_unity((0, 1), 2)
    assert max(abs(a - b) for a, b in zip(sp.p, expected)) < 1e-12
    assert sp.residual < 1e-12


@pytest.mark.parametrize(
    "L,alpha,beta", [(2, Fraction(-1), Fraction(1)), (3, Fraction(0), Fraction(1, 2))]
)
def test_solver_continuation_targets(L, alpha, beta):
    params = Params(2, L, alpha, beta)
    sp = solve_bethe(params, (0, 1), homotopy_steps=40)
    assert sp.residual < 1e-10
    assert max(abs(r) for r in bethe_residual(sp, params)) < 1e-10


def test_wave_two_particle_expansion():
    params = Params(2, 2, Fraction(-1, 3), Fraction(2, 5))
    p = (Fraction(2), Fraction(5))
    a, b = params.alpha, params.beta
    for x in window(2, 3):
        if not weyl.is_dominant(x, params):
            continue
        expected = (b * p[0] - p[1] - a) * p[0] ** (-x[0]) * p[1] ** (-x[1]) - (
            b * p[1] - p[0] - a
        ) * p[1] ** (-x[0]) * p[0] ** (-x[1])
        assert bethe_wave(p, x, params) == expected


def test_wave_weyl_invariance():
    params = Params(2, 2, Fraction(-1, 3), Fraction(2, 5))
    p = (Fraction(2), Fraction(5))
    for x in window(2, 4):
        sx = weyl.act(weyl.simple_reflection_element(1, 2, 2), x)
        s0x = weyl.act(weyl.simple_reflection_element(0, 2, 2), x)
        assert bethe_wave(p, sx, params) == bethe_wave(p, x, params)
        assert bethe_wave(p, s0x, params) == bethe_wave(p, x, params)


@pytest.mark.parametrize("k, L", [(3, 5), (4, 7)])
def test_wave_sums_once_per_orbit(monkeypatch, k, L):
    # h_p reads x only through its dominant point, so the k! signed sum runs
    # once per W-orbit, and every point of an orbit gets the very same value
    params = Params(k, L, Fraction(-1, 2), Fraction(3, 4))
    pi = weyl.pi_element(k, L)
    points = set()
    for x in window(k, 2):
        points.add(x)
        points.add(weyl.act(pi, x))
        points.update(tuple(v - (j == i) for j, v in enumerate(x)) for i in range(k))
    dominant = {x: weyl.dominant_point(x, params) for x in points}
    real = bethe._sum_terms
    calls = []

    def counting(terms, z, exps):
        calls.append(tuple(exps))
        return real(terms, z, exps)

    monkeypatch.setattr(bethe, "_sum_terms", counting)
    rng = random.Random(k * 100 + L)
    for p in (seed_roots_of_unity(range(k), L), rand_distinct_fractions(rng, k)):
        calls.clear()
        h = bethe_wave_function(p, params)
        for x in sorted(points):
            h(x)
        assert sorted(calls) == sorted(tuple(-e for e in y) for y in set(dominant.values()))
        for x in points:
            assert h(x) == h(dominant[x])
            assert type(h(x)) is type(h(dominant[x]))


def test_wave_pi_invariance_for_bethe_roots_only():
    params = Params(2, 2, Fraction(-1), Fraction(1))
    sp = solve_bethe(params, (0, 1), homotopy_steps=40)
    h = bethe_wave_function(sp, params)
    pi = weyl.pi_element(2, 2)
    defect = max(
        abs(h(weyl.act(pi, x)) - h(x)) / (1 + abs(h(x))) for x in window(2, 4)
    )
    assert defect < 1e-8

    generic = bethe_wave_function((1.3 + 0j, 0.7 + 0j), params)
    bad = max(
        abs(generic(weyl.act(pi, x)) - generic(x)) / (1 + abs(generic(x)))
        for x in window(2, 4)
    )
    assert bad > 1e-4


def test_wave_is_H_eigenfunction_for_roots():
    params = Params(2, 3, Fraction(0), Fraction(1, 2))
    sp = solve_bethe(params, (0, 1), homotopy_steps=40)
    h = bethe_wave_function(sp, params)
    lam = sum(sp.p)
    for x in window(2, 4):
        defect = abs(apply_H(h, x, params) - lam * h(x)) / (1 + abs(h(x)))
        assert defect < 1e-8


def test_partition_validation_and_normalization():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    lam = Partition((2, 1, 1))
    t = Fraction(1, 3)
    assert lam.normalization(t, length=3) == (1 - t ** 2) / (1 - t)
    # the zero parts, padding up to the variable count included, contribute too
    assert Partition((1,)).normalization(Fraction(1), length=3) == 2
    # each factor (1 - t^n)/(1 - t) is 1 + t + ... + t^{n-1}: n at t = 1, exact at any t
    assert Partition((2, 2, 2)).normalization(Fraction(1), length=3) == 6
    assert Partition((2, 2)).normalization(Fraction(0), length=2) == 1
    assert Partition((1, 1)).normalization(Fraction(-1), length=2) == 0
    assert Partition((1, 1, 1)).normalization(2, length=3) == 1 * 3 * 7
    with pytest.raises(ValueError):
        Partition((1, 1)).normalization(t, length=1)


def test_hall_littlewood_examples():
    z = (Fraction(2), Fraction(7))
    t = Fraction(1, 3)
    assert hall_littlewood_R((1, 1), z, t) == (1 + t) * z[0] * z[1]
    assert hall_littlewood_R((2, 0), z, t) == z[0] ** 2 + z[1] ** 2 + (1 - t) * z[0] * z[1]
    assert hall_littlewood_R((0, 0), z, t) == Partition((0, 0)).normalization(t, 2)
    assert hall_littlewood_P((1, 0), z, t) == z[0] + z[1]
    assert hall_littlewood_P((1, 1), z, t) == z[0] * z[1]
    assert hall_littlewood_P((2, 0), z, t) == z[0] ** 2 + z[1] ** 2 + (1 - t) * z[0] * z[1]


def test_hall_littlewood_coincident_variables_rejected():
    with pytest.raises(ValueError):
        hall_littlewood_R((1, 0), (Fraction(2), Fraction(2)), Fraction(1, 3))


def test_hall_littlewood_symmetric():
    from itertools import count, permutations

    z = (Fraction(2), Fraction(3), Fraction(-5))
    t = Fraction(2, 7)
    base = hall_littlewood_P((2, 1), z, t)
    for perm in permutations(z):
        assert hall_littlewood_P((2, 1), perm, t) == base


def test_hall_littlewood_schur_at_t_zero():
    z = (Fraction(2), Fraction(3), Fraction(5))
    for lam in [(1,), (2,), (2, 1), (3, 1), (2, 2)]:
        assert hall_littlewood_P(lam, z, Fraction(0)) == schur(lam, z)


def test_hall_littlewood_monomial_at_t_one():
    z = (Fraction(2), Fraction(3), Fraction(5))
    for lam in [(1,), (2,), (2, 1), (1, 1, 1), (2, 2)]:
        assert hall_littlewood_P(lam, z, Fraction(1)) == monomial_symmetric(lam, z)


def test_hall_littlewood_against_symbolic_expansion():
    sympy = pytest.importorskip("sympy")
    zsyms = sympy.symbols("z1 z2 z3")
    rng = random.Random("sympy-oracle")
    for lam in [(2, 1), (3,), (2, 2), (1, 1, 1)]:
        t = Fraction(rng.randint(2, 9), rng.randint(10, 13))
        expr = 0
        from itertools import count, permutations

        k = 3
        exps = tuple(lam) + (0,) * (k - len(lam))
        for sigma in permutations(range(k)):
            term = sympy.Integer(1)
            for i in range(k):
                for j in range(i + 1, k):
                    term *= (zsyms[sigma[i]] - sympy.Rational(t) * zsyms[sigma[j]]) / (
                        zsyms[sigma[i]] - zsyms[sigma[j]]
                    )
            for i in range(k):
                term *= zsyms[sigma[i]] ** exps[i]
            expr += term
        poly = sympy.cancel(sympy.together(expr))
        # the symmetrized sum is a genuine polynomial in the variables
        assert poly.is_polynomial(*zsyms)
        zvals = rand_distinct_fractions(rng, k)
        symbolic = poly.subs(dict(zip(zsyms, [sympy.Rational(v) for v in zvals])))
        direct = hall_littlewood_R(lam, zvals, t)
        assert sympy.Rational(direct) == symbolic


@pytest.mark.parametrize(
    "k,L,beta,dominant",
    [(2, 2, Fraction(7, 4), 18), (3, 2, 1, 34), (3, 4, Fraction(2, 7), 65)],
    ids=["2-2", "3-2", "3-4"],
)
def test_hl_identity_window(k, L, beta, dominant):
    report = verify.run_suite("hl-identity", Params(k, L, beta=beta), 3, 0)
    assert report["failures"] == []
    assert report["checks_run"] == dominant


def test_spectral_point_accessors():
    sp = SpectralPoint((1 + 0j, -1 + 0j), 0.0)
    assert sp.p == (1 + 0j, -1 + 0j)
    assert sp.residual == 0.0


# -- independent references for the shared Bethe kernel ----------------------
#
# A direct residual/Jacobian and a scattering sum with an explicit
# permutation sign.  The kernel in bethe.py must agree with them exactly, so
# that the solver's outcomes and every printed wave-function value stay fixed.


def reference_residual_and_jacobian(p, L, a, b):
    k = len(p)
    res = [0j] * k
    jac = [[0j] * k for _ in range(k)]
    for i in range(k):
        nums = [0j] * k
        dens = [0j] * k
        ratios = [1 + 0j] * k
        for j in range(k):
            if j == i:
                continue
            nums[j] = b * p[i] - p[j] - a
            dens[j] = p[i] - b * p[j] + a
            if abs(dens[j]) < POLE_TOL:
                raise BetheSolverError("denominator pole during continuation")
            ratios[j] = nums[j] / dens[j]
        prod_all = math.prod(ratios)
        res[i] = p[i] ** L - prod_all
        jac[i][i] = L * p[i] ** (L - 1)
        for j in range(k):
            if j == i:
                continue
            partial = math.prod(ratios[:j] + ratios[j + 1 :])  # prod over l != i, j
            dr_dpi = (b * dens[j] - nums[j]) / dens[j] ** 2
            dr_dpj = (-dens[j] + b * nums[j]) / dens[j] ** 2
            jac[i][i] -= partial * dr_dpi
            jac[i][j] = -partial * dr_dpj
    return res, jac


def reference_signed_scattering_sum(p, exps, alpha, beta):
    k = len(p)
    total = 0
    for sigma in permutations(range(k)):
        sign = reference_parity(sigma)
        coef = 1
        for i in range(k):
            for j in range(i + 1, k):
                coef *= beta * p[sigma[i]] - p[sigma[j]] - alpha
        mono = 1
        for i in range(k):
            mono *= p[sigma[i]] ** (-exps[i])
        total += sign * coef * mono
    return total


def reference_parity(sigma):
    inv = sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
    return -1 if inv % 2 else 1


def _corpus_coupling(rng, nonzero=False):
    # a/b with |a| <= 6 and b <= 3, as in the solver corpus
    while True:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if v or not nonzero:
            return v


def _kernel_cases():
    rng = random.Random("bethe-kernel")
    for k in (2, 3, 4):
        for L in range(k, k + 3):
            for _ in range(4):
                params = Params(k, L, _corpus_coupling(rng), _corpus_coupling(rng, nonzero=True))
                yield params, tuple(
                    complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(k)
                )


def test_bethe_system_matches_reference_exactly():
    for params, p in _kernel_cases():
        a, b = complex(params.alpha), complex(params.beta)
        res, jac = _bethe_system(p, params.L, a, b)
        ref_res, ref_jac = reference_residual_and_jacobian(p, params.L, a, b)
        assert res == ref_res
        assert jac == ref_jac


def test_bethe_wave_matches_reference_exactly():
    for params, p in _kernel_cases():
        for x in window(params.k, 1):
            dominant = x
            if not weyl.is_dominant(x, params):
                w, _ = weyl.shortest_element(x, params)
                dominant = weyl.act(w, x)
            expected = reference_signed_scattering_sum(p, dominant, params.alpha, params.beta)
            assert bethe_wave(p, x, params) == expected


def test_bethe_wave_function_matches_reference_exactly():
    # the CLI evaluates h_p through bethe_wave_function, whose coefficients
    # are built once per p with alpha and beta taken to p's number type
    def cases():
        yield from _kernel_cases()
        params = Params(3, 4, Fraction(-1, 3), Fraction(5, 2))
        yield params, (Fraction(2), Fraction(-3, 7), Fraction(5, 4))
        yield params, (1.5, -0.25, 2.75)

    for params, pvals in cases():
        h = bethe_wave_function(pvals, params)
        for x in window(params.k, 1):
            w, _ = weyl.shortest_element(x, params)
            expected = reference_signed_scattering_sum(
                pvals, weyl.act(w, x), params.alpha, params.beta
            )
            value = h(x)
            assert type(value) is type(expected)
            assert value == expected


def test_residual_exact_on_rational_p():
    params = Params(3, 4, Fraction(-1, 3), Fraction(5, 2))
    p = (Fraction(2), Fraction(-3, 7), Fraction(5, 4))
    a, b = params.alpha, params.beta
    res = bethe_residual(p, params)
    for i in range(3):
        prod = Fraction(1)
        for j in range(3):
            if j != i:
                prod *= (b * p[i] - p[j] - a) / (p[i] - b * p[j] + a)
        assert isinstance(res[i], Fraction)
        assert res[i] == p[i] ** 4 - prod


@pytest.mark.parametrize(
    "slot,value", [(0, complex("nan")), (-1, complex("nan")), (0, complex("inf"))]
)
def test_solver_rejects_non_finite_roots(monkeypatch, slot, value):
    # a Newton step that "converges" to a non-finite root must not pass the
    # final acceptance test: NaN compares false, and max() skips a NaN that
    # is not in the first slot
    def newton(p, L, a, b):
        q = list(p)
        q[slot] = value
        return tuple(q)

    monkeypatch.setattr(bethe, "_newton", newton)
    params = Params(2, 3, Fraction(-1, 2), Fraction(3, 4))
    with pytest.raises(BetheSolverError, match="^final residual"):
        solve_bethe(params, (0, 1), 4)


# -- the Newton loop against the loop without a cycle exit --------------------


def _newton_without_cycle_exit(p, L, a, b, max_iter=60):
    # the package's Newton step with no cycle exit: a failing run takes all
    # max_iter iterations, and the defect is the NaN-aware max over abs
    p = tuple(p)
    for _ in range(max_iter):
        try:
            res, jac = _bethe_system(p, L, a, b)
            if bethe._max_or_nan(abs(r) for r in res) < NEWTON_TOL:
                return p
            step = bethe._solve(jac, res)
            p = tuple(v - d for v, d in zip(p, step))
        except (OverflowError, ZeroDivisionError) as err:
            raise BetheSolverError("Newton step not finite") from err
        if not all(map(cmath.isfinite, p)):
            raise BetheSolverError("Newton step not finite")
    raise BetheSolverError("Newton did not converge")


# Newton calls per instance.  Some instances never end (the last one of the
# corpus is one); every other instance of the corpus ends within this budget,
# and a budget in calls rather than seconds cuts both loops at the same call.
NEWTON_BUDGET = 150
# unsolved corpus instances, budget-exhausted ones included, when this test
# was written; better path tracking may lower it, nothing may raise it
UNSOLVED_CEILING = 22


class _OutOfBudget(Exception):
    pass


def _solver_corpus():
    """100 instances drawn like the benchmark's solver corpus: k in {2, 3}, L
    in k..k+2, corpus couplings, distinct seed roots; then one that never ends."""
    rng = random.Random("bethe-solver-corpus")
    corpus = []
    for _ in range(100):
        k = rng.choice((2, 3))
        L = rng.randint(k, k + 2)
        params = Params(k, L, _corpus_coupling(rng), _corpus_coupling(rng, nonzero=True))
        corpus.append((params, tuple(rng.sample(range(L), k))))
    corpus.append((Params(2, 4, Fraction(0), Fraction(-3)), (3, 2)))
    return corpus


def _corpus_outcomes(newton):
    """Every corpus instance's outcome, bit for bit, with ``newton`` as the
    solver's Newton loop."""
    outcomes = []
    for params, seeds in _solver_corpus():
        calls = count(1)

        def budgeted(*args):
            if next(calls) > NEWTON_BUDGET:
                raise _OutOfBudget
            return newton(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bethe, "_newton", budgeted)
            try:
                root = solve_bethe(params, seeds, homotopy_steps=20)
                roots = [(v.real.hex(), v.imag.hex()) for v in root.p]
                outcomes.append(("solved", roots, root.residual.hex()))
            except BetheSolverError as err:
                outcomes.append(("unsolved", str(err), err.s.hex()))
            except _OutOfBudget:
                outcomes.append(("out of budget",))
    return outcomes


@functools.lru_cache(maxsize=None)
def _package_outcomes():
    return _corpus_outcomes(bethe._newton)


def test_newton_outcomes_match_the_loop_without_cycle_exit():
    assert _package_outcomes() == _corpus_outcomes(_newton_without_cycle_exit)


def test_solver_failure_ceiling_on_corpus():
    unsolved = sum(1 for outcome in _package_outcomes() if outcome[0] != "solved")
    assert unsolved <= UNSOLVED_CEILING


def test_newton_stops_at_a_cycle(monkeypatch):
    # recorded from a corpus run (k=2, L=2, alpha=2, beta=-3/2, s near 0.8):
    # the iterates repeat bit for bit from the third on
    p = [complex(float.fromhex(v), 0.0) for v in ("-0x1.0a3906f2bc6d3p+1", "0x1.ec56edfc49cecp-2")]
    a = complex(float.fromhex("0x1.995c533333338p+0"), 0.0)
    b = complex(float.fromhex("-0x1.ff66d0000000cp-1"), 0.0)
    with pytest.raises(BetheSolverError, match="^Newton did not converge$"):
        _newton_without_cycle_exit(p, 2, a, b)
    calls = []

    def counted(*args):
        calls.append(args)
        return _bethe_system(*args)

    monkeypatch.setattr(bethe, "_bethe_system", counted)
    with pytest.raises(BetheSolverError, match="^Newton did not converge$"):
        bethe._newton(p, 2, a, b)
    assert len(calls) < 60


def test_singular_jacobian_is_a_newton_failure():
    # at the free couplings J = diag(L p_i^{L-1}), so p_1 = 0 is a zero pivot
    with pytest.raises(BetheSolverError, match="^Newton step not finite$"):
        bethe._newton((0j, 2 + 0j), 2, 0j, 1 + 0j)


def test_solve_is_exact_on_rationals():
    # plain arithmetic: Fraction entries give the exact solution, and a zero
    # pivot, which every singular matrix reaches, raises ZeroDivisionError
    rng = random.Random("bethe-solve")
    singular = 0
    for k in (1, 2, 3, 4):
        for _ in range(40):
            jac = [
                [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)]
                for _ in range(k)
            ]
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k)]
            res = [sum(a * b for a, b in zip(row, x)) for row in jac]
            det = sum(
                reference_parity(s) * math.prod(jac[i][s[i]] for i in range(k))
                for s in permutations(range(k))
            )
            if det:
                assert bethe._solve(jac, res) == x
            else:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    bethe._solve(jac, res)
    assert singular > 0
    jac = [[0, Fraction(2)], [Fraction(3), 0]]  # the first pivot is in the second row
    assert bethe._solve(jac, [1, 1]) == [Fraction(1, 3), Fraction(1, 2)]
