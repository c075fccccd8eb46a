"""Propagation operator, plane waves, and the eigenfunction theorem."""

import random
import sys
from fractions import Fraction

import pytest

from conftest import rand_distinct_fractions, rand_params_pair, window
from hecke_bose import weyl
from hecke_bose.functions import LatticeFunction, linear_combination, random_rational_function
from hecke_bose.hamiltonian import apply_H, d_plus
from hecke_bose.propagation import plane_wave, propagate, verify_lemma_main
from hecke_bose.weyl import Params


def _params(k, L, seed):
    alpha, beta = rand_params_pair(random.Random(seed))
    return Params(k, L, alpha, beta)


def test_propagate_identity_on_dominant_points():
    params = _params(2, 2, "dom")
    f = random_rational_function("dom")
    G = propagate(f, params)
    for x in window(2, 4):
        if weyl.is_dominant(x, params):
            assert G(x) == f(x)


def test_propagate_single_reflection_example():
    params = Params(2, 2, Fraction(-1, 3), Fraction(2, 5))
    f = random_rational_function("single")
    G = propagate(f, params)
    expected = f((0, 1)) + params.alpha * f((1, 1)) + (1 - params.beta) * f((1, 0))
    assert G((0, 1)) == expected


def test_plane_wave_basics():
    ones = plane_wave((Fraction(1), Fraction(1)))
    for x in window(2, 3):
        assert ones(x) == 1
    with pytest.raises(ValueError):
        plane_wave((Fraction(0), Fraction(1)))

    p = (Fraction(2, 3), Fraction(-5, 4))
    g = plane_wave(p)
    for x in window(2, 3):
        # shift by v_i multiplies by p_i
        assert g((x[0] - 1, x[1])) == p[0] * g(x)
        assert g((x[0], x[1] - 1)) == p[1] * g(x)
        assert g((x[0] - 1, x[1])) + g((x[0], x[1] - 1)) == (p[0] + p[1]) * g(x)


@pytest.mark.parametrize("k,L", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_eigenfunction_theorem(k, L):
    rng = random.Random("thm-%d-%d" % (k, L))
    alpha, beta = rand_params_pair(rng)
    params = Params(k, L, alpha, beta)
    p = rand_distinct_fractions(rng, k)
    G = propagate(plane_wave(p), params)
    lam = sum(p)
    for x in window(k, 4):
        assert apply_H(G, x, params) == lam * G(x)


def test_propagate_is_linear():
    params = _params(2, 2, "lin")
    f = random_rational_function("lin-f")
    g = random_rational_function("lin-g")
    a, b = Fraction(3, 7), Fraction(-5, 2)
    combo = linear_combination([(a, f), (b, g)])
    G_combo = propagate(combo, params)
    Gf, Gg = propagate(f, params), propagate(g, params)
    for x in window(2, 3):
        assert G_combo(x) == a * Gf(x) + b * Gg(x)


def test_eigenfunction_combination():
    # two plane waves with equal p_1 + p_2 span an eigenspace of the free
    # shift sum; their combination propagates to an H-eigenfunction
    params = _params(2, 2, "combo")
    p1 = (Fraction(1), Fraction(5))
    p2 = (Fraction(2), Fraction(4))
    lam = Fraction(6)
    f = linear_combination(
        [(Fraction(2, 3), plane_wave(p1)), (Fraction(-1, 5), plane_wave(p2))]
    )
    G = propagate(f, params)
    for x in window(2, 3):
        assert apply_H(G, x, params) == lam * G(x)


def test_lemma_trivial_case():
    params = _params(2, 2, "lemma-triv")
    f = random_rational_function("lemma-triv")
    G = propagate(f, params)
    for x in window(2, 3):
        if not weyl.is_dominant(x, params):
            continue
        for i in (1, 2):
            if d_plus(i, x, params) == 0:
                y = list(x)
                y[i - 1] -= 1
                assert G(tuple(y)) == f(tuple(y))
                assert verify_lemma_main(f, x, i, params, G=G)


def test_lemma_origin_example():
    # at the origin with i = 1, k = 2: LHS = G(f)(-1,0) - alpha * G(f)(0,0)
    params = Params(2, 2, Fraction(-1, 3), Fraction(2, 5))
    f = random_rational_function("lemma-origin")
    G = propagate(f, params)
    assert d_plus(1, (0, 0), params) == 1
    assert verify_lemma_main(f, (0, 0), 1, params, G=G)


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2)])
def test_lemma_exhaustive_window(k, L):
    params = _params(k, L, "lemma-%d-%d" % (k, L))
    f = random_rational_function("lemma-%d-%d" % (k, L))
    G = propagate(f, params)
    for x in window(k, 3):
        for i in range(1, k + 1):
            assert verify_lemma_main(f, x, i, params, G=G)


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_far_point_evaluation_is_recursion_free():
    # the reduced word for (30, -30) has 59 letters; evaluating G there must
    # not take stack frames in proportion to them
    params = Params(2, 1, Fraction(1, 2), Fraction(2))
    p = (Fraction(2, 3), Fraction(-5, 4))
    x = (30, -30)
    assert len(weyl.shortest_element(x, params)[1]) == 59
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        G = propagate(plane_wave(p), params)
        lhs = apply_H(G, x, params)
        rhs = sum(p) * G(x)
    finally:
        sys.setrecursionlimit(limit)
    assert lhs == rhs
