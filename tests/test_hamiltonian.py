"""Counting functions and the deformed Hamiltonian."""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    act,
    act_on_function,
    apply_H_tilde,
    d_minus,
    eval_root,
    inverse,
    rand_params_pair,
    simple_reflection_element,
    simple_root,
    window,
)
from hecke_bose import LatticeFunction, hamiltonian, hecke, propagation, verify, weyl
from hecke_bose.hamiltonian import apply_H, d_plus
from hecke_bose.verify import random_rational_function
from hecke_bose.weyl import Params


def constant_function(value):
    return cache(lambda x: value)


def test_d_examples():
    params = Params(2, 2, Fraction(0), Fraction(1))
    assert d_plus(1, (0, 0), params) == 1
    assert d_plus(2, (0, 0), params) == 0
    assert d_minus(1, (0, 0), params) == 0
    assert d_minus(2, (0, 0), params) == 1


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_d_bounds(k, L):
    params = Params(k, L, Fraction(0), Fraction(1))
    for x in window(k, 3):
        for i in range(1, k + 1):
            assert 0 <= d_plus(i, x, params) <= k - 1
            assert 0 <= d_minus(i, x, params) <= k - 1


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (3, 3)])
def test_dominant_d_sum_bound_and_max_run(k, L):
    params = Params(k, L, Fraction(0), Fraction(1))
    for z in window(k, 3):
        if not weyl.is_dominant(z, params):
            continue
        vals = [eval_root(simple_root(i, k), z, L) for i in range(k)]
        for i in range(1, k + 1):
            dp, dm = d_plus(i, z, params), d_minus(i, z, params)
            assert dp + dm < k
            # on the dominant chamber d_i^+ is the length of the zero run
            run = 0
            for c in range(1, k):
                if vals[(i + c - 1) % k] == 0 and run == c - 1:
                    run = c
            assert dp == run


def test_apply_H_at_origin():
    alpha, beta = Fraction(-1, 3), Fraction(2, 5)
    params = Params(2, 2, alpha, beta)
    f = random_rational_function("H-origin")
    expected = (f((-1, 0)) - alpha * f((0, 0))) + beta * f((0, -1))
    assert apply_H(f, (0, 0), params) == expected


@pytest.mark.parametrize("name", ["d_minus", "d_plus"])
@pytest.mark.parametrize("exact", [True, False])
def test_apply_H_weights_at_any_count(monkeypatch, name, exact):
    # d_i^{+-} take the values 0..k-1; a count of k or more, as a patched
    # counting pass returns, must still get alpha * n and beta ** n
    k = 3
    params = Params(k, 2, Fraction(-1, 3), Fraction(2, 5))
    f = random_rational_function("H-weights")
    if not exact:
        f = cache(lambda x, g=f: complex(g(x), sum(x) / 7))
    y = (1, 0, -1)
    side = ["d_plus", "d_minus"].index(name)
    real = hamiltonian._d_counts

    def patched(x, params):
        counts = list(real(x, params))
        if x == y:
            counts[side] = [k, k + 1, 0]
        return tuple(counts)

    monkeypatch.setattr(hamiltonian, "_d_counts", patched)
    for x in [y, (0, 0, 0), (2, 1, 1)]:
        plus, minus = hamiltonian._d_counts(x, params)
        expected = 0
        for i in range(k):
            shifted = tuple(v - (j == i) for j, v in enumerate(x))
            term = f(shifted) - params.alpha * plus[i] * f(x)
            expected += params.beta ** minus[i] * term
        assert apply_H(f, x, params) == expected


def test_apply_H_constant_alpha_zero():
    params = Params(3, 2, Fraction(0), Fraction(3, 7))
    one = constant_function(Fraction(1))
    for x in window(3, 2):
        expected = sum(params.beta ** d_minus(i, x, params) for i in range(1, 4))
        assert apply_H(one, x, params) == expected


@pytest.mark.parametrize("k,L", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_undeformed_reduction_constant(k, L):
    # at (alpha, beta) = (-1, 1) H agrees with the directly-coded periodic
    # discrete Hamiltonian up to the x-independent constant k
    params = Params(k, L, Fraction(-1), Fraction(1))
    f = random_rational_function("reduction-%d-%d" % (k, L))
    constants = set()
    for x in window(k, 3):
        fx = f(x)
        if fx == 0:
            continue
        constants.add((apply_H(f, x, params) - apply_H_tilde(f, x, params)) / fx)
    assert constants == {Fraction(k)}


def test_interaction_term_counts_coincidences():
    # sum_i d_i^+(x) equals the number of pairs equal modulo L
    for (k, L) in [(2, 2), (3, 2), (3, 3)]:
        params = Params(k, L, Fraction(0), Fraction(1))
        for x in window(k, 3):
            pairs = sum(
                1
                for i in range(k)
                for j in range(i + 1, k)
                if (x[i] - x[j]) % L == 0
            )
            assert sum(d_plus(i, x, params) for i in range(1, k + 1)) == pairs


def test_d_change_unaffected_index():
    params = Params(4, 2, Fraction(0), Fraction(1))
    x = (1, -2, 0, 3)
    # i away from {j, j+1} mod k leaves d unchanged
    sx = act(simple_reflection_element(1, 4, 2), x)
    assert d_plus(3, sx, params) == d_plus(3, x, params)
    assert d_minus(4, sx, params) == d_minus(4, x, params)


@pytest.mark.parametrize("k,L", [(2, 2), (2, 3), (3, 3)])
def test_w_invariance_on_regular_points(k, L):
    rng = random.Random("winv-%d-%d" % (k, L))
    alpha, beta = rand_params_pair(rng)
    params = Params(k, L, alpha, beta)
    f = random_rational_function("winv-%d-%d" % (k, L))
    found_regular = False
    for j in range(k):
        w = simple_reflection_element(j, k, L)
        winv = inverse(w)
        wf = act_on_function(winv, f)
        for x in window(k, 3):
            if not weyl.is_regular(x, params):
                continue
            found_regular = True
            assert apply_H(wf, act(winv, x), params) == apply_H(f, x, params)
    assert found_regular


@pytest.mark.parametrize("x", [(1, 2, 5), (1,)])
def test_apply_H_rejects_a_point_of_another_length(x):
    # the counts read (1, 2, 5) at k = 2 as (1, 2), so H returned 1/2, and
    # (1,) ended in IndexError
    params = Params(2, 2, Fraction(1, 2), Fraction(2))
    f = random_rational_function(1)
    for read in [lambda: apply_H(f, x, params), lambda: d_plus(1, x, params)]:
        with pytest.raises(ValueError) as raised:
            read()
        assert str(raised.value) == "point %r does not have k = 2 coordinates" % (x,)


def test_memoized_and_unmemoized_agree(monkeypatch):
    # a lattice function agrees with its evaluator and calls it once per distinct
    # point: through the LatticeFunction export, random_rational_function and
    # propagate, whose engine is walked once per point
    calls = dict.fromkeys(("export", "random", "propagate"), 0)

    def counted(name, ev):
        def wrapped(*args):
            calls[name] += 1
            return ev(*args)

        return wrapped

    def ev(x):
        return Fraction(sum(x), 3)

    monkeypatch.setattr(verify, "_value_at", counted("random", verify._value_at))
    monkeypatch.setattr(hecke.QWordEngine, "walk", counted("propagate", hecke.QWordEngine.walk))
    memo = LatticeFunction(counted("export", ev))
    f = random_rational_function("memo")
    points = list(window(2, 3))
    for _ in range(2):
        for x in points:
            assert memo(x) == ev(x) == memo(x)
            assert f(x) == f(x)
    G = propagation.propagate(ev, Params(2, 2, 1, 3))
    for _ in range(2):
        for x in points:
            assert G(x) == G(x)
    assert calls == dict.fromkeys(("export", "random", "propagate"), len(points))


def _d_count_by_roots(x, params, start, step):
    """d_i^{+-} summed root by root over AffineRoot objects: the reference
    for the counts read off the coordinates."""
    k, L = params.k, params.L
    count = 0
    s = 0
    for p in range(k - 1):
        s += eval_root(simple_root((start + p * step) % k, k), x, L)
        if s <= 0 and s % L == 0:
            count += 1
    return count


@pytest.mark.parametrize("k,L", [(2, 1), (3, 2), (4, 3), (3, 5)])
def test_d_counts_match_root_sums(k, L):
    params = Params(k, L, Fraction(0), Fraction(1))
    for x in window(k, 3):
        for i in range(1, k + 1):
            assert d_plus(i, x, params) == _d_count_by_roots(x, params, i, 1)
            assert d_minus(i, x, params) == _d_count_by_roots(x, params, i - 1, -1)


@given(
    st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 4), (3, 2), (4, 3), (3, 5), (4, 7), (5, 2)]),
    st.lists(st.integers(-60, 60), min_size=5, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_d_counts_match_root_sums_far_out(kL, coords):
    # the one pass over coordinate pairs against the root-by-root sums, far points included
    k, L = kL
    params = Params(k, L, Fraction(0), Fraction(1))
    x = tuple(coords[:k])
    plus, minus = hamiltonian._d_counts(x, params)
    assert plus == [_d_count_by_roots(x, params, i, 1) for i in range(1, k + 1)]
    assert minus == [_d_count_by_roots(x, params, i - 1, -1) for i in range(1, k + 1)]
