"""Laurent polynomial ring (the oracle in conftest), divided-difference operators,
and the pairing."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LaurentPolynomial,
    act,
    from_word,
    inverse,
    pi_element,
    rand_params_pair,
    simple_reflection_element,
    weyl_act_poly,
    window,
)
from hecke_bose import laurent
from hecke_bose.hecke import exact_couplings
from hecke_bose.laurent import pairing
from hecke_bose.verify import random_rational_function
from hecke_bose.weyl import Params


def apply_T_check(i, p, params):
    """The package's T^check_i, its result read into the oracle ring."""
    return LaurentPolynomial(laurent.apply_T_check(i, p, params).terms)


def apply_pi_check(p, params):
    """Action of the rotation pi on Laurent polynomials."""
    return weyl_act_poly(pi_element(params.k, params.L), p)

coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=4)
exponents = st.tuples(*([st.integers(-3, 3)] * 3))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(LaurentPolynomial)


def _params(k, L, seed):
    alpha, beta = rand_params_pair(random.Random(seed))
    return Params(k, L, alpha, beta)


@given(polys, polys, polys)
@settings(max_examples=50, deadline=None)
def test_ring_axioms(p, q, r):
    zero = LaurentPolynomial.zero()
    one = LaurentPolynomial.one(3)
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p + zero == p
    assert p - p == zero
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * one == p
    assert p * (q + r) == p * q + p * r


def test_no_zero_coefficients_stored():
    p = LaurentPolynomial({(1, 0): Fraction(1)})
    q = LaurentPolynomial({(1, 0): Fraction(-1), (0, 1): Fraction(2)})
    assert (p + q).terms == {(0, 1): Fraction(2)}


def test_monomial_multiplication_adds_exponents():
    e = LaurentPolynomial.monomial((2, -1))
    f = LaurentPolynomial({(-1, 3): Fraction(1, 2)})
    assert (e * f).terms == {(1, 2): Fraction(1, 2)}


def test_weyl_act_poly_examples():
    s1 = simple_reflection_element(1, 2, 2)
    e_10, e_01 = LaurentPolynomial.monomial((1, 0)), LaurentPolynomial.monomial((0, 1))
    assert weyl_act_poly(s1, e_10) == e_01
    # pi(e^{v_2}) = e^{pi v_2}, with pi acting affinely on exponents
    pi = pi_element(2, 2)
    assert weyl_act_poly(pi, LaurentPolynomial.monomial((0, 1))) == LaurentPolynomial.monomial(
        act(pi, (0, 1))
    )


@given(polys, polys, st.lists(st.integers(1, 2), max_size=4))
@settings(max_examples=40, deadline=None)
def test_linear_weyl_action_is_ring_automorphism(p, q, word):
    # only the linear (finite Weyl) part is multiplicative; translations
    # act as multiplication by a monomial
    w = from_word(word, 3, 2)
    assert weyl_act_poly(w, p * q) == weyl_act_poly(w, p) * weyl_act_poly(w, q)


@given(polys, st.lists(st.integers(0, 2), max_size=4))
@settings(max_examples=40, deadline=None)
def test_affine_weyl_action_is_group_action(p, word):
    w = from_word(word, 3, 2)
    winv = inverse(w)
    assert weyl_act_poly(winv, weyl_act_poly(w, p)) == p


def test_T_check_on_constants_and_monomials():
    params = Params(2, 2, Fraction(-1, 3), Fraction(2, 5))
    one = LaurentPolynomial.one(2)
    assert apply_T_check(1, one, params) == one
    got = apply_T_check(1, LaurentPolynomial.monomial((1, 0)), params)
    expected = LaurentPolynomial(
        {(0, 1): 1, (1, 1): params.alpha, (1, 0): 1 - params.beta}
    )
    assert got == expected
    # a symmetric input is fixed; its alpha and -alpha at e^{(1,1)} cancel and
    # the zero is not stored
    sym = LaurentPolynomial({(1, 0): 1, (0, 1): 1})
    got = apply_T_check(1, sym, params)
    assert got == sym
    assert (1, 1) not in got.terms
    # at alpha = 0, beta = 1 the operator is the reflection s_i
    free = Params(3, 2, Fraction(0), Fraction(1))
    p = _random_poly(3, "free")
    for i in (1, 2):
        si = simple_reflection_element(i, 3, 2)
        assert apply_T_check(i, p, free) == weyl_act_poly(si, p)
    for i in (0, 3):
        with pytest.raises(ValueError):
            apply_T_check(i, p, free)


@pytest.mark.parametrize("x", [(1, 2, 5), (1,)])
def test_T_check_rejects_an_exponent_of_another_length(x):
    # unchecked, weighted_T_check reads (1, 2, 5) at k = 2 as (1, 2) with the
    # tail 5 carried along, and (1,) ends in IndexError
    params = Params(2, 2, Fraction(1, 2), Fraction(2))
    p = LaurentPolynomial({(0, 1): 3, x: 1})
    with pytest.raises(ValueError) as raised:
        laurent.apply_T_check(1, p, params)
    assert str(raised.value) == "exponent %r does not have k = 2 entries" % (x,)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_int_weights_give_D_times_T_check(k):
    # the duality suite runs the one expansion with the engine's couplings
    # (D, D alpha, D (1 - beta)), D the common denominator of alpha and
    # 1 - beta, as its weights: that is D T^check_i, with int coefficients on
    # a monomial
    rng = random.Random("int-weights-%d" % k)
    couplings = [rand_params_pair(rng) for _ in range(4)]
    couplings += [(Fraction(0), Fraction(3, 4)), (Fraction(-5, 6), Fraction(1)),
                  (Fraction(0), Fraction(1)), (-2, 3), (3, 1)]
    polys = [_random_poly(k, "int-%d-%d" % (k, n)) for n in range(3)]
    monomials = [LaurentPolynomial.monomial(x) for x in window(k, 1)]
    for alpha, beta in couplings:
        params = Params(k, 2, alpha, beta)
        unit = math.lcm(Fraction(alpha).denominator, Fraction(beta).denominator)
        weights = [unit * w for w in (1, alpha, 1 - beta)]
        assert all(Fraction(w).denominator == 1 for w in weights)
        weights = tuple(map(int, weights))
        assert weights == exact_couplings(params)  # what the duality suite passes
        for i in range(1, k):
            for p in polys + monomials:
                got = LaurentPolynomial(laurent.weighted_T_check(i, p.terms, weights)).terms
                want = laurent.apply_T_check(i, p, params).terms
                assert got == {e: unit * c for e, c in want.items()}
            for p in monomials:
                got = laurent.weighted_T_check(i, p.terms, weights)
                assert all(type(c) is int for c in got.values())


@pytest.mark.parametrize("seed", range(4))
def test_T_check_quadratic_relation(seed):
    params = _params(3, 2, "quad-%d" % seed)
    p = _random_poly(3, seed)
    for i in (1, 2):
        q = apply_T_check(i, p, params)
        qq = apply_T_check(i, q, params)
        assert (qq + (params.beta - 1) * q - params.beta * p).is_zero()


@pytest.mark.parametrize("k", [3, 4])
def test_T_check_braid_relations(k):
    params = _params(k, 2, "braid-%d" % k)
    p = _random_poly(k, k)

    def T(j, q):
        return apply_T_check(j, q, params)

    for i in range(1, k - 1):
        lhs = T(i, T(i + 1, T(i, p)))
        rhs = T(i + 1, T(i, T(i + 1, p)))
        assert lhs == rhs
    if k >= 4:
        lhs = T(1, T(3, p))
        rhs = T(3, T(1, p))
        assert lhs == rhs


def test_pi_check_relations():
    params = _params(3, 2, "pi-rel")
    p = _random_poly(3, 99)
    # T_2 pi = pi T_1
    assert apply_T_check(2, apply_pi_check(p, params), params) == apply_pi_check(
        apply_T_check(1, p, params), params
    )
    # T_1 pi^2 = pi^2 T_{k-1}
    pi2 = apply_pi_check(apply_pi_check(p, params), params)
    lhs = apply_T_check(1, pi2, params)
    rhs = apply_pi_check(
        apply_pi_check(apply_T_check(2, p, params), params), params
    )
    assert lhs == rhs
    # the rotation carries a translation: pi(e^0) = e^{L v_1}
    assert apply_pi_check(LaurentPolynomial.one(3), params) == LaurentPolynomial.monomial((2, 0, 0))


def test_pairing_examples():
    f = random_rational_function("pairing")
    assert pairing(f, LaurentPolynomial.one(2)) == f((0, 0))
    for x in window(2, 3):
        assert pairing(f, LaurentPolynomial.monomial(x)) == f(x)
    p = LaurentPolynomial({(1, 0): Fraction(2), (0, 1): Fraction(-3)})
    assert pairing(f, p) == 2 * f((1, 0)) - 3 * f((0, 1))


def _random_poly(k, seed):
    rng = random.Random("poly-%s" % seed)
    terms = {}
    for _ in range(5):
        e = tuple(rng.randint(-2, 2) for _ in range(k))
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return LaurentPolynomial(terms)
