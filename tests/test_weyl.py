"""Lattice, affine roots, and affine Weyl group combinatorics."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    AffineRoot,
    act,
    act_on_function,
    compose,
    eval_root,
    from_word,
    identity_element,
    inverse,
    pi_element,
    reflect,
    simple_reflection_element,
    simple_root,
    translation_element,
    window,
)
from hecke_bose import weyl
from hecke_bose.verify import random_rational_function
from hecke_bose.weyl import Params, is_dominant, shortest_element


def inversion_set(x, params):
    """All positive affine roots negative at x (a finite set)."""
    k, L = params.k, params.L
    out = set()
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i == j:
                continue
            diff = x[j - 1] - x[i - 1]  # a(x) < 0 iff m*L < diff
            if i < j and diff > 0:
                out.add(AffineRoot(i, j, 0))
            m = 1
            while m * L < diff:
                out.add(AffineRoot(i, j, m))
                m += 1
    return out


def in_affine_weyl_group(w, L):
    return sum(w.trans) == 0 and all(t % L == 0 for t in w.trans)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(1, 2, Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        Params(2, 0, Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        Params(2, 2, Fraction(1), Fraction(0))


def test_affine_root_requires_distinct_indices():
    with pytest.raises(ValueError):
        AffineRoot(1, 1, 0)


def test_eval_root_examples():
    assert eval_root(AffineRoot(1, 2, 0), (3, 1), 2) == 2
    assert eval_root(AffineRoot(2, 1, 1), (0, 0), 2) == 2  # a_0 at the origin
    assert eval_root(AffineRoot(1, 2, 0), (5, 5), 2) == 0


def test_reflect_examples():
    assert reflect(simple_root(1, 2), (0, 1), 2) == (1, 0)
    assert reflect(simple_root(0, 2), (3, 0), 2) == (2, 1)


def test_reflect_fixes_hyperplane_and_is_involution():
    a = AffineRoot(1, 3, 1)
    for x in window(3, 2):
        assert reflect(a, reflect(a, x, 2), 2) == x
        if eval_root(a, x, 2) == 0:
            assert reflect(a, x, 2) == x


@pytest.mark.parametrize("k,L", [(2, 1), (3, 2), (4, 3), (3, 5)])
def test_coordinate_reflection_matches_root_reflection(k, L):
    # s_j reflects points as the root a_j does, and fixes exactly the points
    # where a_j vanishes (the theta of the d-change check)
    for j in range(k):
        a = simple_root(j, k)
        for x in window(k, 3):
            sx = weyl.simple_reflection(j, x, L)
            assert sx == reflect(a, x, L)
            assert (sx == x) == (eval_root(a, x, L) == 0)


def test_act_examples():
    assert act(identity_element(2), (5, -3)) == (5, -3)
    assert act(pi_element(2, 2), (0, 0)) == (2, 0)
    assert act(translation_element((2, -2)), (1, 1)) == (3, -1)


def test_point_maps_match_the_group_elements():
    # weyl's maps on points are the action of the oracle's group elements
    for k in range(2, 7):
        for L in range(1, 6):
            reflections = [simple_reflection_element(j, k, L) for j in range(k)]
            pi = pi_element(k, L)
            for x in window(k, 3):
                for j, sj in enumerate(reflections):
                    assert weyl.simple_reflection(j, x, L) == act(sj, x)
                assert weyl.rotate(x, L) == act(pi, x)


def test_act_is_group_action():
    rng = random.Random("action")
    k, L = 3, 2
    for _ in range(50):
        u = from_word([rng.randrange(k) for _ in range(rng.randint(0, 6))], k, L)
        v = from_word([rng.randrange(k) for _ in range(rng.randint(0, 6))], k, L)
        x = tuple(rng.randint(-4, 4) for _ in range(k))
        assert act(compose(u, v), x) == act(u, act(v, x))
        assert act(compose(u, inverse(u)), x) == x


@given(st.lists(st.integers(0, 2), max_size=5), st.lists(st.integers(0, 2), max_size=5))
@settings(max_examples=40, deadline=None)
def test_act_on_function_is_action(wu, wv):
    k, L = 3, 2
    f = random_rational_function("fn-action")
    u = from_word(wu, k, L)
    v = from_word(wv, k, L)
    lhs = act_on_function(u, act_on_function(v, f))
    rhs = act_on_function(compose(u, v), f)
    for x in [(0, 0, 0), (1, -2, 3), (-4, 4, 0)]:
        assert lhs(x) == rhs(x)


def test_act_on_function_shift_convention():
    f = random_rational_function("shift")
    t = translation_element((1, 0))
    g = act_on_function(t, f)
    for x in window(2, 3):
        assert g(x) == f((x[0] - 1, x[1]))


def test_act_on_function_reflection_involutive():
    f = random_rational_function("refl")
    s1 = simple_reflection_element(1, 2, 2)
    g = act_on_function(s1, f)
    for x in window(2, 3):
        assert g(x) == f(reflect(simple_root(1, 2), x, 2))
        assert act_on_function(s1, g)(x) == f(x)


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_coxeter_relations_on_lattice(k, L):
    pts = list(window(k, 2))
    for i in range(k):
        si = simple_reflection_element(i, k, L)
        for x in pts:
            assert act(si, act(si, x)) == x
    if k >= 3:
        for i in range(k):
            j = (i + 1) % k
            si, sj = (simple_reflection_element(n, k, L) for n in (i, j))
            for x in pts:
                assert act(si, act(sj, act(si, x))) == act(sj, act(si, act(sj, x)))
    for i in range(k):
        for j in range(i + 1, k):
            if (j - i) % k in (1, k - 1):
                continue
            si, sj = (simple_reflection_element(n, k, L) for n in (i, j))
            for x in pts:
                assert act(si, act(sj, x)) == act(sj, act(si, x))


def test_pi_element_is_the_compose_chain():
    # pi_element builds pi directly; it must be the product t_{L v_1} s_1 ... s_{k-1}
    for k in range(2, 7):
        for L in range(1, 6):
            w = translation_element((L,) + (0,) * (k - 1))
            for i in range(1, k):
                w = compose(w, simple_reflection_element(i, k, L))
            assert pi_element(k, L) == w


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (4, 3)])
def test_pi_conjugates_generators(k, L):
    # pi^{-1} s_i pi = s_{i-1 mod k}: the rotation shifts the Dynkin cycle
    pi = pi_element(k, L)
    piinv = inverse(pi)
    for i in range(k):
        si = simple_reflection_element(i, k, L)
        target = simple_reflection_element((i - 1) % k, k, L)
        for x in window(k, 2):
            assert act(piinv, act(si, act(pi, x))) == act(target, x)


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (3, 3)])
def test_dominance_and_shortest_element(k, L):
    params = Params(k, L, Fraction(0), Fraction(1))
    for x in window(k, 3):
        (perm, y), word = shortest_element(x, params)
        w = from_word(word, k, L)
        assert is_dominant(y, params)
        assert (perm, y) == (w.perm, act(w, x))
        assert len(word) == len(inversion_set(x, params))
        if is_dominant(x, params):
            assert word == ()
            assert (perm, y) == (identity_element(k).perm, x)


def test_shortest_element_examples():
    params = Params(2, 2, Fraction(0), Fraction(1))
    assert shortest_element((0, 1), params) == (((1, 0), (1, 0)), (1,))
    assert shortest_element((3, 0), params) == (((1, 0), (2, 1)), (0,))
    # k = 3: the descent takes the largest-index s_i (i >= 1) with a_i < 0 first,
    # and s_0 only when there is none; the word's last letter is its first step
    params = Params(3, 2, Fraction(0), Fraction(1))
    # a_1 and a_2 negative: s_2 first, where the smallest index would take s_1
    assert shortest_element((-1, 0, 1), params) == (((2, 1, 0), (1, 0, -1)), (2, 1, 2))
    # a_0 and a_1 negative: s_1 first, where s_0 first would give (0, 1, 0)
    assert shortest_element((3, 4, 0), params) == (((0, 2, 1), (3, 2, 2)), (1, 0, 1))


def test_inversion_set_examples():
    params = Params(2, 2, Fraction(0), Fraction(1))
    assert inversion_set((0, 0), params) == set()
    assert inversion_set((0, 1), params) == {AffineRoot(1, 2, 0)}


def _image_root(w, a, k, L):
    """The affine root w(a), i.e. x -> a(w^{-1} x)."""
    winv = inverse(w)
    ni = w.perm[a.i - 1] + 1
    nj = w.perm[a.j - 1] + 1
    val0 = eval_root(a, act(winv, (0,) * k), L)
    m = (val0 - eval_root(AffineRoot(ni, nj, 0), (0,) * k, L)) // L
    return AffineRoot(ni, nj, m)


def test_inversion_set_matches_word_reflections():
    # I(x) = { s_{i_r} ... s_{i_{p+1}} (a_{i_p}) } read off the reduced word
    k, L = 3, 2
    params = Params(k, L, Fraction(0), Fraction(1))
    for x in [(0, 1, 2), (-2, 3, 1), (2, -1, -3), (1, 1, 4)]:
        _, word = shortest_element(x, params)
        roots = set()
        for p in range(len(word)):
            u = from_word(tuple(reversed(word[p + 1 :])), k, L)
            roots.add(_image_root(u, simple_root(word[p], k), k, L))
        assert roots == inversion_set(x, params)


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2)])
def test_length_additivity_toward_chamber(k, L):
    # For v1 with I(v1) contained in I(v2): w_{v2} = w_{w_{v1} v2} w_{v1}
    # with additive lengths; exercised at points and their half-step midpoints.
    params = Params(k, L, Fraction(0), Fraction(1))
    rng = random.Random("lemma-key")
    half = Fraction(1, 2)
    for _ in range(200):
        x = tuple(rng.randint(-4, 4) for _ in range(k))
        i = rng.randrange(k)
        xprime = tuple(c - (half if n == i else 0) for n, c in enumerate(x))
        for v1 in (x, tuple(c - (1 if n == i else 0) for n, c in enumerate(x))):
            inv1 = inversion_set(v1, params)
            inv2 = inversion_set(xprime, params)
            assert inv1 <= inv2  # the containment from the half-step argument
            _, word1 = shortest_element(v1, params)
            w1 = from_word(word1, k, L)
            _, word2 = shortest_element(act(w1, xprime), params)
            _, wordfull = shortest_element(xprime, params)
            assert compose(from_word(word2, k, L), w1) == from_word(wordfull, k, L)
            assert len(wordfull) == len(word1) + len(word2)


@pytest.mark.parametrize("k,L", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_orbit_meets_chamber_once(k, L):
    params = Params(k, L, Fraction(0), Fraction(1))
    # the dominant representative is constant along generator moves
    for x in window(k, 2):
        (_, rep), _ = shortest_element(x, params)
        for i in range(k):
            (_, y), _ = shortest_element(reflect(simple_root(i, k), x, L), params)
            assert y == rep


def test_in_affine_weyl_group():
    k, L = 3, 2
    w = from_word([0, 1, 2, 0], k, L)
    assert in_affine_weyl_group(w, L)
    assert not in_affine_weyl_group(pi_element(k, L), L)


@pytest.mark.parametrize("k,L", [(2, 1), (3, 2), (4, 3), (3, 5)])
def test_descent_tracks_the_element_of_its_word(k, L):
    # shortest_element tracks w's permutation and w(x) along the descent; they
    # must be those of the element of the word it returns, and w(x) dominant
    params = Params(k, L, Fraction(0), Fraction(1))
    for x in window(k, 4):
        (perm, y), word = shortest_element(x, params)
        w = from_word(word, k, L)
        assert (perm, y) == (w.perm, act(w, x))
        assert is_dominant(y, params)


@given(
    st.sampled_from([(2, 1), (2, 4), (3, 2), (4, 3), (3, 5), (4, 7), (5, 2)]),
    st.lists(st.integers(-60, 60), min_size=5, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_dominant_point_is_the_descent_endpoint(kL, coords):
    # the closed form lands where the greedy descent does, far points included
    k, L = kL
    params = Params(k, L, Fraction(0), Fraction(1))
    x = tuple(coords[:k])
    (_, y), _ = shortest_element(x, params)
    assert weyl.dominant_point(x, params) == y
