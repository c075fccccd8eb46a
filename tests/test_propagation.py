"""Propagation operator, plane waves, and the eigenfunction theorem."""

import itertools
import math
import random
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    LayerChain,
    chain_word,
    descents,
    rand_distinct_fractions,
    rand_params_pair,
    window,
    word_values,
)
from hecke_bose import hecke, propagation, verify, weyl
from hecke_bose.hamiltonian import apply_H, d_plus
from hecke_bose.hecke import QWordEngine
from hecke_bose.propagation import plane_wave, propagate, propagate_many
from hecke_bose.verify import random_rational_function
from hecke_bose.weyl import Params


def linear_combination(coeffs_and_functions):
    """Pointwise linear combination of lattice functions."""
    pairs = list(coeffs_and_functions)
    return cache(lambda x: sum(c * f(x) for c, f in pairs))


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


def test_plane_wave_matches_fraction_powers():
    # a negative p, a p with non-unit numerator and denominator, and an int p
    p = (Fraction(-1, 2), Fraction(4, 9), 3)
    g = plane_wave(p)
    for x in window(3, 6):
        value = g(x)
        assert isinstance(value, Fraction)
        assert value == math.prod(Fraction(pi) ** -xi for pi, xi in zip(p, x))


def test_plane_wave_rejects_zero_and_inexact_p():
    for p in [(0, Fraction(1, 2)), (Fraction(2), Fraction(0), 3)]:
        with pytest.raises(ValueError):
            plane_wave(p)
    # plane waves feed the exact engine: Fraction(0.1) would silently be
    # another number, so floats and complex numbers are refused
    for p in [(Fraction(1, 2), 0.1), (2.0, 3), (1j, Fraction(2)), (Fraction(1, 3), 2 + 0j)]:
        with pytest.raises(TypeError):
            plane_wave(p)


def test_plane_wave_rejects_a_point_of_another_length():
    # zipping p with x would read (1, 2, 5) as (1, 2), 1/18 for p = (2, 3),
    # and Q_1 at k = 3 would read a 2- or 4-entry wave without error
    g = plane_wave((2, 3))
    assert g((1, 2)) == Fraction(1, 18)
    for x in [(1, 2, 5), (1,), ()]:
        with pytest.raises(ValueError) as raised:
            g(x)
        assert str(raised.value) == "plane wave of length 2 read at %r" % (x,)
    params = Params(3, 2, Fraction(1, 2), Fraction(2))
    for p in [(2, 3), (2, 3, 5, 7)]:
        with pytest.raises(ValueError, match="^plane wave of length %d read at " % len(p)):
            hecke.apply_Q(1, plane_wave(p), params)((1, 0, 4))


@pytest.mark.parametrize("x", [(1, 2, 5), (1,)])
@pytest.mark.parametrize("closed_form", [True, False], ids=["closed-form", "engine"])
def test_propagate_rejects_a_point_of_another_length(x, closed_form):
    # the descent read (1, 2, 5) at k = 2 as (1, 2) and returned -1/72 in
    # closed form and -8/3 through the engine, and ended in IndexError at (1,)
    params = Params(2, 2, Fraction(1, 2), Fraction(2))
    f = plane_wave((2, 3)) if closed_form else random_rational_function(1)
    G = propagate(f, params)
    with pytest.raises(ValueError) as raised:
        G(x)
    assert str(raised.value) == "point %r does not have k = 2 coordinates" % (x,)
    with pytest.raises(ValueError, match="^point "):
        weyl.shortest_element(x, params)


def test_plane_wave_exact_on_integer_p():
    g = plane_wave((2, 3))
    for x in window(2, 2):
        assert g(x) == Fraction(2) ** -x[0] * Fraction(3) ** -x[1]
        assert isinstance(g(x), Fraction)
    params = Params(2, 2, Fraction(1, 2), Fraction(2))
    G = propagate(g, params)
    for x in window(2, 2):
        assert apply_H(G, x, params) == 5 * G(x)


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
    # where d_i^+(x) = 0 at a dominant x, the lemma's left-hand side reads G(f)
    # at x - v_i, and G(f) agrees with f there
    params = _params(2, 2, "lemma-triv")
    f = random_rational_function("lemma-triv")
    G = propagate(f, params)
    checked = 0
    for x in window(2, 3):
        if weyl.is_dominant(x, params):
            for i in range(1, 3):
                if d_plus(i, x, params) == 0:
                    y = list(x)
                    y[i - 1] -= 1
                    assert G(tuple(y)) == f(tuple(y))
                    checked += 1
    assert checked


def test_lemma_origin_example():
    # at the origin with i = 1, k = 2: LHS = G(f)(-1,0) - alpha * G(f)(0,0);
    # window 0 is the origin alone, and seed "origin" draws f "lemma-origin"
    params = Params(2, 2, Fraction(-1, 3), Fraction(2, 5))
    assert d_plus(1, (0, 0), params) == 1
    report = verify.run_suite("lemma-main", params, 0, "origin")
    assert report["checks_run"] == 2
    assert report["failures"] == []


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2)])
def test_lemma_exhaustive_window(k, L):
    params = _params(k, L, "lemma-%d-%d" % (k, L))
    report = verify.run_suite("lemma-main", params, 3, "%d-%d" % (k, L))
    assert report["checks_run"] == 7 ** k * k
    assert report["failures"] == []


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_far_point_evaluation_is_recursion_free():
    # evaluating G must not take stack frames in proportion to the letters of
    # the reduced word: on the engine, which propagate runs for a plane wave
    # wrapped in a lattice function, at (30, -30) with 59 letters, and on
    # propagate's closed form for the plane wave itself at (1000, -1000)
    # with 1999 letters
    params = Params(2, 1, Fraction(1, 2), Fraction(2))
    p = (Fraction(2, 3), Fraction(-5, 4))
    cases = [(cache(plane_wave(p)), (30, -30), 59), (plane_wave(p), (1000, -1000), 1999)]
    for f, x, letters in cases:
        assert len(weyl.shortest_element(x, params)[1]) == letters
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            G = propagate(f, params)
            lhs = apply_H(G, x, params)
            rhs = sum(p) * G(x)
        finally:
            sys.setrecursionlimit(limit)
        assert lhs == rhs


@pytest.mark.parametrize("k,L", [(2, 1), (3, 2), (4, 3)])
def test_grouped_propagation_matches_per_point(k, L):
    # G on a window, and requests that read some of its words, and a word of
    # none, at other points, all from one walk at one scale
    params = _params(k, L, "grouped-%d-%d" % (k, L))
    f = random_rational_function("grouped-%d-%d" % (k, L))
    points = list(window(k, 2))
    read = descents(points, params)
    words = sorted({word for _, word in read.values()}, key=len)[-3:] + [(1, 1)]
    requests = [(word, points[::7]) for word in words] + [((), points[:3])]
    engine = QWordEngine(f, params)
    scale, grouped, columns = propagate_many(engine, read, requests)
    # the walk reads its words in suffix-trie order, the greatest reversal last,
    # and holds the chain of that word
    asked = [word for _, word in read.values()] + [word for word, _ in requests]
    assert chain_word(engine) == max(asked, key=lambda word: word[::-1])
    G = propagate(f, params)
    assert grouped.keys() == set(points)
    for x, v in grouped.items():
        assert Fraction(v, scale) == G(x)
    assert len(columns) == len(requests)
    for (word, at), column in zip(requests, columns):
        assert [Fraction(v, scale) for v in column] == word_values(QWordEngine(f, params), word, at)


@pytest.mark.parametrize("k,L,x,built,suffixes", [
    (2, 1, (24, -24), 48, 48),
    (3, 2, (8, 0, -8), 16, 16),
    # H asks w_x at its points in slot order: the first word, asked again at
    # a third point, comes after a second word that cut the chain back to the
    # 4 letters they share, so its other 4 letters are built twice
    (3, 2, (-4, 1, 3), 16, 12),
], ids=["far-k2", "far-k3", "near-k3"])
def test_propagate_one_point_reads_share_the_chain_of_the_last_word(monkeypatch, k, L, x, built,
                                                                      suffixes):
    # H reads G at x and its k neighbours one point at a time: each read cuts
    # the chain back to the suffix its word shares with the word read before
    # and builds the rest, so a word builds only the letters it does not share
    # with its predecessor, and the engine ends holding one chain
    engines, layers, read = [], [], []

    class Spy(QWordEngine):
        def __init__(self, f, params):
            super().__init__(f, params)
            engines.append(self)

        def _evaluate(self, word, points):
            read.append(word)
            return super()._evaluate(word, points)

    init = hecke._Reflection.__init__

    def building(self, *args):
        init(self, *args)
        layers.append(self)

    monkeypatch.setattr(propagation, "QWordEngine", Spy)
    monkeypatch.setattr(hecke._Reflection, "__init__", building)
    params = Params(k, L, Fraction(1, 2), Fraction(2))
    p = (Fraction(2, 3), Fraction(-5, 4), Fraction(3))[:k]
    G = propagate(cache(plane_wave(p)), params)
    assert apply_H(G, x, params) == sum(p) * G(x)
    points = {x} | {x[:i] + (x[i] - 1,) + x[i + 1 :] for i in range(k)}
    words = {weyl.shortest_element(y, params)[1] for y in points}
    assert len(layers) == built
    assert len({word[d:] for word in words for d in range(len(word))}) == suffixes
    (engine,) = engines
    assert chain_word(engine) == read[-1]


def _engine_work(k, L, x, p):
    """An engine after G of a plane wave at x and its neighbours: the points
    read from f, and per layer its memo size and the summed line-sum
    lengths, read as a read cuts it or from the chain still held; no layer
    is built twice."""
    params = Params(k, L, Fraction(1, 2), Fraction(2))
    engine = QWordEngine(plane_wave(p), params)
    engine._chain = table = LayerChain()
    points = {x} | {x[:i] + (x[i] - 1,) + x[i + 1 :] for i in range(k)}
    propagate_many(engine, descents(points, params))
    layers = {word: (memo, sums) for word, memo, sums in table.work()}
    assert len(layers) == len(table.work())
    return len(engine._base), layers


def test_engine_work_at_far_points_is_pinned():
    # the engine reads f, and fills each layer, at exactly these many points;
    # a change of how layers are planned or filled, or of the reduced words the
    # descent picks, must not move them unnoticed
    base, layers = _engine_work(2, 1, (14, -14), (Fraction(2, 3), Fraction(-5, 4)))
    assert base == 435
    # at k = 2 every element has one reduced word, so no descent rule moves
    # these: the words are 0, 10, 010, ... up to 28 letters; the layer of a word of
    # length 29 - n holds n(n+1)/2 points and n(n+1)/2 + 2n line sums
    expected = {}
    for n in range(1, 29):
        expected[((1, 0) * 15)[n + 1 :]] = (n * (n + 1) // 2, n * (n + 1) // 2 + 2 * n)
    assert layers == expected

    base, layers = _engine_work(3, 2, (8, 0, -8), (Fraction(2, 3), Fraction(-5, 4), Fraction(3)))
    # the words descend by the largest-index letter first, s_0 last
    assert base == 1494
    assert layers == {
        (0,): (1148, 1571),
        (2, 0): (901, 1225),
        (1, 2, 0): (676, 955),
        (2, 1, 2, 0): (601, 748),
        (0, 2, 1, 2, 0): (420, 636),
        (2, 0, 2, 1, 2, 0): (295, 455),
        (1, 2, 0, 2, 1, 2, 0): (192, 315),
        (2, 1, 2, 0, 2, 1, 2, 0): (161, 224),
        (0, 2, 1, 2, 0, 2, 1, 2, 0): (92, 170),
        (2, 0, 2, 1, 2, 0, 2, 1, 2, 0): (48, 101),
        (1, 2, 0, 2, 1, 2, 0, 2, 1, 2, 0): (20, 50),
        (2, 1, 2, 0, 2, 1, 2, 0, 2, 1, 2, 0): (14, 22),
        (0, 2, 1, 2, 0, 2, 1, 2, 0, 2, 1, 2, 0): (4, 13),
        (1, 0, 2, 1, 2, 0, 2, 1, 2, 0, 2, 1, 2, 0): (3, 3),
        (2, 0, 2, 1, 2, 0, 2, 1, 2, 0, 2, 1, 2, 0): (1, 3),
        (2, 1, 0, 2, 1, 2, 0, 2, 1, 2, 0, 2, 1, 2, 0): (1, 3),
    }


_nonzero_rational = st.one_of(
    st.integers(-5, 5), st.fractions(-4, 4, max_denominator=6)
).filter(bool)


@st.composite
def _closed_form_cases(draw):
    """(params, p, far point): k = 2..4, L = 1..4, distinct int, negative
    and Fraction p_i, and couplings among them alpha = 0 and beta = 1.  The
    far point's coordinates reach 16 // k, where the engine takes about a
    second at k = 4, L = 1."""
    k, L = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    p = tuple(draw(st.lists(_nonzero_rational, min_size=k, max_size=k, unique=True)))
    alpha = draw(st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=5)))
    beta = draw(st.one_of(st.just(1), st.fractions(-3, 3, max_denominator=5).filter(bool)))
    far = tuple(draw(st.lists(st.integers(-(16 // k), 16 // k), min_size=k, max_size=k)))
    return Params(k, L, alpha, beta), p, far


@given(_closed_form_cases())
@example((Params(2, 1, 0, 1), (3, -2), (8, -8)))
@example((Params(3, 2, Fraction(0), Fraction(1)), (Fraction(1, 2), -1, 4), (5, 0, -5)))
@example(
    (Params(4, 3, Fraction(-2, 3), 1), (2, Fraction(-3, 4), 5, Fraction(1, 3)), (4, 2, -2, -4))
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_closed_form_propagation_matches_engine(case):
    # propagate's closed form for a plane wave with distinct p_i against the
    # engine, on a window and on the neighbours of one far point
    params, p, far = case
    k = params.k
    points = set(window(k, 2)) | {far} | {
        far[:i] + (far[i] + s,) + far[i + 1 :] for i in range(k) for s in (-1, 1)
    }
    scale, values, _ = propagate_many(QWordEngine(plane_wave(p), params), descents(points, params))
    G = propagate(plane_wave(p), params)
    for x in points:
        value = G(x)
        assert isinstance(value, Fraction)
        assert value == Fraction(values[x], scale)


def test_closed_form_holds_each_word_suffix_once():
    # the closed form keeps its combinations in a trie of word suffixes: after
    # reads at a window and at far points it holds one node per distinct suffix
    # of the words read (the empty word included), and rereading adds none
    params = Params(3, 2, Fraction(1, 2), Fraction(2))
    G = propagate(plane_wave((2, Fraction(1, 3), -5)), params).__wrapped__
    (root,) = [cell.cell_contents for cell in G.__closure__
               if isinstance(cell.cell_contents, tuple)]

    def nodes(node):
        return 1 + sum(map(nodes, node[1].values()))

    points = list(window(3, 2)) + [(8, 0, -8), (7, 0, -8), (-8, 0, 8)]
    suffixes = set()
    for x in points:
        G(x)
        word = weyl.shortest_element(x, params)[1]
        suffixes.update(word[d:] for d in range(len(word) + 1))
    assert max(map(len, suffixes)) > 15
    assert nodes(root) == len(suffixes)
    for x in points:
        G(x)
    assert nodes(root) == len(suffixes)


@pytest.mark.parametrize("L,x", [(1, (9, 3, -3, -9)), (2, (6, 3, 0, -3, -6))])
def test_closed_form_theorem_at_far_points_for_k_4_and_5(monkeypatch, L, x):
    # at k = 5 a trie node holds up to 5! = 120 waves: H G(g_p) = (sum p) G(g_p)
    # exactly at a far point, G(g_p) = g_p at the dominant point of its orbit,
    # and G builds each wave g_{sigma p} it reads once
    built = []

    class SpyWave(propagation.PlaneWave):
        def __init__(self, p):
            super().__init__(p)
            built.append(self.p)

    monkeypatch.setattr(propagation, "PlaneWave", SpyWave)
    k = len(x)
    params = Params(k, L, Fraction(-2, 3), Fraction(5, 4))
    p = (2, Fraction(-3, 4), 5, Fraction(1, 3), Fraction(-7, 2))[:k]
    g = SpyWave(p)
    built.clear()
    G = propagate(g, params)
    (_, y), word = weyl.shortest_element(x, params)
    assert len(word) > 20
    assert G(y) == g(y)
    assert apply_H(G, x, params) == sum(p) * G(x)
    assert sorted(built) == sorted(itertools.permutations(p))


def test_propagate_chooses_the_closed_form_for_distinct_plane_waves(monkeypatch):
    # a plane wave with pairwise distinct p_i builds no engine; a plane wave
    # wrapped in a lattice function, which gives the closed form's values, and
    # a repeated p_i, where the k! waves do not span a closed module, build
    # one engine each
    built = []

    class SpyEngine(QWordEngine):
        def __init__(self, f, params):
            built.append(f)
            super().__init__(f, params)

    monkeypatch.setattr(propagation, "QWordEngine", SpyEngine)
    params = Params(3, 2, Fraction(-1, 3), Fraction(2, 5))
    points = list(window(3, 1)) + [(6, 0, -6), (5, 0, -6)]
    distinct = plane_wave((Fraction(2, 3), -2, Fraction(7, 5)))
    G = propagate(distinct, params)
    closed = [G(x) for x in points]
    assert built == []

    wrapped = cache(distinct)
    G = propagate(wrapped, params)
    assert [G(x) for x in points] == closed
    assert built == [wrapped]

    repeated = plane_wave((Fraction(2, 3), -2, Fraction(2, 3)))
    G = propagate(repeated, params)
    assert all(isinstance(G(x), Fraction) for x in points)
    assert built == [wrapped, repeated]


@pytest.mark.parametrize(
    "alpha,beta", [(0.5, Fraction(2)), (Fraction(1, 2), 2.0), (Fraction(1, 2), complex(2, 1))]
)
def test_propagate_rejects_inexact_couplings_at_the_call(alpha, beta):
    # on every path the engine's TypeError comes at the propagate call, not at
    # the first read
    params = Params(2, 2, alpha, beta)
    for f in [plane_wave((2, Fraction(1, 3))), plane_wave((2, 2)), random_rational_function("c")]:
        with pytest.raises(TypeError, match="needs a rational"):
            propagate(f, params)


def test_propagate_rejects_a_plane_wave_of_the_wrong_length():
    # before either path runs: the closed form would read a 3-entry wave as a
    # 2-particle one, and a 1-entry wave has no second slot to swap
    params = Params(2, 2, Fraction(1, 2), Fraction(3))
    for p in [(2, 3, 5), (2,), (2, 2, 3)]:
        with pytest.raises(ValueError, match="^plane wave length %d is not k = 2$" % len(p)):
            propagate(plane_wave(p), params)
