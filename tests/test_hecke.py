"""Integral-reflection operators and their Hecke relations."""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    chain_word,
    descents,
    layer_sizes,
    rand_distinct_fractions,
    rand_params_pair,
    window,
    word_values,
)
from hecke_bose import weyl
from hecke_bose.hamiltonian import apply_H
from hecke_bose.hecke import QWordEngine, apply_Q, apply_Qw
from hecke_bose.laurent import LaurentPolynomial, apply_T_check, pairing
from hecke_bose.propagation import plane_wave, propagate, propagate_many
from hecke_bose.verify import random_rational_function
from hecke_bose.weyl import Params


def _params(k, L, seed):
    alpha, beta = rand_params_pair(random.Random(seed))
    return Params(k, L, alpha, beta)


def test_Q_fixed_on_wall():
    params = _params(2, 2, "wall")
    f = random_rational_function("wall")
    q = apply_Q(1, f, params)
    for x in window(2, 3):
        if x[0] == x[1]:
            assert q(x) == f(x)


def test_Q_single_step_example():
    params = Params(2, 2, Fraction(-1, 3), Fraction(2, 5))
    f = random_rational_function("step")
    q = apply_Q(1, f, params)
    expected = f((0, 1)) + params.alpha * f((1, 1)) + (1 - params.beta) * f((1, 0))
    assert q((1, 0)) == expected


def test_Q_index_bounds():
    params = Params(2, 2, Fraction(0), Fraction(1))
    f = random_rational_function("idx")
    with pytest.raises(ValueError):
        apply_Q(0, f, params)
    with pytest.raises(ValueError):
        apply_Q(2, f, params)
    with pytest.raises(ValueError):
        apply_Qw((1, 2), f, params)


# far points, with |a_i(x)| >= 50 of both signs for each i, reach the late
# steps of the telescoped sums that a window near the origin does not
FAR_POINTS = {
    2: [(60, 0), (-3, 57)],
    3: [(60, 0, 1), (0, 60, -1), (-3, 57, 2), (1, 2, -55)],
}


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (3, 3)])
def test_duality_with_divided_difference(k, L):
    params = _params(k, L, "dual-%d-%d" % (k, L))
    f = random_rational_function("dual-%d-%d" % (k, L))
    for i in range(1, k):
        q = apply_Q(i, f, params)
        for x in [*window(k, 2), *FAR_POINTS[k]]:
            assert q(x) == pairing(f, apply_T_check(i, LaurentPolynomial.monomial(x), params))


def _explicit_Q(i, f, params):
    """The n-term sum of the apply_Q docstring, one point at a time, used
    only as an oracle against the telescoped line sums."""
    alpha, beta = params.alpha, params.beta
    a, b = i - 1, i

    def ev(x):
        n = x[a] - x[b]
        if n == 0:
            return f(x)
        sx = list(x)
        sx[a], sx[b] = sx[b], sx[a]
        total = f(tuple(sx))
        sign, js = (1, range(1, n + 1)) if n > 0 else (-1, range(0, n, -1))
        for j in js:
            y = list(sx)
            y[a] += j
            y[b] -= j
            y2 = list(y)
            y2[b] += 1
            total += sign * (alpha * f(tuple(y2)) + (1 - beta) * f(tuple(y)))
        return total

    return cache(ev)


def _line_points(k, i, rest, sums, reach):
    """Points with a_i(x) = n for |n| <= reach on the lines x_i + x_{i+1} = s."""
    out = []
    for s in sums:
        for n in range(-reach, reach + 1):
            if (s + n) % 2 == 0:
                x = list(rest)
                x[i - 1 : i - 1] = [(s + n) // 2, (s - n) // 2]
                out.append(tuple(x))
    return out


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "alpha,beta",
    [
        (Fraction(-2, 3), Fraction(5, 4)),
        (Fraction(0), Fraction(7, 2)),
        (Fraction(3, 5), Fraction(1)),
        (Fraction(0), Fraction(1)),
    ],
)
def test_Q_line_sums_match_n_term_sum(k, alpha, beta):
    params = Params(k, 2, alpha, beta)
    rng = random.Random("lines-%d-%s-%s" % (k, alpha, beta))
    for i in range(1, k):
        f = random_rational_function("lines-%d-%d-%s-%s" % (k, i, alpha, beta))
        oracle = _explicit_Q(i, f, params)
        rests = [()] if k == 2 else [(0,), (-3,)]
        for rest in rests:
            # |a_i(x)| up to 40 on an even and an odd line, including n = -1, 0, 1
            points = _line_points(k, i, rest, (0, 7, -5), 41)
            assert {x[i - 1] - x[i] for x in points} >= set(range(-40, 41))
            # one point at a time, in an order that grows each line both ways
            rng.shuffle(points)
            q = apply_Q(i, f, params)
            for x in points:
                assert q(x) == oracle(x)
            # and all at once, so that one evaluation extends each line
            assert word_values(QWordEngine(f, params), (i,), points) == [oracle(x) for x in points]


def _explicit_Q0(f, params):
    """Standalone three-case formula for Q_0, used only as an oracle against
    the conjugation definition."""
    k, L = params.k, params.L
    alpha, beta = params.alpha, params.beta

    def ev(x):
        n = x[k - 1] - x[0] + L
        if n == 0:
            return f(x)
        sx = list(x)
        sx[0], sx[k - 1] = sx[k - 1] + L, sx[0] - L
        total = f(tuple(sx))
        if n > 0:
            for j in range(1, n + 1):
                y = list(sx)
                y[k - 1] += j
                y[0] -= j
                y2 = list(y)
                y2[0] += 1
                total += alpha * f(tuple(y2)) + (1 - beta) * f(tuple(y))
        else:
            for j in range(-n):
                y = list(sx)
                y[k - 1] -= j
                y[0] += j
                y2 = list(y)
                y2[0] += 1
                total -= alpha * f(tuple(y2)) + (1 - beta) * f(tuple(y))
        return total

    return cache(ev)


def _explicit_word(word, f, params):
    """Q_word f from the n-term oracles, one letter at a time."""
    for letter in reversed(word):
        f = _explicit_Q0(f, params) if letter == 0 else _explicit_Q(letter, f, params)
    return f


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize(
    "alpha,beta",
    [
        (Fraction(-2, 3), Fraction(5, 4)),
        (Fraction(0), Fraction(7, 2)),
        (Fraction(3, 5), Fraction(1)),
        (Fraction(0), Fraction(1)),
    ],
)
def test_engine_words_match_n_term_oracle(k, alpha, beta):
    # every letter, Q_0 included, alone and in two-letter words, through one
    # engine; k = 4, on window 1 to stay small, is the first k with a letter
    # (2) that has coordinates on both sides of its root, where a layer's
    # swap or line key would go wrong first
    params = Params(k, 2, alpha, beta)
    f = random_rational_function("words-%d-%s-%s" % (k, alpha, beta))
    engine = QWordEngine(f, params)
    points = list(window(k, 2 if k < 4 else 1))
    words = [(i,) for i in range(k)] + [(i, j) for i in range(k) for j in range(k)]
    for word in words:
        oracle = _explicit_word(word, f, params)
        assert word_values(engine, word, points) == [oracle(x) for x in points]


def test_engine_packs_points_beyond_24_bit_fields_without_aliasing():
    # inside the engine a point is one int with a field per slot, as wide as
    # the walk needs; every point here has a coordinate outside a fixed
    # field of 24 bits (-2^23 .. 2^23 - 1).  In each pair below the two line keys' sums
    # z_a + z_b are 2^25 apart and the coordinates of the slot above differ
    # by 1, so a field one bit narrower than the width rule asks for carries
    # the one key into the other and the two lines share their sums
    params = Params(3, 2, Fraction(1, 2), Fraction(3))
    f = random_rational_function("packed")
    n = 2**23
    cases = [
        ((1,), [(n + 5, n + 3, n + 4)]),
        ((2,), [(0, n + 5, n + 3), (1, -n + 5, -n + 3)]),
        ((0,), [(n + 5, 0, n + 1), (-n + 3, 1, -n + 3)]),
    ]
    for word, points in cases:
        oracle = _explicit_word(word, f, params)
        assert word_values(QWordEngine(f, params), word, points) == [oracle(x) for x in points]


def test_engine_at_h_zero_reflects_points_by_L_of_10_to_the_8():
    # at alpha = 0 and beta = 1 every term of h vanishes and Q_w f(x) reads f
    # at s_{w[-1]} ... s_{w[0]} x: the letter 0 moves coordinates by L, so
    # the fields must hold a few times 10^8
    params = Params(3, 10**8, 0, 1)
    f = random_rational_function("packed-h0")
    engine = QWordEngine(f, params)
    points = list(window(3, 1))
    for word in [(0,), (1, 0), (0, 2), (2, 0, 1), (0, 1, 0, 2)]:
        expected = []
        for x in points:
            for letter in word:
                x = weyl.simple_reflection(letter, x, params.L)
            expected.append(f(x))
        assert word_values(engine, word, points) == expected


def test_engine_repacks_its_tables_when_a_walk_needs_wider_fields():
    # the walk at the far points needs wider fields than the walk before it
    # had: the engine repacks f's table and the layer of (1,) that it holds,
    # so reading (0, 1) at the near points again reads f at no point twice,
    # enters no point twice and gives the oracle; an engine that read the far
    # points first, at their width, ends with the same tables
    params = Params(3, 2, Fraction(-2, 3), Fraction(5, 4))
    near, far = list(window(3, 1)), [(40, -37, 3), (-38, 35, 1)]
    oracle = _explicit_word((0, 1), cache(_far_denominators("repack")), params)
    tables = []
    for reads in [[((0, 1), near), ((1,), far), ((0, 1), near)], [((1,), far), ((0, 1), near)]]:
        counted = Counter()
        engine = QWordEngine(_far_denominators("repack", counted), params)
        for word, points in reads:
            values = word_values(engine, word, points)
        assert values == [oracle(x) for x in near]
        assert set(counted.values()) == {1}
        tables.append([len(engine._base)] + [layer_sizes(layer) for layer in engine._chain])
    assert tables[0] == tables[1]


def _plane_waves(p):
    """The plane wave g_p as a sum {q: coefficient} of plane waves
    g_q(x) = prod_j q_j^{-x_j}.  Its Q-images stay in the span of the g_q
    with q a permutation of p, which is closed only for distinct p_i."""
    p = tuple(Fraction(v) for v in p)
    if len(set(p)) < len(p):
        raise ValueError("the plane-wave Q-module needs distinct p_i, got %s" % (p,))
    return {p: Fraction(1)}


def _plane_wave_Q(i, waves, params):
    """Q_i, 1 <= i < k, on a sum of plane waves, in closed form: the n-term sum
    is geometric, so with r = q_{i+1}/q_i, c = alpha/q_{i+1} + 1 - beta and
    t = c r/(r - 1), Q_i g_q = (1 - t) g_{s_i q} + t g_q for every sign of a_i(x)."""
    out = {}
    for q, coeff in waves.items():
        a, b = q[i - 1], q[i]
        r = b / a
        t = (params.alpha / b + 1 - params.beta) * r / (r - 1)
        swapped = q[: i - 1] + (b, a) + q[i + 1 :]
        out[swapped] = out.get(swapped, 0) + coeff * (1 - t)
        out[q] = out.get(q, 0) + coeff * t
    return out


def _plane_wave_Q0(waves, params):
    """Q_0 f = (Q_1 (f o pi^{-1})) o pi, through g_q o pi^{-1} =
    q_k^L g_{(q_k, q_1, ..., q_{k-1})} and g_q o pi = q_1^{-L} g_{(q_2, ..., q_k, q_1)}."""
    L = params.L
    pulled = {q[-1:] + q[:-1]: c * q[-1] ** L for q, c in waves.items()}
    return {q[1:] + q[:1]: c * q[0] ** -L for q, c in _plane_wave_Q(1, pulled, params).items()}


def _plane_wave_word(word, waves, params):
    for letter in reversed(word):
        if letter == 0:
            waves = _plane_wave_Q0(waves, params)
        else:
            waves = _plane_wave_Q(letter, waves, params)
    return waves


def _plane_wave_value(waves, x):
    total = 0
    for q, coeff in waves.items():
        for qj, xj in zip(q, x):
            coeff *= qj ** -xj
        total += coeff
    return total


def _plane_wave_G(p, x, params):
    """G(g_p)(x) = (Q_{w_x} g_p)(w_x x) through the closed form: O(|w_x| k!)
    rationals, however far x lies from the dominant chamber."""
    waves = _plane_waves(p)
    (_, wx), word = weyl.shortest_element(x, params)
    return _plane_wave_value(_plane_wave_word(word, waves, params), wx)


@pytest.mark.parametrize("k,L", [(2, 1), (3, 2), (4, 3)])
def test_engine_matches_plane_wave_closed_form(k, L):
    params = _params(k, L, "waves-%d-%d" % (k, L))
    p = rand_distinct_fractions(random.Random("waves-%d-%d" % (k, L)), k)
    engine = QWordEngine(plane_wave(p), params)
    points = list(window(k, 2))
    for word in [(i,) for i in range(k)] + [(0, 1), (1, 0), (k - 1, 0, 1)]:
        waves = _plane_wave_word(word, _plane_waves(p), params)
        assert word_values(engine, word, points) == [_plane_wave_value(waves, x) for x in points]


@pytest.mark.parametrize(
    "k,L,x",
    [(2, 1, (40, -40)), (3, 2, (8, 0, -8)), (4, 3, (8, 2, -2, -8))],
)
def test_propagate_matches_plane_wave_oracle_far_out(k, L, x):
    # propagate takes a plane wave with distinct p_i in closed form, so the
    # oracle is also compared with the engine, which propagate does not run here
    params = Params(k, L, Fraction(1, 2), Fraction(2))
    p = rand_distinct_fractions(random.Random("far-waves-%d" % k), k)
    oracle = _plane_wave_G(p, x, params)
    assert propagate(plane_wave(p), params)(x) == oracle
    scale, values, _ = propagate_many(QWordEngine(plane_wave(p), params), descents((x,), params))
    assert Fraction(values[x], scale) == oracle


def test_theorem_through_plane_wave_oracle_at_1000():
    # H G(g_p) = (sum p) G(g_p) exactly at a point whose reduced word has
    # 1999 letters, out of the engine's reach in tier-1 time: propagate's
    # closed form against the oracle there
    params = Params(2, 1, Fraction(1, 2), Fraction(2))
    p = rand_distinct_fractions(random.Random("far-theorem"), 2)
    G = propagate(plane_wave(p), params)
    x = (1000, -1000)
    assert apply_H(G, x, params) == sum(p) * G(x)
    assert G(x) == _plane_wave_G(p, x, params)


def test_plane_wave_oracle_rejects_repeated_p():
    params = Params(3, 2, Fraction(1, 2), Fraction(2))
    with pytest.raises(ValueError):
        _plane_wave_G((Fraction(2), Fraction(1, 3), Fraction(2)), (0, 0, 0), params)


def _far_denominators(seed, reads=None):
    """A rational lattice function whose denominators grow with max_j |x_j|,
    counting its evaluations per point in ``reads`` when given."""
    base = random_rational_function(seed)

    def ev(x):
        if reads is not None:
            reads[x] += 1
        return base(x) / (1 + max(abs(c) for c in x))

    return ev


@pytest.mark.parametrize("word", [(1,), (0, 1), (1, 0, 1)])
def test_engine_rescales_when_new_denominators_arrive(word):
    params = Params(2, 2, Fraction(-2, 3), Fraction(5, 4))
    reads = Counter()
    engine = QWordEngine(_far_denominators("rescale", reads), params)
    plain = cache(_far_denominators("rescale"))
    oracle = _explicit_word(word, plain, params)
    near = list(window(2, 1))
    far = [(9, -8), (-7, 10), (12, 3)]

    assert word_values(engine, word, near) == [oracle(x) for x in near]
    scale = math.lcm(*(plain(x).denominator for x in reads))
    first = set(reads)
    assert word_values(engine, word, far) == [oracle(x) for x in far]
    # the far points bring denominators the first read had not seen
    assert any(scale % plain(x).denominator for x in reads if x not in first)
    assert word_values(QWordEngine(plain, params), word, far) == [oracle(x) for x in far]
    # values stored before the rescale still read correctly, and f is read
    # once per point across both batches
    assert word_values(engine, word, near + far) == [oracle(x) for x in near + far]
    assert set(reads.values()) == {1}


def test_engine_rescales_every_layer_of_the_table():
    # (0, 1) shares its suffix (1,) with the third word, whose far reads
    # rescale the layer of (1,) the engine still holds, and f's own table,
    # which the empty word reads
    params = Params(2, 2, Fraction(-2, 3), Fraction(5, 4))
    reads = Counter()
    engine = QWordEngine(_far_denominators("table", reads), params)
    plain = cache(_far_denominators("table"))
    near = list(window(2, 1))
    words = [(1, 0), (0, 1)]
    for word in words:
        word_values(engine, word, near)
    scale = math.lcm(*(plain(x).denominator for x in reads))
    first = set(reads)
    word_values(engine, (1,), [(9, -8), (-7, 10)])
    assert any(scale % plain(x).denominator for x in reads if x not in first)
    fresh = QWordEngine(plain, params)
    for word in [(1,), (0, 1), (1, 0), (0,), ()]:  # the held layer of (1,) first
        assert word_values(engine, word, near) == word_values(fresh, word, near)


def test_engine_hands_out_ints_of_several_words_at_one_scale():
    # one request mixes words of lengths 0, 1 and 2, and the far reads of the
    # longest bring denominators the others' reads did not: the shorter words
    # are read before S grows, and still all come out at one T = S * D^2,
    # with S the lcm of the denominators read
    params = Params(2, 2, Fraction(-2, 3), Fraction(5, 4))
    D = 12  # the lcm of the denominators of alpha = -2/3 and 1 - beta = -1/4
    plain = cache(_far_denominators("ints"))
    near = list(window(2, 1))
    far = [(9, -8), (-7, 10), (12, 3)]
    requests = [((), near), ((1,), near), ((0, 1), far)]
    alone = Counter()
    QWordEngine(_far_denominators("ints", alone), params).walk(requests[:2])
    first_scale = math.lcm(*(plain(x).denominator for x in alone))

    reads = Counter()
    engine = QWordEngine(_far_denominators("ints", reads), params)
    scale, columns = engine.walk(requests)
    S = math.lcm(*(plain(x).denominator for x in reads))
    assert S != first_scale
    assert scale == S * D**2
    for (word, points), column in zip(requests, columns):
        oracle = _explicit_word(word, plain, params)
        assert column == [oracle(x) * scale for x in points]
    assert engine.walk([]) == (S, [])
    assert set(reads.values()) == {1}


def test_walk_hands_out_the_oracle_at_one_scale_and_holds_the_last_chain():
    # the walk reads (), (1,), (0, 1) and (1, 0, 1) in that order, suffix-trie
    # order, and the far reads of (0, 1) bring denominators after () and (1,)
    # were read: their ints still come out at the one final scale
    # T = S * D^3 with those of the longer words, each the n-term oracle
    # times T and what a one-word walk reads on a fresh engine, and the engine
    # holds exactly the chain of the last word it read
    params = Params(2, 2, Fraction(-2, 3), Fraction(5, 4))
    D = 12  # the lcm of the denominators of alpha = -2/3 and 1 - beta = -1/4
    near = list(window(2, 1))
    far = [(9, -8), (-7, 10), (12, 3)]
    requests = [((0, 1), far), ((), near), ((1,), near), ((1, 0, 1), near), ((0, 1), near[:4])]
    f = _far_denominators("walk")
    plain = cache(f)
    engine = QWordEngine(f, params)
    scale, columns = engine.walk(requests)
    for (word, points), column in zip(requests, columns):
        oracle = _explicit_word(word, plain, params)
        assert column == [oracle(x) * scale for x in points]
        fresh = QWordEngine(f, params)
        assert [Fraction(v, scale) for v in column] == word_values(fresh, word, points)
    assert chain_word(engine) == (1, 0, 1)
    first = QWordEngine(f, params).walk([((), near), ((1,), near)])[0]  # S * D
    assert scale != first * D**2  # S grew after () and (1,) were read
    assert engine.walk([]) == (scale // D**3, [])


_SEQUENCE_PARAMS = Params(3, 2, Fraction(-2, 3), Fraction(5, 4))
_sequence_f = cache(_far_denominators("sequence"))


@cache
def _sequence_oracle(word):
    return _explicit_word(word, _sequence_f, _SEQUENCE_PARAMS)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_sequence_of_walks_on_one_engine_matches_the_oracle(data):
    # walk n asks words of 0-4 letters at points of radius n + 1, whose
    # denominators the walks before had not seen, so S grows while the
    # engine holds a chain that later words share: every column is the n-term
    # oracle at the walk's scale, and the chain spells the word read last
    engine = QWordEngine(_far_denominators("sequence"), _SEQUENCE_PARAMS)
    word = st.lists(st.integers(0, 2), max_size=4).map(tuple)
    for n in range(data.draw(st.integers(1, 5))):
        point = st.tuples(*[st.integers(-n - 1, n + 1)] * 3)
        request = st.tuples(word, st.lists(point, min_size=1, max_size=3))
        requests = data.draw(st.lists(request, min_size=1, max_size=3))
        scale, columns = engine.walk(requests)
        for (asked, points), column in zip(requests, columns):
            assert column == [_sequence_oracle(asked)(x) * scale for x in points]
        assert chain_word(engine) == max((asked for asked, _ in requests), key=lambda w: w[::-1])


@pytest.mark.parametrize("x", [(1, 2, 5), (1,)])
def test_apply_Qw_rejects_a_point_of_another_length(x):
    # the engine read (1, 2, 5) at k = 2 as (1, 2), so Q_1 returned -11/15,
    # and (1,) ended in IndexError
    params = Params(2, 2, Fraction(1, 2), Fraction(2))
    f = random_rational_function(1)
    for Qw in [apply_Q(1, f, params), apply_Qw((0, 1), f, params)]:
        with pytest.raises(ValueError) as raised:
            Qw(x)
        assert str(raised.value) == "point %r does not have k = 2 coordinates" % (x,)


@pytest.mark.parametrize("x", [(1.0, 1.0), (1.5, 0), (1, Fraction(2))])
def test_apply_Qw_rejects_a_point_with_a_coordinate_that_is_not_an_int(x):
    # the engine packs points into ints, and a float does not pack; before
    # the engine packed points, (1.0, 1.0), a wall point, read f there, and
    # (1.5, 0) ended in a TypeError from range()
    params = Params(2, 2, Fraction(1, 2), Fraction(2))
    f = random_rational_function(1)
    for Qw in [apply_Q(1, f, params), apply_Qw((0, 1), f, params)]:
        with pytest.raises(TypeError) as raised:
            Qw(x)
        assert str(raised.value) == "point %r has a coordinate that is not an int" % (x,)


def test_engine_evaluates_each_distinct_word_once(monkeypatch):
    # requests that repeat a word over overlapping points, one of them twice,
    # and ask the empty word: the engine evaluates each distinct word once,
    # over the union of its points, and still answers request by request
    params = Params(3, 2, Fraction(-2, 3), Fraction(5, 4))
    near = list(window(3, 1))
    requests = [
        ((1, 0), near[:15]),
        ((), near[5:9]),
        ((2,), [(3, -4, 1), (0, 0, 0)]),
        ((1, 0), near[10:] + [(3, -4, 1)]),
        ((), [(0, 0, 0), (0, 0, 0)]),
        ((1, 0), [near[12], near[12]]),
    ]
    evaluated = Counter()
    evaluate = QWordEngine._evaluate

    def counting(self, word, points):
        evaluated[word] += 1
        return evaluate(self, word, points)

    monkeypatch.setattr(QWordEngine, "_evaluate", counting)
    f = _far_denominators("grouped")
    scale, columns = QWordEngine(f, params).walk(requests)
    assert evaluated == {(1, 0): 1, (): 1, (2,): 1}
    assert len(columns) == len(requests)
    for (word, points), column in zip(requests, columns):
        fresh = QWordEngine(f, params)
        assert [Fraction(v, scale) for v in column] == word_values(fresh, word, points)


def test_one_point_reads_walk_once_per_new_point(monkeypatch):
    # apply_Q, apply_Qw and propagate's general branch read each new point as
    # one walk of their one engine and a memo hit as none, and the engine
    # evaluates a word only inside a walk
    walks, depth, outside = [], [], []
    walk, evaluate = QWordEngine.walk, QWordEngine._evaluate

    def walking(self, requests):
        walks.append(self)
        depth.append(self)
        try:
            return walk(self, requests)
        finally:
            depth.pop()

    def evaluating(self, word, points):
        if not depth:
            outside.append(word)
        return evaluate(self, word, points)

    monkeypatch.setattr(QWordEngine, "walk", walking)
    monkeypatch.setattr(QWordEngine, "_evaluate", evaluating)
    params = Params(3, 2, Fraction(-2, 3), Fraction(5, 4))
    f = random_rational_function("one-read")
    points = list(window(3, 1)) + [(6, 0, -6)]
    for read in [apply_Q(2, f, params), apply_Qw((0, 2, 1), f, params), propagate(f, params)]:
        walks.clear()
        for _ in range(2):
            for x in points:
                read(x)
        assert len(walks) == len(points)
        assert len(set(map(id, walks))) == 1
    assert outside == []


@pytest.mark.parametrize(
    "alpha,beta,expected",
    [
        (Fraction(-2, 3), Fraction(5, 4), (12, -8, -3)),
        (Fraction(1, 3), Fraction(2, 7), (21, 7, 15)),
        (-2, 3, (1, -2, -2)),
        (Fraction(0), Fraction(3, 4), (4, 0, 1)),
        (Fraction(-5, 6), Fraction(1), (6, -5, 0)),
        (0, 1, (1, 0, 0)),
    ],
)
def test_engine_couplings_are_D_D_alpha_and_D_one_minus_beta(alpha, beta, expected):
    # D is the lcm of the denominators of alpha and beta; a zero coupling
    # adds no term to the sums the layers build
    engine = QWordEngine(random_rational_function("couplings"), Params(3, 2, alpha, beta))
    unit = math.lcm(Fraction(alpha).denominator, Fraction(beta).denominator)
    assert engine.couplings == (unit, unit * alpha, unit * (1 - beta)) == expected
    assert all(type(c) is int for c in engine.couplings)
    _, a, c = engine.couplings
    assert engine._terms == [(v, shift) for v, shift in [(a, 1), (c, 0)] if v]
    # and the terms it keeps give Q_i as the n-term oracle does
    oracle = _explicit_Q(1, engine.f, engine.params)
    points = list(window(3, 2))
    assert word_values(engine, (1,), points) == [oracle(x) for x in points]


@pytest.mark.parametrize(
    "alpha,beta,value",
    [
        (0.5, Fraction(2), Fraction(1, 3)),
        (Fraction(1, 2), complex(2, 1), Fraction(1, 3)),
        (Fraction(1, 2), Fraction(2), 0.25),
        (Fraction(1, 2), Fraction(2), 1j),
    ],
)
def test_engine_rejects_inexact_input(alpha, beta, value):
    params = Params(2, 2, alpha, beta)
    for word in [(), (1,), (0, 1)]:
        with pytest.raises(TypeError):
            word_values(QWordEngine(lambda x: value, params), word, [(2, -1)])


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (2, 1), (4, 3), (3, 5)])
def test_Q0_conjugation_matches_explicit_formula(k, L):
    params = _params(k, L, "q0-%d-%d" % (k, L))
    f = random_rational_function("q0-%d-%d" % (k, L))
    q0 = apply_Qw((0,), f, params)
    oracle = _explicit_Q0(f, params)
    for x in window(k, 4):
        assert q0(x) == oracle(x)


def test_Q0_fixed_on_affine_wall():
    params = _params(2, 2, "q0wall")
    f = random_rational_function("q0wall")
    q0 = apply_Qw((0,), f, params)
    for x in window(2, 4):
        if x[1] - x[0] + 2 == 0:  # a_0(x) = 0
            assert q0(x) == f(x)


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (3, 3)])
def test_quadratic_relations(k, L):
    params = _params(k, L, "quad-%d-%d" % (k, L))
    beta = params.beta
    f = random_rational_function("quad-%d-%d" % (k, L))
    for i in range(k):
        g = apply_Qw((i,), f, params)
        h = apply_Qw((i,), g, params)
        for x in window(k, 2):
            assert h(x) + (beta - 1) * g(x) - beta * f(x) == 0


@pytest.mark.parametrize("k", [3, 4])
def test_braid_relations(k):
    params = _params(k, 2, "braid-%d" % k)
    f = random_rational_function("braid-%d" % k)
    for i in range(k):
        j = (i + 1) % k
        lhs = apply_Qw((i,), apply_Qw((j,), apply_Qw((i,), f, params), params), params)
        rhs = apply_Qw((j,), apply_Qw((i,), apply_Qw((j,), f, params), params), params)
        for x in window(k, 2):
            assert lhs(x) == rhs(x)


def test_commutation_distant_indices():
    params = _params(4, 2, "comm")
    f = random_rational_function("comm")
    lhs = apply_Q(1, apply_Q(3, f, params), params)
    rhs = apply_Q(3, apply_Q(1, f, params), params)
    for x in window(4, 2):
        assert lhs(x) == rhs(x)


def test_Qw_empty_and_single():
    params = _params(2, 2, "qw")
    f = random_rational_function("qw")
    assert apply_Qw((), f, params) is f
    single = apply_Qw((1,), f, params)
    direct = apply_Q(1, f, params)
    for x in window(2, 3):
        assert single(x) == direct(x)


def test_Qw_reduced_word_independence():
    params = _params(3, 2, "qw-braid")
    f = random_rational_function("qw-braid")
    a = apply_Qw((1, 2, 1), f, params)
    b = apply_Qw((2, 1, 2), f, params)
    for x in window(3, 3):
        assert a(x) == b(x)


def _shift(f, slot):
    def ev(x):
        y = list(x)
        y[slot] -= 1
        return f(tuple(y))

    return cache(ev)


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (3, 3)])
def test_shift_commutation_relation(k, L):
    # t_{v_{j+1}} Q_j = Q_j t_{v_j} + alpha + (1-beta) t_{v_{j+1}}
    params = _params(k, L, "tQ-%d-%d" % (k, L))
    alpha, beta = params.alpha, params.beta
    f = random_rational_function("tQ-%d-%d" % (k, L))
    for j in range(1, k):
        qf = apply_Q(j, f, params)
        q_shifted = apply_Q(j, _shift(f, j - 1), params)
        for x in window(k, 3):
            y = list(x)
            y[j] -= 1
            lhs = qf(tuple(y))
            rhs = q_shifted(x) + alpha * f(x) + (1 - beta) * f(tuple(y))
            assert lhs == rhs
        for jp in range(1, k + 1):
            if jp in (j, j + 1):
                continue
            q_other = apply_Q(j, _shift(f, jp - 1), params)
            for x in window(k, 2):
                y = list(x)
                y[jp - 1] -= 1
                assert qf(tuple(y)) == q_other(x)


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2)])
def test_laplacian_commutes_with_Qw(k, L):
    params = _params(k, L, "lap-%d-%d" % (k, L))
    f = random_rational_function("lap-%d-%d" % (k, L))

    def laplacian(g):
        def ev(x):
            total = 0
            for i in range(k):
                y = list(x)
                y[i] -= 1
                total += g(tuple(y))
            return total

        return cache(ev)

    for word in [(1,), (0,), (0, 1), (1, 0, 1)]:
        if k == 2 and max(word) > 1:
            continue
        lhs = laplacian(apply_Qw(word, f, params))
        rhs = apply_Qw(word, laplacian(f), params)
        for x in window(k, 2):
            assert lhs(x) == rhs(x)
