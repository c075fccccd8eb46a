"""Integral-reflection operators and their Hecke relations."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import rand_params_pair, window
from hecke_bose import weyl
from hecke_bose.functions import LatticeFunction, random_rational_function
from hecke_bose.hecke import QWordEngine, _rotate, _unrotate, apply_Q, apply_Q0, apply_Q_letter, apply_Qw
from hecke_bose.laurent import LaurentPolynomial, apply_T_check, pairing
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
    params = Params(2, 2)
    f = random_rational_function("idx")
    with pytest.raises(ValueError):
        apply_Q(0, f, params)
    with pytest.raises(ValueError):
        apply_Q(2, f, params)


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (3, 3)])
def test_duality_with_divided_difference(k, L):
    params = _params(k, L, "dual-%d-%d" % (k, L))
    f = random_rational_function("dual-%d-%d" % (k, L))
    for i in range(1, k):
        q = apply_Q(i, f, params)
        for x in window(k, 2):
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

    return LatticeFunction(ev)


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
            assert QWordEngine(f, params).values((i,), points) == [oracle(x) for x in points]


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

    return LatticeFunction(ev)


def _explicit_word(word, f, params):
    """Q_word f from the n-term oracles, one letter at a time."""
    for letter in reversed(word):
        f = _explicit_Q0(f, params) if letter == 0 else _explicit_Q(letter, f, params)
    return f


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
def test_engine_words_match_n_term_oracle(k, alpha, beta):
    # every letter, Q_0 included, alone and in two-letter words, through one engine
    params = Params(k, 2, alpha, beta)
    f = random_rational_function("words-%d-%s-%s" % (k, alpha, beta))
    engine = QWordEngine(f, params)
    points = list(window(k, 2))
    words = [(i,) for i in range(k)] + [(i, j) for i in range(k) for j in range(k)]
    for word in words:
        oracle = _explicit_word(word, f, params)
        assert engine.values(word, points) == [oracle(x) for x in points]


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
    plain = LatticeFunction(_far_denominators("rescale"))
    oracle = _explicit_word(word, plain, params)
    near = list(window(2, 1))
    far = [(9, -8), (-7, 10), (12, 3)]

    assert engine.values(word, near) == [oracle(x) for x in near]
    scale = math.lcm(*(plain(x).denominator for x in reads))
    first = set(reads)
    assert engine.values(word, far) == [oracle(x) for x in far]
    # the far points bring denominators the first read had not seen
    assert any(scale % plain(x).denominator for x in reads if x not in first)
    assert QWordEngine(plain, params).values(word, far) == [oracle(x) for x in far]
    # values stored before the rescale still read correctly, and f is read
    # once per point across both batches
    assert engine.values(word, near + far) == [oracle(x) for x in near + far]
    assert set(reads.values()) == {1}


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
            QWordEngine(lambda x: value, params).values(word, [(2, -1)])


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2)])
def test_Q0_conjugation_matches_explicit_formula(k, L):
    params = _params(k, L, "q0-%d-%d" % (k, L))
    f = random_rational_function("q0-%d-%d" % (k, L))
    q0 = apply_Q0(f, params)
    oracle = _explicit_Q0(f, params)
    for x in window(k, 4):
        assert q0(x) == oracle(x)


def test_Q0_fixed_on_affine_wall():
    params = _params(2, 2, "q0wall")
    f = random_rational_function("q0wall")
    q0 = apply_Q0(f, params)
    for x in window(2, 4):
        if x[1] - x[0] + 2 == 0:  # a_0(x) = 0
            assert q0(x) == f(x)


@pytest.mark.parametrize("k,L", [(2, 2), (3, 2), (3, 3)])
def test_quadratic_relations(k, L):
    params = _params(k, L, "quad-%d-%d" % (k, L))
    beta = params.beta
    f = random_rational_function("quad-%d-%d" % (k, L))
    for i in range(k):
        g = apply_Q_letter(i, f, params)
        h = apply_Q_letter(i, g, params)
        for x in window(k, 2):
            assert h(x) + (beta - 1) * g(x) - beta * f(x) == 0


@pytest.mark.parametrize("k", [3, 4])
def test_braid_relations(k):
    params = _params(k, 2, "braid-%d" % k)
    f = random_rational_function("braid-%d" % k)
    for i in range(k):
        j = (i + 1) % k
        lhs = apply_Q_letter(i, apply_Q_letter(j, apply_Q_letter(i, f, params), params), params)
        rhs = apply_Q_letter(j, apply_Q_letter(i, apply_Q_letter(j, f, params), params), params)
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

    return LatticeFunction(ev)


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

        return LatticeFunction(ev)

    for word in [(1,), (0,), (0, 1), (1, 0, 1)]:
        if k == 2 and max(word) > 1:
            continue
        lhs = laplacian(apply_Qw(word, f, params))
        rhs = apply_Qw(word, laplacian(f), params)
        for x in window(k, 2):
            assert lhs(x) == rhs(x)


@pytest.mark.parametrize("k,L", [(2, 1), (3, 2), (4, 3), (3, 5)])
def test_sliced_rotation_is_pi(k, L):
    # the Q_0 layers rotate points by slicing; that must be the group's pi
    pi = weyl.pi_element(k, L)
    pi_inv = weyl.inverse(pi)
    rng = random.Random("rotation-%d-%d" % (k, L))
    for _ in range(200):
        x = tuple(rng.randint(-9, 9) for _ in range(k))
        assert _rotate(x, L) == weyl.act(pi, x)
        assert _unrotate(x, L) == weyl.act(pi_inv, x)
        assert _unrotate(_rotate(x, L), L) == x
