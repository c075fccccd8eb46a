"""The suite runner: one registry, and the bookkeeping every verify suite shares."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import LayerTable, act, layer_sizes, simple_reflection_element
import hecke_bose
from hecke_bose import bethe, hamiltonian, hecke, laurent, propagation, verify
from hecke_bose.weyl import Params, shortest_element


def test_suite_registry_order():
    assert verify.SUITES == (
        "hecke", "duality", "d-change", "w-invariance", "lemma-main", "theorem", "hl-identity",
    )
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nope", Params(2, 2, Fraction(0), Fraction(1)), 1, 0)


def test_run_suite_marks_a_run_without_checks_vacuous():
    # with k > L no point is regular, so w-invariance has nothing to check
    report = verify.run_suite("w-invariance", Params(3, 2, Fraction(0), Fraction(1)), 1, 0)
    assert report["checks_run"] == 0
    assert report["failures"] == []
    assert report["vacuous"] is True
    report = verify.run_suite("d-change", Params(2, 2, Fraction(0), Fraction(1)), 1, 0)
    assert "vacuous" not in report


def test_hecke_suite_names_a_corrupted_relation(monkeypatch):
    params = Params(3, 2, Fraction(-1, 3), Fraction(2, 5))
    clean = verify.run_suite("hecke", params, 1, 0)
    assert clean["failures"] == []
    # one wrong Q-word value, at the first window point
    _corrupt_one_value(monkeypatch, (0, 1, 0), (-1, -1, -1))
    report = verify.run_suite("hecke", params, 1, 0)
    assert report["checks_run"] == clean["checks_run"]
    assert report["failures"] == [
        {"x": [-1, -1, -1], "detail": "braid relation fails for (Q_0, Q_1)"}
    ]


def test_hecke_suite_holds_at_most_one_relation_beyond_the_letters(monkeypatch):
    # the suite's walk reads one word at a time and drops, after each, the
    # layers no later word reads: after a read the engine never holds more
    # than the single letters and the layers of the word it has read
    params = Params(4, 3, Fraction(-2, 3), Fraction(5, 4))
    letters = {(a,) for a in range(4)}
    evaluate = hecke.QWordEngine._evaluate
    reads = []  # per read: its engine and word, and the layers held when it starts

    def recording(self, word, points):
        reads.append((self, word, set(self._layers)))
        return evaluate(self, word, points)

    monkeypatch.setattr(hecke.QWordEngine, "_evaluate", recording)
    report = verify.run_suite("hecke", params, 1, 0)
    assert report["failures"] == []
    # the distinct words of the quadratic relations (Q_i^2, Q_i and the empty
    # word), the braids and the commutations
    assert len(reads) == 4 + 4 + 1 + 8 + 4
    (engine,) = {id(engine): engine for engine, _, _ in reads}.values()
    held = [layers for _, _, layers in reads[1:]] + [set(engine._layers)]
    for (_, word, _), layers in zip(reads, held):
        assert layers <= letters | {word[d:] for d in range(len(word))}


def test_duality_suite_holds_no_layer_between_its_reads(monkeypatch):
    # the suite's walk reads f, the empty word, then one letter at a time, and
    # drops each letter's layer after its read: the engine holds no layer
    # when a read starts, and none after the last
    params = Params(4, 3, Fraction(-2, 3), Fraction(5, 4))
    evaluate = hecke.QWordEngine._evaluate
    reads = []  # per read: its engine and word, and the layers held when it starts

    def recording(self, word, points):
        reads.append((self, word, set(self._layers)))
        return evaluate(self, word, points)

    monkeypatch.setattr(hecke.QWordEngine, "_evaluate", recording)
    report = verify.run_suite("duality", params, 2, 0)
    assert report["failures"] == []
    assert [word for _, word, _ in reads] == [(), (1,), (2,), (3,)]
    (engine,) = {id(engine): engine for engine, _, _ in reads}.values()
    assert [layers for _, _, layers in reads] == [set()] * 4
    assert engine._layers == {}


def test_duality_suite_names_where_the_pairing_reads_a_corrupted_f(monkeypatch):
    # f off by one whole unit of the read's scale at one point y, in the empty
    # word's column only (the Q_i f columns read the clean f): the pairing side
    # must fail at exactly the x whose T^check_i e^x has y in its support, for
    # each such i
    params = Params(3, 2, Fraction(-1, 3), Fraction(2, 5))
    clean = verify.run_suite("duality", params, 1, 0)
    assert clean["failures"] == []
    y = (0, 1, -1)
    _corrupt_one_value(monkeypatch, (), y)
    report = verify.run_suite("duality", params, 1, 0)
    assert report["checks_run"] == clean["checks_run"]
    expected = [
        {"x": list(x), "detail": "duality fails for i = %d" % i}
        for i in (1, 2)
        for x in verify.window_points(3, 1)
        if y in laurent.apply_T_check(i, laurent.LaurentPolynomial.monomial(x), params).terms
    ]
    assert {entry["detail"] for entry in expected} == {"duality fails for i = 1",
                                                        "duality fails for i = 2"}
    assert report["failures"] == expected


def test_theorem_suite_names_where_H_reads_a_corrupted_G(monkeypatch):
    # G(g_p) off by one unit of its scale at one point y: H G = (sum p) G must
    # fail at exactly the window points that read G at y, x = y or x - v_i = y
    params = Params(3, 2, Fraction(-1, 3), Fraction(2, 5))
    clean = verify.run_suite("theorem", params, 1, 0)
    assert clean["failures"] == []
    y = (0, 0, 0)
    real = propagation.propagate_many

    def corrupted(engine, descents, *requests):
        scale, G, columns = real(engine, descents, *requests)
        G[y] += 1
        return scale, G, columns

    monkeypatch.setattr(propagation, "propagate_many", corrupted)
    report = verify.run_suite("theorem", params, 1, 0)
    assert report["checks_run"] == clean["checks_run"]
    expected = [x for x in verify.window_points(3, 1)
                if x == y or any(x[:i] + (x[i] - 1,) + x[i + 1 :] == y for i in range(3))]
    assert expected == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert [tuple(entry["x"]) for entry in report["failures"]] == expected
    assert {entry["detail"] for entry in report["failures"]} == {
        "eigenfunction identity fails, p = (Fraction(4, 1), Fraction(1, 5), Fraction(-3, 2))"
    }


# (seed, x, value): a/b with h the CRC-32 of "seed|x_1,...,x_k", a = h % 19 - 9
# and b = h // 19 % 6 + 1; "memo|-3" has h = 4022506198, h % 19 = 10 and
# h // 19 % 6 = 0, so a/b = 1/1
_PINNED_VALUES = [
    ("hecke-1", (0, 0, 0), Fraction(4, 3)),
    ("lemma-7", (2, -1, 0, 1), Fraction(8)),
    ("memo", (-3,), Fraction(1)),
    ("duality-0", (0, 1, -1), Fraction(2, 3)),
]


def test_random_rational_function_is_pinned_and_order_free():
    for seed, x, value in _PINNED_VALUES:
        assert verify.random_rational_function(seed)(x) == value
    # two fresh functions read in opposite orders agree point by point
    points = list(verify.window_points(3, 3))
    f, g = verify.random_rational_function("order"), verify.random_rational_function("order")
    forward = [f(x) for x in points]
    assert [g(x) for x in reversed(points)][::-1] == forward
    # every numerator -9..9 and denominator 1..6 of a/b occurs, and the seed matters
    assert {v.numerator for v in forward} == set(range(-9, 10))
    assert {v.denominator for v in forward} == set(range(1, 7))
    assert list(map(verify.random_rational_function("other"), points)) != forward


def _run_in_fresh_python(code, **env):
    """Run ``code`` in a fresh interpreter that imports this package; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hecke_bose.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, check=True).stdout


def test_random_rational_function_is_the_same_in_another_process():
    # string hashes change with PYTHONHASHSEED; the values must not
    code = ("from hecke_bose.verify import random_rational_function as f\n"
            "for seed, x in %r: print(repr(f(seed)(x)))" % [(s, x) for s, x, _ in _PINNED_VALUES])
    for hash_seed in ("1", "12345"):
        out = _run_in_fresh_python(code, PYTHONHASHSEED=hash_seed)
        assert out.splitlines() == [repr(value) for _, _, value in _PINNED_VALUES]


def test_verify_suites_leave_hashlib_out():
    # importing hashlib loads OpenSSL's libcrypto: a test function hashed with
    # hashlib.blake2b took the verify-exact benchmark's peak RSS from 24.2 to
    # 27.9 MB (+15 %), so the suites' pseudo-randomness must not import it
    code = ("import contextlib, io, sys\n"
            "import hecke_bose.cli as cli\n"
            "from hecke_bose.verify import SUITES\n"
            "for suite in SUITES:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        cli.main(['verify', suite, '--k', '3', '--L', '3', '--window', '1'])\n"
            "print(len(SUITES), 'hashlib' in sys.modules, '_hashlib' in sys.modules)")
    assert _run_in_fresh_python(code) == "7 False False\n"


def _recording_engines(monkeypatch):
    """The engines the suites build from here on, each with a ``LayerTable``
    that records the layers it drops."""
    engines = []
    engine = hecke.QWordEngine

    def recording(f, params):
        engines.append(engine(f, params))
        engines[-1]._layers = LayerTable()
        return engines[-1]

    monkeypatch.setattr(hecke, "QWordEngine", recording)
    return engines


def test_window_suite_engine_work_is_pinned(monkeypatch):
    # the one engine of hecke, duality, lemma-main and theorem on the k = 4
    # benchmark grid reads f, enters points into its layers and extends its
    # line sums exactly this often, summed over the layers its walk drops and
    # those it still holds; a descent rule or a plan that adds work, or a walk
    # that drops a layer before its last reader and builds it again, fails here
    params = Params(4, 3, Fraction(-2, 3), Fraction(5, 4))
    engines = _recording_engines(monkeypatch)
    for suite, work in [("hecke", (2820, 23425, 35740)), ("duality", (625, 1875, 2250)),
                        ("lemma-main", (1125, 9268, 17781)), ("theorem", (1125, 8326, 16685))]:
        engines.clear()
        assert verify.run_suite(suite, params, 2, 0)["failures"] == []
        (used,) = engines
        layers = used._layers.work()
        entered = sum(memo for _, memo, _ in layers)
        line_sums = sum(sums for _, _, sums in layers)
        assert (len(used._base), entered, line_sums) == work


def test_window_suites_hold_one_chain_of_layers_at_a_time(monkeypatch):
    # the walk drops each layer after its last reader, so on the k = 4
    # benchmark grid the engine of lemma-main and of theorem never holds more
    # than these many memo values and line sums at once, against the 27 049
    # and 25 011 that a table keeping every layer ends with; the entries held
    # are counted as the layers' plans and fills add them and their drops take
    # them away
    params = Params(4, 3, Fraction(-2, 3), Fraction(5, 4))
    engines = _recording_engines(monkeypatch)
    plan, fill, drop = hecke._Reflection.plan, hecke._Reflection.fill, LayerTable.__delitem__
    live = [0, 0]  # the entries held now, and the most held at once

    def planning(self, points, below):
        lines = len(self.lines)
        out = plan(self, points, below)
        live[0] += 2 * (len(self.lines) - lines)  # a new line holds up = down = [0]
        return out

    def filling(self, entered, extensions, reads, below):
        fill(self, entered, extensions, reads, below)
        live[0] += len(entered) + sum(n for _, n in extensions)
        live[1] = max(live)

    def dropping(self, word):
        live[0] -= sum(layer_sizes(self[word]))
        drop(self, word)

    monkeypatch.setattr(hecke._Reflection, "plan", planning)
    monkeypatch.setattr(hecke._Reflection, "fill", filling)
    monkeypatch.setattr(LayerTable, "__delitem__", dropping)
    for suite, peak in [("lemma-main", 6105), ("theorem", 6083)]:
        engines.clear()
        live[:] = [0, 0]
        assert verify.run_suite(suite, params, 2, 0)["failures"] == []
        (used,) = engines
        # every layer is dropped, and the drops took away all that was added
        assert used._layers == {}
        assert live[0] == 0
        assert live[1] == peak


def test_lemma_main_asks_one_right_hand_request_per_window_point(monkeypatch):
    # the right-hand side of the check at (x, i) reads w_x only at the k
    # neighbours w_x x - v_s of w_x x, so the suite's one walk asks G at the
    # 1125 points of the window and its neighbours, then w_x at those k points
    # once per window point, in slot order, whatever beta is: 1125 + 625
    # requests and 1125 + 4 * 625 points, against one request per check (x, i)
    walk = hecke.QWordEngine.walk
    calls = []

    def recording(self, requests):
        calls.append([(tuple(word), list(points)) for word, points in requests])
        return walk(self, requests)

    monkeypatch.setattr(hecke.QWordEngine, "walk", recording)
    window = list(verify.window_points(4, 2))
    for beta in (Fraction(5, 4), Fraction(1)):
        params = Params(4, 3, Fraction(-2, 3), beta)
        calls.clear()
        report = verify.run_suite("lemma-main", params, 2, 0)
        assert report["failures"] == [] and report["checks_run"] == 2500
        (requests,) = calls
        assert len(requests) == 1750
        assert sum(len(points) for _, points in requests) == 3625
        for x, request in zip(window, requests[1125:], strict=True):
            (_, wx), word = shortest_element(x, params)
            assert request == (word, [wx[:s] + (wx[s] - 1,) + wx[s + 1 :] for s in range(4)])


def test_d_change_suite_detects_injected_defect(monkeypatch):
    # d_i^+ off by one at one point y: the suite must fail there, or where a
    # simple reflection lands on y, and nowhere else
    params = Params(3, 2, Fraction(0), Fraction(1))
    clean = verify.run_suite("d-change", params, 1, 0)
    assert clean["failures"] == []
    y = (1, 0, -1)
    real = hamiltonian._d_counts

    def corrupted(x, params):
        plus, minus = real(x, params)
        return [d + (x == y) for d in plus], minus

    monkeypatch.setattr(hamiltonian, "_d_counts", corrupted)
    report = verify.run_suite("d-change", params, 1, 0)
    assert report["checks_run"] == clean["checks_run"]
    failed = {tuple(entry["x"]) for entry in report["failures"]}
    assert y in failed
    preimages = {act(simple_reflection_element(j, 3, 2), y) for j in range(3)}
    assert failed <= {y} | preimages


def test_hl_identity_suite_names_a_corrupted_point(monkeypatch):
    params = Params(3, 2, Fraction(0), Fraction(2, 7))
    clean = verify.run_suite("hl-identity", params, 1, 0)
    assert clean["failures"] == []
    real = bethe._hl_R

    def corrupted(z, t):
        R = real(z, t)
        return lambda lam: R(lam) + (tuple(lam) == (1, 0, 0))  # one more at one dominant point

    monkeypatch.setattr(bethe, "_hl_R", corrupted)
    report = verify.run_suite("hl-identity", params, 1, 0)
    assert report["checks_run"] == clean["checks_run"]
    assert report["failures"] == [{
        "x": [1, 0, 0],
        "detail": "HL identity fails, p = (Fraction(-1, 1), Fraction(-9, 5), Fraction(-7, 2))",
    }]


def test_w_invariance_suite_detects_injected_defect(monkeypatch):
    # (H f)(y) off by one at one regular point y: the suite must fail at y, where
    # the right-hand side reads it, and may fail only where some s_j x = y
    params = Params(3, 5, Fraction(-1, 3), Fraction(2, 5))
    clean = verify.run_suite("w-invariance", params, 1, 0)
    assert clean["failures"] == []
    assert clean["checks_run"] > 0
    y = (1, 0, -1)
    real = hamiltonian.apply_H

    def corrupted(f, x, params):
        return real(f, x, params) + (x == y)

    monkeypatch.setattr(hamiltonian, "apply_H", corrupted)
    report = verify.run_suite("w-invariance", params, 1, 0)
    assert report["checks_run"] == clean["checks_run"]
    failed = {tuple(entry["x"]) for entry in report["failures"]}
    assert y in failed
    preimages = {act(simple_reflection_element(j, 3, 5), y) for j in range(3)}
    assert failed <= {y} | preimages


def _corrupt_one_value(monkeypatch, target_word, target_point):
    """Make every engine's ``walk`` hand out (Q_word f)(point) off by one at
    one word and point: its int one whole unit of the read's scale T off."""
    walk = hecke.QWordEngine.walk

    def corrupted(self, requests):
        requests = [(word, list(points)) for word, points in requests]
        scale, columns = walk(self, requests)
        return scale, [[v + scale if tuple(word) == target_word and x == target_point else v
                        for x, v in zip(points, column)]
                       for (word, points), column in zip(requests, columns)]

    monkeypatch.setattr(hecke.QWordEngine, "walk", corrupted)


def _word(x):
    """The reduced word w_x the suites read G(f)(x) through, on the grid of
    the cases below (the descent reads only k and L)."""
    return shortest_element(x, Params(3, 2, Fraction(0), Fraction(1)))[1]


@pytest.mark.parametrize(
    "suite,word,point,failure",
    [
        # Q_2 f read at one window point: the duality check there
        ("duality", (2,), (1, 0, -1), [{"x": [1, 0, -1], "detail": "duality fails for i = 2"}]),
        # G(f) at the neighbour (-2, -1, 1) of x = (-1, -1, 1), which w_x sends to
        # (0, -1, -1): the left-hand side for i = 1
        ("lemma-main", _word((-2, -1, 1)), (0, -1, -1),
         [{"x": [-1, -1, 1], "detail": "lemma identity fails for i = 1"}]),
        # Q_{w_x} f at w_x x - v_sigma(2) = (1, -1, -1) for x = (-1, 0, 1): the
        # right-hand side for i = 2
        ("lemma-main", _word((-1, 0, 1)), (1, -1, -1),
         [{"x": [-1, 0, 1], "detail": "lemma identity fails for i = 2"}]),
        # f itself at the dominant point (0, 0, -1), read by several checks: as G(f)
        # on left-hand sides and as Q_e f on right-hand sides (at x = (0, 0, 0) for
        # i = 3 by both, which cancel); the failures come x-major, i ascending
        ("lemma-main", (), (0, 0, -1), [
            {"x": [0, 0, -1], "detail": "lemma identity fails for i = 1"},
            {"x": [0, 0, 0], "detail": "lemma identity fails for i = 1"},
            {"x": [0, 0, 0], "detail": "lemma identity fails for i = 2"},
            {"x": [0, 1, -1], "detail": "lemma identity fails for i = 2"},
            {"x": [1, 0, -1], "detail": "lemma identity fails for i = 3"},
        ]),
        # Q_1 f at one window point, read only by the quadratic relation for Q_1
        ("hecke", (1,), (1, 0, -1),
         [{"x": [1, 0, -1], "detail": "quadratic relation fails for Q_1"}]),
        # G(g_p) at the neighbour (-2, -1, 1) of x = (-1, -1, 1), read only by H there
        ("theorem", _word((-2, -1, 1)), (0, -1, -1), [{
            "x": [-1, -1, 1],
            "detail": "eigenfunction identity fails, p = "
                      "(Fraction(4, 1), Fraction(1, 5), Fraction(-3, 2))",
        }]),
    ],
)
def test_batched_suites_name_a_corrupted_value(monkeypatch, suite, word, point, failure):
    # failure: the report's whole list of failures
    params = Params(3, 2, Fraction(-1, 3), Fraction(2, 5))
    clean = verify.run_suite(suite, params, 1, 0)
    assert clean["failures"] == []
    _corrupt_one_value(monkeypatch, word, point)
    report = verify.run_suite(suite, params, 1, 0)
    assert report["checks_run"] == clean["checks_run"]
    assert report["failures"] == failure


def test_int_couplings_report_like_fractions():
    # ints are rationals wherever a suite reads alpha and beta, and print alike
    for suite in verify.SUITES:
        reports = [verify.run_suite(suite, Params(3, 3, alpha, beta), 1, 7)
                   for alpha, beta in [(-2, 3), (Fraction(-2), Fraction(3))]]
        for report in reports:
            del report["elapsed_ms"]
        assert reports[0] == reports[1]
        assert reports[0]["checks_run"] > 0
