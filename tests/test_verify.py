"""The suite runner: one registry, and the bookkeeping every verify suite shares."""

from fractions import Fraction

import pytest

from conftest import act, simple_reflection_element
from hecke_bose import bethe, hamiltonian, hecke, verify
from hecke_bose.weyl import Params


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
    # the shared engine drops, after each relation, the layers no later
    # relation reads: it never holds more than the single letters and the
    # layers of the relation it is reading
    params = Params(4, 3, Fraction(-2, 3), Fraction(5, 4))
    letters = {(a,) for a in range(4)}
    ints = hecke.QWordEngine.ints
    held = []  # per read: (the layers of its own words, the layers held after it)

    def recording(self, requests):
        requests = [(tuple(word), list(points)) for word, points in requests]
        out = ints(self, requests)
        held.append(({word[d:] for word, _ in requests for d in range(len(word))},
                     set(self._layers)))
        return out

    monkeypatch.setattr(hecke.QWordEngine, "ints", recording)
    report = verify.run_suite("hecke", params, 1, 0)
    assert report["failures"] == []
    assert len(held) == 4 + 4 + 2  # quadratic relations, braids, commutations
    for own, layers in held:
        assert layers <= letters | own


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
    """Make every engine hand out (Q_word f)(point) off by one at one word and
    point: as a Fraction from ``values``, and as an int, one unit of its
    scale, from ``ints``."""
    values, ints = hecke.QWordEngine.values, hecke.QWordEngine.ints

    def bump(word, points, out):
        return [v + 1 if tuple(word) == target_word and x == target_point else v
                for x, v in zip(points, out)]

    def corrupted_values(self, word, points):
        points = list(points)
        return bump(word, points, values(self, word, points))

    def corrupted_ints(self, requests):
        requests = [(word, list(points)) for word, points in requests]
        scale, columns = ints(self, requests)
        return scale, [bump(word, points, column)
                       for (word, points), column in zip(requests, columns)]

    monkeypatch.setattr(hecke.QWordEngine, "values", corrupted_values)
    monkeypatch.setattr(hecke.QWordEngine, "ints", corrupted_ints)


@pytest.mark.parametrize(
    "suite,word,point,failure",
    [
        # Q_2 f read at one window point: the duality check there
        ("duality", (2,), (1, 0, -1), [{"x": [1, 0, -1], "detail": "duality fails for i = 2"}]),
        # G(f) at the neighbour (-2, -1, 1) of x = (-1, -1, 1): the left-hand side for i = 1
        ("lemma-main", (0, 1, 2, 1), (0, -1, -1),
         [{"x": [-1, -1, 1], "detail": "lemma identity fails for i = 1"}]),
        # Q_{w_x} f at w_x x - v_sigma(2) for x = (-1, 0, 1): the right-hand side for i = 2
        ("lemma-main", (1, 2, 1), (1, -1, -1),
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
