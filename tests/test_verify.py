"""The suite runner: one registry, and the bookkeeping every verify suite shares."""

from fractions import Fraction

import pytest

from hecke_bose import hecke, verify
from hecke_bose.weyl import Params


def test_suite_registry_order():
    assert verify.SUITES == (
        "hecke", "duality", "d-change", "w-invariance", "lemma-main", "theorem", "hl-identity",
    )
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("nope", Params(2, 2), 1, 0)


def test_run_suite_marks_a_run_without_checks_vacuous():
    # with k > L no point is regular, so w-invariance has nothing to check
    report = verify.run_suite("w-invariance", Params(3, 2), 1, 0)
    assert report["checks_run"] == 0
    assert report["failures"] == []
    assert report["vacuous"] is True
    assert "vacuous" not in verify.run_suite("d-change", Params(2, 2), 1, 0)


def test_hecke_suite_names_a_corrupted_relation(monkeypatch):
    params = Params(3, 2, Fraction(-1, 3), Fraction(2, 5))
    clean = verify.suite_hecke(params, 1, 0)
    assert clean["failures"] == []
    values = hecke.QWordEngine.values

    def corrupted(self, word, points):
        out = values(self, word, points)
        if tuple(word) == (0, 1, 0):
            out[0] += 1  # one wrong Q-word value, at the first window point
        return out

    monkeypatch.setattr(hecke.QWordEngine, "values", corrupted)
    report = verify.suite_hecke(params, 1, 0)
    assert report["checks_run"] == clean["checks_run"]
    assert report["failures"] == [
        {"x": [-1, -1, -1], "detail": "braid relation fails for (Q_0, Q_1)"}
    ]
