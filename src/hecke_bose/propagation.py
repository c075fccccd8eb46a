"""The propagation operator G and plane waves."""

from __future__ import annotations

from .functions import LatticeFunction
from .hamiltonian import d_plus
from .hecke import QWordEngine
from . import weyl


def propagate(f, params):
    """G(f)(x) = (Q_{w_x} f)(w_x x), with w_x the shortest element moving x
    into the dominant chamber.  On dominant points G(f) agrees with f."""
    return propagate_with(QWordEngine(f, params))


def propagate_with(engine):
    """G(f) evaluated through an existing Q-word engine for f, sharing its layers."""
    params = engine.params

    def ev(x):
        w, word = weyl.shortest_element(x, params)
        return engine.values(word, (weyl.act(w, x),))[0]

    return LatticeFunction(ev)


def plane_wave(p):
    """The plane wave x -> prod_i p_i^{-x_i}; eigenfunction of sum_i t_{v_i}
    with eigenvalue sum_i p_i."""
    p = tuple(p)
    if any(v == 0 for v in p):
        raise ValueError("plane wave requires all p_i nonzero")

    def ev(x):
        val = 1
        for pi, xi in zip(p, x):
            val *= pi ** (-xi)
        return val

    return LatticeFunction(ev)


def verify_lemma_main(f, x, i, params, G=None, qword=None):
    """Check the key commutation identity behind the eigenfunction theorem:

    ((t_{v_i} - alpha d_i^+) G(f))(x)
      = ((t_{v_sigma(i)} + (1-beta) sum_{j=1}^{d_i^+(x)} t_{v_{sigma(i)+j}}) Q_{w_x} f)(w_x x)

    where sigma is the coordinate permutation of w_x.  Returns True iff the
    two sides agree exactly.  When checking many points, pass a shared
    Q-word engine for f as ``qword`` and ``G = propagate_with(qword)``, so
    that both sides read the same layers.
    """
    k = params.k
    alpha, beta = params.alpha, params.beta
    if qword is None:
        qword = QWordEngine(f, params)
    if G is None:
        G = propagate_with(qword)

    w, word = weyl.shortest_element(x, params)
    dp = d_plus(i, x, params)

    shifted = list(x)
    shifted[i - 1] -= 1
    lhs = G(tuple(shifted))
    if dp and alpha != 0:
        lhs -= alpha * dp * G(x)

    wx = weyl.act(w, x)
    sigma_i = w.perm[i - 1]  # 0-based slot of v_{sigma(i)}
    slots = [sigma_i]
    if beta != 1:
        slots += [(sigma_i + j) % k for j in range(1, dp + 1)]
    points = []
    for slot in slots:
        y = list(wx)
        y[slot] -= 1
        points.append(tuple(y))
    rhs, *rest = qword.values(word, points)
    for value in rest:
        rhs += (1 - beta) * value
    return lhs == rhs
