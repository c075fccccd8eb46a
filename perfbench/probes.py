"""Per-layer probes: small, checked calls into each module's public functions.

Every probe call runs inside a span named after the metric it feeds, and the
metrics are read back from those spans.  The probe set is the same for every
workload, so each traced run reports every per-layer metric; its inputs come
from the run's seed.
"""

from __future__ import annotations

import cmath
import json
import math
import statistics
from fractions import Fraction

from hecke_bose import (
    LaurentPolynomial,
    Params,
    apply_Q,
    apply_Qw,
    apply_T_check,
    bethe,
    hamiltonian,
    pairing,
    random_rational_function,
    shortest_element,
    verify,
)

import oracles
from workloads import (
    FAIL_CLASSES,
    FAR_COUPLINGS,
    GRID_A,
    GRID_B,
    RESIDUAL_GATE,
    Op,
    Unsolved,
    distinct_fractions,
    far_op,
    require,
    rng_for,
    run_cli,
    solver_corpus_instances,
    solver_op,
    verify_op,
)

Q_SIZES = {"n1": 1, "n8": 8, "n32": 32}  # |a_2(x)| at the apply_Q probe points

PROBE_SCALES = {
    "full": {
        "reps": 9,
        "word_reps": 3,
        "radii": {"r8": 8, "r16": 16, "r24": 24},
        "word_lengths": {"len8": 8, "len24": 24},
        "verify_grid": (GRID_B, 2),
        "corpus": 60,
        "points": 40,
        "wave_window": 1,
    },
    "tiny": {
        "reps": 2,
        "word_reps": 1,
        "radii": {"r8": 2, "r16": 3, "r24": 4},
        "word_lengths": {"len8": 4, "len24": 6},
        "verify_grid": (GRID_A, 1),
        "corpus": 6,
        "points": 4,
        "wave_window": 0,
    },
}


def _op(name, fn, check):
    """An op whose one program call ``fn()`` runs in a span called ``name``."""

    def call(tr):
        with tr.span(name):
            return fn()

    return Op(name, call, check)


def _equals(want, what):
    def check(got):
        require(got == want, "%s differs from the reference" % what)
        return 1

    return check


def _wrapped(name, inner):
    """``inner`` with its whole call inside one more span called ``name``."""

    def call(tr):
        with tr.span(name):
            return inner.call(tr)

    return Op(name, call, inner.check, inner.timeout_s)


def weyl_ops(reps, found_lengths):
    far2 = Params(2, 1, *FAR_COUPLINGS)
    far3 = Params(3, 2, *FAR_COUPLINGS)
    points = [(far2, (r, -r)) for r in range(1, 25)] + [(far3, (r, 0, -r)) for r in range(1, 9)]
    ops = []
    for params, x in points:
        L = params.L

        def check(out, x=x, L=L):
            _, word = out
            y = x
            for letter in reversed(word):
                y = oracles.reflect_simple(letter, y, L)
            require(tuple(y) == oracles.dominant_rep(x, L), "word does not reach the dominant alcove")
            require(len(word) == oracles.inversion_count(x, L), "word is not reduced")
            found_lengths.append(len(word))
            return 1

        ops += [_op("weyl.shortest_element_us", lambda x=x, p=params: shortest_element(x, p), check)] * reps
    return ops


def hecke_ops(f, reps, word_reps, word_lengths):
    params = Params(*GRID_B)
    k, L, alpha, beta = GRID_B
    ops = []
    for label, n in Q_SIZES.items():
        x = (0, n, 0, 0)  # a_2(x) = n
        want = oracles.q_letter(2, f, k, L, alpha, beta)(x)  # also warms f's memo
        ops += [
            _op("hecke.apply_Q_point_us." + label, lambda x=x: apply_Q(2, f, params)(x), _equals(want, "Q_2 f"))
            for _ in range(reps)
        ]
    far2 = Params(2, 1, *FAR_COUPLINGS)
    for label, length in word_lengths.items():
        r = (length + 2) // 2
        x = (r, -r + 1) if length % 2 == 0 else (r, -r)  # word length 2r - 2 or 2r - 1
        _, word = shortest_element(x, far2)
        y = oracles.dominant_rep(x, 1)
        want = oracles.q_word(word, f, 2, 1, *FAR_COUPLINGS)(y)
        ops += [
            _op(
                "hecke.apply_Qw_point_ms." + label,
                lambda word=word, y=y: apply_Qw(word, f, far2)(y),
                _equals(want, "Q_w f"),
            )
            for _ in range(word_reps)
        ]
    return ops


def hamiltonian_ops(f, rng, n_points):
    params = Params(*GRID_B)
    k, L, alpha, beta = GRID_B
    points = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n_points)]
    ops = []
    for x in points:
        want = oracles.h_apply(f, x, L, alpha, beta)
        ops.append(_op("hamiltonian.apply_H_us", lambda x=x: hamiltonian.apply_H(f, x, params), _equals(want, "H f")))
        for i in range(1, k + 1):
            ops.append(
                _op(
                    "hamiltonian.d_plus_us",
                    lambda i=i, x=x: hamiltonian.d_plus(i, x, params),
                    _equals(oracles.d_count(i, x, L, 1), "d_i^+"),
                )
            )
    return ops


def laurent_ops(f, rng, n_points):
    params = Params(*GRID_B)
    k, L, alpha, beta = GRID_B
    q2 = oracles.q_letter(2, f, k, L, alpha, beta)
    ops = []
    for _ in range(n_points):
        x = tuple(rng.randint(-4, 4) for _ in range(k))
        want = q2(x)  # duality: (f, T_2 e^x) = (Q_2 f)(x)
        poly = apply_T_check(2, LaurentPolynomial.monomial(x), params)

        def check_T(out, want=want):
            require(sum(c * f(e) for e, c in out.terms.items()) == want, "(f, T_2 e^x) != (Q_2 f)(x)")
            return 1

        ops.append(_op("laurent.apply_T_check_us", lambda x=x: apply_T_check(2, LaurentPolynomial.monomial(x), params), check_T))
        ops.append(_op("laurent.pairing_us", lambda poly=poly: pairing(f, poly), _equals(want, "(f, T_2 e^x)")))
    return ops


def propagation_ops(rng, radii, counter):
    params = Params(2, 1, *FAR_COUPLINGS)
    p = distinct_fractions(rng, 2)
    return [
        _wrapped("propagation.propagate_point_s." + label, far_op(params, (r, -r), p, base_counter=counter))
        for label, r in radii.items()
    ]


def bethe_ops(rng, seed, sc, outcomes):
    k, L, alpha, beta = 4, 7, Fraction(-1, 2), Fraction(3, 4)
    params = Params(k, L, alpha, beta)
    exact_p = distinct_fractions(rng, k)
    complex_p = tuple(cmath.exp(2j * math.pi * (m + rng.random()) / k) for m in range(k))
    ops = []
    for x in oracles.window(k, sc["wave_window"]):
        want, _ = oracles.bethe_wave(exact_p, x, L, alpha, beta)
        ops.append(_op("bethe.wave_point_us.exact_k4", lambda x=x: bethe.bethe_wave(exact_p, x, params), _equals(want, "h_p")))
        cwant, scale = oracles.bethe_wave(complex_p, x, L, complex(alpha), complex(beta))

        def check_c(got, cwant=cwant, scale=scale):
            require(abs(got - cwant) <= 1e-9 * (1 + scale), "complex h_p differs")
            return 1

        ops.append(_op("bethe.wave_point_us.complex_k4", lambda x=x: bethe.bethe_wave(complex_p, x, params), check_c))

    lam = (3, 2, 1, 1)
    z = distinct_fractions(rng, 5)
    t = Fraction(1, 3)
    want_R = oracles.hl_P(lam, z, t) * oracles.hl_normalization(lam, len(z), t)
    ops += [_op("bethe.hl_R_us", lambda: bethe.hall_littlewood_R(lam, z, t), _equals(want_R, "R_lambda"))] * sc["reps"]

    for params_i, seeds in solver_corpus_instances("probe-%s" % seed, sc["corpus"]):
        inner = solver_op(params_i, seeds, span="bethe.solve_ms")

        def check_solve(out, inner=inner, params_i=params_i):
            outcomes.append((params_i, out))
            return inner.check(out)

        ops.append(Op(inner.name, inner.call, check_solve, inner.timeout_s))
    return ops


def residual_ops(outcomes):
    ops = []
    for params, out in outcomes:
        if isinstance(out, Unsolved):
            continue
        want = oracles.bethe_defect(out.p, params.L, complex(params.alpha), complex(params.beta))

        def check(res, want=want):
            got = max(abs(complex(r)) for r in res)
            require(got <= RESIDUAL_GATE and abs(got - want) <= 1e-12, "residual differs")
            return 1

        ops.append(_op("bethe.residual_us", lambda out=out, params=params: bethe.bethe_residual(out, params), check))
    return ops


def verify_ops(grid, w, seed):
    return [_wrapped("verify.%s_s" % suite, verify_op(suite, grid, w, seed)) for suite in verify.SUITES]


def cli_ops(rng, reps):
    lam = (2, 2, 1)
    z = distinct_fractions(rng, 5)
    t = Fraction(2, 5)
    want = oracles.hl_P(lam, z, t)
    argv = ["hall-littlewood", "--lam", "2,2,1", "--z=" + ",".join(map(str, z)), "--t", str(t)]

    def check_cli(out):
        rc, text = out
        require(rc == 0 and Fraction(json.loads(text)["value"]) == want, "hall-littlewood output differs")
        return 1

    return [
        _op("cli.command", lambda: run_cli(argv), check_cli),
        _op("cli.library", lambda: bethe.hall_littlewood_P(lam, z, t), _equals(want, "P_lambda")),
    ] * reps


def run(tracer, run_op, gauge, seed, scale_name):
    """Run every probe through ``run_op(op, tracer)``; return the per-layer
    metrics, with times in reference seconds by ``gauge`` (see speed.py)."""
    sc = PROBE_SCALES[scale_name]
    rng = rng_for("probes", seed)
    f = random_rational_function("perfbench-probe-%s" % seed)
    word_lengths, base_evals, outcomes = [], [0], []
    grid, w = sc["verify_grid"]
    ops = (
        weyl_ops(sc["reps"], word_lengths)
        + hecke_ops(f, sc["reps"], sc["word_reps"], sc["word_lengths"])
        + hamiltonian_ops(f, rng, sc["points"])
        + laurent_ops(f, rng, sc["points"])
        + propagation_ops(rng, sc["radii"], base_evals)
        + bethe_ops(rng, seed, sc, outcomes)
        + verify_ops(grid, w, seed)
        + cli_ops(rng, sc["reps"])
    )
    for op in ops:
        run_op(op, tracer)
    for op in residual_ops(outcomes):
        run_op(op, tracer)
    gauge.sample()

    def med(name, unit_per_s):
        times = tracer.durations(name, gauge.factor)
        if not times:
            raise RuntimeError("no checked probe call for %s" % name)
        return statistics.median(times) * unit_per_s

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("weyl.shortest_element_us", med("weyl.shortest_element_us", 1e6), "us")
    put("weyl.word_len_max", max(word_lengths, default=0), "count")
    put("functions.base_evals_per_check", base_evals[0] / len(sc["radii"]), "count")
    for label in Q_SIZES:
        put("hecke.apply_Q_point_us." + label, med("hecke.apply_Q_point_us." + label, 1e6), "us")
    for label in sc["word_lengths"]:
        put("hecke.apply_Qw_point_ms." + label, med("hecke.apply_Qw_point_ms." + label, 1e3), "ms")
    radii = sc["radii"]
    for label in radii:
        put("propagation.propagate_point_s." + label, med("propagation.propagate_point_s." + label, 1), "s")
    logs = [(math.log(r), math.log(m["propagation.propagate_point_s." + lb]["value"])) for lb, r in radii.items()]
    put("propagation.r_exponent", _slope(logs), "1")
    for name in ("hamiltonian.apply_H_us", "hamiltonian.d_plus_us", "laurent.apply_T_check_us",
                 "laurent.pairing_us", "bethe.wave_point_us.complex_k4",
                 "bethe.wave_point_us.exact_k4", "bethe.hl_R_us", "bethe.residual_us"):
        put(name, med(name, 1e6), "us")
    put("bethe.solve_ms", med("bethe.solve_ms", 1e3), "ms")
    unsolved = [out.cls for _, out in outcomes if isinstance(out, Unsolved)]
    for cls in FAIL_CLASSES:
        put("bethe.fail." + cls, unsolved.count(cls), "count")
    for suite in verify.SUITES:
        put("verify.%s_s" % suite, med("verify.%s_s" % suite, 1), "s")
    put("cli.overhead_ms", med("cli.command", 1e3) - med("cli.library", 1e3), "ms")
    return m


def _slope(points):
    """Least-squares slope of y on x."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx
