"""The benchmark's workloads: inputs generated from the seed, the ops of one
pass, and the check applied to every op's output.

An op's ``call(tracer)`` makes the timed calls into the program and returns
their output; ``check(output)`` raises ``CheckFailed`` unless the output is
right and returns the number of checks it completed.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from hecke_bose import LatticeFunction, Params, bethe, cli, hamiltonian, propagation, verify

import oracles

RESIDUAL_GATE = 1e-10  # Bethe residual, as pinned by the acceptance tests
DEFECT_GATE = 1e-8  # eigenfunction and pi-invariance defects
FLOAT_REL_TOL = 1e-9  # complex wave-function rows against the reference sum
COLLISION_TOL = 1e-8

GRID_A = (3, 2, Fraction(1, 2), Fraction(3))
GRID_B = (4, 3, Fraction(-2, 3), Fraction(5, 4))
W_INVARIANCE_L = 5  # with k > L no point is regular, so that suite would check nothing
FAR_COUPLINGS = (Fraction(1, 2), Fraction(2))
BETHE_COUPLINGS = ("-1/2", "3/4")

# Sizes per scale.  "full" is what BENCHMARK.json runs; "tiny" runs every
# workload in a few seconds for the smoke test.
SCALES = {
    "full": {
        "verify_grids": ((GRID_A, 2), (GRID_B, 2)),
        # Odd op counts put the median latency inside one op's cluster, and
        # repeating the costliest radii with fresh p averages out how the
        # cost of a far point depends on p.
        "far_k2": (4, 6, 8, 10, 12, 12, 14, 14),
        "far_k3": (3, 5, 7, 7, 7, 8, 8),
        "bethe_windows": (4, 3, 1, 1, 2, 3),
        "corpus": 1000,
        "min_above_p90": 10,
    },
    "tiny": {
        "verify_grids": ((GRID_A, 1),),
        "far_k2": (2, 3),
        "far_k3": (1,),
        "bethe_windows": (1, 1, 0, 0, 1, 1),
        "corpus": 8,
        "min_above_p90": 0,
    },
}


class CheckFailed(Exception):
    """An op's output is wrong."""


class OpTimeout(Exception):
    """An op ran past its time budget."""


@dataclass
class Op:
    name: str
    call: Callable[[Any], Any]
    check: Callable[[Any], int]
    timeout_s: float = 60.0


@dataclass(frozen=True)
class Unsolved:
    """A solver run that ended in a classified ``BetheSolverError`` or ran out of time."""

    cls: str


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def rng_for(workload, seed):
    return random.Random("perfbench|%s|%s" % (workload, seed))


def distinct_fractions(rng, n):
    """n distinct nonzero rationals a/b with |a| <= 7 and 1 <= b <= 3."""
    out = []
    while len(out) < n:
        v = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
        if v and v not in out:
            out.append(v)
    return tuple(out)


# -- verify-exact ------------------------------------------------------------


def verify_op(suite, grid, w, seed):
    k, L, alpha, beta = grid
    if suite == "w-invariance":
        L = W_INVARIANCE_L
    params = Params(k, L, alpha, beta)
    expected = oracles.expected_checks(suite, k, L, w)

    def call(tr):
        with tr.span("verify.run_suite"):
            return verify.run_suite(suite, params, w, seed)

    def check(report):
        require(report["suite"] == suite, "report is for suite %r" % report["suite"])
        require(not report["failures"], "%d identity failures" % len(report["failures"]))
        require(expected > 0, "the grid gives no checks")
        require(
            report["checks_run"] == expected,
            "checks_run %s, expected %d" % (report["checks_run"], expected),
        )
        return expected

    return Op("verify %s k=%d L=%d w=%d" % (suite, k, L, w), call, check)


def verify_exact(rng, scale):
    suite_seed = rng.randrange(10**9)
    return [
        verify_op(suite, grid, w, suite_seed)
        for grid, w in scale["verify_grids"]
        for suite in verify.SUITES
    ]


# -- propagate-far -----------------------------------------------------------


def far_op(params, x, p, base_counter=None):
    """Check H G(g_p)(x) == (sum p) G(g_p)(x) exactly at one point, from a fresh G.

    With ``base_counter`` (a one-item list) the plane wave is wrapped so that
    each evaluation of it adds one to the counter."""
    lam = sum(p)

    def call(tr):
        g = propagation.plane_wave(p)
        if base_counter is not None:
            g = counted(g, base_counter)
        with tr.span("propagation.propagate"):
            G = propagation.propagate(g, params)
        with tr.span("hamiltonian.apply_H"):
            hg = hamiltonian.apply_H(G, x, params)
        with tr.span("propagation.G_point"):
            gx = G(x)
        return hg, gx, G

    # G(g_p) equals g_p on the dominant alcove; checking that at the orbit's
    # dominant point keeps the identity from passing on a G that is zero.
    y = oracles.dominant_rep(x, params.L)
    g_y = 1
    for pi, yi in zip(p, y):
        g_y *= pi ** -yi

    def check(out):
        hg, gx, G = out
        require(isinstance(gx, Fraction) and isinstance(hg, Fraction), "inexact value")
        require(hg == lam * gx, "H G(g_p)(x) != (sum p) G(g_p)(x) at x = %s" % (x,))
        require(G(y) == g_y, "G(g_p) differs from g_p at the dominant point %s" % (y,))
        return 1

    return Op("far k=%d x=%s" % (params.k, x), call, check)


def counted(f, counter):
    def ev(x):
        counter[0] += 1
        return f(x)

    return LatticeFunction(ev)


def propagate_far(rng, scale):
    ops = []
    for k, L, radii, point in (
        (2, 1, scale["far_k2"], lambda r: (r, -r)),
        (3, 2, scale["far_k3"], lambda r: (r, 0, -r)),
    ):
        params = Params(k, L, *FAR_COUPLINGS)
        for r in radii:
            ops.append(far_op(params, point(r), distinct_fractions(rng, k)))
    return ops


# -- bethe-wave --------------------------------------------------------------


def run_cli(argv, out_path=None):
    """Run the command in this process; return its exit code and its output text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if out_path is not None:
        with open(out_path) as fh:
            return rc, fh.read()
    return rc, buf.getvalue()


def parse_csv_rows(text):
    """A `wavefunction --format csv` table as the rows of its JSON report."""
    header, *body = csv.reader(io.StringIO(text))
    k = sum(1 for h in header if h.startswith("x"))
    require(header[k:] == ["re", "im"], "unexpected csv header %s" % header)
    return {"rows": [{"x": [int(v) for v in r[:k]], "value": [float(r[k]), float(r[k + 1])]} for r in body]}


def cli_op(name, argv, check, out_path=None, parse=json.loads):
    def call(tr):
        with tr.span("cli.main"):
            return run_cli(argv, out_path)

    def check_output(out):
        rc, text = out
        require(rc == 0, "exit code %s" % rc)
        return check(parse(text))

    return Op(name, call, check_output)


def _coupling_args(k, L):
    return ["--k", str(k), "--L", str(L), "--alpha=" + BETHE_COUPLINGS[0], "--beta", BETHE_COUPLINGS[1]]


def _check_bethe_report(k, L, w):
    alpha, beta = (complex(Fraction(c)) for c in BETHE_COUPLINGS)

    def check(rep):
        require("error" not in rep, "solver failed: %s" % rep.get("error"))
        roots = [complex(re, im) for re, im in rep["roots"]]
        require(len(roots) == k, "expected %d roots" % k)
        require(all(cmath.isfinite(v) for v in roots), "non-finite root")
        require(
            min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]) > COLLISION_TOL,
            "coincident roots",
        )
        require(rep["residual"] <= RESIDUAL_GATE, "reported residual %g" % rep["residual"])
        defect = oracles.bethe_defect(roots, L, alpha, beta)
        require(defect <= RESIDUAL_GATE, "recomputed residual %g" % defect)
        require(rep["eigenfunction_defect"] <= DEFECT_GATE, "eigenfunction defect too large")
        require(rep["pi_invariance_defect"] <= DEFECT_GATE, "pi-invariance defect too large")
        lam = complex(*rep["eigenvalue"])
        require(abs(lam - sum(roots)) <= 1e-12 * (1 + abs(lam)), "eigenvalue is not sum p")
        require(rep["window"] == w, "window echoed wrong")
        return (2 * w + 1) ** k

    return check


def _check_wave_rows(k, L, w, p, alpha, beta, exact):
    def check(rep):
        rows = rep["rows"]
        points = list(oracles.window(k, w))
        require(len(rows) == len(points), "expected %d rows" % len(points))
        for row, x in zip(rows, points):
            require(tuple(row["x"]) == x, "row for %s out of order" % (row["x"],))
            want, scale = oracles.bethe_wave(p, x, L, alpha, beta)
            if exact:
                require(Fraction(row["value"]) == want, "h_p(%s) differs" % (x,))
            else:
                got = complex(*row["value"])
                require(abs(got - want) <= FLOAT_REL_TOL * (1 + scale), "h_p(%s) differs" % (x,))
        return len(rows)

    return check


def bethe_wave(rng, scale, workdir):
    w2, w3, w4, wf4, wf3, wf3_csv = scale["bethe_windows"]
    p_file = str(workdir / "roots-k3.json")
    alpha, beta = Fraction(BETHE_COUPLINGS[0]), Fraction(BETHE_COUPLINGS[1])
    p4 = distinct_fractions(rng, 4)
    lam = tuple(sorted((rng.randint(0, 3) for _ in range(5)), reverse=True))
    z = distinct_fractions(rng, 5)
    t = Fraction(rng.randint(1, 5), rng.randint(2, 6))
    while t == 1:
        t = Fraction(rng.randint(1, 5), rng.randint(2, 6))

    def fracs(vals):
        return ",".join(str(v) for v in vals)

    def check_p_file_rows(w):
        def check(rep):
            with open(p_file) as fh:
                roots = tuple(complex(re, im) for re, im in json.load(fh)["roots"])
            return _check_wave_rows(3, 5, w, roots, complex(alpha), complex(beta), False)(rep)

        return check

    def check_hl(rep):
        require(rep["lam"] == list(lam), "partition echoed wrong")
        require(Fraction(rep["value"]) == oracles.hl_P(lam, z, t), "P_lambda differs")
        return 1

    return [
        cli_op(
            "bethe k=2 L=4",
            ["bethe", *_coupling_args(2, 4), "--seeds", "0,1", "--window", str(w2)],
            _check_bethe_report(2, 4, w2),
        ),
        cli_op(
            "bethe k=3 L=5",
            ["bethe", *_coupling_args(3, 5), "--seeds", "0,1,2", "--window", str(w3), "--out", p_file],
            _check_bethe_report(3, 5, w3),
            out_path=p_file,
        ),
        cli_op(
            "bethe k=4 L=7",
            ["bethe", *_coupling_args(4, 7), "--seeds", "0,1,2,3", "--window", str(w4)],
            _check_bethe_report(4, 7, w4),
        ),
        cli_op(
            "wavefunction k=4 exact",
            ["wavefunction", *_coupling_args(4, 7), "--p=" + fracs(p4), "--window", str(wf4)],
            _check_wave_rows(4, 7, wf4, p4, alpha, beta, True),
        ),
        cli_op(
            "wavefunction k=3 p-file",
            ["wavefunction", *_coupling_args(3, 5), "--p-file", p_file, "--window", str(wf3)],
            check_p_file_rows(wf3),
        ),
        cli_op(
            "wavefunction k=3 p-file csv",
            ["wavefunction", *_coupling_args(3, 5), "--p-file", p_file, "--window", str(wf3_csv),
             "--format", "csv"],
            check_p_file_rows(wf3_csv),
            parse=parse_csv_rows,
        ),
        cli_op(
            "hall-littlewood n=5",
            ["hall-littlewood", "--lam", fracs(lam), "--z=" + fracs(z), "--t", str(t)],
            check_hl,
        ),
    ]


# -- solver-corpus -----------------------------------------------------------

# On a 2-core x86-64 virtual machine every instance that ends does so within
# 0.3 s (0.6 s in a slow phase, see speed.py); the rest, such as k=2, L=4,
# alpha=0, beta=-3, never end.
SOLVER_TIMEOUT_S = 2.0
SOLVER_STEPS = 20
FAIL_CLASSES = ("collision", "stall", "pole", "other", "timeout")


def solver_corpus_instances(seed, n):
    """Random Bethe instances: k in {2, 3}, L in k..k+2, alpha = a/b with
    |a| <= 6 and b <= 3, beta drawn the same way but nonzero, distinct seed
    roots.

    The couplings are a systematic sample: the frame of every (k, L, beta,
    alpha) choice, sorted, is cut into n equal steps and one choice is taken
    per step from a random start.  Each choice is as likely as under
    independent draws, but every corpus spreads evenly over the frame, so
    the share of slow instances varies less from seed to seed."""
    rng = rng_for("solver-corpus", seed)
    frame = sorted(
        (k, L, Fraction(bn, bd), Fraction(an, ad))
        for k in (2, 3)
        for L in range(k, k + 3)
        for bn in range(-6, 7) if bn
        for bd in (1, 2, 3)
        for an in range(-6, 7)
        for ad in (1, 2, 3)
    )
    step = len(frame) / n
    start = rng.random() * step
    out = []
    for i in range(n):
        k, L, beta, alpha = frame[int(start + i * step)]
        out.append((Params(k, L, alpha, beta), tuple(rng.sample(range(L), k))))
    return out


def classify(err):
    msg = str(err)
    if msg.startswith("root collision"):
        return "collision"
    if msg.startswith("continuation stalled"):
        return "stall"
    if "denominator" in msg:
        return "pole"
    return "other"


def solver_op(params, seeds, span="bethe.solve_bethe"):
    alpha, beta = complex(params.alpha), complex(params.beta)

    def call(tr):
        try:
            with tr.span(span):
                return bethe.solve_bethe(params, seeds, homotopy_steps=SOLVER_STEPS)
        except bethe.BetheSolverError as err:
            return Unsolved(classify(err))
        except OpTimeout:
            return Unsolved("timeout")

    def check(out):
        if isinstance(out, Unsolved):
            return 1
        roots = out.p
        require(len(roots) == params.k, "expected %d roots" % params.k)
        require(all(cmath.isfinite(v) for v in roots), "non-finite root")
        require(out.residual <= RESIDUAL_GATE, "reported residual %g" % out.residual)
        defect = oracles.bethe_defect(roots, params.L, alpha, beta)
        require(defect <= RESIDUAL_GATE, "recomputed residual %g" % defect)
        return 1

    name = "solve k=%d L=%d alpha=%s beta=%s seeds=%s" % (
        params.k, params.L, params.alpha, params.beta, seeds)
    return Op(name, call, check, timeout_s=SOLVER_TIMEOUT_S)


def solver_corpus(seed, scale):
    return [solver_op(params, seeds) for params, seeds in solver_corpus_instances(seed, scale["corpus"])]


def build(workload, seed, scale, workdir, pass_index=0):
    """The ops of one pass.  Each pass draws fresh inputs from (seed, pass
    index), so a run's medians average over inputs, except on solver-corpus,
    whose every pass runs the seed's one corpus, so that its failure counts
    repeat exactly."""
    if workload == "solver-corpus":
        return solver_corpus(seed, scale)
    rng = rng_for(workload, "%s/%s" % (seed, pass_index))
    if workload == "verify-exact":
        return verify_exact(rng, scale)
    if workload == "propagate-far":
        return propagate_far(rng, scale)
    if workload == "bethe-wave":
        return bethe_wave(rng, scale, workdir)
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("verify-exact", "propagate-far", "bethe-wave", "solver-corpus")
