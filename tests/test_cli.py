"""Command-line interface: output schemas, exit codes, and determinism."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hecke_bose
from hecke_bose import bethe, cli, hamiltonian, verify
from hecke_bose.bethe import bethe_wave
from hecke_bose.cli import main
from hecke_bose.weyl import Params


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _call(argv):
    """Exit code, stdout and stderr of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_verify_success_exit_code_and_schema(capsys):
    code, out = _run(
        capsys,
        ["verify", "theorem", "--k", "2", "--L", "2",
         "--alpha=-1/3", "--beta", "2/5", "--window", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["suite"] == "theorem"
    assert report["params"] == {"k": 2, "L": 2, "alpha": "-1/3", "beta": "2/5"}
    assert report["checks_run"] == 25
    assert report["failures"] == []
    assert report["elapsed_ms"] >= 0


@pytest.mark.parametrize(
    "suite", ["hecke", "duality", "d-change", "w-invariance", "lemma-main", "hl-identity"]
)
def test_verify_all_suites_pass(capsys, suite):
    code, out = _run(
        capsys,
        ["verify", suite, "--k", "2", "--L", "2",
         "--alpha=-1/2", "--beta", "3/4", "--window", "2", "--seed", "7"],
    )
    report = json.loads(out)
    assert code == 0
    assert report["failures"] == []
    assert report["checks_run"] > 0


def test_verify_is_deterministic(capsys):
    argv = ["verify", "hecke", "--k", "2", "--L", "2",
            "--alpha", "1/3", "--beta", "2", "--window", "2", "--seed", "3"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b
    # byte-identical apart from the timing line
    strip = lambda text: [ln for ln in text.splitlines() if "elapsed_ms" not in ln]
    assert strip(first) == strip(second)


def test_hl_identity_reports_the_alpha_it_checks(capsys):
    # the identity is stated at alpha = 0; the report says so whatever alpha
    # was given, and the run is the same
    reports = []
    for alpha in ("--alpha", "0"), ("--alpha=-2/3",):
        code, out = _run(
            capsys,
            ["verify", "hl-identity", "--k", "3", "--L", "2", *alpha,
             "--beta", "3", "--window", "2", "--seed", "1"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["params"]["alpha"] == "0"
        report.pop("elapsed_ms")
        reports.append(report)
    assert reports[0] == reports[1]


def test_verify_detects_injected_defect(capsys, monkeypatch):
    # corrupt the counting pass, every d_i^+ off by one at one point; the
    # identity suite must notice and report a nonzero exit code with
    # populated failure records
    real = hamiltonian._d_counts

    def corrupted(x, params):
        plus, minus = real(x, params)
        if x == (1, 1):
            plus = [d + 1 for d in plus]
        return plus, minus

    monkeypatch.setattr(hamiltonian, "_d_counts", corrupted)
    code, out = _run(
        capsys,
        ["verify", "theorem", "--k", "2", "--L", "2",
         "--alpha=-1/3", "--beta", "2/5", "--window", "2"],
    )
    assert code == 1
    report = json.loads(out)
    assert report["failures"]
    entry = report["failures"][0]
    assert set(entry) == {"x", "detail"}


def test_verify_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(
        ["verify", "d-change", "--k", "2", "--L", "2", "--window", "2",
         "--out", str(path)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(path.read_text())
    assert report["failures"] == []


def test_bethe_command_reports_solution(capsys):
    code, out = _run(
        capsys,
        ["bethe", "--k", "2", "--L", "2", "--alpha=-1", "--beta", "1",
         "--seeds", "0,1", "--steps", "40", "--window", "3"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert len(report["roots"]) == 2
    assert report["residual"] < 1e-10
    assert report["eigenfunction_defect"] < 1e-8
    assert report["pi_invariance_defect"] < 1e-8
    # golden-ratio pair for these couplings
    values = sorted(re for re, im in report["roots"])
    assert abs(values[0] + 0.6180339887498949) < 1e-9
    assert abs(values[1] - 1.6180339887498949) < 1e-9


def test_bethe_command_reports_a_nan_defect(capsys, monkeypatch):
    # a NaN at a window point after the first must reach the report, not be
    # passed over by max()
    real = hamiltonian.apply_H

    def corrupted(f, x, params):
        return math.nan if x == (1, 1) else real(f, x, params)

    monkeypatch.setattr(hamiltonian, "apply_H", corrupted)
    code, out = _run(
        capsys,
        ["bethe", "--k", "2", "--L", "2", "--alpha=-1", "--beta", "1",
         "--seeds", "0,1", "--window", "2"],
    )
    assert code == 1
    report = json.loads(out)
    assert math.isnan(report["eigenfunction_defect"])
    assert report["pi_invariance_defect"] < 1e-8


def test_bethe_command_fails_on_a_finite_defect(capsys, monkeypatch):
    # a finite defect above the 1e-8 gate exits 1 with the full report
    real = hamiltonian.apply_H

    def corrupted(f, x, params):
        return real(f, x, params) + (1e-6 if x == (1, 1) else 0)

    monkeypatch.setattr(hamiltonian, "apply_H", corrupted)
    code, out = _run(
        capsys,
        ["bethe", "--k", "2", "--L", "2", "--alpha=-1", "--beta", "1",
         "--seeds", "0,1", "--window", "2"],
    )
    assert code == 1
    report = json.loads(out)
    assert 1e-8 < report["eigenfunction_defect"] < 1e-6
    assert report["pi_invariance_defect"] < 1e-8


def test_bethe_command_stops_a_creeping_continuation(capsys):
    # this path creeps toward the singular coupling beta = -1 in ever smaller
    # steps; the Newton-call budget ends it with an error report
    t0 = time.perf_counter()
    code, out = _run(
        capsys,
        ["bethe", "--k", "2", "--L", "4", "--alpha", "0", "--beta=-3",
         "--seeds", "3,2", "--steps", "20"],
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    report = json.loads(out)
    assert report["error"].startswith("continuation budget exhausted")
    assert 0 < report["failing_s"] < 1


def test_bethe_command_rejects_bad_seed_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bethe", "--k", "2", "--L", "2", "--seeds", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["wavefunction", "--k", "2", "--L", "2", "--p", "0,5"],
        ["verify", "theorem", "--k", "1", "--L", "2"],
        ["verify", "theorem", "--k", "2", "--L", "2", "--beta", "0"],
        ["bethe", "--k", "2", "--L", "0", "--seeds", "0,1"],
        ["hall-littlewood", "--lam", "1", "--z", "2,2", "--t", "1/2"],
        ["hall-littlewood", "--lam", "1,2", "--z", "2,3", "--t", "1/2"],
        # couplings too large for a float overflow in the solver and in apply_H
        ["bethe", "--k", "2", "--L", "2", "--seeds", "0,1", "--alpha", "1e400"],
        ["bethe", "--k", "3", "--L", "3", "--seeds", "0,1,2", "--beta", "1e300"],
        # more parts than variables
        ["hall-littlewood", "--lam", "1,1,1", "--z", "1/2,3", "--t", "1/3"],
        # a repeated part at t = -1: the normalization 1 + t vanishes
        ["hall-littlewood", "--lam", "1,1", "--z", "2,3", "--t=-1"],
        # a zero spectral parameter, at couplings that reach its negative powers
        ["wavefunction", "--k", "2", "--L", "2", "--alpha=-1/3", "--beta", "2/5",
         "--p", "0,5", "--window", "1"],
        # coincident spectral parameters: h_p is zero everywhere
        ["wavefunction", "--k", "2", "--L", "2", "--alpha=-1/3", "--beta", "2/5",
         "--p", "2,2", "--window", "1"],
        ["wavefunction", "--k", "3", "--L", "2", "--p", "1/2,5,5", "--window", "0"],
        # a malformed entry of an integer list
        ["hall-littlewood", "--lam", "1,,2", "--z", "1/2,3,-1", "--t", "1/3"],
        ["bethe", "--k", "2", "--L", "2", "--seeds", "0,a"],
    ],
)
def test_bad_input_exits_without_traceback(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("hecke-bose: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,cause",
    [
        (["hall-littlewood", "--lam", "1,1", "--z", "2,3", "--t=-1"],
         "v_lambda(t) vanishes at t = -1 with part 1 repeated"),
        (["hall-littlewood", "--lam", "2", "--z", "2,3,5", "--t=-1"],
         "v_lambda(t) vanishes at t = -1 with part 0 repeated"),
        (["wavefunction", "--k", "2", "--L", "2", "--alpha=-1/3", "--beta", "2/5",
          "--p", "0,5", "--window", "1"], "p_1 = 0"),
        (["wavefunction", "--k", "3", "--L", "2", "--p", "2,5,0", "--window", "0"], "p_3 = 0"),
        (["wavefunction", "--k", "2", "--L", "2", "--alpha=-1/3", "--beta", "2/5",
          "--p", "2,2", "--window", "1"], "p_1 = p_2, so h_p vanishes identically"),
        (["wavefunction", "--k", "3", "--L", "2", "--p", "1/2,5,5", "--window", "0"],
         "p_2 = p_3, so h_p vanishes identically"),
        # several faults at once: the first in check order is named
        (["hall-littlewood", "--lam=-1,2", "--z", "2,2", "--t=-1"],
         "partition parts must be nonnegative"),
        (["hall-littlewood", "--lam", "1,2,3", "--z", "2,2", "--t=-1"],
         "partition parts must be weakly decreasing"),
        (["hall-littlewood", "--lam", "1,1,1", "--z", "2,2", "--t", "1/3"],
         "exponent tuple longer than variable list"),
        (["hall-littlewood", "--lam", "1,1", "--z", "2,2", "--t=-1"],
         "coincident variables z_1 = z_2"),
        # a malformed entry of an integer list is named with its argument
        (["hall-littlewood", "--lam", "1,,2", "--z", "1/2,3,-1", "--t", "1/3"],
         "argument --lam: invalid integer '' in '1,,2'"),
        (["bethe", "--k", "2", "--L", "2", "--seeds", "0,a"],
         "argument --seeds: invalid integer 'a' in '0,a'"),
        # a nonzero beta below the float range: the complex pipeline would read 0
        (["bethe", "--k", "2", "--L", "4", "--beta", "1e-400", "--seeds", "0,1"],
         "beta is nonzero but underflows to 0 as a complex number"),
    ],
)
def test_bad_input_names_its_cause(capsys, argv, cause):
    # a division by zero, or a table that would be zero everywhere, names the
    # input that caused it; a value argparse rejects is named with its argument
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    kind = "" if cause.startswith("argument ") else "ValueError: "
    assert "hecke-bose: error: %s%s" % (kind, cause) in capsys.readouterr().err


def test_overflowing_coupling_writes_one_stderr_line(capsys):
    # apply_H's weight tables reject beta ** 2 before the solve, and no warning
    # may reach stderr ahead of the one error line; as errors they would be tracebacks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["bethe", "--k", "3", "--L", "3", "--seeds", "0,1,2", "--beta", "1e300"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("hecke-bose: error: ")


def test_cli_import_leaves_numpy_out():
    # the package runs on the standard library alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(hecke_bose.__file__)))
    code = "import sys, hecke_bose.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "False\n"


@pytest.mark.parametrize(
    "command",
    [["verify", "theorem"], ["bethe", "--seeds", "0,1"], ["wavefunction", "--p", "2,5"]],
)
def test_negative_window_rejected(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--k", "2", "--L", "2", "--window", "-1"])
    assert exc.value.code == 2
    assert "window" in capsys.readouterr().err


def test_superscript_window_names_its_cause(capsys):
    # str.isdigit() passes a superscript digit, which int() then rejects
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hecke", "--k", "2", "--L", "1", "--window", "³"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "hecke-bose: error: argument --window: window must be a non-negative integer, got '³'"
    ]


@pytest.mark.parametrize("steps", ["0", "-5", "x", "²"])
def test_steps_must_be_positive(capsys, steps):
    with pytest.raises(SystemExit) as exc:
        main(["bethe", "--k", "2", "--L", "2", "--seeds", "0,1", "--steps", steps])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "hecke-bose: error: argument --steps: steps must be a positive integer, got %r" % steps
    ]


def test_verify_without_checks_is_vacuous(capsys):
    # with k > L no point is regular, so w-invariance has nothing to check
    code, out = _run(capsys, ["verify", "w-invariance", "--k", "3", "--L", "2", "--window", "1"])
    assert code == 2
    report = json.loads(out)
    assert report["checks_run"] == 0
    assert report["vacuous"] is True
    code, out = _run(capsys, ["verify", "d-change", "--k", "2", "--L", "2", "--window", "1"])
    assert code == 0
    assert "vacuous" not in json.loads(out)


def test_wavefunction_json_round_trips_exact_rationals(capsys):
    params = Params(2, 2, Fraction(-1, 3), Fraction(2, 5))
    code, out = _run(
        capsys,
        ["wavefunction", "--k", "2", "--L", "2", "--alpha=-1/3",
         "--beta", "2/5", "--p", "2,5", "--window", "2"],
    )
    assert code == 0
    report = json.loads(out)
    rows = report["rows"]
    assert len(rows) == 25
    p = (Fraction(2), Fraction(5))
    for row in rows:
        x = tuple(row["x"])
        assert Fraction(row["value"]) == bethe_wave(p, x, params)


def test_wavefunction_csv_output(capsys):
    code, out = _run(
        capsys,
        ["wavefunction", "--k", "2", "--L", "2", "--alpha=-1/3",
         "--beta", "2/5", "--p", "2,5", "--window", "1", "--format", "csv"],
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x1", "x2", "value"]
    assert len(rows) == 10
    params = Params(2, 2, Fraction(-1, 3), Fraction(2, 5))
    p = (Fraction(2), Fraction(5))
    for x1, x2, value in rows[1:]:
        assert Fraction(value) == bethe_wave(p, (int(x1), int(x2)), params)


def test_wavefunction_from_bethe_output_file(capsys, tmp_path):
    solved = tmp_path / "roots.json"
    code = main(
        ["bethe", "--k", "2", "--L", "3", "--alpha", "0", "--beta", "1/2",
         "--seeds", "0,1", "--out", str(solved)]
    )
    assert code == 0
    capsys.readouterr()
    code, out = _run(
        capsys,
        ["wavefunction", "--k", "2", "--L", "3", "--alpha", "0",
         "--beta", "1/2", "--p-file", str(solved), "--window", "1"],
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 9
    for row in report["rows"]:
        assert isinstance(row["value"], list) and len(row["value"]) == 2


def test_wavefunction_requires_spectral_parameters():
    with pytest.raises(SystemExit):
        main(["wavefunction", "--k", "2", "--L", "2", "--window", "1"])
    with pytest.raises(SystemExit):
        main(["wavefunction", "--k", "2", "--L", "2", "--p", "2", "--window", "1"])


@pytest.mark.parametrize(
    "p_file,argv",
    [
        ('{"roots": [[NaN, 0], [1, 0]]}', ["--p-file", "roots.json"]),
        ('{"roots": [[1, 0], [Infinity, 2]]}', ["--p-file", "roots.json"]),
        ('{"residual": 0.0}', ["--p-file", "roots.json"]),
        ('{"roots": [1, 2]}', ["--p-file", "roots.json"]),
        (None, ["--p-file", "roots.json"]),
        ('{"roots": [[1, 0], [0, 1], [-1, 0]]}', ["--p-file", "roots.json"]),
        ('{"roots": [[1e-200, 0], [2e-200, 0]]}', ["--p-file", "roots.json"]),
        (None, ["--p", "2,3,5"]),
        (None, []),
        ('{"roots": [[1, 0], [0, 1]]}', ["--p", "3,5", "--p-file", "roots.json"]),
        ('{"roots": [[0.5, 0.25], [0.5, 0.25]]}', ["--p-file", "roots.json"]),
        ('{"roots": [[true, 0], [0, 1]]}', ["--p-file", "roots.json"]),
        ('{"roots": [[1%s, 0], [0, 1]]}' % ("0" * 400), ["--p-file", "roots.json"]),
    ],
    ids=["nan", "infinity", "no-roots-key", "not-pairs", "no-file", "root-count",
         "overflowing-powers", "p-count", "no-p", "p-and-p-file", "coincident-roots",
         "boolean-root", "huge-root"],
)
def test_wavefunction_bad_spectral_parameters_exit_2(capsys, tmp_path, monkeypatch, p_file, argv):
    monkeypatch.chdir(tmp_path)
    if p_file is not None:
        (tmp_path / "roots.json").write_text(p_file)
    with pytest.raises(SystemExit) as exc:
        main(["wavefunction", "--k", "2", "--L", "2", "--window", "1"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("hecke-bose: error: ")


def test_p_file_root_too_large_for_a_float_names_the_file(tmp_path, monkeypatch):
    # a 401-digit root part ended in "OverflowError: int too large to convert
    # to float", without the file's name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "roots.json").write_text('{"roots": [[1%s, 0], [0, 1]]}' % ("0" * 400))
    argv = ["wavefunction", "--k", "2", "--L", "2", "--window", "1", "--p-file", "roots.json"]
    err = ("hecke-bose: error: ValueError: roots.json holds no list of [re, im] roots "
           "(OverflowError: int too large to convert to float)\n")
    assert _call(argv) == (2, "", err)


def test_memory_error_writes_one_stderr_line(monkeypatch):
    # an accepted input whose computation runs out of memory ends like any
    # rejected input: exit 2, one stderr line, no traceback
    def exhausted(lam, z, t):
        raise MemoryError("cannot allocate the table")

    monkeypatch.setattr(bethe, "hall_littlewood_P", exhausted)
    argv = ["hall-littlewood", "--lam", "2,1", "--z", "1/2,3,-1", "--t", "1/3"]
    assert _call(argv) == (2, "", "hecke-bose: error: MemoryError: cannot allocate the table\n")


def test_one_parser_serves_a_sequence_of_calls(monkeypatch):
    # main builds its parser once per process; whatever came before, a call gives
    # what the same call gives on a freshly built parser, elapsed_ms aside
    assert cli.build_parser() is cli.build_parser()
    real = hamiltonian._d_counts

    def corrupted(x, params):
        plus, minus = real(x, params)
        return ([d + 1 for d in plus] if x == (1, 1) else plus), minus

    calls = [
        (["wavefunction", "--k", "2", "--L", "2", "--p", "2,5", "--p-file", "roots.json"], 2),
        (["verify", "no-such-suite", "--k", "2", "--L", "2"], 2),
        (["verify", "theorem", "--k", "2", "--L", "2", "--alpha=-1/3", "--beta", "2/5",
          "--window", "2"], 1),
        (["bethe", "--k", "2", "--L", "2", "--alpha=-1", "--beta", "1", "--seeds", "0,1"], 0),
        (["wavefunction", "--k", "2", "--L", "2", "--alpha=-1/3", "--beta", "2/5",
          "--p", "2,5", "--window", "2"], 0),
        (["hall-littlewood", "--lam", "2,1", "--z", "1/2,3,-1", "--t", "1/3"], 0),
        # the options the theorem call set above, left out: their defaults apply
        (["verify", "d-change", "--k", "2", "--L", "2"], 0),
    ]
    mask = lambda text: re.sub(r'"elapsed_ms": [^,\n]+', '"elapsed_ms": 0', text)

    def run_all(fresh):
        outputs = []
        for argv, code in calls:
            with monkeypatch.context() as patch:
                if fresh:
                    patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
                if argv[:2] == ["verify", "theorem"]:
                    patch.setattr(hamiltonian, "_d_counts", corrupted)
                got, out, err = _call(argv)
            assert got == code
            outputs.append((got, mask(out), err))
        return outputs

    assert run_all(fresh=False) == run_all(fresh=True)
    assert cli.build_parser.__wrapped__() is not cli.build_parser()


def test_hall_littlewood_command(capsys):
    code, out = _run(
        capsys,
        ["hall-littlewood", "--lam", "2,0", "--z", "2,7", "--t", "1/3"],
    )
    assert code == 0
    report = json.loads(out)
    # z1^2 + z2^2 + (1 - t) z1 z2 = 4 + 49 + (2/3) * 14
    assert Fraction(report["value"]) == Fraction(4 + 49) + Fraction(2, 3) * 14


def test_invalid_rational_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "theorem", "--k", "2", "--L", "2", "--alpha", "x"])


# zero, the units, a rational that overflows a float and one that underflows to 0.0
_EDGE_RATIONALS = ["0", "1", "-1", "1e300", "-1e300", "1e-400"]
_rationals = st.one_of(
    st.sampled_from(_EDGE_RATIONALS),
    st.fractions(-9, 9, max_denominator=6).map(str),
)


def _joined(values):
    return ",".join(map(str, values))


@st.composite
def _cli_argv(draw):
    """An argument list for one of the four commands, reaching the edges: k = 1,
    L = 0, zero and repeated p, z and seeds, and --lam that is not a partition.
    Values go in as --name=value, so that a leading minus sign reaches the
    program rather than argparse's option matcher."""
    command = draw(st.sampled_from(["verify", "bethe", "wavefunction", "hall-littlewood"]))
    if command == "hall-littlewood":
        parts = st.lists(st.integers(-1, 3), min_size=1, max_size=4)
        lam = draw(st.one_of(parts.map(lambda v: sorted(v, reverse=True)), parts))
        # z may be one shorter than lam, which leaves more parts than variables
        z = draw(st.lists(_rationals, min_size=max(1, len(lam) - 1), max_size=4))
        return [command, "--lam=" + _joined(lam), "--z=" + _joined(z), "--t=" + draw(_rationals)]
    k = draw(st.integers(1, 4))
    # k spectral parameters or seeds, or a count that may be wrong
    count = draw(st.one_of(st.just(k), st.integers(1, 5)))
    argv = [command, "--k", str(k), "--L", str(draw(st.integers(0, 5))),
            "--alpha=" + draw(_rationals), "--beta=" + draw(_rationals),
            "--window", str(draw(st.integers(0, 2)))]
    if command == "verify":
        suite = draw(st.sampled_from(verify.SUITES))
        return argv[:1] + [suite] + argv[1:] + ["--seed", str(draw(st.integers(0, 9)))]
    if command == "bethe":
        seeds = st.lists(st.integers(0, 5), min_size=count, max_size=count, unique=True)
        seeds = draw(st.one_of(seeds, st.lists(st.integers(0, 5), min_size=count, max_size=count)))
        return argv + ["--seeds=" + _joined(seeds)]
    p = draw(st.lists(_rationals, min_size=count, max_size=count))
    return argv + ["--p=" + _joined(p), "--format=" + draw(st.sampled_from(["json", "csv"]))]


def _no_constant(name):
    raise ValueError("the output holds the non-JSON constant %s" % name)


@given(_cli_argv())
@example(["hall-littlewood", "--lam=1,1", "--z=2,3", "--t=-1"])
@example(["wavefunction", "--k", "2", "--L", "2", "--alpha=-1/3", "--beta=2/5",
          "--window", "1", "--p=0,5"])
@example(["wavefunction", "--k", "2", "--L", "2", "--alpha=-1/3", "--beta=2/5",
          "--window", "1", "--p=2,2"])
@example(["verify", "w-invariance", "--k", "2", "--L", "1", "--window", "1"])
@example(["bethe", "--k", "3", "--L", "3", "--beta=1e300", "--window", "0", "--seeds=0,1,2"])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cli_contract_on_any_input(argv):
    # exit 0, 1 or 2 and never a traceback; a rejected input gets one stderr line
    # and no stdout; a report is strict JSON; no verify run passes after zero checks.
    # The one exit 2 with a report is a vacuous verify run.  The examples are the
    # edges: t = -1 with a repeated part, a zero p_i, coincident p, a vacuous
    # verify run, and a coupling whose H weight beta^2 overflows a float.
    code, out, err = _call(argv)
    assert code in (0, 1, 2)
    if code == 2 and not out:
        assert len(err.splitlines()) == 1
        assert err.startswith("hecke-bose: error: ")
        return
    assert err == ""
    if "--format=csv" in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(rows[0]) for row in rows)
        return
    report = json.loads(out, parse_constant=_no_constant)
    if argv[0] == "verify":
        assert (code == 2) == (report["checks_run"] == 0) == report.get("vacuous", False)
    else:
        assert code != 2
