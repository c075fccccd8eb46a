"""Command-line interface: verification suites, Bethe solving, wave-function
tables, and Hall-Littlewood evaluation, with machine-readable output."""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import sys
import time
from fractions import Fraction

from . import bethe, hamiltonian, verify, weyl
from .bethe import BetheSolverError, bethe_wave_function
from .weyl import Params


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError("invalid rational %r: %s" % (text, err))


def _fraction_list(text):
    return tuple(_fraction(part) for part in text.split(","))


def _int_list(text):
    values = []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError("invalid integer %r in %r" % (part, text))
    return tuple(values)


def _window(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("window must be a non-negative integer, got %r" % text)
    return int(text)


def _steps(text):
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError("steps must be a positive integer, got %r" % text)
    return int(text)


def _emit(payload, out):
    text = payload  # a str is already rendered: the CSV table
    if not isinstance(payload, str):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scalar_cell(value):
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def cmd_verify(args):
    params = Params(args.k, args.L, args.alpha, args.beta)
    report = verify.run_suite(args.suite, params, args.window, args.seed)
    _emit(report, args.out)
    return 2 if report.get("vacuous") else 1 if report["failures"] else 0


def cmd_bethe(args):
    params = Params(args.k, args.L, args.alpha, args.beta)
    # the pipeline runs at complex couplings; one whose largest H weight, alpha (k - 1) or
    # beta ** (k - 1), does not convert, or a beta that converts to 0, is rejected here
    complex(params.alpha * (params.k - 1)), complex(params.beta ** (params.k - 1))
    if complex(params.beta) == 0:
        raise ValueError("beta is nonzero but underflows to 0 as a complex number")
    floats = Params(params.k, params.L, complex(params.alpha), complex(params.beta))
    t0 = time.perf_counter()
    try:
        root = bethe.solve_bethe(floats, args.seeds, homotopy_steps=args.steps)
    except BetheSolverError as err:
        _emit(
            {
                "schema": 1,
                "error": str(err),
                "failing_s": err.s,
                "params": verify.params_dict(params),
            },
            args.out,
        )
        return 1

    h = bethe_wave_function(root.p, floats)
    lam = sum(root.p)
    eig_defects, pi_defects = [0.0], [0.0]
    for x in verify.window_points(params.k, args.window):
        hx = h(x)
        scale = 1.0 + abs(hx)
        eig_defects.append(abs(hamiltonian.apply_H(h, x, floats) - lam * hx) / scale)
        pi_defects.append(abs(h(weyl.rotate(x, params.L)) - hx) / scale)

    report = {
        "schema": 1,
        "params": verify.params_dict(params),
        "seeds": list(args.seeds),
        "steps": args.steps,
        "window": args.window,
        "roots": [[v.real, v.imag] for v in root.p],
        "residual": root.residual,
        "eigenvalue": [lam.real, lam.imag],
        "eigenfunction_defect": bethe._max_or_nan(eig_defects),
        "pi_invariance_defect": bethe._max_or_nan(pi_defects),
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 3),
    }
    _emit(report, args.out)
    # a NaN defect fails the comparison too
    defects = (report["eigenfunction_defect"], report["pi_invariance_defect"])
    return 0 if all(d <= bethe.DEFECT_TOL for d in defects) else 1


def _read_roots(path):
    """The finite complex roots of a ``bethe`` report, as ``--p-file`` reads them."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        p = tuple(complex(re, im) for re, im in data["roots"])
        # complex() reads a JSON true or false, a bool, as 1 or 0
        for part in (v for root in data["roots"] for v in root):
            if type(part) not in (int, float):
                raise TypeError("root part %s is not a number" % json.dumps(part))
    except (KeyError, OverflowError, TypeError, ValueError) as err:
        raise ValueError(
            "%s holds no list of [re, im] roots (%s: %s)" % (path, type(err).__name__, err)
        )
    if not all(cmath.isfinite(v) for v in p):
        raise ValueError("%s holds a non-finite root" % path)
    return p


def cmd_wavefunction(args):
    params = Params(args.k, args.L, args.alpha, args.beta)
    p = args.p if args.p_file is None else _read_roots(args.p_file)
    h = bethe_wave_function(p, params)  # rejects a p of the wrong length, a zero or a repeat
    rows = []
    for x in verify.window_points(params.k, args.window):
        value = h(x)
        if isinstance(value, complex) and not cmath.isfinite(value):
            raise ValueError("wave function is not finite at x = %s: %r" % (list(x), value))
        rows.append((list(x), _scalar_cell(value)))

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["x%d" % (i + 1) for i in range(params.k)]
        complex_mode = rows and isinstance(rows[0][1], list)
        writer.writerow(header + (["re", "im"] if complex_mode else ["value"]))
        for x, value in rows:
            writer.writerow(x + (value if complex_mode else [value]))
        _emit(buf.getvalue(), args.out)
    else:
        _emit(
            {
                "schema": 1,
                "params": verify.params_dict(params),
                "window": args.window,
                "rows": [{"x": x, "value": value} for x, value in rows],
            },
            args.out,
        )
    return 0


def cmd_hall_littlewood(args):
    value = bethe.hall_littlewood_P(args.lam, args.z, args.t)
    _emit(
        {
            "schema": 1,
            "lam": list(args.lam),
            "z": [str(v) for v in args.z],
            "t": str(args.t),
            "value": _scalar_cell(value),
        },
        args.out,
    )
    return 0


def _add_params(parser):
    parser.add_argument("--k", type=int, required=True, help="particle number (>= 2)")
    parser.add_argument("--L", type=int, required=True, help="system size (>= 1)")
    parser.add_argument("--alpha", type=_fraction, default=Fraction(0),
                        help="coupling alpha, as a/b")
    parser.add_argument("--beta", type=_fraction, default=Fraction(1),
                        help="coupling beta, as a/b")


class _Parser(argparse.ArgumentParser):
    """A usage error gets the one stderr line that every rejected input gets."""

    def error(self, message):
        self.exit(2, "hecke-bose: error: %s\n" % message)


@functools.cache  # one parser per process: parse_args keeps no state on it
def build_parser():
    parser = _Parser(
        prog="hecke-bose",
        description="Exact verification and computation for the discrete periodic "
        "delta Bose gas and its integral-reflection operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named identity suite")
    p_verify.add_argument("suite", choices=verify.SUITES)
    _add_params(p_verify)
    p_verify.add_argument("--window", type=_window, default=3)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bethe = sub.add_parser("bethe", help="solve the Bethe equations by continuation")
    _add_params(p_bethe)
    p_bethe.add_argument(
        "--seeds", type=_int_list, required=True,
        help="comma-separated indices of L-th roots of unity (k distinct values)",
    )
    p_bethe.add_argument("--steps", type=_steps, default=40)
    p_bethe.add_argument("--window", type=_window, default=4)
    p_bethe.add_argument("--out", default=None)
    p_bethe.set_defaults(func=cmd_bethe)

    p_wave = sub.add_parser("wavefunction", help="tabulate a Bethe wave function")
    _add_params(p_wave)
    spectral = p_wave.add_mutually_exclusive_group(required=True)
    spectral.add_argument("--p", type=_fraction_list,
                          help="comma-separated rational spectral parameters")
    spectral.add_argument("--p-file",
                          help="JSON file with complex roots (output of the bethe command)")
    p_wave.add_argument("--window", type=_window, default=2)
    p_wave.add_argument("--format", choices=("json", "csv"), default="json")
    p_wave.add_argument("--out", default=None)
    p_wave.set_defaults(func=cmd_wavefunction)

    p_hl = sub.add_parser("hall-littlewood", help="evaluate a Hall-Littlewood polynomial")
    p_hl.add_argument("--lam", type=_int_list, required=True, help="partition, e.g. 2,1")
    p_hl.add_argument("--z", type=_fraction_list, required=True, help="variables, e.g. 1/2,3,-1")
    p_hl.add_argument("--t", type=_fraction, required=True)
    p_hl.add_argument("--out", default=None)
    p_hl.set_defaults(func=cmd_hall_littlewood)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError, MemoryError) as err:
        parser.exit(2, "hecke-bose: error: %s: %s\n" % (type(err).__name__, err))


if __name__ == "__main__":
    sys.exit(main())
