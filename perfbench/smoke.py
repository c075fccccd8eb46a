"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the tiny scale, untraced and traced, and checks that
each run's last line is a correct result naming every metric of
BENCHMARK.json with its unit.  Then it feeds corrupted outputs to the output
checkers and checks that each one counts as a failed op, not a pass.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402  (puts the program on sys.path)
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


def expect(cond, message):
    if not cond:
        raise SystemExit("smoke: FAILED: " + message)


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload list")
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            what = "%s --trace %d" % (workload, trace)
            expect(proc.returncode == 0, "%s exited %d: %s" % (what, proc.returncode, proc.stderr[-2000:]))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], what + ": result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   what + ": not a correct run: " + proc.stderr[-2000:])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, "%s: metrics differ: missing %s, extra %s" % (
                what, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
            print("smoke: %-28s all %d metrics, %d ops" % (what, len(want), result["attempted"]))


def _edit_json(text, edit):
    rep = json.loads(text)
    edit(rep)
    return json.dumps(rep)


def _set(key, value):
    return lambda rep: rep.__setitem__(key, value)


def _bump_first_row(rep):
    row = rep["rows"][0]
    if isinstance(row["value"], list):
        row["value"] = [row["value"][0] + 1e-3, row["value"][1]]
    else:
        row["value"] = str(Fraction(row["value"]) + 1)


def _bump_csv_cell(out):
    rc, text = out
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[-2] = repr(float(cells[-2]) + 1e-3)
    return rc, "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"


def corruptions():
    """(workload, op name, corrupt(output) -> output) triples; the name None
    means the first solver op whose instance converges."""
    cli = lambda edit: lambda out: (out[0], _edit_json(out[1], edit))  # noqa: E731
    return [
        ("verify-exact", "verify hecke k=3 L=2 w=1", lambda rep: {**rep, "checks_run": rep["checks_run"] - 1}),
        ("verify-exact", "verify duality k=3 L=2 w=1", lambda rep: {**rep, "failures": [{"x": [0, 0, 0], "detail": "x"}]}),
        ("propagate-far", "far k=2 x=(2, -2)", lambda out: (out[0] + 1,) + out[1:]),
        ("bethe-wave", "bethe k=2 L=4", cli(_set("residual", 1e-3))),
        ("bethe-wave", "bethe k=4 L=7", cli(_set("eigenfunction_defect", 1e-6))),
        ("bethe-wave", "bethe k=4 L=7", cli(lambda rep: rep["roots"][0].__setitem__(0, rep["roots"][0][0] + 1e-6))),
        ("bethe-wave", "wavefunction k=4 exact", cli(_bump_first_row)),
        ("bethe-wave", "wavefunction k=3 p-file", cli(_bump_first_row)),
        ("bethe-wave", "wavefunction k=3 p-file csv", _bump_csv_cell),
        ("bethe-wave", "hall-littlewood n=5", cli(_set("value", "1/7"))),
        ("bethe-wave", "hall-littlewood n=5", lambda out: (2, out[1])),
        ("solver-corpus", None, lambda sp: dataclasses.replace(sp, p=(sp.p[0] * 1.001,) + sp.p[1:])),
    ]


def check_corruption_counts_as_failure():
    out_dir = run.OUT / "smoke"
    out_dir.mkdir(parents=True, exist_ok=True)
    scale = workloads.SCALES["tiny"]
    tracer = NullTracer()
    for workload, name, corrupt in corruptions():
        ops = workloads.build(workload, 1, scale, out_dir)
        if name is None:
            index = next(i for i, op in enumerate(ops) if not isinstance(op.call(tracer), workloads.Unsolved))
        else:
            index = [op.name for op in ops].index(name)
        for op in ops[:index]:  # earlier ops may write files a later op reads
            op.call(tracer)
        op = ops[index]
        clean = run.Tally()
        run.run_op(op, tracer, clean)
        expect(clean.failed == 0, "%s: the clean output of %r failed its check" % (workload, op.name))
        bad_op = workloads.Op(op.name, lambda tr, op=op: corrupt(op.call(tr)), op.check)
        bad = run.Tally()
        run.run_op(bad_op, tracer, bad)
        expect(bad.failed == 1 and bad.attempted == 1,
               "%s: a corrupted output of %r was not counted as a failed op" % (workload, op.name))
        print("smoke: corrupted %-26s -> failed op (%s)" % (op.name, next(iter(bad.failures))))
    for p in out_dir.iterdir():
        p.unlink()
    out_dir.rmdir()


def main():
    signal.signal(signal.SIGALRM, run.on_alarm)
    check_metric_names()
    check_corruption_counts_as_failure()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
