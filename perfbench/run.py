"""Benchmark for hecke-bose: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-exact --seed 1 --seconds 15 --trace 0

A run drives the package in this process, one op at a time (a closed loop
with one client), repeats whole passes over the workload's ops until
``--seconds`` have passed and the latency pool is large enough, checks every
op's output, and prints one JSON object as its last line.  With ``--trace 0``
it reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
runs the per-layer probes and alternates untraced and traced passes, and
reports the per-layer metrics.  ``--results FILE`` appends the full record,
with the meta and size block, to a JSON-lines result set that
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PASS_DEADLINE_S = 120  # start no pass later than this after launch, so a run ends inside 180 s
SETUP_REPS = {"full": 7, "tiny": 1}

# Ready time, then the speed kernel's time in the same fresh interpreter.
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, %r); import hecke_bose; "
    "from hecke_bose.cli import build_parser; build_parser(); t = time.monotonic(); "
    "sys.path.insert(0, %r); import speed; print(t, speed.kernel_time(5))"
)


def load_program():
    sys.path.insert(0, str(SRC))
    try:
        import hecke_bose
    except ImportError as err:
        sys.exit("perfbench: cannot import hecke_bose from %s: %s" % (SRC, err))
    if Path(hecke_bose.__file__).resolve().parent != SRC / "hecke_bose":
        sys.exit("perfbench: hecke_bose was imported from %s, not from %s" % (hecke_bose.__file__, SRC))
    return hecke_bose


hecke_bose = load_program()

import probes  # noqa: E402  (needs the program on sys.path)
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


class Tally:
    """What the ops of a run did: when each ran, checks, failures and unsolved
    outcomes, with the speed gauge sampled between ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.intervals = []  # (start, end) of each op's call, in run order
        self.gauge = speed.Gauge()
        self.failures = {}  # exception class -> count
        self.failure_examples = []
        self.unsolved = {}  # solver failure class -> count

    def fail(self, op, err):
        self.failed += 1
        cls = type(err).__name__
        self.failures[cls] = self.failures.get(cls, 0) + 1
        if len(self.failure_examples) < 10:
            self.failure_examples.append({"op": op.name, "class": cls, "message": str(err)[:300]})

    def latencies(self, start=0, stop=None):
        """Op latencies in reference seconds (see speed.py)."""
        return [(t1 - t0) * self.gauge.factor(t0, t1) for t0, t1 in self.intervals[start:stop]]


def on_alarm(signum, frame):
    raise workloads.OpTimeout()


def run_op(op, tracer, tally):
    """Time one op's call, then check its output.  Any exception, or a failed
    check, counts the op as failed; the run goes on."""
    tally.gauge.tick()
    tally.attempted += 1
    tracer.op_id = tally.attempted
    signal.setitimer(signal.ITIMER_REAL, op.timeout_s)
    t0 = time.perf_counter()
    try:
        with tracer.span("op"):
            out = op.call(tracer)
    except (Exception, SystemExit) as err:  # the op failed, whatever the class (the CLI
        # exits on bad arguments); record it and go on
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not isinstance(err, workloads.OpTimeout):
            tally.intervals.append((t0, time.perf_counter()))
        tally.fail(op, err)
        return
    t1 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0)
    # An op that ran out of its budget took the budget's time, not the
    # program's, so it is left out of the latencies; it still counts as attempted.
    if not (isinstance(out, workloads.Unsolved) and out.cls == "timeout"):
        tally.intervals.append((t0, t1))
    try:
        with tracer.span("perfbench.check"):
            tally.checks += op.check(out)
    except Exception as err:  # a wrong output, or one the checker cannot read
        tally.fail(op, err)
        return
    if isinstance(out, workloads.Unsolved):
        tally.unsolved[out.cls] = tally.unsolved.get(out.cls, 0) + 1


def run_pass(ops, tracer, tally):
    """Run every op once; return the pass's range of indices into tally.intervals."""
    start = len(tally.intervals)
    for op in ops:
        run_op(op, tracer, tally)
    tally.gauge.sample()  # brackets the pass's last op
    return start, len(tally.intervals)


def pass_times(tally, passes):
    return [sum(tally.latencies(*p)) for p in passes]


def above_p90(values):
    if len(values) < 2:
        return 0
    p90 = statistics.quantiles(values, n=10)[8]
    return sum(1 for v in values if v > p90)


def measure_setup(reps):
    """Median time, in reference seconds, for a fresh interpreter to import the
    package and build the CLI parser, i.e. to be ready for its first op.  The
    speed kernel runs in that interpreter right after, because this process's
    own speed is disturbed for a while after each child exits."""
    times = []
    for _ in range(reps):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-E", "-c", SETUP_CODE % (str(SRC), str(HERE))],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode:
            raise RuntimeError("set-up interpreter failed: %s" % proc.stderr.strip()[-500:])
        ready, kernel_s = map(float, proc.stdout.split())
        times.append((ready - t0) * speed.KERNEL_NOMINAL_S / kernel_s)
    return statistics.median(times)


def git_sha():
    """HEAD of the checkout's git repository, read from .git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def meta_block():
    src_files = sorted((SRC / "hecke_bose").glob("*.py"))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "src_loc": sum(len(p.read_text().splitlines()) for p in src_files),
        "public_names": len(hecke_bose.__all__),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(build_pass, seconds, deadline, scale, setup_reps):
    tally = Tally()
    tracer = NullTracer()
    setup_s = measure_setup(setup_reps)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(build_pass(len(passes)), tracer, tally))
        if time.perf_counter() >= deadline:
            break
        if time.perf_counter() - start >= seconds and above_p90(tally.latencies()) >= scale["min_above_p90"]:
            break
    lat = tally.latencies()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(pass_times(tally, passes)), "s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": metric((statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]) * 1e3, "ms"),
        "checks_per_s": metric(tally.checks / sum(lat), "1/s"),
        "ok_share": metric((tally.attempted - tally.failed - sum(tally.unsolved.values())) / tally.attempted, "share"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [b - a for a, b in tally.intervals]
    info = {
        "passes": len(passes),
        "op_samples": len(lat),
        "above_p90": above_p90(lat),
        "measured_wall_s": statistics.median(sum(raw[i:j]) for i, j in passes),
        "gauge_samples": len(tally.gauge.costs),
        "gauge_kernel_ms": statistics.median(tally.gauge.costs) * 1e3,
    }
    return tally, metrics, info, None


def traced_run(build_pass, seconds, deadline, seed, scale_name):
    tally = Tally()
    tracer = Tracer()
    t0 = time.perf_counter()
    metrics = probes.run(tracer, lambda op, tr: run_op(op, tr, tally), tally.gauge, seed, scale_name)
    probe_s = time.perf_counter() - t0
    pass_tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        ops = build_pass(len(plain))
        plain.append(run_pass(ops, NullTracer(), tally))
        traced.append(run_pass(ops, pass_tracer, tally))
        now = time.perf_counter()
        if now >= deadline or now - start >= seconds:
            break
    overhead = statistics.median(pass_times(tally, traced)) / statistics.median(pass_times(tally, plain))
    metrics["trace.overhead_share"] = metric(overhead, "share")
    info = {
        "probe_s": probe_s,
        "passes": len(plain) + len(traced),
        "self_time_s": pass_tracer.self_times(),
    }
    return tally, metrics, info, tracer.records() + pass_tracer.records()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                    help="input sizes; 'tiny' is for the smoke test only")
    ap.add_argument("--results", default=None, help="append the full record to this JSON-lines file")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + PASS_DEADLINE_S

    meta = meta_block()
    scale = workloads.SCALES[args.scale]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%d" % os.getpid())
    workdir.mkdir(exist_ok=True)
    old_handler = signal.signal(signal.SIGALRM, on_alarm)
    try:
        def build_pass(i):
            return workloads.build(args.workload, args.seed, scale, workdir, i)

        if args.trace:
            tally, metrics, info, spans = traced_run(build_pass, args.seconds, deadline, args.seed, args.scale)
        else:
            tally, metrics, info, spans = untraced_run(
                build_pass, args.seconds, deadline, scale, SETUP_REPS[args.scale])
    finally:
        signal.signal(signal.SIGALRM, old_handler)
        for p in workdir.iterdir():
            p.unlink()
        workdir.rmdir()

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "meta": meta,
        "info": info,
        "fail_share": (tally.failed + sum(tally.unsolved.values())) / tally.attempted,
        "unsolved": tally.unsolved,
        "failures": tally.failures,
        "failure_examples": tally.failure_examples,
        "result": result,
    }
    if spans is not None:
        trace_path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        trace_path.write_text(json.dumps(spans))
    if args.results:
        with open(args.results, "a") as fh:
            fh.write(json.dumps(record) + "\n")

    print("# meta %s" % json.dumps(meta, sort_keys=True))
    print("# info %s" % json.dumps(info, sort_keys=True))
    print("# fail_share %.6g (failed %d, unsolved %s)" % (record["fail_share"], tally.failed, tally.unsolved))
    for ex in tally.failure_examples:
        print("# failure %s" % json.dumps(ex), file=sys.stderr)
    for name, m in metrics.items():
        print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
