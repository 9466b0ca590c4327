#!/usr/bin/env python3
"""minsurf benchmark: one closed-loop client running one workload's ops.

Run from the root of a checkout::

    python3 perfbench/run.py --workload patch --seed 1 --seconds 15 --trace 0

The run builds its inputs from ``--seed``, runs whole cycles of the
workload's op list back to back until the ops have been busy for
``--seconds`` and each has run three times, checks every output outside
the timed region, and prints a report followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
gives the end-to-end metrics; ``--trace 1`` traces every other op, and
gives the per-layer metrics and the tracing overhead.  ``--smoke`` shrinks
every grid so that a run takes seconds.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_CYCLES = 3
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["patch", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, one set-up probe, no defect probe")
    return ap.parse_args(argv)


def environment():
    """Code identity and the machine facts a result depends on."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "minsurf").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    import numpy
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(),
    }


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def setup_probe(args, workdir):
    """Wall time of a fresh interpreter that imports minsurf, builds the
    inputs and runs one warm-up op; and the digest of that op's output."""
    cmd = [sys.executable, str(HERE / "workloads.py"), args.workload,
           str(args.seed), "1" if args.smoke else "0", str(workdir)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return elapsed, json.loads(proc.stdout.splitlines()[-1])["digest"]


def probe_defect(defect):
    """Run a known-failing CLI call in its own interpreter and report
    whether it still fails the way it is recorded to fail."""
    proc = subprocess.run([sys.executable, "-m", "minsurf.cli", *defect["argv"]],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    error = None
    if proc.returncode != 0 and proc.stderr.strip():
        try:
            error = json.loads(proc.stderr.strip().splitlines()[-1]).get("error")
        except ValueError:
            error = "unparsed stderr"
    if proc.returncode == 0:
        status = "fixed"
    elif error == defect["expected_error"]:
        status = "still present"
    else:
        status = "fails differently"
    return {"name": defect["name"], "expected_error": defect["expected_error"],
            "observed_error": error, "exit_code": proc.returncode,
            "status": status, "cause": defect["cause"]}


class Checker:
    """Checks each op's output against its oracle the first time its input
    runs, and every repeat for byte-identical output."""

    def __init__(self, wl, workloads):
        self.wl = wl
        self.workloads = workloads
        self.first = {}      # slot -> (digest, passed)
        self.results = {}    # slot -> oracle result
        self.failures = []

    def record(self, slot, op, out, error):
        """True when the op passed."""
        label = op.label()
        if error is not None:
            self.failures.append(f"{label}: {type(error).__name__}: {error}")
            return False
        digest = self.wl.digest(out)
        if slot not in self.first:
            try:
                self.results[slot] = self.wl.check(op, out)
                passed = True
            except self.workloads.CheckFailed as err:
                self.results[slot] = {"failed": str(err)}
                self.failures.append(f"{label}: {err}")
                passed = False
            self.first[slot] = (digest, passed)
            return passed
        first, passed = self.first[slot]
        if digest != first:
            self.failures.append(f"{label}: output differs from the first "
                                 "run of the same input")
            return False
        if not passed:
            self.failures.append(f"{label}: repeats a failed output")
        return passed

    def max_err(self):
        errs = [r["err"] for r in self.results.values() if "err" in r]
        return max(errs) if errs else float("nan")


class Timings:
    """Op durations of one measured phase, per slot of the op list."""

    def __init__(self, ops):
        self.ops = ops
        self.slots = [[] for _ in ops]
        self.passed = [[] for _ in ops]

    @property
    def times(self):
        # in the order the ops ran
        return [t for cycle in zip(*self.slots) for t in cycle]

    @property
    def failed(self):
        return sum(p.count(False) for p in self.passed)

    def cycle_s(self):
        """A typical cycle: the sum over the op list of each op's median
        time, so that an op hit by a burst of outside load moves it little."""
        return sum(statistics.median(s) for s in self.slots)

    def op_s_p50(self):
        """The median, over the op list, of each op's median time.  A kind
        of op that is cheaper than the rest then cannot pull the median
        across the gap between their costs."""
        return statistics.median(statistics.median(s) for s in self.slots)

    def ops_per_s(self):
        return len(self.ops) / self.cycle_s()

    def points_per_s(self):
        done = sum(op.points * p.count(True) / len(p)
                   for op, p in zip(self.ops, self.passed))
        return done / self.cycle_s()


def measure(wl, checker, seconds, workloads, tracer=None, between=None):
    """Run whole cycles of the op list until the ops have been busy for
    ``seconds`` and each op has run MIN_CYCLES times.  Returns the timings
    of the untraced and of the traced ops.

    With a tracer, op ``slot`` of cycle ``k`` runs traced when ``slot + k``
    is odd, and the run ends after an even number of cycles: every op runs
    traced as often as untraced, and the two halves see the same phases of
    the machine.  Checks, and ``between(busy)``, run between ops, outside
    the timed region."""
    plain, traced = Timings(wl.ops), Timings(wl.ops)
    busy, cycle = 0.0, 0
    while (busy < seconds or cycle < MIN_CYCLES
           or (tracer is not None and cycle % 2)):
        for slot, op in enumerate(wl.ops):
            on = tracer is not None and (slot + cycle) % 2 == 1
            out = error = None
            if on:
                tracer.install()
            t0 = perf_counter()
            try:
                out = tracer.span("op", wl.run, op, slot) if on else wl.run(op, slot)
            except workloads.OP_ERRORS as err:
                error = err
            dt = perf_counter() - t0
            if on:
                tracer.uninstall()
            busy += dt
            timings = traced if on else plain
            timings.slots[slot].append(dt)
            timings.passed[slot].append(checker.record(slot, op, out, error))
            if between is not None:
                between(busy)
        cycle += 1
    return plain, traced


def tail(times):
    """p90 of the op times, with the number of samples above it."""
    if len(times) < 2:
        return {"p90_s": times[0], "samples": len(times), "beyond": 0,
                "resolved": False}
    p90 = statistics.quantiles(times, n=10)[8]
    beyond = sum(t > p90 for t in times)
    return {"p90_s": p90, "samples": len(times), "beyond": beyond,
            "resolved": beyond >= 10}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    # one client, one thread: BLAS adds no threads of its own.  Set before
    # numpy is first imported; the set-up probes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import workloads
        import tracing
    except ImportError as err:
        sys.stderr.write(f"cannot import minsurf from {SRC}: {err}\n")
        return 2

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, tracing, workdir):
    env = environment()
    wl = workloads.build(args.workload, args.seed, args.smoke,
                         str(workdir / "main"))
    checker = Checker(wl, workloads)
    warm = error = None
    try:
        warm = wl.run(wl.ops[0], 0)
    except workloads.OP_ERRORS as err:
        error = err
    warm_ok = checker.record(0, wl.ops[0], warm, error)

    # set-up probes, spread evenly over the busy time of the timed ops so
    # that their median sees the same phases of the machine as the ops do
    n_probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    setup_times, setup_digests = [], []

    def probe(busy):
        while (len(setup_times) < n_probes
               and busy >= len(setup_times) * args.seconds / n_probes):
            elapsed, digest = setup_probe(
                args, workdir / f"setup-{len(setup_times)}")
            setup_times.append(elapsed)
            setup_digests.append(digest)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": env,
              "ops": [op.label() for op in wl.ops]}
    if args.trace == 0:
        probe(0.0)
        timed, _ = measure(wl, checker, args.seconds, workloads, between=probe)
        probe(float("inf"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "ops_per_s": metric(timed.ops_per_s(), "1/s"),
            "op_s_p50": metric(timed.op_s_p50(), "s"),
            "points_per_s": metric(timed.points_per_s(), "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        times, failed = timed.times, timed.failed
        report["setup_probes_s"] = setup_times
        report["op_times_s"] = {op.label(): s for op, s in zip(wl.ops, timed.slots)}
        report["op_s_tail"] = tail(times)
        report["known_defects"] = ([] if args.smoke else
                                   [probe_defect(d) for d in wl.known_defects()])
    else:
        tracer = tracing.Tracer()
        try:
            plain, traced = measure(wl, checker, args.seconds, workloads, tracer)
        finally:
            tracer.uninstall()
        times = plain.times + traced.times
        failed = plain.failed + traced.failed
        layer, absent = tracing.layer_metrics(tracer)
        overhead = 100.0 * (1.0 - traced.ops_per_s() / plain.ops_per_s())
        layer["trace.overhead_pct"] = metric(overhead, "%")
        metrics = {k: layer[k] for k in tracing.RECORDED if k in layer}
        report["per_layer"] = layer
        report["per_layer_absent"] = absent
        report["missing_bindings"] = tracer.missing_bindings
        report["spans"] = len(tracer.start)
        span_file = WORK / f"spans-{args.workload}.npz"
        tracer.save(span_file)
        report["span_file"] = str(span_file.relative_to(ROOT))

    warm_digest = checker.first[0][0] if 0 in checker.first else None
    setup_mismatch = sum(d != warm_digest for d in setup_digests)
    if setup_mismatch:
        checker.failures.append(f"{setup_mismatch} set-up probe(s) produced "
                                "output that differs from this process's")
    attempted = len(times)
    report["correctness"] = {
        "max_oracle_err": checker.max_err(),
        "failed_frac": failed / attempted,
        "warm_up_passed": warm_ok,
        "setup_probe_mismatches": setup_mismatch,
        "per_op": {wl.ops[s].label(): r for s, r in sorted(checker.results.items())},
        "failures": checker.failures[:20],
    }
    correct = not checker.failures

    print(f"minsurf benchmark: {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"  attempted {attempted}, failed {failed}, "
          f"max_oracle_err {report['correctness']['max_oracle_err']:.3e}")
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
