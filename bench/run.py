"""Benchmark entry point.

    python3 bench/run.py --workload corpus --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --workload all

Runs one workload (or ``all`` of them, one after another) and prints, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the metrics are those BENCHMARK.json declares.
Above it a summary prints every metric by name and unit, and ``fail_frac``
(failed / attempted operations).

With ``--trace 0`` the metrics are end to end, measured with no wrapper
installed.  After one untimed warm-up pass, operations run in passes, each
pass every operation once in a seed-shuffled order, until about
``--seconds`` have passed since the warm-up began.

The shared host this benchmark was written on switches, every few seconds
to minutes, between a fast state and one about 1.7 times slower for the
same work, and whole runs can fall in either.  So times are counted in
runs of a fixed reference kernel (``reference_kernel``, interpreter work
of under a millisecond): each operation runs between two calibrations
(median kernel time), and a probe samples the kernel's time every
``PROBE_INTERVAL_S`` during it.  An operation's seconds, net of the probe's own, times the
kernel's mean speed over those samples is its cost in kernel runs, which
tracks the program, not the host's state.  Reported times are kernel runs
times ``CAL_REF_S``, the kernel's time on the reference host in its fast
state, so they read as seconds there.

* ``wall_s``: wall seconds per pass at reference speed: the sum over
  operations of the median, over the run's passes, of each operation's
  cost in kernel runs, times ``CAL_REF_S``.  The summary also prints the
  median pass as measured (``raw pass``).
* ``cpu_s``: user+sys CPU seconds per pass of the child process, taken the
  same way against the kernel's CPU seconds.
* ``peak_rss_mb``: ``ru_maxrss`` of the child process that ran the passes.
* ``setup_s``: median, over several child processes, of the time from
  process start until the first operation can run, each divided by a
  calibration that child makes right after it, at reference speed.

With ``--trace 1`` the metrics are per layer (see ``tracing.py``), from
passes run with span wrappers and no probe that alternate with untraced
passes (layer times as measured, at their fastest over those passes;
counts as they repeat), and a tracemalloc pass for the ``*.peak_mb``
metrics.  ``trace.wall_s`` is the
traced passes' ``wall_s`` and ``trace.overhead_s`` that minus the untraced
passes' ``wall_s`` in the same process.  The run is incorrect if a function
the workload must call recorded no span.

Each workload runs in its own child processes (``--child``), one at a
time, so the peak RSS and set-up time belong to that workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus", "sweep", "abmaps", "tables")
SETUP_SAMPLES = 5  # child processes whose set-up time is measured per run
RUN_TIMEOUT_S = 170
READY = "ready"
# Seconds one run of `reference_kernel` takes on the reference host (2 vCPU
# shared Intel Xeon at 2.0 GHz, fast state, Python 3.11).
CAL_REF_S = 0.00028
CAL_REPEATS = 12
PROBE_INTERVAL_S = 0.05


# ---------------------------------------------------------------------------
# the reference kernel that times are divided by

def reference_kernel() -> int:
    """Fixed interpreter work of about CAL_REF_S: an integer and dictionary
    loop, then tuple and frozenset allocation.  NumPy work is left out: in
    the reference host's slow state, NumPy calls on small arrays slowed
    about 1.5 times where interpreter work and the workloads slowed about
    1.8 times, so a kernel that held them under-corrected."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(1_000):
        k = i * 7919 % 1009
        counts[k] = counts.get(k, 0) + i
        acc ^= k
    seen = {}
    for i in range(200):
        t = (i % 97, i % 89, i % 7)
        seen[t] = [frozenset(t), str(i)]
    return acc + len(seen)


def timed_kernel() -> tuple[float, float]:
    """[wall, cpu] seconds of one run of `reference_kernel`."""
    w0, c0 = time.perf_counter(), time.process_time()
    reference_kernel()
    return time.perf_counter() - w0, time.process_time() - c0


def calibrate() -> list[float]:
    """[wall, cpu] seconds of `reference_kernel`, each the median of
    CAL_REPEATS runs."""
    runs = [timed_kernel() for _ in range(CAL_REPEATS)]
    return [statistics.median(r[k] for r in runs) for k in (0, 1)]


class Probe:
    """While armed, samples the host's speed during an operation and not
    only around it: every PROBE_INTERVAL_S of wall time a SIGALRM handler,
    which Python runs between the operation's bytecodes, runs
    `reference_kernel` once to warm the caches the operation took from it,
    then once timed.  `spent` is the handler's own [wall, cpu] seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = [0.0, 0.0]

    def _sample(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        reference_kernel()
        self.samples.append(timed_kernel())
        self.spent[0] += time.perf_counter() - w0
        self.spent[1] += time.process_time() - c0

    def arm(self) -> None:
        self.samples.clear()
        self.spent = [0.0, 0.0]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# child: set up, signal readiness, run passes, report


def _run_pass(ops, failures, tracer=None) -> dict[str, list[float]]:
    """Run each operation once, between two calibrations and, unless traced,
    with the probe armed (in a traced pass its time would count in the
    spans).  Return by name the operation's [wall, cpu] seconds and the
    same in kernel runs: seconds net of the probe's own, times the mean
    speed (kernel runs per second) of the calibrations around it and the
    probe's samples within it.  Output checks run outside the timed
    regions."""
    times = {}
    probe = Probe()
    before = calibrate()
    for op in ops:
        if tracer:
            tracer.active = True
        else:
            probe.arm()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation failing is a measured outcome
            result, error = None, f"raised {exc!r}"
        cpu = time.process_time() - c0
        wall = time.perf_counter() - w0
        probe.disarm()
        if tracer:
            tracer.active = False
        after = calibrate()
        samples = [before, after, *probe.samples]
        times[op.name] = [wall, cpu] + [
            (spent - probe.spent[k]) * statistics.fmean(1 / s[k] for s in samples)
            for k, spent in enumerate((wall, cpu))]
        before = after
        if error is None:
            error = op.check(result)
        if error is not None:
            failures.append((op.name, error))
    return times


def reference_pass(passes: list[dict]) -> list[float]:
    """[wall, cpu] seconds per pass at reference speed: the sum over
    operations of the median of their times in kernel runs, times
    CAL_REF_S."""
    return [CAL_REF_S * sum(statistics.median(p[name][k] for p in passes)
                            for name in passes[0])
            for k in (2, 3)]


def child_main(args) -> int:
    import random
    import resource

    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.build(args.workload, args.seed)
    print(READY, flush=True)
    print(calibrate()[0], flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    ops = workload.ops
    failures: list[tuple[str, str]] = []
    passes, traced = [], []
    report: dict = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        layer_runs, calls = [], {}
    deadline = time.perf_counter() + args.seconds
    # untimed warm-up, so that first-call costs stay out of the passes
    _run_pass(ops, failures)
    while True:
        started = time.perf_counter()
        passes.append(_run_pass(rng.sample(ops, len(ops)), failures))
        if args.trace:
            tracer.install()
            traced.append(_run_pass(rng.sample(ops, len(ops)), failures, tracer))
            tracer.uninstall()
            layer_runs.append(tracing.layer_metrics(tracer.spans))
            for name, count in tracing.call_counts(tracer.spans).items():
                calls[name] = calls.get(name, 0) + count
            tracer.clear()
        # stop at the pass whose end is nearest the deadline
        now = time.perf_counter()
        if now + (now - started) / 2 >= deadline:
            break
    if args.trace:
        mem = tracing.Tracer(memory=True)
        mem.install()
        _run_pass(ops, failures, mem)
        mem.uninstall()
        # counts repeat exactly; layer times are taken at their fastest
        layers = {name: min(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        layers.update(tracing.peak_metrics(mem.spans))
        layers["trace.wall_s"] = reference_pass(traced)[0]
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - reference_pass(passes)[0])
        report["layers"] = layers
        report["uncalled"] = [name for name in workload.expected_calls
                              if not calls.get(name)]
    report.update({
        "passes": passes,
        # a warm-up pass, and in traced runs a tracemalloc pass
        "attempted": len(ops) * (len(passes) + len(traced) + 1 + args.trace),
        "failures": failures,
        "known_defects": sorted(workload.known_defects),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(report), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent: start children, time their set-up, aggregate


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start_child(args, extra: list[str]):
    """Start a child; return (process, seconds until it reported ready, at
    reference speed)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=_child_env())
    try:
        line = proc.stdout.readline().strip()
        setup = time.perf_counter() - start
        if line != READY:
            raise RuntimeError(f"child did not become ready (got {line!r})")
        return proc, CAL_REF_S * setup / float(proc.stdout.readline())
    except BaseException:
        _stop(proc)
        raise


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return out


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args) -> dict:
    """Run one workload in child processes; return its outcome."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = _start_child(args, ["--setup-only"])
            _finish(proc, deadline)
            setups.append(setup)
    proc, setup = _start_child(args, [])
    setups.append(setup)
    report = json.loads(_finish(proc, deadline).strip().splitlines()[-1])

    failed_ops = {name for name, _ in report["failures"]}
    correct = failed_ops <= set(report["known_defects"])
    errors = [f"{name}: {error}" for name, error in report["failures"]]
    passes = report["passes"]
    if args.trace:
        values = report["layers"]
        if report["uncalled"]:
            correct = False
            errors.append("expected calls not seen: " + ", ".join(report["uncalled"]))
    else:
        wall, cpu = reference_pass(passes)
        values = {"wall_s": wall, "cpu_s": cpu,
                  "peak_rss_mb": report["maxrss_mb"],
                  "setup_s": statistics.median(setups)}
    units = declared_metrics(args.trace)
    if set(values) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {
        "workload": args.workload,
        "passes": len(passes),
        "median_pass_s": statistics.median(sum(t[0] for t in p.values())
                                           for p in passes),
        "errors": errors,
        "fail_frac": len(report["failures"]) / report["attempted"],
        "result": {
            "correct": correct,
            "attempted": report["attempted"],
            "failed": len(report["failures"]),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def _summary(outcome: dict) -> None:
    result = outcome["result"]
    print(f"workload {outcome['workload']}: {outcome['passes']} untraced passes "
          f"(raw pass: median {outcome['median_pass_s']:.4g} s), {result['attempted']} "
          f"operations attempted, {result['failed']} failed, "
          f"correct={result['correct']}")
    for error in sorted(set(outcome["errors"])):
        count = outcome["errors"].count(error)
        print(f"  failed {count}x: {error[:300]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:38s} {metric['value']:12.6g} {metric['unit']}")
    print(f"  {'fail_frac':38s} {outcome['fail_frac']:12.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "skewbracoid" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            outcome = measure(args)
        except (OSError, RuntimeError, ValueError,
                subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        _summary(outcome)
        results[name] = outcome["result"]
    print(json.dumps(results if len(names) > 1 else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
