"""One workload process: imports, set-up, timed passes and checks.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``.  It
prints one JSON object as its last line, holding the time of its first timed
call (on the system-wide monotonic clock), the pass times, the check counts
and, with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

# Passes every run makes, however short ``--seconds`` is.
MIN_PASSES = 2
#: Time of ``reference_s`` in a fast phase of the two-core box the benchmark
#: was written on; set-up and pass times scaled to it read close to seconds there.
REFERENCE_NOMINAL_S = 0.03
REFERENCE_ITERATIONS = 60_000
#: Interval of the speed samples taken while a pass runs, the size of the
#: ``reference_s`` task each one times, and that task's time in the fast phase
#: in which ``REFERENCE_NOMINAL_S`` was set.
SAMPLE_PERIOD_S = 0.04
SAMPLE_ITERATIONS = 2_000
SAMPLE_NOMINAL_S = 0.0022
#: Samples timed between two steps of a pass that runs in child processes.
SAMPLES_BETWEEN_STEPS = 5


def reference_s(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Time of a fixed pure-Python task of tuple, dict and float work, which
    says how fast the box runs at this moment.

    The box's speed swings by a factor of up to 2, for milliseconds to
    seconds at a time, with the load of the machine around it.  A set-up or
    pass time is scaled by ``REFERENCE_NOMINAL_S`` over this task's time
    measured next to it, so that the swings cancel.  The task makes no
    cycles, so the collector is off while it runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(iterations):
            key = (i % 61, (i % 7, i % 11))
            acc[key] = acc.get(key, 0.0) + i * 0.5
        sorted(acc.items())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_sample() -> float:
    """The box's speed at this moment, as a share of its nominal speed."""
    return SAMPLE_NOMINAL_S / reference_s(SAMPLE_ITERATIONS)


def timed_pass(run):
    """Runs ``run()`` once; returns its outputs, its time and that time
    scaled to the box's nominal speed.

    A timer signal takes a ``speed_sample`` every ``SAMPLE_PERIOD_S`` while
    the pass runs, and one more is taken right before and right after it.
    The box's speed changes within a pass, so the pass time is scaled by the
    mean speed over these samples.  The time of the samples taken in the pass
    is left out of its time.
    """
    inside: list[tuple[float, float, float]] = []

    def sample(*_):
        start = time.perf_counter()
        inside.append((start, speed_sample(), time.perf_counter() - start))

    speeds = [speed_sample()]
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        t0 = time.perf_counter()
        out = run()
        t1 = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    taken = [(speed, spent) for start, speed, spent in inside if start < t1]
    speeds += [speed for speed, _ in taken] + [speed_sample()]
    dt = t1 - t0 - sum(spent for _, spent in taken)
    return out, dt, dt * statistics.mean(speeds)


def timed_steps(steps):
    """Like ``timed_pass``, for a pass of ``(name, run)`` steps that each run
    in a child process; returns ``{name: outputs}`` as the outputs.

    A sample taken while a child runs on the same core would wait for the
    child rather than measure the box, so each step's time is scaled by the
    mean speed over ``SAMPLES_BETWEEN_STEPS`` samples taken right before it
    and as many right after it.
    """
    def speed() -> float:
        return statistics.mean(speed_sample() for _ in range(SAMPLES_BETWEEN_STEPS))

    outs, dt, scaled = {}, 0.0, 0.0
    before = speed()
    for name, run in steps:
        t0 = time.perf_counter()
        outs[name] = run()
        step = time.perf_counter() - t0
        after = speed()
        dt += step
        scaled += step * (before + after) / 2
        before = after
    return outs, dt, scaled


def loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout root")
    p.add_argument("--out-dir", required=True, help="directory for work files and spans")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="self-test model sizes")
    p.add_argument("--setup-only", action="store_true", help="stop at the first timed call")
    p.add_argument("--break-pin", action="store_true",
                   help="expect a wrong alg-1 value, to show the checks fail")
    return p.parse_args(argv)


def run_passes(wl, checks, budget, in_process, loads, begin=None, on_pass=None):
    """Timed passes until the next one would end past ``budget`` seconds.

    Returns the pass times and the same times scaled to the box's nominal
    speed (``timed_pass``).
    ``begin(n)`` is called before pass ``n`` and ``on_pass(seconds, outputs)``
    after it, both outside the timed region and before the checks run.
    """
    times, scaled = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if begin is not None:
            begin(len(times) + 1)
        if wl.in_children and not in_process:
            out, dt, dt_scaled = timed_steps(wl.steps())
        else:
            out, dt, dt_scaled = timed_pass(lambda: wl.run_pass(in_process))
        times.append(dt)
        scaled.append(dt_scaled)
        if on_pass is not None:
            on_pass(dt, out)
        wl.check(out, checks)
        del out
        loads.append(loadavg())
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_PASSES and elapsed + statistics.median(times) > budget:
            return times, scaled


def startup_s(repeats: int = 3) -> float:
    """Median time of ``python -c "import ciplan.cli"``."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ciplan.cli"], check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def traced_half(args, wl_cls, workdir, checks, budget, loads, report):
    """Set-up and passes again under the tracer; fills the per-layer report."""
    from tracing import Tracer, median_metrics
    from workloads import CLI_CALLS

    tracer = Tracer()
    tracer.install()
    per_pass = []
    run_id = f"{args.workload}/seed{args.seed}/pid{os.getpid()}"
    try:
        tracer.keep_spans = True
        tracer.begin(f"{run_id}/setup")
        wl = wl_cls(args.seed, args.toy, workdir, args.break_pin)
        random_model_s = tracer.total_s["generate.random_model"]
        wl.tracer = tracer
        top_self = []

        def on_pass(dt, out):
            layers = tracer.metrics(dt)
            layers["generate.random_model.total_s"] = random_model_s
            for call, _argv in CLI_CALLS:
                layers[f"cli.{call}.wall_s"] = tracer.total_s[f"cli.{call}"]
                layers[f"cli.{call}.stdout_bytes"] = tracer.counters[f"cli.{call}.stdout_bytes"]
            per_pass.append(layers)
            top_self[:] = tracer.top_self()
            tracer.keep_spans = False
            tracer.begin(f"{run_id}/check")

        def begin(n):
            tracer.begin(f"{run_id}/pass{n}")

        times, scaled = run_passes(wl, checks, budget, True, loads, begin, on_pass)
    finally:
        tracer.uninstall()
    report["layers"] = median_metrics(per_pass)
    report["traced_pass_s"] = times
    report["top_self"] = top_self
    spans_path = os.path.join(
        args.out_dir, f"spans-{args.workload}-s{args.seed}-{os.getpid()}.jsonl")
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    report["spans_file"] = os.path.relpath(spans_path, args.root)
    return scaled


def main(argv=None) -> int:
    args = parse_args(argv)
    import ciplan

    src = os.path.join(os.path.abspath(args.root), "src") + os.sep
    if not os.path.abspath(ciplan.__file__).startswith(src):
        print(f"error: ciplan imported from {ciplan.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy

    from workloads import WORKLOADS, Checks

    wl_cls = WORKLOADS[args.workload]
    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=args.out_dir)
    try:
        wl = wl_cls(args.seed, args.toy, workdir, args.break_pin)
        report = {"ready": time.monotonic()}
        # With one timed by the launcher right before the launch, this says
        # how fast the box ran the set-up.
        report["reference_after_s"] = reference_s()
        if not args.setup_only:
            checks = Checks()
            loads = [loadavg()]
            if args.trace:
                startup = startup_s()
                half = args.seconds / 2
                times, scaled = run_passes(wl, checks, half, True, loads)
                del wl
                traced = traced_half(args, wl_cls, workdir, checks, half, loads, report)
                report["layers"]["cli.startup_s"] = startup
                report["layers"]["trace_overhead_ratio"] = (
                    statistics.median(traced) / statistics.median(scaled)
                )
            else:
                times, scaled = run_passes(wl, checks, args.seconds, False, loads)
                who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
                report["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            report.update(
                pass_s=times,
                scaled_pass_s=scaled,
                attempted=checks.attempted,
                failures=checks.failures,
                loadavg=loads,
                python=sys.version.split()[0],
                numpy=numpy.__version__,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
