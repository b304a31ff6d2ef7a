"""Benchmark for ciplan: four workloads, run one at a time in a closed loop by
a single client, with every output checked.

    python3 perfbench/run.py --workload exact-wide [--seed 5] [--seconds 20] [--trace 0]
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; ``src/ciplan`` of that checkout is the
program measured.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Every run also writes a result file with
its run record under ``perfbench/out``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from worker import REFERENCE_NOMINAL_S, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
#: Set-up-only processes per untraced run; with the measuring process they
#: give the set-up samples whose median is ``setup_s``.
SETUP_PROBES = 8
#: Longest a run may take, so that it ends within 180 seconds.
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def read_loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def launch(args: list[str], deadline: float) -> tuple[dict, float, float]:
    """Run one worker to completion; returns its report, its launch time and
    the time of ``reference_s`` right before the launch."""
    # A fixed hash seed gives every process the same dict and set layouts.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--root", ROOT, "--out-dir", OUT, *args]
    reference_before = reference_s()
    launched = time.monotonic()
    # A session of its own lets a stopped run take the worker's children along.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker {' '.join(args)} ran past the run's time limit") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), launched, reference_before


def run_workload(workload: str, seed: int, seconds: float, trace: int, toy: bool = False,
                 probes: int = SETUP_PROBES, break_pin: bool = False) -> tuple[dict, dict]:
    """One run; returns the result line's object and the run record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    started = datetime.datetime.now(datetime.timezone.utc)
    common = ["--workload", workload, "--seed", str(seed)]
    common += ["--toy"] * toy + ["--break-pin"] * break_pin
    load_start = read_loadavg()
    setup_samples, scaled_setup = [], []

    def add_setup_sample(rep, launched, reference_before):
        # Scaled to the box's nominal speed by the reference tasks timed
        # right before the launch and right after the set-up.
        setup_samples.append(rep["ready"] - launched)
        speed = 2 * REFERENCE_NOMINAL_S / (reference_before + rep["reference_after_s"])
        scaled_setup.append(setup_samples[-1] * speed)

    if not trace:
        for _ in range(probes):
            add_setup_sample(*launch([*common, "--seconds", "0", "--setup-only"], deadline))
    rep, launched, reference_before = launch(
        [*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    load_end = read_loadavg()
    if trace:
        values = rep["layers"]
        wanted = spec()["per_layer"]
    else:
        add_setup_sample(rep, launched, reference_before)
        values = {
            "scaled_pass_s": statistics.median(rep["scaled_pass_s"]),
            "setup_s": statistics.median(scaled_setup),
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        wanted = spec()["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    failed = len(rep["failures"])
    result = {
        "correct": failed == 0,
        "attempted": rep["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    loads = [load_start, *rep["loadavg"], load_end]
    nproc = os.cpu_count()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "toy": toy,
        "started": started.strftime("%Y-%m-%dT%H:%M:%S.%fZ"),
        "commit": git_commit(),
        "python": rep["python"],
        "numpy": rep["numpy"],
        "nproc": nproc,
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "loadavg_max": max(loads),
        "load_exceeded_nproc": max(loads) > nproc,
        "pass_s": rep["pass_s"],
        "scaled_pass_s": rep.get("scaled_pass_s"),
        "setup_samples_s": setup_samples,
        "scaled_setup_samples_s": scaled_setup,
        "failures": rep["failures"],
        "measured": values,
        **{k: rep[k] for k in ("traced_pass_s", "top_self", "spans_file") if k in rep},
        "result": result,
    }
    return result, record


def write_record(record: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    stamp = record["started"].replace("-", "").replace(":", "")[:15]
    name = (f"result-{record['workload']}-s{record['seed']}-t{record['trace']}"
            f"-{stamp}-{os.getpid()}.json")
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
    return path


def summary(record: dict) -> list[str]:
    res = record["result"]
    times = record["pass_s"]
    q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{len(times)} passes, unscaled median {statistics.median(times):.4f} s "
        f"(quartiles {q[0]:.4f} .. {q[2]:.4f})",
        f"checks: {res['failed']} of {res['attempted']} failed "
        f"(fail_ratio {res['failed'] / res['attempted']:.4g})",
    ]
    lines += [f"  failed: {f}" for f in record["failures"][:10]]
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in res["metrics"].items()]
    lines.append(
        f"load average {record['loadavg_start']} .. {record['loadavg_end']} "
        f"(max {record['loadavg_max']}) on {record['nproc']} cpus"
        + ("  WARNING: load exceeded nproc" if record["load_exceeded_nproc"] else "")
    )
    return lines


def smoke() -> int:
    """Every workload at toy size in both modes.  Checks that every metric of
    ``BENCHMARK.json`` is measured, that all checks pass, and that a wrong
    expected value is counted as a failed check."""
    doc = spec()
    problems = []
    for w in doc["workloads"]:
        for trace, wanted in ((0, doc["end_to_end"]), (1, doc["per_layer"])):
            result, record = run_workload(w["name"], 5, SMOKE_SECONDS, trace, toy=True, probes=1)
            write_record(record)
            if set(record["measured"]) != {m["name"] for m in wanted}:
                problems.append(f"{w['name']} trace {trace}: measured metrics differ from "
                                "BENCHMARK.json")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
                    problems.append(f"{w['name']} trace {trace}: {name} is not a number")
            if not result["correct"]:
                problems.append(f"{w['name']} trace {trace}: {record['failures']}")
            print(f"smoke {w['name']} trace {trace}: {result['attempted']} checks, "
                  f"{result['failed']} failed", flush=True)
    for w in doc["workloads"]:
        result, _record = run_workload(w["name"], 5, SMOKE_SECONDS, 0, toy=True, probes=1,
                                       break_pin=True)
        if result["failed"] < 1 or result["correct"]:
            problems.append(f"{w['name']}: a wrong expected value was not counted as failed")
    for p in problems:
        print(f"smoke FAILED: {p}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    doc = spec()
    names = [w["name"] for w in doc["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=5, help="input seed (default 5, the ladder seed)")
    p.add_argument("--seconds", type=float, default=doc["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="self-test at toy size")
    args = p.parse_args(argv)
    # The box's two cores change speed independently of each other, so the
    # benchmark and every process it starts run on one core: the reference
    # tasks that scale its times then run where the timed work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(ROOT, "src", "ciplan", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/ciplan is missing", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["record_file"] = os.path.relpath(write_record(record), ROOT)
    for line in summary(record):
        print(line)
    print(f"run record: {record['record_file']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
