"""The four benchmark workloads: inputs made from a seed, one timed pass, and
the checks run on every pass's outputs.

Each workload object is built by its set-up (model generation and, for the
CLI session, input files), then ``run_pass`` is timed and ``check`` is run
on what it returned, outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np

# Calls go through the module attributes, so that the traced run's span
# recorders, which rebind those attributes, see them.
from ciplan import (
    approx_dp, belief, cli, compression, exact_dp, generate, histories, model, verify,
)

#: The ROADMAP ladder seed, and the default ``--seed``.
LADDER_SEED = 5
VALUE_TOL = 1e-9
#: Greedy tolerances for the lossy compressions (``tol_r``, ``tol_o``).
GREEDY_TOL = 0.5
#: Weight of the seed's model in the compress-certify mixture; see ``jittered_model``.
JITTER = 1e-6

# Model shapes for ``random_model(seed, num_states=2, **shape)``: (full, toy).
SHAPES = {
    "exact-wide": (
        dict(horizon=2, private_obs_sizes=(3, 1)),
        dict(horizon=2, private_obs_sizes=(2, 1)),
    ),
    "exact-deep": (
        dict(horizon=5, num_common_obs=2),
        dict(horizon=3, num_common_obs=2),
    ),
    "compress-certify": (
        dict(horizon=3, num_common_obs=2, action_sizes=(3, 2)),
        dict(horizon=2, num_common_obs=2),
    ),
    "cli-session": (
        dict(horizon=2, private_obs_sizes=(2, 1)),
        dict(horizon=2),
    ),
}

# Alg-1 overall value and row digest at LADDER_SEED, as the program gave them
# when this benchmark was written: {(workload, size): (overall_value, digest)}.
PINS = {
    ("exact-wide", "full"): (
        1.0173120221035838,
        "258867a2940a6f88883a7613ac288ed90d18196fb9a17bd4a9f4b5bd4f106ead",
    ),
    ("exact-wide", "toy"): (
        1.3634620359695555,
        "a474b751833d6f520e37d1f07d3985a8c43ff2c8d831d0e9e5028399ea0ab46f",
    ),
    ("exact-deep", "full"): (
        3.3648325652343773,
        "fd2a636c1642378eee7e36d7744e7a9d9dd6a6082369c434f810e4250e9ffc39",
    ),
    ("exact-deep", "toy"): (
        1.9523349724005095,
        "b9c727f69e995307db14f4c759dd3edbae7e8c2fcdb6f4ff23829c3067fb2509",
    ),
    ("compress-certify", "full"): (
        1.5676162533272078,
        "703313919db10f3a5a4aa409eced952be09d344302bca141a32c5e5a1ed8ed6c",
    ),
    ("compress-certify", "toy"): (
        1.3634620359695557,
        "9c99ec5c738e1db1067c462e7eb88885588b9ae58730aafaf02f13552f06483c",
    ),
    ("cli-session", "full"): (
        1.3634620359695555,
        "a474b751833d6f520e37d1f07d3985a8c43ff2c8d831d0e9e5028399ea0ab46f",
    ),
    ("cli-session", "toy"): (
        1.3962185062874555,
        "7d8c117919de7e8a849d77dfd520c89b41ec5a5ccaf9fed6df49013c1463ee87",
    ),
}


class Checks:
    """Counts checked operations and keeps a message for each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def close(self, name: str, got: float, want: float) -> None:
        self.check(name, abs(got - want) <= VALUE_TOL, f"{got!r} != {want!r}")


def row_digest(rows) -> str:
    """Digest of the ``(t, state_key, argmax_index)`` rows of a solve report.

    Values are left out, so a change of summation order keeps the digest.
    """
    text = "\n".join(f"{r['t']}|{r['state_key']}|{r['argmax_index']}" for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _mix(a, b, w: float):
    if isinstance(a, list):
        return [_mix(x, y, w) for x, y in zip(a, b)]
    return (1.0 - w) * a + w * b


def jittered_model(shape: dict, seed: int):
    """The ladder model of this shape, moved a weight of ``JITTER`` toward the
    seed's model, through the model file format.

    Greedy construction time depends on where the tolerances cut the model's
    values: over 20 seeds of a horizon-3 shape its coefficient of variation
    was 0.65.  A jitter this small keeps every merge decision of the ladder
    model, so a run's work is the same for every seed, while the seed still
    changes every number the program computes.
    """
    docs = [json.loads(model.serialize(generate.random_model(s, num_states=2, **shape)))
            for s in (LADDER_SEED, seed)]
    doc = docs[0]
    for key in ("transition", "observation", "reward", "initial"):
        doc[key] = _mix(docs[0][key], docs[1][key], JITTER)
    doc["reward_bound"] = float(np.abs(np.asarray(doc["reward"])).max())
    return model.load_model(json.dumps(doc))


class Workload:
    """Shared set-up and per-seed checks; subclasses define the pass.

    ``run_pass(in_process)`` runs one timed pass; ``in_process`` asks a
    workload that runs the program in child processes to call it in this
    process instead, as the traced run does.
    """

    name = ""
    #: Whether the program runs in child processes (their peak RSS counts).
    in_children = False
    #: Set by the traced run; the CLI session opens a span per call with it.
    tracer = None

    def __init__(self, seed: int, toy: bool, workdir: str, break_pin: bool = False):
        self.seed = seed
        self.size = "toy" if toy else "full"
        self.shape = SHAPES[self.name][1 if toy else 0]
        self.workdir = workdir
        pin_value, pin_digest = PINS[(self.name, self.size)]
        # A deliberately wrong expectation, used by the self-test to show that
        # a failed check is counted.
        self.pin = (pin_value + (1.0 if break_pin else 0.0), pin_digest)
        self.first = None
        self.model = self.make_model()

    def make_model(self):
        return generate.random_model(self.seed, num_states=2, **self.shape)

    def check_alg1(self, checks: Checks, overall: float, rows) -> None:
        """Pins at the ladder seed; pass-to-pass identity on every seed."""
        digest = row_digest(rows)
        checks.check("alg1 value is finite", math.isfinite(overall), overall)
        if self.seed == LADDER_SEED:
            checks.close("alg1 value matches the pin", overall, self.pin[0])
            checks.check("alg1 rows match the pin", digest == self.pin[1], digest)
        if self.first is None:
            self.first = (overall, digest)
        checks.check("alg1 repeats across passes", self.first == (overall, digest),
                     (overall, digest))


class ExactWide(Workload):
    name = "exact-wide"

    def run_pass(self, in_process: bool):
        return exact_dp.solve_fcs_fps(self.model, histories.FcsTree(self.model))

    def check(self, out, checks: Checks) -> None:
        self.check_exact(checks, *out)

    def check_exact(self, checks: Checks, table, policy) -> None:
        rows = exact_dp.solve_report(table, "alg1")["rows"]
        self.check_alg1(checks, table.overall_value, rows)
        replayed = exact_dp.evaluate_coordinator_policy(self.model, policy)
        checks.close("alg1 policy replays to its value", replayed, table.overall_value)


class ExactDeep(ExactWide):
    name = "exact-deep"

    def run_pass(self, in_process: bool):
        tree = histories.FcsTree(self.model)
        alg1 = exact_dp.solve_fcs_fps(self.model, tree)
        alg4 = belief.solve_bcs_fps(self.model, tree)
        return alg1, alg4

    def check(self, out, checks: Checks) -> None:
        (table, policy), (table4, _policy4) = out
        self.check_exact(checks, table, policy)
        checks.close("alg4 equals alg1", table4.overall_value, table.overall_value)


class CompressCertify(Workload):
    name = "compress-certify"

    def make_model(self):
        return jittered_model(self.shape, self.seed)

    def run_pass(self, in_process: bool):
        m = self.model
        tree = histories.FcsTree(m)
        exact, _ = exact_dp.solve_fcs_fps(m, tree)
        lossless, _ = approx_dp.solve_fcs_asps(m, compression.build_exact_private(m, tree), tree)
        pc = compression.build_greedy(m, GREEDY_TOL, GREEDY_TOL, tree=tree)
        cc = compression.build_common_greedy(m, pc, GREEDY_TOL, GREEDY_TOL, tree=tree)
        gaps = verify.verify_gaps(m, pc, cc, tree=tree)
        return exact, lossless, gaps

    def check(self, out, checks: Checks) -> None:
        exact, lossless, gaps = out
        self.check_alg1(checks, exact.overall_value, exact_dp.solve_report(exact, "alg1")["rows"])
        checks.close("lossless compressed value equals exact",
                     lossless.overall_value, exact.overall_value)
        worst = min((r.observed for r in gaps.rows if r.kind == "thm1"), default=0.0)
        checks.check("compressed value at most exact", worst >= -VALUE_TOL, worst)
        checks.check("gap report passes", gaps.passed, gaps.max_slack)


# One CLI session: (call id, argv after the subcommand's --model flag).
# ``{pc}`` and ``{cc}`` are the greedy private and common compression files.
CLI_CALLS = [
    ("validate", ["validate"]),
    ("solve-alg1", ["solve", "--alg", "1"]),
    ("solve-alg1-again", ["solve", "--alg", "1"]),
    ("solve-alg2", ["solve", "--alg", "2", "--compression", "{pc}"]),
    ("solve-alg4", ["solve", "--alg", "4"]),
    ("solve-alg5", ["solve", "--alg", "5"]),
    ("compress-exact", ["compress", "--mode", "exact"]),
    ("compress-greedy", ["compress", "--mode", "greedy", "--tol-r", str(GREEDY_TOL),
                         "--tol-o", str(GREEDY_TOL)]),
    ("measure", ["measure", "--compression", "{pc}", "--compression", "{cc}"]),
    ("verify-gap", ["verify-gap", "--compression", "{pc}", "--compression", "{cc}"]),
    ("oracle", ["oracle"]),
    ("check-conditions", ["check-conditions"]),
]


class CliSession(Workload):
    """Every subcommand once, through ``python -m ciplan.cli`` processes.

    Set-up writes the model and the greedy compressions; the CLI cannot build
    a common compression, so set-up builds it with the library.
    """

    name = "cli-session"
    in_children = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        m = self.model
        pc = compression.build_greedy(m, GREEDY_TOL, GREEDY_TOL)
        cc = compression.build_common_greedy(m, pc, GREEDY_TOL, GREEDY_TOL)
        texts = {
            "model": model.serialize(m),
            "pc": compression.serialize_compression(pc),
            "cc": compression.serialize_compression(cc),
        }
        self.files = {key: os.path.join(self.workdir, f"{key}.json") for key in texts}
        for key, text in texts.items():
            with open(self.files[key], "w") as fh:
                fh.write(text + "\n")
        self.argvs = [
            (call, [argv[0], "--model", self.files["model"]]
             + [a.format(**self.files) for a in argv[1:]])
            for call, argv in CLI_CALLS
        ]

    def run_pass(self, in_process: bool):
        """Returns ``{call: (exit status, stdout bytes)}`` in call order."""
        if in_process:
            return {call: self._in_process(call, argv) for call, argv in self.argvs}
        return {call: run() for call, run in self.steps()}

    def steps(self):
        """The pass as ``(call, run)`` steps, one ``python -m ciplan.cli``
        process each, for a caller that times them one by one."""
        return [(call, functools.partial(self._in_child, argv)) for call, argv in self.argvs]

    @staticmethod
    def _in_child(argv: list[str]):
        proc = subprocess.run(
            [sys.executable, "-m", "ciplan.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
        )
        return proc.returncode, proc.stdout

    def _in_process(self, call: str, argv: list[str]):
        buf = io.StringIO()
        span = self.tracer.span(f"cli.{call}") if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(buf):
            status = cli.main(argv)
        stdout = buf.getvalue().encode()
        if self.tracer:
            self.tracer.counters[f"cli.{call}.stdout_bytes"] = float(len(stdout))
        return status, stdout

    def check(self, out, checks: Checks) -> None:
        for call, (status, _stdout) in out.items():
            checks.check(f"{call} exit status", status == cli.EXIT_OK, status)
        docs = {}
        for call, (_status, stdout) in out.items():
            try:
                docs[call] = json.loads(stdout)
            except ValueError:
                docs[call] = {}
        alg1 = docs["solve-alg1"].get("overall_value", math.nan)
        self.check_alg1(checks, alg1, docs["solve-alg1"].get("rows", []))
        checks.check("solve --alg 1 stdout repeats byte for byte",
                     out["solve-alg1"][1] == out["solve-alg1-again"][1])
        for call in ("solve-alg4", "solve-alg5"):
            checks.close(f"{call} equals alg1", docs[call].get("overall_value", math.nan), alg1)
        checks.close("oracle equals alg1", docs["oracle"].get("value", math.nan), alg1)
        alg2 = docs["solve-alg2"].get("overall_value", math.nan)
        checks.check("alg2 at most alg1", alg2 <= alg1 + VALUE_TOL, (alg2, alg1))
        checks.check("verify-gap passes", docs["verify-gap"].get("passed") is True)


WORKLOADS = {w.name: w for w in (ExactWide, ExactDeep, CompressCertify, CliSession)}
