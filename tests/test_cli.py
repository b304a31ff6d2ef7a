"""Command-line behaviour: exit statuses, report files, and byte-for-byte
deterministic output."""

import contextlib
import copy
import functools
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciplan import compression
from ciplan.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, build_parser, main
from ciplan.compression import (
    bcs_common,
    build_exact_private,
    build_greedy,
    identity_private,
    serialize_compression,
)
from ciplan.generate import random_model
from ciplan.model import load_model, serialize

from conftest import DATA

COIN2 = str(DATA / "coin2.json")


def _run(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


def test_validate_ok(capsys):
    status, out = _run(capsys, "validate", "--model", COIN2)
    assert status == EXIT_OK
    assert json.loads(out)["valid"] is True


def test_malformed_model_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--model", str(bad)]) == EXIT_INPUT
    missing_field = tmp_path / "missing.json"
    missing_field.write_text("{}")
    assert main(["validate", "--model", str(missing_field)]) == EXIT_INPUT
    assert main(["validate", "--model", str(tmp_path / "absent.json")]) == EXIT_INPUT
    assert main(["validate", "--model", str(tmp_path)]) == EXIT_INPUT
    non_finite = tmp_path / "nan.json"
    doc = json.loads((DATA / "coin2.json").read_text())
    doc["initial"] = [float("nan"), 1.0]
    non_finite.write_text(json.dumps(doc))
    assert main(["solve", "--alg", "1", "--model", str(non_finite)]) == EXIT_INPUT
    assert capsys.readouterr().out == ""


def test_malformed_compression_is_input_error(tmp_path, capsys):
    for name, text in (("fields", '{"kind": "private"}'), ("list", "[]")):
        bad = tmp_path / f"{name}.json"
        bad.write_text(text)
        argv = ["solve", "--alg", "2", "--model", COIN2, "--compression", str(bad)]
        assert main(argv) == EXIT_INPUT
    argv = ["solve", "--alg", "2", "--model", COIN2, "--compression", str(tmp_path)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().out == ""


def _deep_list(depth: int) -> str:
    return "[" * depth + "]" * depth


def _private_keyed(key: str, label: str = "0", **fields) -> str:
    doc = {"kind": "private", "num_agents": 2, "horizon": 2, "theta": [[key, label]], "phi": []}
    return json.dumps({**doc, **fields})


def _common_measured(value) -> str:
    return json.dumps({"kind": "common", "horizon": 2, "mu": value, "theta0": [], "phi0": []})


def _swapped_agent_axes() -> str:
    """coin2 with a third action for agent 1, its transition and reward
    nested agent 1 before agent 0: they flatten to the right shapes."""
    doc = json.loads((DATA / "coin2.json").read_text())
    doc["actions"][1].append("pass")
    doc["transition"] = [[[[0.5, 0.5]] * 2] * 3] * 2
    doc["reward"] = [[[0.0] * 2] * 3] * 2
    return json.dumps(doc)


def _coin2_with(**fields) -> str:
    return json.dumps({**json.loads((DATA / "coin2.json").read_text()), **fields})


# case -> (subcommand argv, model text or None for coin2, compression text or
# None, error message).  Nesting too deep for the JSON decoder or the literal
# parser is malformed input, and so are any reference measure but uniform, an
# unhashable label, a compression built for another horizon or agent count, a
# table entry that is no [key, value] pair or repeats a key, and a count that
# is no JSON integer.
BAD_INPUTS = {
    "deep-model": (
        ["validate"], _deep_list(100_000), None, "model document is nested too deeply",
    ),
    "deep-compression": (
        ["solve", "--alg", "2"], None, _deep_list(100_000),
        "compression document is nested too deeply",
    ),
    "deep-entry": (
        ["solve", "--alg", "2"], None, _private_keyed("-" * 3000 + "1"),
        "unparseable entry '" + "-" * 80 + "' (3001 characters)",
    ),
    "deeper-entry": (
        ["solve", "--alg", "2"], None, _private_keyed("-" * 200_000 + "1"),
        "unparseable entry '" + "-" * 80 + "' (200001 characters)",
    ),
    "mu-gaussian": (
        ["measure"], None, _common_measured("gaussian"), "unknown reference measure 'gaussian'",
    ),
    "mu-number": (["measure"], None, _common_measured(7), "unknown reference measure 7"),
    "private-list-label": (
        ["solve", "--alg", "2"], None, _private_keyed("(1, (0,), 0, (0,))", "[0]"),
        "malformed field: unhashable type: 'list'",
    ),
    "common-list-label": (
        ["measure"], None,
        json.dumps({"kind": "common", "horizon": 2, "mu": "uniform",
                    "theta0": [["(1, (0,))", "[0]"]], "phi0": []}),
        "malformed field: unhashable type: 'list'",
    ),
    "wrong-horizon": (
        ["measure"], None, _private_keyed("(1, (0,), 0, (0,))", horizon=7),
        "private compression has horizon 7, the model 2",
    ),
    "wrong-agent-count": (
        ["solve", "--alg", "2"], None, _private_keyed("(1, (0,), 0, (0,))", num_agents=3),
        "private compression has 3 agents, the model 2",
    ),
    "repeated-theta-key": (
        ["solve", "--alg", "2"], None,
        _private_keyed("", theta=[["(1, (0,), 0, (0,))", "0"], ["(1, (0,), 0, (0,))", "99"]]),
        "entry ['(1, (0,), 0, (0,))', '99'] repeats its key",
    ),
    "phi0-entry-not-a-pair": (
        ["measure"], None,
        json.dumps({"kind": "common", "horizon": 2, "mu": "uniform",
                    "theta0": [], "phi0": [["(1, 0, (), 0)"]]}),
        "entry ['(1, 0, (), 0)'] is not a [key, value] pair",
    ),
    "model-horizon-float": (
        ["solve", "--alg", "1"], _coin2_with(horizon=2.5), None,
        "malformed field: horizon must be an integer, not 2.5",
    ),
    "model-horizon-bool": (
        ["solve", "--alg", "1"], _coin2_with(horizon=True), None,
        "malformed field: horizon must be an integer, not true",
    ),
    "model-horizon-array": (
        ["validate"], _coin2_with(horizon=[2]), None,
        "malformed field: horizon must be an integer, not an array",
    ),
    "private-horizon-float": (
        ["solve", "--alg", "2"], None, _private_keyed("(1, (0,), 0, (0,))", horizon=2.5),
        "malformed field: horizon must be an integer, not 2.5",
    ),
    "swapped-agent-axes": (
        ["validate"], _swapped_agent_axes(), None,
        "transition: expected nested shape (2, 2, 3, 2), got (2, 3, 2, 2)",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_line_input_error(tmp_path, capsys, case):
    argv, model_text, compression_text, message = BAD_INPUTS[case]
    model = COIN2
    if model_text is not None:
        model = tmp_path / "model.json"
        model.write_text(model_text)
    argv = [*argv, "--model", str(model)]
    if compression_text is not None:
        (tmp_path / "compression.json").write_text(compression_text)
        argv += ["--compression", str(tmp_path / "compression.json")]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# case -> (alg, compression with no entries, expected message).  The empty
# private compression lacks the first root history; with the exact private
# compression, the empty common one lacks the first time-2 node, and the belief
# common compression with an empty ``phi0`` lacks the first time-1 successor.
MISSING_LABELS = {
    "2": ("2", "private", "theta has no label for (t, seq, agent, hist) = (1, (0,), 0, (0,))"),
    "5": ("5", "private", "theta has no label for (t, seq, agent, hist) = (1, (0,), 0, (0,))"),
    "3": ("3", "common", "theta0 has no label for (t, seq) = (2, (0, "),
    "3-phi0": ("3", "phi0", "phi0 has no successor for (t, label, λ, o0) = (1, "),
}


@pytest.mark.parametrize("case", list(MISSING_LABELS))
def test_compression_missing_labels_is_input_error(tmp_path, case, coin2):
    alg, kind, message = MISSING_LABELS[case]
    empty = tmp_path / "empty.json"
    if kind == "private":
        empty.write_text('{"kind":"private","num_agents":2,"horizon":2,"theta":[],"phi":[]}')
        files = [str(empty)]
    else:
        exact = build_exact_private(coin2)
        if kind == "common":
            empty.write_text('{"kind":"common","horizon":2,"mu":"uniform","theta0":[],"phi0":[]}')
        else:
            cc = bcs_common(coin2, exact)
            cc.phi0 = {}
            empty.write_text(serialize_compression(cc))
        pc = tmp_path / "pc.json"
        pc.write_text(serialize_compression(exact))
        files = [str(pc), str(empty)]
    argv = ["solve", "--alg", alg, "--model", COIN2]
    for path in files:
        argv += ["--compression", path]
    proc = subprocess.run(
        [sys.executable, "-m", "ciplan.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_budget_exhaustion_status(capsys):
    assert main(["solve", "--alg", "1", "--model", COIN2, "--budget", "3"]) == EXIT_BUDGET
    assert main(["oracle", "--model", COIN2, "--budget", "3"]) == EXIT_BUDGET


@pytest.mark.parametrize("argv", [["check-conditions"], ["solve", "--alg", "5"]])
def test_spi_check_budget_exhaustion_status(capsys, argv):
    # The identity compression both commands build first charges the full
    # levels' (node, prescription) pairs before it expands a depth, so a
    # budget of 1 stops it at the roots.
    assert main([*argv, "--model", COIN2, "--budget", "1"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget of 1 exceeded at ('identity', 1)\n"


@pytest.mark.parametrize("argv", [["check-conditions"], ["solve", "--alg", "5"]])
def test_one_identity_compression_per_command(capsys, monkeypatch, argv):
    # check-conditions hands the identity session it built for the SPI check
    # on to the propositions.
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return identity_private(*args, **kwargs)

    monkeypatch.setattr(compression, "identity_private", counted)
    assert main([*argv, "--model", COIN2]) == EXIT_OK
    assert len(built) == 1


@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_compress_budget_exhaustion_status(mode):
    proc = subprocess.run(
        [sys.executable, "-m", "ciplan.cli", "compress", "--mode", mode,
         "--model", COIN2, "--budget", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: budget of 1 exceeded at ('private block', 1, 0)\n"


@pytest.mark.parametrize("command", ["measure", "verify-gap"])
def test_measure_budget_exhaustion_status(tmp_path, coin2, command):
    # The measurements charge the budget: one unit per (node, joint history,
    # joint action) on the private side, before each level's work.
    pc = build_greedy(coin2, 0.5, 0.5)
    files = {"pc": serialize_compression(pc), "cc": serialize_compression(bcs_common(coin2, pc))}
    argv = [command, "--model", COIN2, "--budget", "1"]
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
        argv += ["--compression", str(tmp_path / f"{name}.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "ciplan.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == ""
    assert proc.stderr == "error: budget of 1 exceeded at ('private measure', 1)\n"


def test_repeated_compression_kind_is_input_error(tmp_path, capsys, coin2):
    path = tmp_path / "pc.json"
    path.write_text(serialize_compression(build_exact_private(coin2)))
    argv = ["solve", "--alg", "2", "--model", COIN2]
    assert main([*argv, "--compression", str(path), "--compression", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --compression given twice for a private compression\n"


def test_unwritable_out_is_input_error():
    # The report files are written before stdout, so nothing reaches it.
    proc = subprocess.run(
        [sys.executable, "-m", "ciplan.cli", "solve", "--alg", "1", "--model", COIN2,
         "--out", "/dev/null/reports"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


# case -> (argv after the model, expected message)
BAD_FLAGS = {
    "tol-r-nan": (["compress", "--mode", "greedy", "--tol-r", "nan"],
                  "--tol-r must be a non-negative number or inf, got nan"),
    "tol-o-nan": (["compress", "--mode", "greedy", "--tol-o", "nan"],
                  "--tol-o must be a non-negative number or inf, got nan"),
    "tol-negative": (["compress", "--mode", "greedy", "--tol-r", "-1", "--tol-o", "-1"],
                     "--tol-r must be a non-negative number or inf, got -1.0"),
    "tol-o-negative": (["compress", "--mode", "greedy", "--tol-o", "-0.5"],
                       "--tol-o must be a non-negative number or inf, got -0.5"),
    "budget-negative": (["solve", "--alg", "1", "--budget", "-5"],
                        "--budget must be non-negative, got -5"),
}


@pytest.mark.parametrize("case", list(BAD_FLAGS))
def test_bad_numeric_flag_is_input_error(case, capsys):
    argv, message = BAD_FLAGS[case]
    assert main([*argv, "--model", COIN2]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_infinite_tolerances_are_accepted(capsys):
    argv = ["compress", "--mode", "greedy", "--tol-r", "inf", "--tol-o", "inf"]
    status, out = _run(capsys, *argv, "--model", COIN2)
    assert status == EXIT_OK
    assert json.loads(out)["mode"] == "greedy"


def test_solve_matches_oracle(capsys):
    _s, solve_out = _run(capsys, "solve", "--alg", "1", "--model", COIN2)
    _s, oracle_out = _run(capsys, "oracle", "--model", COIN2)
    solved = json.loads(solve_out)["overall_value"]
    assert solved == pytest.approx(json.loads(oracle_out)["value"], abs=1e-9)
    assert solved == pytest.approx(1.31, abs=1e-9)


def test_compress_measure_solve_flow(tmp_path, capsys):
    status, out = _run(
        capsys,
        "compress", "--mode", "exact", "--model", COIN2, "--out", str(tmp_path),
    )
    assert status == EXIT_OK
    comp_file = tmp_path / "compression_private.json"
    assert comp_file.exists()
    assert json.loads(out)["eps_p"] <= 1e-9

    status, out = _run(
        capsys,
        "measure", "--model", COIN2, "--compression", str(comp_file),
    )
    assert status == EXIT_OK
    assert json.loads(out)["delta_p"] <= 1e-9

    status, out = _run(
        capsys,
        "solve", "--alg", "2", "--model", COIN2, "--compression", str(comp_file),
    )
    assert status == EXIT_OK
    assert json.loads(out)["overall_value"] == pytest.approx(1.31, abs=1e-9)


def test_solve_requires_needed_compressions(capsys):
    assert main(["solve", "--alg", "2", "--model", COIN2]) == EXIT_INPUT
    assert main(["solve", "--alg", "3", "--model", COIN2]) == EXIT_INPUT


def test_verify_gap_passes_and_writes_reports(tmp_path, capsys, coin2):
    pc = build_exact_private(coin2)
    cc = bcs_common(coin2, pc)
    pc_file = tmp_path / "pc.json"
    cc_file = tmp_path / "cc.json"
    pc_file.write_text(serialize_compression(pc))
    cc_file.write_text(serialize_compression(cc))
    outdir = tmp_path / "reports"
    status, out = _run(
        capsys,
        "verify-gap", "--model", COIN2,
        "--compression", str(pc_file), "--compression", str(cc_file),
        "--out", str(outdir),
    )
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert (outdir / "verify_gap_report.json").read_text() == out
    assert (outdir / "verify_gap_report.txt").exists()


def test_verify_gap_bounds_stay_finite_when_the_reward_scale_overflows(tmp_path, capsys):
    # horizon * reward_bound overflows to inf; a zero delta or tbar must make
    # its term 0, not NaN, so every bound is a number and the report is JSON.
    doc = json.loads(serialize(random_model(1, num_states=2, horizon=2, private_obs_sizes=(2, 1))))
    doc["reward_bound"] = 1e308
    model = load_model(json.dumps(doc))
    pc = build_exact_private(model)
    files = {"model": json.dumps(doc), "pc": serialize_compression(pc),
             "cc": serialize_compression(bcs_common(model, pc))}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    status, out = _run(
        capsys, "verify-gap", "--model", str(tmp_path / "model.json"),
        "--compression", str(tmp_path / "pc.json"), "--compression", str(tmp_path / "cc.json"),
    )
    assert status == EXIT_OK
    rows = json.loads(out, parse_constant=pytest.fail)["rows"]
    assert rows and all(row["bound"] == 0.0 and row["pass"] for row in rows)


def test_check_conditions_flags_broken_compression(tmp_path, capsys, coin2):
    pc = identity_private(coin2)
    key = next(k for k in pc.theta if k[0] == 2)
    pc.theta[key] = ("swapped",)
    pc_file = tmp_path / "pc.json"
    pc_file.write_text(serialize_compression(pc))
    status = main(
        ["check-conditions", "--model", COIN2, "--compression", str(pc_file)]
    )
    assert status == EXIT_VERIFY


def test_check_conditions_defaults_pass(capsys):
    status, out = _run(capsys, "check-conditions", "--model", COIN2)
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["lemmas"]["passed"] and doc["propositions"]["passed"]


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    outputs = []
    for run in ("1", "2"):
        outdir = tmp_path / f"run{run}"
        status, out = _run(
            capsys,
            "solve", "--alg", "4", "--model", COIN2, "--out", str(outdir),
        )
        assert status == EXIT_OK
        outputs.append(
            (out, (outdir / "solve_report.json").read_bytes(),
             (outdir / "solve_report.txt").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_table_format_renders_flat_text(capsys):
    status, out = _run(
        capsys, "solve", "--alg", "1", "--model", COIN2, "--format", "table"
    )
    assert status == EXIT_OK
    assert "overall_value" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


@pytest.mark.parametrize(
    "argv", [["solve", "--alg", "1"], ["measure"], ["verify-gap"], ["check-conditions"]])
def test_mu_choice_is_the_reference_measure(argv):
    # The parser spells the one --mu choice out, so that it need not import
    # the compression module.
    parser = build_parser()
    argv = [*argv, "--model", COIN2]
    assert parser.parse_args(argv).mu == compression.REFERENCE_MEASURE
    given = parser.parse_args([*argv, "--mu", compression.REFERENCE_MEASURE])
    assert given.mu == compression.REFERENCE_MEASURE
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        parser.parse_args([*argv, "--mu", "other"])


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ciplan.cli", "validate", "--model", COIN2],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["valid"] is True


# -- fuzzing the exit-status contract --------------------------------------

FUZZ_COMMANDS = [["solve", "--alg", alg] for alg in "12345"] + [
    ["measure"], ["verify-gap"], ["check-conditions"],
]
WRONG_TYPES = [None, "x", "[0]", {"k": 1}, [None], True]
#: Stands for a list nested 2,000 levels deep, deeper than ``json.dumps`` can
#: write; the documents are written with this string replaced in their text.
DEEP = "<a list nested 2,000 levels deep>"


@st.composite
def mutated(draw, doc):
    """``doc`` with one entry, up to three levels down, dropped, emptied,
    replaced by a value of the wrong type, by NaN or by a deeply nested list."""
    doc = copy.deepcopy(doc)
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    for _level in range(draw(st.integers(0, 2))):
        child = parent[key]
        if isinstance(child, list) and child:
            parent, key = child, draw(st.integers(0, len(child) - 1))
        elif isinstance(child, dict) and child:
            parent, key = child, draw(st.sampled_from(sorted(child)))
    kind = draw(st.sampled_from(["drop", "empty", "wrong type", "nan", "deep"]))
    if kind == "drop":
        del parent[key]
    elif kind == "empty":
        parent[key] = type(parent[key])() if isinstance(parent[key], (list, dict, str)) else []
    elif kind == "wrong type":
        parent[key] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "nan":
        parent[key] = float("nan")
    else:
        parent[key] = DEEP
    return doc


@functools.cache
def fuzz_documents() -> dict:
    """The coin2 model with its exact private and belief common compressions."""
    text = Path(COIN2).read_text()
    model = load_model(text)
    pc = build_exact_private(model)
    return {
        "model": json.loads(text),
        "pc": json.loads(serialize_compression(pc)),
        "cc": json.loads(serialize_compression(bcs_common(model, pc))),
    }


@st.composite
def fuzz_inputs(draw):
    docs = dict(fuzz_documents())
    target = draw(st.sampled_from(sorted(docs)))
    docs[target] = draw(mutated(docs[target]))
    return draw(st.sampled_from(FUZZ_COMMANDS)), docs


@settings(max_examples=25, deadline=None)
@given(fuzz_inputs())
def test_cli_exit_status_contract_under_mutated_inputs(inputs):
    command, docs = inputs
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(doc).replace(json.dumps(DEEP), _deep_list(2000)))
        argv = [*command, "--model", str(paths["model"])]
        argv += ["--compression", str(paths["pc"]), "--compression", str(paths["cc"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    assert status in (EXIT_OK, EXIT_VERIFY, EXIT_INPUT, EXIT_BUDGET)
    if status in (EXIT_INPUT, EXIT_BUDGET):
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
