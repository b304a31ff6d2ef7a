"""Report bytes of every CLI subcommand on coin2, compared with committed files.

The files under ``data/golden`` are the structured reports the program printed
before one forward-step kernel and one recursive-update edge scan replaced the
hand-written loops; any change to a value, witness or key order shows here.
Regenerate them only when a change of report bytes is intended::

    PYTHONPATH=src python tests/test_golden.py

Each case also runs as its own ``python -m ciplan.cli`` process, which
imports only the modules that command loads.
"""

import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ciplan.cli import EXIT_OK, EXIT_VERIFY, main
from ciplan.compression import (
    bcs_common,
    build_exact_private,
    identity_private,
    serialize_compression,
)
from ciplan.model import load_model

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
COIN2 = str(DATA / "coin2.json")
# random_model(1, num_states=2, horizon=3, num_common_obs=2): its greedy
# compression at 0.2/0.1 needs 14 closure-repair rounds, where every coin2
# build needs at most 2.
H3C2 = str(DATA / "h3c2_seed1.json")

# name -> (argv, exit status); coin2 is the model unless argv names one.
# ``{pc}`` is the exact private compression, ``{cc}`` its belief common
# compression and ``{broken}`` the identity private compression with one
# time-2 label swapped.
CASES = {
    "solve_alg1": (["solve", "--alg", "1"], EXIT_OK),
    "solve_alg2": (["solve", "--alg", "2", "--compression", "{pc}"], EXIT_OK),
    "solve_alg3": (
        ["solve", "--alg", "3", "--compression", "{pc}", "--compression", "{cc}"],
        EXIT_OK,
    ),
    "solve_alg4": (["solve", "--alg", "4"], EXIT_OK),
    "solve_alg5": (["solve", "--alg", "5"], EXIT_OK),
    "solve_alg5_exact": (["solve", "--alg", "5", "--compression", "{pc}"], EXIT_OK),
    "compress_exact": (["compress", "--mode", "exact"], EXIT_OK),
    "compress_greedy": (
        ["compress", "--mode", "greedy", "--tol-r", "0.5", "--tol-o", "0.5"],
        EXIT_OK,
    ),
    "compress_greedy_lossy": (
        ["compress", "--mode", "greedy", "--tol-r", "0.2", "--tol-o", "0.1"],
        EXIT_OK,
    ),
    "compress_greedy_many_rounds": (
        ["compress", "--model", H3C2, "--mode", "greedy", "--tol-r", "0.2", "--tol-o", "0.1"],
        EXIT_OK,
    ),
    "measure": (["measure", "--compression", "{pc}", "--compression", "{cc}"], EXIT_OK),
    "verify_gap": (
        ["verify-gap", "--compression", "{pc}", "--compression", "{cc}"],
        EXIT_OK,
    ),
    "oracle": (["oracle"], EXIT_OK),
    "check_conditions": (["check-conditions"], EXIT_OK),
    "check_conditions_broken": (
        ["check-conditions", "--compression", "{broken}"],
        EXIT_VERIFY,
    ),
}


def write_compressions(directory: Path) -> dict[str, str]:
    coin2 = load_model(Path(COIN2).read_text())
    pc = build_exact_private(coin2)
    broken = identity_private(coin2)
    key = next(k for k in broken.theta if k[0] == 2)
    broken.theta[key] = ("swapped",)
    files = {}
    for name, comp in (("pc", pc), ("cc", bcs_common(coin2, pc)), ("broken", broken)):
        path = directory / f"{name}.json"
        path.write_text(serialize_compression(comp))
        files[name] = str(path)
    return files


def case_argv(name: str, files: dict[str, str]) -> list[str]:
    argv, _status = CASES[name]
    if "--model" not in argv:
        argv = [argv[0], "--model", COIN2] + argv[1:]
    return [a.format(**files) for a in argv]


def run_case(name: str, files: dict[str, str]) -> tuple[int, str]:
    argv = case_argv(name, files)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


@pytest.fixture(scope="module")
def compression_files(tmp_path_factory):
    return write_compressions(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, compression_files):
    status, out = run_case(name, compression_files)
    assert status == CASES[name][1]
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_process_report_bytes_match_golden(name, compression_files):
    proc = subprocess.run(
        [sys.executable, "-m", "ciplan.cli", *case_argv(name, compression_files)],
        capture_output=True,
    )
    assert proc.stderr == b""
    assert proc.returncode == CASES[name][1]
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = write_compressions(Path(tmp))
        for name in sorted(CASES):
            status, out = run_case(name, files)
            if status != CASES[name][1]:
                sys.exit(f"{name}: exit status {status}, expected {CASES[name][1]}")
            (GOLDEN / f"{name}.json").write_text(out)
            print(f"{name}: {len(out)} bytes")
