"""The lazy package namespace, and the modules each CLI subcommand loads.

``import ciplan`` loads no submodule; each command of ``ciplan.cli`` imports
only the modules it runs, so a fresh process compiles and loads no other.
"""

import json
import re
import subprocess
import sys

import pytest

import ciplan
from ciplan import exact_dp, model
from ciplan.compression import bcs_common, build_exact_private, serialize_compression
from ciplan.model import load_model

from conftest import DATA

COIN2 = str(DATA / "coin2.json")
ROOT = DATA.parent.parent

BASE = {"ciplan", "ciplan.cli", "ciplan.model"}
EXACT = BASE | {"ciplan.histories", "ciplan.exact_dp"}
BELIEF = EXACT | {"ciplan.belief"}
COMPRESSION = BELIEF | {"ciplan.compression"}
APPROX = COMPRESSION | {"ciplan.approx_dp"}
VERIFY = APPROX | {"ciplan.verify"}

# argv -> the ciplan modules loaded once ``main(argv)`` has returned.
# ``{pc}`` is coin2's exact private compression, ``{cc}`` its belief common one.
MODULE_SETS = [
    (["validate"], BASE),
    (["oracle"], EXACT),
    (["solve", "--alg", "1"], EXACT),
    (["solve", "--alg", "4"], BELIEF),
    (["solve", "--alg", "5"], COMPRESSION),
    (["compress", "--mode", "exact"], COMPRESSION),
    (["measure", "--compression", "{pc}", "--compression", "{cc}"], COMPRESSION),
    (["solve", "--alg", "2", "--compression", "{pc}"], APPROX),
    (["solve", "--alg", "3", "--compression", "{pc}", "--compression", "{cc}"], APPROX),
    (["verify-gap", "--compression", "{pc}", "--compression", "{cc}"], VERIFY),
    (["check-conditions"], VERIFY),
]

RUN_MAIN = """
import contextlib, io, json, sys
from ciplan.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
print(json.dumps([status, sorted(m for m in sys.modules if m.split(".")[0] == "ciplan")]))
"""


@pytest.fixture(scope="module")
def compression_files(tmp_path_factory):
    coin2 = load_model((DATA / "coin2.json").read_text())
    pc = build_exact_private(coin2)
    files = {}
    for name, comp in (("pc", pc), ("cc", bcs_common(coin2, pc))):
        path = tmp_path_factory.mktemp("compressions") / f"{name}.json"
        path.write_text(serialize_compression(comp))
        files[name] = str(path)
    return files


def test_import_loads_no_submodule_and_no_numpy():
    code = "import sys, ciplan; print(sorted(m for m in sys.modules"
    code += " if m.split('.')[0] in ('ciplan', 'numpy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['ciplan']\n"


@pytest.mark.parametrize(
    "argv, expected", MODULE_SETS,
    ids=[a[0] + (f"-alg{a[2]}" if a[0] == "solve" else "") for a, _ in MODULE_SETS])
def test_each_subcommand_loads_only_its_modules(argv, expected, compression_files):
    argv = [argv[0], "--model", COIN2, *(a.format(**compression_files) for a in argv[1:])]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_MAIN, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    status, loaded = json.loads(proc.stdout)
    assert status == 0
    assert set(loaded) == expected


def test_readme_quick_start_runs_as_written():
    # The README's "Quick start" block, run verbatim from the repository root
    # in a fresh process, prints the value its comment gives.
    section = (ROOT / "README.md").read_text().split("## Quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    shown = re.search(r"print\(table\.overall_value\) +# (\S+)", block).group(1)
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{shown}\n" == "1.31\n"


def test_every_public_name_is_its_defining_modules_object():
    for name in ciplan.__all__:
        obj = getattr(ciplan, name)
        assert obj.__module__.startswith("ciplan.")
        assert obj is getattr(sys.modules[obj.__module__], name)


def test_dir_covers_all():
    assert set(ciplan.__all__) <= set(dir(ciplan))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ciplan import *", namespace)
    assert {name: namespace[name] for name in ciplan.__all__} == {
        name: getattr(ciplan, name) for name in ciplan.__all__}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ciplan.no_such_name
    assert not hasattr(ciplan, "no_such_name")


def test_budget_names_are_one_object():
    assert ciplan.BudgetExceededError is exact_dp.BudgetExceededError
    assert exact_dp.BudgetExceededError is model.BudgetExceededError
    assert exact_dp.DEFAULT_BUDGET is model.DEFAULT_BUDGET
