"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail line
(visible with ``pytest -s``); the assertions carry the actual gate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ciplan.approx_dp import solve_ascs_asps, solve_fcs_asps
from ciplan.belief import (
    bayes_update,
    check_spi,
    compute_bcs,
    solve_bcs_fps,
    verify_propositions,
)
from ciplan.cli import EXIT_OK, main
from ciplan.compression import (
    PrivateCompression,
    bcs_common,
    build_exact_private,
    build_greedy,
    identity_private,
    measure_common,
    measure_private,
    serialize_compression,
)
from ciplan.exact_dp import brute_force_value, solve_fcs_fps
from ciplan.histories import FcsTree, enumerate_prescriptions
from ciplan.verify import BOUND_KINDS, check_lemmas, gap_bound, verify_gaps

from conftest import DATA

COIN2 = str(DATA / "coin2.json")


def _report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_oracle_equivalence(coin2, small_models):
    ok = True
    for model in small_models + [coin2]:
        table, _ = solve_fcs_fps(model)
        ok = ok and abs(table.overall_value - brute_force_value(model)) <= 1e-9
    _report("1 oracle equivalence", ok)
    assert ok


def test_criterion_2_lossless_equivalence(coin2, small_models):
    ok = True
    for model in [coin2] + small_models:
        tree = FcsTree(model)
        pc = build_exact_private(model, tree)
        cc = bcs_common(model, pc, tree)
        mp = measure_private(model, pc, tree=tree)
        mc = measure_common(model, pc, cc, tree=tree)
        ok = ok and max(mp.eps_p, mp.delta_p, mc.eps_c, mc.delta_c) <= 1e-9
        exact, _ = solve_fcs_fps(model, tree)
        asps, _ = solve_fcs_asps(model, pc, tree)
        ascs, _, _ = solve_ascs_asps(model, pc, cc, tree=tree)
        for (t, seq), entry in asps.entries.items():
            v = exact.entries[(t, seq)].value
            v_check = ascs.entries[(t, cc.label_of(t, seq))].value
            ok = ok and abs(entry.value - v) <= 1e-9 and abs(v_check - v) <= 1e-9
    _report("2 lossless equivalence", ok)
    assert ok


def test_criterion_3_bound_compliance(coin2, small_models):
    from ciplan.compression import build_common_greedy

    tols = [(0.1, 0.1), (0.3, 0.3), (0.5, 0.5), (1.0, 1.0)]
    tested = 0
    ok = True
    for model in [coin2] + small_models:
        tree = FcsTree(model)
        for tol_r, tol_o in tols:
            pc = build_greedy(model, tol_r, tol_o, tree=tree)
            cc = build_common_greedy(model, pc, tol_r, tol_o, tree=tree)
            report = verify_gaps(model, pc, cc, tree=tree)
            tested += 1
            ok = ok and report.passed
            tbars = {model.horizon - r.t for r in report.rows}
            for tbar in tbars:
                ok = ok and gap_bound(
                    "thm3", tbar, model.horizon, model.reward_bound, report.params
                ) == pytest.approx(
                    gap_bound("thm1", tbar, model.horizon, model.reward_bound, report.params)
                    + gap_bound("thm2", tbar, model.horizon, model.reward_bound, report.params)
                )
    ok = ok and tested >= 20
    _report(f"3 bound compliance ({tested} lossy compressions)", ok)
    assert ok


def test_criterion_4_lemma_suite(coin2, small_models):
    ok = True
    for model in [coin2] + small_models:
        ok = ok and check_lemmas(model, build_exact_private(model)).passed
    ok = ok and check_lemmas(coin2, build_greedy(coin2, 10.0, 2.0)).passed
    _report("4 lemma suite", ok)
    assert ok


def test_criterion_5_proposition_suite(coin2, small_models):
    ok = True
    for model in [coin2] + small_models:
        pcs = [build_exact_private(model)]
        ok = ok and verify_propositions(model, pcs).passed
    ok = ok and check_spi(coin2, identity_private(coin2)).passed
    _report("5 proposition suite", ok)
    assert ok


def test_criterion_6_belief_consistency(coin2, small_models):
    ok = True
    for model in [coin2] + small_models:
        tree = FcsTree(model)
        for t in range(1, model.horizon):
            for node in tree.full_level(t).nodes:
                belief = compute_bcs(tree, node)
                for gamma in enumerate_prescriptions(model, node.agent_domains):
                    for o0, child, _p in tree.expand(node, gamma):
                        upd = dict(bayes_update(model, belief, gamma, o0).atoms)
                        direct = dict(compute_bcs(tree, child).atoms)
                        ok = ok and set(upd) == set(direct)
                        ok = ok and all(
                            abs(upd[k] - v) <= 1e-9 for k, v in direct.items()
                        )
        exact, _ = solve_fcs_fps(model, tree)
        keyed, _ = solve_bcs_fps(model, tree)
        ok = ok and abs(keyed.overall_value - exact.overall_value) <= 1e-9
    _report("6 belief consistency", ok)
    assert ok


def test_criterion_7_monotonicity(coin2, small_models):
    ok = True
    # Restricted sweeps never exceed the exact one, node for node.
    for model in [coin2] + small_models:
        tree = FcsTree(model)
        exact, _ = solve_fcs_fps(model, tree)
        for tol in (0.0, 0.2, 0.6):
            pc = build_greedy(model, tol, tol, tree=tree)
            asps, _ = solve_fcs_asps(model, pc, tree)
            ok = ok and all(
                entry.value <= exact.entries[key].value + 1e-9
                for key, entry in asps.entries.items()
            )
    # Splitting whole nodes into singleton labels never worsens the measure.
    tree = FcsTree(coin2)
    pc = build_greedy(coin2, 0.6, 0.6, tree=tree)
    base = measure_private(coin2, pc, tree=tree, check=False)
    refined = PrivateCompression(num_agents=pc.num_agents, horizon=pc.horizon)
    refined.theta = {
        k: (("singleton",) + k if k[0] == 2 else v) for k, v in pc.theta.items()
    }
    after = measure_private(coin2, refined, tree=tree, check=False)
    ok = ok and after.eps_p <= base.eps_p + 1e-12
    ok = ok and after.delta_p <= base.delta_p + 1e-12
    # Bound formulas are monotone in every argument on a sampled grid.
    from ciplan.compression import MeasuredParams

    grid = [0.0, 0.25, 0.5]
    for kind in BOUND_KINDS:
        for ep in grid:
            for dc in grid:
                p = MeasuredParams(eps_p=ep, delta_p=0.1, eps_c=0.2, delta_c=dc)
                for tbar in (0, 1, 2):
                    for rbar in grid:
                        base_v = gap_bound(kind, tbar, 3, rbar, p)
                        ok = ok and gap_bound(kind, tbar + 1, 3, rbar, p) >= base_v
                        ok = ok and gap_bound(kind, tbar, 4, rbar, p) >= base_v
                        ok = ok and gap_bound(kind, tbar, 3, rbar + 0.25, p) >= base_v
                        bigger = MeasuredParams(
                            eps_p=ep + 0.1, delta_p=0.2, eps_c=0.3, delta_c=dc + 0.1
                        )
                        ok = ok and gap_bound(kind, tbar, 3, rbar, bigger) >= base_v
    _report("7 monotonicity", ok)
    assert ok


def test_criterion_8_cli_determinism(tmp_path, capsys, coin2):
    pc = build_exact_private(coin2)
    cc = bcs_common(coin2, pc)
    pc_file = tmp_path / "pc.json"
    cc_file = tmp_path / "cc.json"
    pc_file.write_text(serialize_compression(pc))
    cc_file.write_text(serialize_compression(cc))

    runs = []
    for _run in range(3):
        per_run = []
        for cmd in (
            ["solve", "--alg", "1", "--model", COIN2],
            ["oracle", "--model", COIN2],
            [
                "verify-gap", "--model", COIN2,
                "--compression", str(pc_file), "--compression", str(cc_file),
            ],
        ):
            status = main(cmd)
            out = capsys.readouterr().out
            assert status == EXIT_OK
            json.loads(out)  # structured output stays valid JSON
            per_run.append(out)
        runs.append(per_run)
    ok = runs[0] == runs[1] == runs[2]
    _report("8 CLI determinism", ok)
    assert ok


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["coin_guessing_walkthrough.py", "compression_tour.py"])
def test_demo_runs(demo):
    # Each demo prints the bytes of its golden file, captured with
    # ``PYTHONPATH=src python demos/<demo>.py > tests/data/golden/demo_<demo>.txt``.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, cwd=ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    golden = ROOT / "tests" / "data" / "golden" / f"demo_{Path(demo).stem}.txt"
    assert proc.stdout == golden.read_bytes()
