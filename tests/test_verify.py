"""Gap-bound formulas, observed-gap verification, and the supporting
identity checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciplan.compression import (
    MeasuredParams,
    bcs_common,
    build_common_greedy,
    build_exact_private,
    build_greedy,
    identity_common,
)
from ciplan.verify import BOUND_KINDS, check_lemmas, gap_bound, verify_gaps


def _params(ep=0.0, dp=0.0, ec=0.0, dc=0.0):
    return MeasuredParams(eps_p=ep, delta_p=dp, eps_c=ec, delta_c=dc)


def test_gap_bound_worked_examples():
    # Private-only: 2*3/2*(0.1) + 3*0.1 for the combined bound with two
    # remaining steps over a three-step horizon and unit rewards.
    assert gap_bound("thm3", 2, 3, 1.0, _params(ep=0.1)) == pytest.approx(0.6)
    # Common-only: 1*(0.05 + 2*2*0.1) + 0.05.
    assert gap_bound("thm2", 1, 2, 2.0, _params(ec=0.05, dc=0.1)) == pytest.approx(0.5)
    for kind in BOUND_KINDS:
        assert gap_bound(kind, 3, 4, 5.0, _params()) == 0.0


def test_gap_bound_zero_factor_beats_an_infinite_one():
    # horizon * rbar overflows; a zero delta or tbar contributes 0, a nonzero
    # one makes the bound +inf, and no bound is NaN.
    for kind in BOUND_KINDS:
        finite = gap_bound(kind, 1, 2, 1.0, _params(ep=0.5))
        assert gap_bound(kind, 1, 2, 1e308, _params(ep=0.5)) == finite
        assert gap_bound(kind, 0, 2, 1e308, _params(dp=0.5, dc=0.5)) == 0.0
        assert gap_bound(kind, 1, 2, 1e308, _params(dp=0.5, dc=0.5)) in (0.0, float("inf"))
    assert gap_bound("thm3", 1, 2, 1e308, _params(dp=0.5)) == float("inf")


def test_gap_bound_decomposition_and_halving():
    p = _params(ep=0.2, dp=0.1, ec=0.05, dc=0.3)
    for tbar in range(4):
        assert gap_bound("thm3", tbar, 4, 2.0, p) == pytest.approx(
            gap_bound("thm1", tbar, 4, 2.0, p) + gap_bound("thm2", tbar, 4, 2.0, p)
        )
        assert gap_bound("lem2", tbar, 4, 2.0, p) == pytest.approx(
            gap_bound("prop5", tbar, 4, 2.0, p) / 2
        )


small = st.floats(0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(BOUND_KINDS),
    tbar=st.integers(0, 5),
    horizon=st.integers(1, 6),
    rbar=small,
    ep=small,
    dp=small,
    ec=small,
    dc=small,
)
def test_gap_bound_monotone_in_every_argument(kind, tbar, horizon, rbar, ep, dp, ec, dc):
    p = _params(ep, dp, ec, dc)
    base = gap_bound(kind, tbar, horizon, rbar, p)
    assert base >= 0.0
    assert gap_bound(kind, tbar + 1, horizon, rbar, p) >= base
    assert gap_bound(kind, tbar, horizon + 1, rbar, p) >= base
    assert gap_bound(kind, tbar, horizon, rbar + 0.5, p) >= base
    for bump in (
        _params(ep + 0.1, dp, ec, dc),
        _params(ep, dp + 0.1, ec, dc),
        _params(ep, dp, ec + 0.1, dc),
        _params(ep, dp, ec, dc + 0.1),
    ):
        assert gap_bound(kind, tbar, horizon, rbar, bump) >= base


def test_gap_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gap_bound("thm7", 1, 2, 1.0, _params())
    with pytest.raises(ValueError):
        gap_bound("thm1", -1, 2, 1.0, _params())
    with pytest.raises(ValueError):
        gap_bound("thm1", 1, 2, 1.0, _params(ep=-0.1))


def test_verify_gaps_exact_compressions_observe_zero(coin2):
    pc = build_exact_private(coin2)
    cc = bcs_common(coin2, pc)
    report = verify_gaps(coin2, pc, cc)
    assert report.passed
    assert report.rows
    for row in report.rows:
        assert abs(row.observed) <= 1e-9
        assert row.bound <= 1e-9 + 0.0  # measured params are zero
    doc = report.to_jsonable()
    assert doc["passed"] and doc["params"]["eps_p"] <= 1e-9


def test_verify_gaps_lossy_compressions_stay_under_bounds(coin2, small_models):
    for model in [coin2, small_models[0], small_models[2]]:
        pc = build_greedy(model, 0.5, 0.5)
        cc = build_common_greedy(model, pc, 0.5, 0.5)
        report = verify_gaps(model, pc, cc)
        assert report.rows
        assert report.passed, max(
            (r for r in report.rows if not r.passed), key=lambda r: -r.slack
        )
        kinds = {r.kind for r in report.rows}
        assert kinds == {"thm1", "thm2", "thm3"}
        assert any(r.state_key == "sup" for r in report.rows)


def test_check_lemmas_exact_private(coin2):
    report = check_lemmas(coin2, build_exact_private(coin2))
    names = [r.condition for r in report.results]
    assert names == [
        "lemma1_q_mixture",
        "lemma2_same_label_q",
        "corollary1_same_label_v",
        "lemma3_next_step_invariance",
    ]
    assert report.passed


def test_check_lemmas_lossy_private(coin2):
    pc = build_greedy(coin2, 10.0, 2.0)
    report = check_lemmas(coin2, pc)
    assert report.passed
    # The coarse compression actually exercises the pair bound.
    assert report.result("lemma2_same_label_q").witness is not None or (
        report.result("lemma2_same_label_q").max_violation <= 0.0
    )


def test_check_lemmas_identity_common_on_random(small_models):
    model = small_models[0]
    pc = build_greedy(model, 0.4, 0.4)
    assert check_lemmas(model, pc).passed
