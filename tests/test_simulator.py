"""Reports: exact values, Monte Carlo estimates, bounds, reproducibility."""

from __future__ import annotations

import pytest

from pathprophet import (
    POLICIES,
    PolicyError,
    competitive_report,
    exact_policy_value,
    generate_paper_instance,
    monte_carlo_estimate,
)

from conftest import dag_fuzz, strands_fuzz, width1_fuzz, labeled_fuzz


def maker_for(policy):
    return {
        "width1": width1_fuzz,
        "width1-labeled": labeled_fuzz,
        "general": dag_fuzz,
        "disjoint": strands_fuzz,
    }[policy]


@pytest.mark.parametrize("policy", POLICIES)
def test_mc_mean_within_four_standard_errors_of_exact(policy):
    inst = maker_for(policy)(6)
    exact = exact_policy_value(inst, policy)
    report = monte_carlo_estimate(inst, policy, trials=3000, seed=17)
    assert abs(report.mean - exact) <= 4 * report.std_err + 1e-9
    assert report.realized_mean >= report.mean - 1e-9


@pytest.mark.parametrize("policy", POLICIES)
def test_identical_seeds_give_identical_reports(policy):
    inst = maker_for(policy)(8)
    a = monte_carlo_estimate(inst, policy, trials=500, seed=99)
    b = monte_carlo_estimate(inst, policy, trials=500, seed=99)
    assert a == b
    assert a.to_dict() == b.to_dict()
    c = monte_carlo_estimate(inst, policy, trials=500, seed=100)
    assert a != c  # and a different seed actually changes the draw


def test_single_trial_report_has_zero_standard_error():
    inst = width1_fuzz(2)
    rep = monte_carlo_estimate(inst, "width1", trials=1, seed=7)
    assert rep.std_err == 0.0
    assert rep.trials == 1


def test_competitive_report_exact_fields():
    inst = generate_paper_instance("two-candidate", eps=0.5)
    rep = competitive_report(inst, "width1", include_online=True)
    assert rep.mode == "exact"
    assert abs(rep.e_alg - 0.75) < 1e-9
    assert abs(rep.e_opt - 1.5) < 1e-9
    assert abs(rep.ratio - 0.5) < 1e-9
    assert rep.bound_label == "1/2" and rep.bound_ok
    assert abs(rep.online_opt - 1.0) < 1e-9
    d = rep.to_dict()
    assert d["policy"] == "width1" and d["bound_ok"] is True
    assert "trials" not in d  # mc-only fields stay out of exact reports


def test_competitive_report_bounds_per_policy():
    cases = [
        ("width1", width1_fuzz(3), "1/2"),
        ("width1-labeled", labeled_fuzz(3), "1/(d+2)"),
        ("general", dag_fuzz(3), "1/(k(d+2))"),
        ("disjoint", strands_fuzz(3), "1/(k+1)"),
    ]
    for policy, inst, label in cases:
        rep = competitive_report(inst, policy)
        assert rep.bound_label == label
        assert rep.bound_ok
        assert rep.ratio is None or rep.ratio <= 1 + 1e-9


def test_competitive_report_mc_needs_seed_and_trials():
    inst = width1_fuzz(0)
    with pytest.raises(ValueError):
        competitive_report(inst, "mc-typo")
    with pytest.raises(ValueError):
        competitive_report(inst, "width1", mode="mc")


def test_policy_dispatch_rejects_unknown_and_wrong_width():
    inst = dag_fuzz(3)  # width > 1
    with pytest.raises(ValueError):
        exact_policy_value(inst, "nope")
    with pytest.raises(PolicyError):
        exact_policy_value(inst, "width1")


def test_monte_carlo_rejects_bad_trials():
    with pytest.raises(ValueError):
        monte_carlo_estimate(width1_fuzz(0), "width1", trials=0, seed=1)


def test_exact_reports_build_no_sampler(monkeypatch):
    from pathprophet.policies import FocalWalker, PolicyWalk

    def refuse(*args, **kwargs):
        raise AssertionError("exact mode built sampler tables")

    monkeypatch.setattr(FocalWalker, "__init__", refuse)
    monkeypatch.setattr(PolicyWalk, "__init__", refuse)
    for policy in POLICIES:
        rep = competitive_report(maker_for(policy)(4), policy)
        assert rep.mode == "exact" and rep.bound_ok


@pytest.mark.parametrize("kwargs", [{}, {"mode": "mc", "trials": 200, "seed": 3}])
def test_identical_competitive_reports_are_equal(kwargs):
    inst = dag_fuzz(5)
    assert competitive_report(inst, "general", **kwargs) == competitive_report(inst, "general", **kwargs)


# generated before the policy registry replaced the per-name dispatch
PINNED_PARAMS = {
    "width1": (width1_fuzz(3), {"width": 1, "d": 0, "focal": [0, 1, 2, 3, 4, 5]}),
    "width1-labeled": (labeled_fuzz(3), {"width": 1, "d": 2, "focal": [0, 1, 2, 3, 4, 5]}),
    "general": (dag_fuzz(7), {"width": 3, "d": 1, "cover": [[0, 2, 8], [1, 6, 9], [0, 4, 10]]}),
    "disjoint": (
        strands_fuzz(7),
        {"width": 3, "d": 0, "cover": [[0, 1, 2], [4, 5, 6], [8, 9]], "strand": 1, "q": 1},
    ),
}


@pytest.mark.parametrize("policy", POLICIES)
def test_report_params_are_pinned(policy):
    inst, want = PINNED_PARAMS[policy]
    assert competitive_report(inst, policy).to_dict()["params"] == want


def test_unknown_policy_lists_the_known_names():
    with pytest.raises(ValueError, match="known: width1, width1-labeled, general, disjoint"):
        exact_policy_value(width1_fuzz(0), "nope")


def test_competitive_report_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        competitive_report(width1_fuzz(0), "width1", mode="bogus")


def count_engine_runs(monkeypatch):
    from pathprophet import policies

    calls = []
    engine = policies.evaluate_focal_policy

    def counted(*args, **kwargs):
        calls.append(args[1])
        return engine(*args, **kwargs)

    monkeypatch.setattr(policies, "evaluate_focal_policy", counted)
    return calls


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("j", [2, 5])
def test_exact_reports_run_the_engine_once_per_focal_run(monkeypatch, policy, j):
    from pathprophet import prepare_policy

    inst = maker_for(policy)(j)
    runs = prepare_policy(inst, policy).runs
    calls = count_engine_runs(monkeypatch)
    rep = competitive_report(inst, policy)
    assert rep.bound_ok
    assert len(calls) == len(runs)
    assert sorted(calls) == sorted(run.focal for run in runs)


@pytest.mark.parametrize("policy", ["width1", "disjoint"])
def test_monte_carlo_reports_on_the_alpha_rule_run_no_engine(monkeypatch, policy):
    calls = count_engine_runs(monkeypatch)
    competitive_report(maker_for(policy)(5), policy, mode="mc", trials=50, seed=1)
    assert calls == []
