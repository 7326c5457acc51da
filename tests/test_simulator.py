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
    from pathprophet.oracle import Oracle
    from pathprophet.policies import FocalWalker, PolicyWalk

    def refuse(*args, **kwargs):
        raise AssertionError("exact mode built sampler tables")

    monkeypatch.setattr(FocalWalker, "__init__", refuse)
    monkeypatch.setattr(PolicyWalk, "__init__", refuse)
    monkeypatch.setattr(Oracle, "choice_tables", refuse)
    for policy in POLICIES:
        rep = competitive_report(maker_for(policy)(4), policy)
        assert rep.mode == "exact" and rep.bound_ok
