"""Offline baselines against the brute-force references."""

from __future__ import annotations

import math
import random

import pytest

from pathprophet import (
    Instance,
    Oracle,
    StateCapError,
    enumerate_realizations,
    generate_paper_instance,
    restricted_spec,
)
from pathprophet.oracle import OPT

from bruteforce import (
    all_feasible_paths,
    best_feasible_path,
    conditional_choice_distribution_mc,
    iter_realizations,
    offline_statistics,
)
from conftest import dag_fuzz, diamond, labeled_fuzz, strands_fuzz, width1_fuzz


FUZZ = (
    [width1_fuzz(j) for j in range(25)]
    + [labeled_fuzz(j) for j in range(25)]
    + [dag_fuzz(j) for j in range(25)]
    + [strands_fuzz(j) for j in range(25)]
)


def test_opt_path_matches_bruteforce_per_realization():
    for inst in FUZZ[:40]:
        orc = Oracle(inst)
        paths = all_feasible_paths(inst)
        for r in enumerate_realizations(inst):
            sel = orc.opt_path(r)
            ref_edges, ref_value = best_feasible_path(paths, r.values)
            assert sel.edges == ref_edges
            assert abs(sel.value - ref_value) < 1e-12


def test_offline_statistics_match_bruteforce():
    for inst in FUZZ:
        orc = Oracle(inst)
        expected, x, cond, path_dist = offline_statistics(inst)
        assert abs(orc.expected_opt() - expected) < 1e-9
        got_x = orc.edge_probabilities().x
        assert max(abs(a - b) for a, b in zip(got_x, x)) < 1e-9
        got_paths = orc.path_distribution()
        assert set(got_paths) == set(path_dist)
        for p, m in path_dist.items():
            assert abs(got_paths[p] - m) < 1e-9
        for name, rows in cond.items():
            for o_idx, law in enumerate(rows):
                got = orc.conditional_choice_distribution(name, o_idx)
                for key, prob in law.items():
                    assert abs(got.get(key, 0) - prob) < 1e-9
                assert abs(sum(got.values()) - 1) < 1e-9


def test_restricted_spec_matches_bruteforce():
    inst = strands_fuzz(7)
    orc = Oracle(inst)
    paths = all_feasible_paths(inst)
    # restrict to the edges of one brute-forced path
    fallback = paths[0]
    allowed = frozenset(fallback) | {inst.edges[-1].id}
    spec = restricted_spec(allowed, fallback)
    exp_ref, x_ref, _, dist_ref = offline_statistics(inst, allowed, fallback)
    assert abs(orc.expected_opt(spec) - exp_ref) < 1e-9
    got_x = orc.edge_probabilities(spec).x
    assert max(abs(a - b) for a, b in zip(got_x, x_ref)) < 1e-9
    got = orc.path_distribution(spec)
    for p, m in dist_ref.items():
        assert abs(got[p] - m) < 1e-9
    for r in enumerate_realizations(inst):
        sel = orc.opt_path(r, spec)
        assert set(sel.edges) <= allowed or sel.edges == tuple(fallback)


def test_x_is_a_unit_flow():
    for inst in FUZZ[:40]:
        x = Oracle(inst).edge_probabilities().x
        for i, name in enumerate(inst.nodes):
            inflow = sum(x[e.id] for e in inst.in_edges[i])
            outflow = sum(x[e.id] for e in inst.out_edges[i])
            if i == 0:
                assert abs(outflow - 1) < 1e-9
            elif i == len(inst.nodes) - 1:
                assert abs(inflow - 1) < 1e-9
            else:
                assert abs(inflow - outflow) < 1e-9


def test_expected_opt_mc_within_four_standard_errors():
    inst = diamond()
    orc = Oracle(inst)
    exact = orc.expected_opt()
    values = [orc.opt_path(r).value for r in enumerate_realizations(inst)]
    masses = [r.mass for r in enumerate_realizations(inst)]
    var = sum(m * (v - exact) ** 2 for v, m in zip(values, masses))
    trials = 3000
    est = orc.expected_opt_mc(trials, seed=11)
    assert abs(est - exact) <= 4 * math.sqrt(var / trials) + 1e-9
    assert est == orc.expected_opt_mc(trials, seed=11)  # reproducible


def test_conditional_choice_distribution_mc_close():
    inst = width1_fuzz(5)
    orc = Oracle(inst)
    node = inst.nodes[0]
    exact = orc.conditional_choice_distribution(node, 0)
    est = conditional_choice_distribution_mc(orc, node, 0, trials=4000, seed=3)
    for key, p in exact.items():
        se = math.sqrt(p * (1 - p) / 4000)
        assert abs(est.get(key, 0) - p) <= 4 * se + 1e-9


def test_optimal_online_value_on_known_instances():
    assert abs(Oracle(generate_paper_instance("upper49", eps=0.1)).optimal_online_value() - 2) < 1e-9
    assert abs(Oracle(generate_paper_instance("two-candidate", eps=0.5)).optimal_online_value() - 1) < 1e-9
    for k in (2, 3, 4):
        inst = generate_paper_instance("kplus1", k=k, eps=0.01)
        assert abs(Oracle(inst).optimal_online_value() - 1) < 1e-9


def test_online_value_sandwiched_between_fixed_path_and_prophet():
    for inst in FUZZ[:40]:
        orc = Oracle(inst)
        online = orc.optimal_online_value()
        assert online <= orc.expected_opt() + 1e-9
        # the walker can at least commit to the best fixed path upfront
        best_fixed = max(
            sum(
                m * sum(values[e] for e in p)
                for _, values, m in iter_realizations(inst)
            )
            for p in all_feasible_paths(inst)
        )
        assert online >= best_fixed - 1e-9


def test_online_state_cap():
    inst = generate_paper_instance("mchoice", n=4, m=2)
    with pytest.raises(StateCapError):
        Oracle(inst).optimal_online_value(state_cap=1)


def test_oracle_rejects_unreachable_sink():
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ())],
        outcomes={"s": [(1.0, {0: 1.0})]},
    )
    with pytest.raises(Exception):
        Oracle(inst).expected_opt()
