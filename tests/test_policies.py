"""Policy engine against the brute-force execution tree, plus samplers."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pathprophet import (
    POLICIES,
    CoverError,
    Instance,
    InvalidInstanceError,
    Oracle,
    PolicyError,
    ScheduleError,
    alpha_schedule,
    build_disjoint_plan,
    cover_from_paths,
    evaluate_focal_policy,
    feasibility_probabilities,
    generate_paper_instance,
    min_path_cover,
    monte_carlo_estimate,
    prepare_general_cover,
    prepare_policy,
    run_width1_labeled,
    run_width1_unlabeled,
    sample_realization,
    validate_instance,
)
from pathprophet import cover as cover_module
from pathprophet import policies
from pathprophet.cover import PathCover
from pathprophet.policies import build_contracted_instance, run_modified_width1

from bruteforce import (
    iter_realizations, offline_statistics, online_value, path_order, policy_tree, shortest_unlabeled_path,
    staged_tree_accept, unlabeled_tree_accept,
)
from conftest import dag_fuzz, diamond, labeled_fuzz, strands_fuzz, width1_fuzz

SMALL = [j for j in range(40) if 4 + j % 4 <= 5]  # fuzz seeds giving <= 5 nodes


def focal_of(inst):
    return min_path_cover(inst).paths[0]


def test_unlabeled_engine_matches_execution_tree():
    for j in SMALL:
        inst = width1_fuzz(j)
        orc = Oracle(inst)
        focal = focal_of(inst)
        sched = alpha_schedule(inst, focal, orc.edge_probabilities(), 0)
        engine = evaluate_focal_policy(inst, focal, orc, schedule=sched)

        _, xs, laws, _ = offline_statistics(inst)
        accept = unlabeled_tree_accept(inst, focal, xs)
        tree = policy_tree(inst, focal, laws, accept)

        assert abs(engine.value - tree["value"]) < 1e-9
        fs = set(focal)
        for e in inst.edges:
            assert abs(engine.take_prob[e.id] - tree["taken"].get(e.id, 0)) < 1e-9
            if e.id not in fs:
                assert abs(engine.take_prob[e.id] - xs[e.id] / 2) < 1e-9
        for i, v in enumerate(engine.visit_prob):
            assert abs(v - sum(tree["arrive"][i].values())) < 1e-9


def test_labeled_engine_matches_execution_tree():
    for j in SMALL:
        inst = labeled_fuzz(j)
        orc = Oracle(inst)
        focal = focal_of(inst)
        engine = evaluate_focal_policy(inst, focal, orc)
        d = inst.max_labels_per_edge

        _, xs, laws, _ = offline_statistics(inst)
        accept = staged_tree_accept(inst, focal, laws, d + 2)
        tree = policy_tree(inst, focal, laws, accept)

        assert abs(engine.value - tree["value"]) < 1e-9
        fs = set(focal)
        for e in inst.edges:
            assert abs(engine.feasibility[e.id] - tree["feasibility"][e.id]) < 1e-9
            assert abs(engine.acceptance[e.id] - accept[e.id]) < 1e-9
            got = engine.take_prob[e.id]
            assert abs(got - tree["taken"].get(e.id, 0)) < 1e-9
            if e.id not in fs:
                assert abs(got - xs[e.id] / (d + 2)) < 1e-9
            else:
                assert got >= xs[e.id] / (d + 2) - 1e-9


def zero_mass_instance():
    """s -> a, s -> b, a -> b, a -> t, b -> t (edges 0 to 4).  Node a has
    an outcome of mass 0 whose value on a -> t would beat every path."""
    half = Fraction(1, 2)
    return Instance.build(
        ["s", "a", "b", "t"],
        [("s", "a", ()), ("s", "b", ()), ("a", "b", ()), ("a", "t", ()), ("b", "t", ())],
        outcomes={
            "s": [(half, {0: Fraction(1), 1: Fraction(0)}), (half, {0: Fraction(0), 1: Fraction(2)})],
            "a": [(Fraction(0), {2: Fraction(0), 3: Fraction(9)}), (Fraction(1), {2: Fraction(1), 3: Fraction(0)})],
            "b": [(half, {4: Fraction(3)}), (half, {4: Fraction(0)})],
        },
    )


@pytest.mark.parametrize("twin", [False, True], ids=["fraction", "float"])
def test_zero_mass_outcomes_match_bruteforce(twin):
    inst = json_twin(zero_mass_instance()) if twin else zero_mass_instance()
    orc = Oracle(inst)
    focal = focal_of(inst)
    expected, xs, laws, path_dist = offline_statistics(inst)
    assert orc.expected_opt() == pytest.approx(expected, abs=1e-12)
    assert orc.edge_probabilities() == pytest.approx(xs, abs=1e-12)
    assert orc.path_distribution() == pytest.approx(path_dist, abs=1e-12)
    for name, rows in laws.items():
        for o_idx, law in enumerate(rows):
            got = orc.conditional_choice_distribution(name, o_idx)
            assert {k: v for k, v in got.items() if v} == pytest.approx({k: v for k, v in law.items() if v})
    alpha = evaluate_focal_policy(inst, focal, orc, schedule=alpha_schedule(inst, focal, xs, 0))
    tree = policy_tree(inst, focal, laws, unlabeled_tree_accept(inst, focal, xs))
    assert alpha.value == pytest.approx(tree["value"], abs=1e-12)
    labeled = evaluate_focal_policy(inst, focal, orc)
    tree = policy_tree(inst, focal, laws, staged_tree_accept(inst, focal, laws, 2))
    assert labeled.value == pytest.approx(tree["value"], abs=1e-12)
    assert orc.optimal_online_value() == pytest.approx(online_value(inst), rel=1e-12, abs=0)


def test_alpha_schedule_shape_and_errors():
    inst = generate_paper_instance("two-candidate", eps=0.5)
    orc = Oracle(inst)
    focal = focal_of(inst)
    sched = alpha_schedule(inst, focal, orc.edge_probabilities(), 0)
    assert len(sched.alpha) == len(focal)
    assert len(sched.visit) == len(focal) + 1
    assert all(0 < a <= 1 for a in sched.alpha)
    assert all(v > 0 for v in sched.visit)
    assert sched.divisor == 2

    with pytest.raises(ScheduleError):
        alpha_schedule(inst, focal, orc.edge_probabilities(), 0.9)
    with pytest.raises(ScheduleError):
        alpha_schedule(inst, focal, [0.0] * 3, 0)  # wrong length


def test_schedule_rejects_mass_off_the_surface():
    # focal skips node "a" entirely, but the baseline routes through it
    from pathprophet import Instance

    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ()), ("s", "t", ()), ("a", "t", ())],
        outcomes={
            "s": [(1.0, {0: 1.0, 1: 0.0})],
            "a": [(1.0, {2: 1.0})],
        },
    )
    orc = Oracle(inst)
    with pytest.raises(ScheduleError):
        alpha_schedule(inst, (1,), orc.edge_probabilities(), 0)


def test_engine_guarantees_on_fuzz():
    for j in range(60):
        inst = width1_fuzz(j)
        orc = Oracle(inst)
        focal = focal_of(inst)
        sched = alpha_schedule(inst, focal, orc.edge_probabilities(), 0)
        val = evaluate_focal_policy(inst, focal, orc, schedule=sched).value
        assert val >= orc.expected_opt() / 2 - 1e-9

        inst = labeled_fuzz(j)
        orc = Oracle(inst)
        d = inst.max_labels_per_edge
        val = evaluate_focal_policy(inst, focal_of(inst), orc).value
        assert val >= orc.expected_opt() / (d + 2) - 1e-9


def test_feasibility_probabilities_floor_and_mc():
    inst = labeled_fuzz(2)
    orc = Oracle(inst)
    focal = focal_of(inst)
    d = inst.max_labels_per_edge
    exact = feasibility_probabilities(inst, focal, oracle=orc)
    assert exact.mode == "exact"
    assert all(p >= 1 / (d + 2) - 1e-9 for p in exact.p.values())

    mc = feasibility_probabilities(inst, focal, mode="mc", oracle=orc, trials=2000, seed=5)
    mc2 = feasibility_probabilities(inst, focal, mode="mc", oracle=orc, trials=2000, seed=5)
    assert mc.p == mc2.p  # reproducible
    for eid, p in exact.p.items():
        se = (p * (1 - p) / 2000) ** 0.5
        assert abs(mc.p[eid] - p) <= 4 * se + 1e-9

    with pytest.raises(PolicyError):
        feasibility_probabilities(inst, focal, mode="mc", oracle=orc)  # seed missing


def test_sampler_walks_are_valid_and_deterministic():
    inst = width1_fuzz(9)
    a = run_width1_unlabeled(inst, random.Random(42))
    b = run_width1_unlabeled(inst, random.Random(42))
    assert a == b
    at = inst.source
    for eid in a.edges:
        e = inst.edges[eid]
        assert e.src == at
        at = e.dst
    assert at == inst.sink


def test_labeled_sampler_respects_caps():
    inst = labeled_fuzz(4)
    walk = prepare_policy(inst, "width1-labeled").sampler()
    for t in range(300):
        traj = walk.run(random.Random(t))
        usage = {}
        for eid in traj.edges:
            for lbl in inst.edges[eid].labels:
                usage[lbl] = usage.get(lbl, 0) + 1
        for lbl, used in usage.items():
            assert used <= inst.labels[lbl]


def test_sampler_value_matches_supplied_realization():
    inst = width1_fuzz(13)
    choices, values, _ = next(iter_realizations(inst))
    traj = run_modified_width1(inst, random.Random(1), choices=choices)
    assert abs(traj.value - sum(values[eid] for eid in traj.edges)) < 1e-12


@pytest.mark.parametrize("twin", [False, True], ids=["fraction", "float"])
def test_a_trial_walks_sample_realization_on_its_own_stream(twin):
    ran = set()
    for maker in (width1_fuzz, labeled_fuzz, dag_fuzz, strands_fuzz):
        inst = json_twin(maker(3)) if twin else maker(3)
        for policy in POLICIES:
            prepared, refused = refusal(lambda: prepare_policy(inst, policy))
            if refused:
                continue
            walk = prepared.sampler()
            for s in range(5):
                rng = random.Random(s)
                drawn = refusal(lambda: walk.run(random.Random(s)))
                supplied = refusal(lambda: walk.run(rng, choices=sample_realization(inst, rng)))
                assert drawn == supplied, (maker.__name__, policy, s)
                if drawn[1] is None:
                    ran.add(policy)
    assert ran == set(POLICIES)


@pytest.mark.parametrize("twin", [False, True], ids=["fraction", "float"])
def test_a_monte_carlo_trial_is_the_recorded_walk_unrecorded(twin):
    from pathprophet.util import derive_seed, trial_streams

    ran = set()
    for maker in (width1_fuzz, labeled_fuzz, dag_fuzz, strands_fuzz):
        inst = json_twin(maker(3)) if twin else maker(3)
        for policy in POLICIES:
            prepared, refused = refusal(lambda: prepare_policy(inst, policy))
            if refused:
                continue
            walk = prepared.sampler()
            for j, rng in enumerate(trial_streams(40, 11, "traj")):
                trial = refusal(lambda: walk.trial(rng))
                traj, refused = refusal(lambda: walk.run(random.Random(derive_seed(11, "traj", j))))
                want = None if refused else (traj.value, traj.value if traj.inner_value is None else traj.inner_value)
                assert trial == (want, refused), (maker.__name__, policy, j)
                if not refused:
                    ran.add(policy)
    assert ran == set(POLICIES)


HELPERS = {
    "run_width1_unlabeled": "width1",
    "run_modified_width1": "width1",
    "run_width1_labeled": "width1-labeled",
    "run_general_cover_policy": "general",
    "run_disjoint_paths_policy": "disjoint",
}


@pytest.mark.parametrize("twin", [False, True], ids=["fraction", "float"])
def test_each_run_helper_is_one_registry_walk(twin):
    ran = set()
    for maker in (width1_fuzz, labeled_fuzz, dag_fuzz, strands_fuzz):
        inst = json_twin(maker(3)) if twin else maker(3)
        for name, policy in HELPERS.items():
            helper = getattr(policies, name)
            for s in range(3):
                c = sample_realization(inst, random.Random(100 + s))
                got = refusal(lambda: helper(inst, random.Random(s), choices=c))
                want = refusal(lambda: prepare_policy(inst, policy).sampler().run(random.Random(s), c))
                assert got == want, (maker.__name__, name, s)
                if got[1] is None:
                    ran.add(name)
    assert ran == set(HELPERS)


def test_unlabeled_policy_rejects_labeled_instance():
    inst = labeled_fuzz(0)
    with pytest.raises(PolicyError):
        run_width1_unlabeled(inst, rng=random.Random(0))


def test_width1_needs_covering_path():
    with pytest.raises(PolicyError):
        run_width1_unlabeled(diamond(), rng=random.Random(0))


def test_sampler_mean_matches_engine_value():
    inst = width1_fuzz(1)
    orc = Oracle(inst)
    focal = focal_of(inst)
    sched = alpha_schedule(inst, focal, orc.edge_probabilities(), 0)
    exact = evaluate_focal_policy(inst, focal, orc, schedule=sched).value
    trials = 4000
    walk = prepare_policy(inst, "width1").sampler()
    vals = [walk.run(random.Random(t)).value for t in range(trials)]
    mean = sum(vals) / trials
    var = sum((v - mean) ** 2 for v in vals) / (trials - 1)
    assert abs(mean - exact) <= 4 * (var / trials) ** 0.5 + 1e-9


# -- general covers ----------------------------------------------------------


def test_contracted_instances_validate_and_cover():
    for j in range(40):
        inst = dag_fuzz(j)
        prepared = prepare_general_cover(inst)
        for ci in prepared.contracted:
            report = validate_instance(ci.graph)
            assert report.ok, report.violations
            assert set(path_order(ci.graph, ci.focal)) == set(ci.graph.nodes)
            for eid in ci.focal:
                assert not ci.graph.edges[eid].labels


def test_general_policy_guarantee_and_certified_value():
    for j in range(40):
        inst = dag_fuzz(j)
        orc = Oracle(inst)
        prepared = prepare_general_cover(inst)
        k = prepared.width
        d = inst.max_labels_per_edge
        value, inner = prepared.exact_value(), [run.value() for run in prepared.runs]
        assert abs(value - sum(inner) / k) < 1e-12
        assert value >= orc.expected_opt() / (k * (d + 2)) - 1e-9


def test_general_replay_produces_real_walks():
    inst = dag_fuzz(17)
    prepared = prepare_general_cover(inst)
    walk = prepared.sampler()
    for t in range(200):
        traj = walk.run(random.Random(t))
        at = inst.source
        for eid in traj.edges:
            e = inst.edges[eid]
            assert e.src == at
            at = e.dst
        assert at == inst.sink
        assert traj.inner_value is not None
        assert traj.value >= traj.inner_value - 1e-9
        assert traj.sub_index in range(prepared.width)


@pytest.mark.parametrize("name", ["grid", "markets", "dag_fuzz(35)"])
def test_only_the_sampler_computes_connector_routes(name, monkeypatch):
    inst = dag_fuzz(35) if name == "dag_fuzz(35)" else generate_paper_instance(name)
    real, calls = policies.unlabeled_hops, []

    def counted(inst, stops):
        calls.append(list(stops))
        return real(inst, stops)

    monkeypatch.setattr(cover_module, "unlabeled_hops", counted)
    monkeypatch.setattr(policies, "unlabeled_hops", counted)
    prepared = prepare_policy(inst, "general")
    prepared.exact_value()
    k, idx = prepared.width, inst.node_index
    # one pass per chain of the unseeded cover, then one per cover path's contraction
    assert len(calls) == 2 * k and all(stops[0] == 0 and stops[-1] == len(inst.nodes) - 1 for stops in calls[:k])
    assert calls[k:] == [[idx[u] for u in ci.graph.nodes] for ci in prepared.contracted]
    heads = {
        (inst.edges[orig].dst, e.dst)
        for ci in prepared.contracted
        for orig, e in zip(ci.edges, ci.graph.edges)
        if inst.edges[orig].dst != e.dst
    }
    assert heads, "no contracted edge leaves its cover path"
    calls.clear()
    walk = prepared.sampler()
    assert calls == []  # the sampler expands the contractions' hops and runs no pass of its own
    for ci, replay in zip(prepared.contracted, walk.replay, strict=True):
        for orig, e, real_edges in zip(ci.edges, ci.graph.edges, replay, strict=True):
            head = inst.edges[orig].dst
            assert real_edges == (orig, *(shortest_unlabeled_path(inst, head, e.dst) if head != e.dst else ()))


# -- disjoint strands --------------------------------------------------------


def test_disjoint_plan_invariants():
    for j in range(40):
        inst = strands_fuzz(j)
        orc = Oracle(inst)
        plan = build_disjoint_plan(inst, oracle=orc)
        k = plan.cover.width
        assert abs(sum(plan.f) - 1) < 1e-9
        assert abs(sum(1 + fi for fi in plan.f) - (k + 1)) < 1e-9
        for i in range(k):
            assert plan.q[i] >= 1 - plan.f[i] - 1e-9
        all_edges = set()
        for s in plan.edge_sets:
            assert not (all_edges & s)
            all_edges |= s
        assert all_edges == {e.id for e in inst.edges}


def test_disjoint_guarantee_and_runner_stays_in_strand():
    for j in range(40):
        inst = strands_fuzz(j)
        orc = Oracle(inst)
        plan = build_disjoint_plan(inst, oracle=orc)
        val = prepare_policy(inst, "disjoint").exact_value()
        assert val >= orc.expected_opt() / (plan.cover.width + 1) - 1e-9
    inst = strands_fuzz(3)
    orc = Oracle(inst)
    plan = build_disjoint_plan(inst, oracle=orc)
    allowed = plan.edge_sets[plan.i_star]
    walk = prepare_policy(inst, "disjoint").sampler()
    for t in range(100):
        traj = walk.run(random.Random(t))
        assert set(traj.edges) <= allowed
        assert traj.sub_index == plan.i_star


def test_disjoint_rejects_labeled_and_overlapping_covers():
    with pytest.raises(PolicyError):
        build_disjoint_plan(labeled_fuzz(0), oracle=Oracle(labeled_fuzz(0)))
    inst = strands_fuzz(1)
    cov = min_path_cover(inst)
    overlapping = PathCover(
        (cov.paths[0], cov.paths[0]) + cov.paths[1:],
        (cov.node_orders[0], cov.node_orders[0]) + cov.node_orders[1:],
    )
    with pytest.raises(CoverError):
        build_disjoint_plan(inst, overlapping, oracle=Oracle(inst))


def direct_edges_instance():
    """s -> a -> t (edges 0, 1) beside two direct s -> t edges (2, 3)."""
    return Instance.build(
        ["s", "a", "t"],
        [("s", "a", ()), ("a", "t", ()), ("s", "t", ()), ("s", "t", ())],
        outcomes={
            "s": [(0.5, {0: 0.0, 2: 1.0, 3: 0.0}), (0.5, {0: 0.0, 2: 0.0, 3: 2.0})],
            "a": [(0.5, {1: 3.0}), (0.5, {1: 0.0})],
        },
    )


def test_disjoint_plan_moves_the_internal_free_path_to_strand_0():
    inst = direct_edges_instance()
    cover = cover_from_paths(inst, [(0, 1), (2,)])
    plan = build_disjoint_plan(inst, cover, oracle=Oracle(inst))
    assert plan.cover.paths == ((2,), (0, 1))
    assert plan.edge_sets[0] == {2, 3}  # every direct edge pools with the internal-free strand
    assert prepare_policy(inst, "disjoint", cover).params["cover"] == [[2], [0, 1]]
    with pytest.raises(CoverError, match="more than one cover path has no internal nodes"):
        build_disjoint_plan(inst, cover_from_paths(inst, [(0, 1), (2,), (3,)]), oracle=Oracle(inst))


# -- one rule for the engine and the walker ----------------------------------


def json_twin(inst):
    import json

    from pathprophet import instance_from_dict, instance_to_dict

    return instance_from_dict(json.loads(json.dumps(instance_to_dict(inst), default=float)))


@pytest.mark.parametrize("twin", [False, True], ids=["fraction", "float"])
@pytest.mark.parametrize("maker", [width1_fuzz, labeled_fuzz, dag_fuzz])
def test_walker_thresholds_are_the_engine_acceptances(maker, twin):
    from pathprophet import OPT
    from pathprophet.policies import FocalWalker
    from pathprophet.util import exact_threshold

    checked = {"alpha": 0, "labeled": 0}
    for j in range(40):
        inst = json_twin(maker(j)) if twin else maker(j)
        if maker is dag_fuzz:
            runs = [(ci.graph, ci.focal) for ci in prepare_general_cover(inst).contracted]
        else:
            runs = [(inst, focal_of(inst))]
        for graph, focal in runs:
            orc = Oracle(graph)
            rules = {"labeled": (feasibility_probabilities(graph, focal, oracle=orc), None)}
            if graph.max_labels_per_edge == 0:
                sched = alpha_schedule(graph, focal, orc.edge_probabilities(), 0)
                rules["alpha"] = (sched, sched)
            for name, (rule, schedule) in rules.items():
                engine = evaluate_focal_policy(graph, focal, orc, schedule=schedule)
                walker = FocalWalker(graph, focal, orc, OPT, rule)
                for eid, a in engine.acceptance.items():
                    if eid in focal:
                        continue
                    if a > 0:
                        assert walker.thresholds[eid] == exact_threshold(a), (j, name, eid)
                        checked[name] += 1
                    else:
                        assert walker.thresholds[eid] is None, (j, name, eid)
    assert checked["labeled"] > 0
    assert checked["alpha"] > 0 or maker is labeled_fuzz


# -- one contract between exact and Monte Carlo ------------------------------


def refusal(fn):
    """(value, None) when fn runs, (None, (error type, message)) when it
    refuses with a policy, cover or schedule error."""
    try:
        return fn(), None
    except (PolicyError, CoverError, ScheduleError) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("twin", [False, True], ids=["fraction", "float"])
@pytest.mark.parametrize("maker", [width1_fuzz, labeled_fuzz, dag_fuzz, strands_fuzz])
def test_exact_and_monte_carlo_refuse_alike_and_agree(maker, twin):
    ran = 0
    for j in range(12):
        inst = json_twin(maker(j)) if twin else maker(j)
        for policy in POLICIES:
            prepared, refused = refusal(lambda: prepare_policy(inst, policy))
            if refused:
                continue  # both evaluators read this one preparation
            exact, exact_refused = refusal(prepared.exact_value)
            mc, mc_refused = refusal(lambda: monte_carlo_estimate(inst, policy, 300, j, prepared=prepared))
            assert exact_refused == mc_refused, (j, policy, exact_refused, mc_refused)
            if exact_refused:
                continue
            ran += 1
            if abs(mc.mean - exact) > 4 * mc.std_err + 1e-9:
                rerun = monte_carlo_estimate(inst, policy, 1200, j + 1000, prepared=prepared)
                assert abs(rerun.mean - exact) <= 4 * rerun.std_err + 1e-9, (j, policy, mc, rerun, exact)
    assert ran > 0


def test_preparation_refuses_what_a_rule_cannot_run():
    with pytest.raises(PolicyError, match="unlabeled policy cannot run on a labeled instance"):
        prepare_policy(labeled_fuzz(3), "width1")
    # a one-hop instance whose labeled twin edge makes a covering path
    inst = Instance.build(
        ["s", "t"],
        [("s", "t", ()), ("s", "t", ("red",))],
        labels={"red": 1},
        outcomes={"s": [(1.0, {0: 0.0, 1: 1.0})]},
    )
    labeled_path = cover_from_paths(inst, [[1]])
    for policy in ("width1-labeled", "general"):
        with pytest.raises(PolicyError, match="focal path must consist of unlabeled edges"):
            prepare_policy(inst, policy, labeled_path)
    with pytest.raises(PolicyError, match="focal path must consist of unlabeled edges"):
        run_width1_labeled(inst, random.Random(0), labeled_path)


def test_feasibility_probabilities_refuse_an_unknown_mode():
    inst = labeled_fuzz(4)
    with pytest.raises(ValueError, match="unknown feasibility mode 'bogus'"):
        feasibility_probabilities(inst, focal_of(inst), mode="bogus", oracle=Oracle(inst))


def test_labeled_engine_refuses_offline_mass_off_the_focal_surface():
    inst = diamond()
    with pytest.raises(PolicyError, match="offline mass 0.5 on edge 1 is off the focal surface"):
        evaluate_focal_policy(inst, (0, 2), Oracle(inst))


def test_contraction_refuses_an_index_off_the_cover():
    inst = diamond()
    cover = min_path_cover(inst)
    for index in (cover.width, -1):
        with pytest.raises(CoverError, match=f"cover has 2 paths, no index {index}"):
            build_contracted_instance(inst, cover, index)


def test_contraction_refuses_an_edge_with_no_unlabeled_route_back():
    # unvalidated: b's only way on is the labeled edge 3, so contracting
    # onto path 0 (s -> a -> t) leaves edge 2 (s -> b) with nowhere to go
    inst = Instance.build(
        ["s", "a", "b", "t"],
        [("s", "a", ()), ("a", "t", ()), ("s", "b", ()), ("b", "t", ("red",))],
        labels={"red": 1},
        outcomes={"s": [(1, {0: 0, 2: 0})], "a": [(1, {1: 1})], "b": [(1, {3: 1})]},
    )
    cover = cover_from_paths(inst, [[0, 1], [2, 3]])
    message = "edge 2 strands the walker: no unlabeled route from 'b' back to the cover path"
    with pytest.raises(CoverError, match=message):
        build_contracted_instance(inst, cover, 0)
    with pytest.raises(CoverError, match=message):
        prepare_policy(inst, "general", cover)


def test_walker_refuses_a_tentative_edge_whose_mc_feasibility_is_zero():
    from pathprophet import OPT
    from pathprophet.policies import FocalWalker

    # one Monte Carlo trial leaves p(e)=0 on edge 11, which has x_e > 0
    inst = labeled_fuzz(2)
    focal = focal_of(inst)
    orc = Oracle(inst)
    rule = feasibility_probabilities(inst, focal, mode="mc", oracle=orc, trials=1, seed=1)
    walker = FocalWalker(inst, focal, orc, OPT, rule)
    with pytest.raises(PolicyError, match=r"p\(e\)=0 encountered for a tentative edge with x_e>0 \(edge 11\)"):
        walker.walk(random.Random(1), sample_realization(inst, random.Random(1)))


def test_engine_refuses_a_schedule_built_for_another_focal_path():
    inst = direct_edges_instance()
    orc = Oracle(inst)
    sched = alpha_schedule(inst, (0, 1), orc.edge_probabilities(), 0)
    with pytest.raises(ScheduleError, match="schedule was built for a different focal path"):
        evaluate_focal_policy(inst, (2,), orc, schedule=sched)


def test_a_sampler_run_needs_a_random_generator():
    walk = prepare_policy(width1_fuzz(3), "width1").sampler()
    with pytest.raises(PolicyError, match="a random.Random must be supplied"):
        walk.run(None)


def test_exact_and_monte_carlo_refuse_alike_on_a_focal_node_without_outcome_table():
    # an unvalidated library instance: only the source has a table
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ()), ("a", "t", ()), ("s", "t", ())],
        outcomes={"s": [(0.5, {0: 1.0, 2: 0.0}), (0.5, {0: 0.0, 2: 1.0})]},
    )
    msg = "node 'a' has no outcome table"
    with pytest.raises(InvalidInstanceError, match=msg):
        evaluate_focal_policy(inst, (0, 1), Oracle(inst))
    prepared = prepare_policy(inst, "width1")
    with pytest.raises(InvalidInstanceError, match=msg):
        prepared.exact_value()
    with pytest.raises(InvalidInstanceError, match=msg):
        prepared.sampler().run(random.Random(0))


def test_disjoint_plan_names_the_shared_node_whatever_the_hash_seed():
    tests = Path(__file__).resolve().parent
    code = (
        "from conftest import dag_fuzz\n"
        "from pathprophet import CoverError, prepare_policy\n"
        "try:\n"
        "    prepare_policy(dag_fuzz(39), 'disjoint')\n"
        "except CoverError as exc:\n"
        "    print(exc)\n"
    )
    path = os.pathsep.join([str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])
    messages = {
        seed: subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for seed in ("0", "2")
    }
    assert messages["0"].startswith("cover paths 0 and 1 share internal node"), messages
    assert messages["0"] == messages["2"], messages


@pytest.mark.parametrize("trials", [0, -3])
def test_monte_carlo_feasibility_refuses_non_positive_trials(trials):
    inst = labeled_fuzz(2)
    with pytest.raises(ValueError, match="trials must be positive"):
        feasibility_probabilities(inst, focal_of(inst), mode="mc", oracle=Oracle(inst), trials=trials, seed=5)


def test_a_run_on_monte_carlo_feasibility_has_no_exact_value():
    from pathprophet import OPT
    from pathprophet.policies import FocalRun

    inst = labeled_fuzz(2)
    focal = focal_of(inst)
    orc = Oracle(inst)
    mc = feasibility_probabilities(inst, focal, mode="mc", oracle=orc, trials=50, seed=5)
    with pytest.raises(PolicyError, match="no exact value"):
        FocalRun(inst, focal, orc, OPT, mc).value()
