"""Named families carry correct closed-form meta; random shapes are sound."""

from __future__ import annotations

from fractions import Fraction

import pytest

from bruteforce import offline_statistics
from pathprophet.errors import InvalidInstanceError
from pathprophet.instances import (
    classic,
    generate_paper_instance,
    generate_random_instance,
    grid,
    kplus1,
    markets,
    mchoice,
    overtime,
    paper_families,
    two_candidate,
    upper49,
    vertex_matching,
)
from pathprophet.cover import cover_from_paths, min_path_cover
from pathprophet.model import instance_to_dict, validate_instance
from pathprophet.oracle import expected_opt, optimal_online_value
from pathprophet.simulate import exact_policy_value


def table(inst, node):
    return inst.tables[inst.node_index[node]]


@pytest.mark.parametrize("family", paper_families())
def test_every_family_builds_valid(family):
    inst = generate_paper_instance(family)
    assert validate_instance(inst).ok
    assert inst.meta["family"] == family


def test_family_name_accepts_underscores():
    a = generate_paper_instance("two_candidate", eps=0.25)
    b = generate_paper_instance("two-candidate", eps=0.25)
    assert instance_to_dict(a) == instance_to_dict(b)


def test_unknown_family_rejected():
    with pytest.raises(InvalidInstanceError, match="unknown family"):
        generate_paper_instance("nope")


@pytest.mark.parametrize("eps", [0.5, 0.25, 1e-3])
def test_two_candidate_meta_matches_oracle_and_policy(eps):
    inst = two_candidate(eps)
    assert inst.meta["expected_opt"] == pytest.approx(2 - eps, abs=1e-12)
    assert expected_opt(inst) == pytest.approx(2 - eps, abs=1e-12)
    assert exact_policy_value(inst, "width1") == pytest.approx(1 - eps / 2, abs=1e-12)


def test_two_candidate_eps_one_degenerates_to_sure_thing():
    inst = two_candidate(1.0)
    assert expected_opt(inst) == pytest.approx(1.0, abs=1e-12)


def test_two_candidate_rejects_bad_eps():
    with pytest.raises(InvalidInstanceError):
        two_candidate(0.0)
    with pytest.raises(InvalidInstanceError):
        two_candidate(1.5)


def test_classic_two_candidates_agrees_with_dedicated_family():
    # n=2 of the escalating ladder is the two-candidate gadget
    inst = classic(n=2, eps=0.25)
    assert expected_opt(inst) == pytest.approx(2 - 0.25, abs=1e-12)
    assert len(min_path_cover(inst).paths) == 1


def test_classic_ladder_prophet_matches_bruteforce_and_grows():
    prev = 0.0
    for n in (2, 3, 4):
        inst = classic(n=n, eps=0.5)
        expected, _x, _cond, _paths = offline_statistics(inst)
        val = expected_opt(inst)
        assert val == pytest.approx(float(expected), abs=1e-12)
        assert val > prev
        prev = val


def test_classic_rejects_bad_shapes():
    with pytest.raises(InvalidInstanceError):
        classic(n=1)
    with pytest.raises(InvalidInstanceError, match="distributions"):
        classic(n=3, dists=[[(1, 1)]] * 2)


def test_upper49_meta_matches_oracles():
    inst = upper49(eps=0.1)
    assert inst.meta["d"] == 1
    assert expected_opt(inst) == pytest.approx(float(inst.meta["expected_opt"]), abs=1e-12)
    assert expected_opt(inst) == pytest.approx(4.25, abs=1e-12)
    assert optimal_online_value(inst) == pytest.approx(2.0, abs=1e-12)
    caps = dict(inst.labels)
    assert caps == {"red": 1}


def test_upper49_width_one():
    assert len(min_path_cover(upper49()).paths) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kplus1_meta_matches_oracles(k):
    eps = 0.01
    inst = kplus1(k=k, eps=eps)
    miss = (1 - eps) ** k
    assert inst.meta["expected_opt"] == pytest.approx((1 - miss) / eps + miss, abs=1e-12)
    assert expected_opt(inst) == pytest.approx(inst.meta["expected_opt"], abs=1e-9)
    assert optimal_online_value(inst) == pytest.approx(1.0, abs=1e-12)
    assert len(min_path_cover(inst).paths) == max(k, 1)


def test_grid_meta_covers_are_real_covers():
    inst = grid(k=3, eps=0.01)
    for key in ("horizontal_cover", "vertical_cover"):
        cover = cover_from_paths(inst, inst.meta[key])
        assert len(cover.paths) == 3
    assert len(min_path_cover(inst).paths) == 3


def test_grid_prophet_beats_documented_lower_bound():
    inst = grid(k=3, eps=0.01)
    assert expected_opt(inst) >= inst.meta["opt_lower_bound"] - 1e-9
    assert inst.meta["opt_lower_bound"] == pytest.approx(2 * 3 - 9 * 0.01, abs=1e-12)


def test_grid_rejects_small_k():
    with pytest.raises(InvalidInstanceError):
        grid(k=2)


def test_overtime_skip_edge_is_always_free():
    inst = overtime(horizon=4, terms=(1, 2))
    # first out-edge of each decision node is the zero-value skip
    for node in inst.nodes[:-1]:
        out = [e for e in inst.edges if e.src == node]
        skip = min(out, key=lambda e: e.id)
        for row in table(inst, node):
            assert row.values[skip.id] == 0
    assert len(min_path_cover(inst).paths) == 1


def test_overtime_term_edges_price_from_one_draw():
    # a term of length ell pays ell times the per-step rate
    inst = overtime(horizon=3, terms=(1, 2))
    node = "1"
    out = {e.id: e for e in inst.edges if e.src == node}
    spans = {}
    order = sorted(out)
    for e in order:
        dst = out[e].dst
        spans[e] = 4 if dst == "t" else int(dst)
    for row in table(inst, node):
        rates = set()
        for e in order[1:]:  # skip edge excluded
            ell = spans[e] - 1
            rates.add(Fraction(row.values[e]) / ell if ell else None)
        assert len(rates) == 1


def test_markets_stay_and_switch_share_one_draw():
    inst = markets(periods=4)
    by_src: dict[str, list] = {}
    for e in inst.edges:
        by_src.setdefault(e.src, []).append(e)
    for node, out in by_src.items():
        if node == "s":
            continue
        # group out-edges by destination period; stay/switch pairs agree
        by_period: dict[str, list] = {}
        for e in out:
            by_period.setdefault(e.dst[1:] if e.dst != "t" else "t", []).append(e)
        for row in table(inst, node):
            for group in by_period.values():
                assert len({row.values[e.id] for e in group}) == 1


def test_markets_width_two():
    inst = markets(periods=3)
    assert len(min_path_cover(inst).paths) == 2
    assert inst.meta["width"] == 2


def test_mchoice_slot_cap_and_skips():
    inst = mchoice(n=4, m=2)
    assert dict(inst.labels) == {"slot": 2}
    assert len(min_path_cover(inst).paths) == 1
    labeled = [e for e in inst.edges if e.labels]
    assert len(labeled) == 4
    for e in labeled:
        twins = [
            o
            for o in inst.edges
            if o.src == e.src and o.dst == e.dst and not o.labels
        ]
        assert twins


def test_vertex_matching_structure_and_determinism():
    a = vertex_matching(bidders=3, items=2, seed=5)
    b = vertex_matching(bidders=3, items=2, seed=5)
    assert instance_to_dict(a) == instance_to_dict(b)
    c = vertex_matching(bidders=3, items=2, seed=6)
    assert instance_to_dict(a) != instance_to_dict(c)
    assert dict(a.labels) == {"item1": 1, "item2": 1}
    for node in a.nodes[:-1]:
        out = [e for e in a.edges if e.src == node]
        assert len(out) == 3  # skip + one edge per item
        rows = table(a, node)
        assert sum(row.p for row in rows) == 1
        assert all(isinstance(row.p, Fraction) for row in rows)


def test_random_instance_is_seed_deterministic():
    a = generate_random_instance(11, shape="dag", n_nodes=7, max_outcomes=3, d=1)
    b = generate_random_instance(11, shape="dag", n_nodes=7, max_outcomes=3, d=1)
    assert instance_to_dict(a) == instance_to_dict(b)
    c = generate_random_instance(12, shape="dag", n_nodes=7, max_outcomes=3, d=1)
    assert instance_to_dict(a) != instance_to_dict(c)


@pytest.mark.parametrize("max_outcomes", [0, 9, -2])
def test_random_instance_refuses_max_outcomes_outside_one_to_eight(max_outcomes):
    with pytest.raises(InvalidInstanceError, match="max_outcomes must be 1..8"):
        generate_random_instance(3, shape="dag", n_nodes=7, max_outcomes=max_outcomes)


def test_random_width1_shape_has_width_one():
    for seed in range(8):
        inst = generate_random_instance(seed, shape="width1", n_nodes=6)
        assert len(min_path_cover(inst).paths) == 1


def test_random_labeled_shape_sprinkles_twinned_copies():
    inst = generate_random_instance(3, shape="dag", n_nodes=7, d=2)
    labeled = [e for e in inst.edges if e.labels]
    assert labeled
    assert max(len(e.labels) for e in labeled) <= 2
    for e in labeled:
        assert any(
            o.src == e.src and o.dst == e.dst and not o.labels for o in inst.edges
        )


def test_random_shape_rejections():
    with pytest.raises(InvalidInstanceError, match="unlabeled"):
        generate_random_instance(0, shape="strands", d=1)
    with pytest.raises(InvalidInstanceError, match="at least 4"):
        generate_random_instance(0, shape="strands", n_nodes=3)
    with pytest.raises(InvalidInstanceError, match="unknown shape"):
        generate_random_instance(0, shape="torus")
    with pytest.raises(InvalidInstanceError, match="at least 3"):
        generate_random_instance(0, n_nodes=2)


def test_random_masses_are_exact_eighths():
    inst = generate_random_instance(9, shape="dag", n_nodes=6)
    for rows in inst.tables[:-1]:
        if not rows:
            continue
        assert sum(Fraction(row.p) for row in rows) == 1
        for row in rows:
            assert Fraction(row.p).denominator in (1, 2, 4, 8)
