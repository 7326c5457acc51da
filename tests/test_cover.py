"""Minimum path covers, widths, antichains."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathprophet import (
    CoverError,
    generate_paper_instance,
    generate_random_instance,
    min_path_cover,
)
from pathprophet.cover import cover_from_paths, shortest_unlabeled_path

from bruteforce import is_antichain, max_antichain_bruteforce
from conftest import dag_fuzz, diamond, strands_fuzz, width1_fuzz


def assert_valid_cover(inst, cover):
    covered = set()
    for path, order in zip(cover.paths, cover.node_orders):
        assert order[0] == inst.source and order[-1] == inst.sink
        at = order[0]
        for eid, nxt in zip(path, order[1:]):
            e = inst.edges[eid]
            assert e.src == at and e.dst == nxt
            assert not e.labels  # cover paths stay on the unlabeled surface
            at = nxt
        covered.update(order)
    assert covered == set(inst.nodes)


def test_cover_on_hand_instances():
    cov = min_path_cover(diamond())
    assert cov.width == 2
    assert_valid_cover(diamond(), cov)

    inst = generate_paper_instance("two-candidate")
    cov = min_path_cover(inst)
    assert cov.width == 1
    assert_valid_cover(inst, cov)


def test_cover_is_valid_on_fuzz_instances():
    for maker in (width1_fuzz, dag_fuzz, strands_fuzz):
        for j in range(40):
            inst = maker(j)
            cov = min_path_cover(inst)
            assert_valid_cover(inst, cov)


def test_width_one_for_width1_shape():
    for j in range(40):
        assert min_path_cover(width1_fuzz(j)).width == 1


def test_width_equals_bruteforce_antichain():
    mismatches = 0
    for j in range(200):
        n = 4 + j % 17
        inst = generate_random_instance(j, shape="dag", n_nodes=n, max_outcomes=1, d=0)
        w = min_path_cover(inst).width
        anti = max_antichain_bruteforce(inst)
        assert is_antichain(inst, anti)
        if w != len(anti):
            mismatches += 1
    assert mismatches == 0


def test_antichain_really_is_one():
    for j in range(40):
        inst = dag_fuzz(j)
        anti = max_antichain_bruteforce(inst)
        assert is_antichain(inst, anti)
        assert len(anti) >= 1


def test_cover_seed_changes_only_the_tie_break():
    inst = dag_fuzz(11)
    base = min_path_cover(inst)
    for seed in range(6):
        cov = min_path_cover(inst, seed)
        assert cov.width == base.width
        assert_valid_cover(inst, cov)


def test_cover_from_paths_roundtrip_and_rejects_gaps():
    inst = diamond()
    cov = min_path_cover(inst)
    again = cover_from_paths(inst, cov.paths)
    assert again.paths == cov.paths
    with pytest.raises(CoverError):
        cover_from_paths(inst, [cov.paths[0]])  # leaves a node uncovered


def test_shortest_unlabeled_path_is_shortest():
    inst = generate_paper_instance("grid", k=3, eps=0.01)
    path = shortest_unlabeled_path(inst, inst.source, inst.sink)
    at = inst.source
    for eid in path:
        e = inst.edges[eid]
        assert e.src == at and not e.labels
        at = e.dst
    assert at == inst.sink
    with pytest.raises(CoverError):
        shortest_unlabeled_path(inst, inst.sink, inst.source)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_cover_width_matches_antichain_property(seed):
    inst = generate_random_instance(
        seed, shape="dag", n_nodes=4 + seed % 10, max_outcomes=1, d=0
    )
    assert min_path_cover(inst).width == len(max_antichain_bruteforce(inst))
