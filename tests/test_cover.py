"""Minimum path covers, widths, antichains."""

from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathprophet import (
    CoverError,
    Instance,
    Oracle,
    PolicyError,
    evaluate_focal_policy,
    generate_paper_instance,
    generate_random_instance,
    min_path_cover,
)
from pathprophet import cover as cover_module
from pathprophet.cover import cover_from_paths, unlabeled_hops
from pathprophet.policies import build_contracted_instance, path_nodes

from bruteforce import is_antichain, max_antichain_bruteforce, shortest_unlabeled_path
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


@pytest.mark.parametrize(
    "path, bad",
    [([-7, -6, -5, -4], -7), ([99], 99), ([0, 1, 2, 3.0], 3.0), ([False, 1, 2, 3], False)],
    ids=["negative", "past-the-end", "float", "bool"],
)
def test_cover_and_focal_paths_refuse_ids_that_are_not_edges(path, bad):
    inst = width1_fuzz(1)  # 7 edges; 0, 1, 2, 3 is its covering path
    named = re.escape(f"names {bad!r},")
    with pytest.raises(CoverError, match=named):
        cover_from_paths(inst, [path])
    with pytest.raises(PolicyError, match=named):
        path_nodes(inst, path)
    with pytest.raises(PolicyError, match=named):
        evaluate_focal_policy(inst, path, Oracle(inst))


@pytest.mark.parametrize(
    "path, message",
    [([1, 2, 3], "edge 1 does not continue the path at 'v0'"), ([0, 1], "path must run from source to sink")],
    ids=["broken-chain", "stops-short"],
)
def test_cover_and_focal_paths_refuse_paths_that_do_not_chain(path, message):
    inst = width1_fuzz(1)  # 7 edges; 0, 1, 2, 3 is its covering path
    with pytest.raises(CoverError, match=f"cover {message}"):
        cover_from_paths(inst, [path])
    with pytest.raises(PolicyError, match=f"focal {message}"):
        evaluate_focal_policy(inst, path, Oracle(inst))


def test_min_path_cover_of_a_long_chain_needs_no_deep_recursion():
    n = 400
    names = [f"v{i}" for i in range(n)]
    inst = Instance.build(
        names,
        [(a, b, ()) for a, b in zip(names, names[1:])],
        outcomes={v: [(1.0, {i: 1.0})] for i, v in enumerate(names[:-1])},
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        cover = min_path_cover(inst, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert cover.width == 1


def follow(inst, hop, v, stop):
    """The edges of the `hop` route from node index v until `stop(node index)` holds."""
    edges = []
    while not stop(v):
        edges.append(hop[v])
        v = inst.node_index[inst.edges[hop[v]].dst]
    return tuple(edges)


def test_shortest_unlabeled_path_is_shortest():
    inst = generate_paper_instance("grid", k=3, eps=0.01)
    sink = len(inst.nodes) - 1
    first, hop = unlabeled_hops(inst, [0, sink])
    assert first[0] == sink
    path = follow(inst, hop, 0, lambda v: v == sink)
    assert path == shortest_unlabeled_path(inst, inst.source, inst.sink)
    at = inst.source
    for eid in path:
        e = inst.edges[eid]
        assert e.src == at and not e.labels
        at = e.dst
    assert at == inst.sink
    # the chain s, a, t needs a connector s -> a, and the only s -> a edge is labeled
    inst = Instance.build(["s", "a", "t"], [("s", "a", ("L",)), ("s", "t", ()), ("a", "t", ())], labels={"L": 1})
    with pytest.raises(CoverError, match="no unlabeled path from 's' to 'a'"):
        min_path_cover(inst)


def random_dag(rng):
    """A small DAG with parallel copies and labeled twins, its edge ids shuffled."""
    n = rng.randint(3, 10)
    pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    for v in range(1, n - 1):  # every node on some source-sink path
        if not any(b == v for _, b in pairs):
            pairs.add((rng.randrange(v), v))
        if not any(a == v for a, _ in pairs):
            pairs.add((v, rng.randrange(v + 1, n)))
    edges = []
    for i, j in sorted(pairs):
        edges += [(f"v{i}", f"v{j}", ())] * rng.choice([1, 1, 2])
        if rng.random() < 0.3:
            edges.append((f"v{i}", f"v{j}", ("L",)))
    rng.shuffle(edges)
    return Instance.build([f"v{i}" for i in range(n)], edges, labels={"L": 1})


def test_hop_routes_equal_the_breadth_first_routes(monkeypatch):
    real, calls = unlabeled_hops, []
    monkeypatch.setattr(cover_module, "unlabeled_hops", lambda inst, stops: calls.append(stops) or real(inst, stops))
    rng = random.Random(20241)
    routes = 0
    for _ in range(150):
        inst = random_dag(rng)
        names = inst.nodes
        for seed in (None, 0):
            calls.clear()
            cover = min_path_cover(inst, seed)
            for stops, path in zip(calls, cover.paths, strict=True):  # one pass per chain
                expected = [shortest_unlabeled_path(inst, names[a], names[b]) for a, b in zip(stops, stops[1:])]
                assert path == tuple(eid for route in expected for eid in route)
                routes += len(expected)
            for index, order in enumerate(cover.node_orders):
                ci = build_contracted_instance(inst, cover, index)
                on_path = {inst.node_index[u] for u in order}
                for orig, e in zip(ci.edges, ci.graph.edges):
                    head = inst.node_index[inst.edges[orig].dst]
                    if head not in on_path:
                        route = follow(inst, ci.hop, head, on_path.__contains__)
                        assert route == shortest_unlabeled_path(inst, names[head], e.dst)
                        routes += 1
    assert routes > 1500


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_cover_width_matches_antichain_property(seed):
    inst = generate_random_instance(
        seed, shape="dag", n_nodes=4 + seed % 10, max_outcomes=1, d=0
    )
    assert min_path_cover(inst).width == len(max_antichain_bruteforce(inst))
