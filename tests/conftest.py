"""Shared fuzz-suite makers and tiny hand-built instances."""

from __future__ import annotations

import json

from pathprophet import Instance, generate_random_instance, instance_from_dict, instance_to_dict


def width1_fuzz(j: int, d: int = 0) -> Instance:
    return generate_random_instance(
        j, shape="width1", n_nodes=4 + j % 4, max_outcomes=1 + j % 3, d=d
    )


def labeled_fuzz(j: int) -> Instance:
    return width1_fuzz(j, d=1 + j % 2)


def dag_fuzz(j: int) -> Instance:
    return generate_random_instance(
        j, shape="dag", n_nodes=4 + j % 4, max_outcomes=1 + j % 3, d=j % 3
    )


def strands_fuzz(j: int) -> Instance:
    return generate_random_instance(
        j, shape="strands", n_nodes=4 + j % 4, max_outcomes=1 + j % 3, d=0
    )


def float_twin(inst: Instance) -> Instance:
    """What a file user gets: the instance through JSON, Fractions as floats."""
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(inst), default=float)))


def diamond() -> Instance:
    """Width-2 hand instance: two parallel two-hop routes."""
    return Instance.build(
        ["s", "a", "b", "t"],
        [("s", "a", ()), ("s", "b", ()), ("a", "t", ()), ("b", "t", ())],
        outcomes={
            "s": [(0.5, {0: 1.0, 1: 0.0}), (0.5, {0: 0.0, 1: 1.0})],
            "a": [(1.0, {2: 0.5})],
            "b": [(0.5, {3: 0.0}), (0.5, {3: 1.5})],
        },
    )


def many_binding_labels(k=23):
    """A chain of 2k hops, each with an unlabeled edge and a labeled twin;
    label Lj sits on hops j and j+k, so all k labels bind at capacity 1
    and the label-budget state space has 2^k capacity vectors per node."""
    n = 2 * k + 1
    nodes = [f"v{i}" for i in range(n)]
    edges = []
    outcomes = {}
    for h in range(n - 1):
        edges += [(nodes[h], nodes[h + 1], ()), (nodes[h], nodes[h + 1], (f"L{h % k}",))]
        outcomes[nodes[h]] = [(1.0, {2 * h: 0.0, 2 * h + 1: 1.0})]
    return Instance.build(nodes, edges, {f"L{j}": 1 for j in range(k)}, outcomes)
