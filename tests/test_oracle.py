"""Offline baselines against the brute-force references."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from itertools import accumulate

import pytest

from pathprophet import (
    CoverError,
    EnumerationCapError,
    Instance,
    InvalidInstanceError,
    Oracle,
    POLICIES,
    PathProphetError,
    PolicyError,
    StateCapError,
    build_disjoint_plan,
    enumerate_realizations,
    evaluate_focal_policy,
    exact_policy_value,
    expected_opt,
    generate_paper_instance,
    generate_random_instance,
    instance_from_dict,
    instance_to_dict,
    min_path_cover,
    realization_count,
    restricted_spec,
)
from pathprophet.instances import two_candidate
from pathprophet.oracle import DISTINCT_ROWS_FROM, OPT

from bruteforce import (
    all_feasible_paths,
    annotation_reference,
    best_feasible_path,
    conditional_choice_distribution_mc,
    iter_realizations,
    offline_statistics,
    online_value,
)
from conftest import (
    dag_fuzz, diamond, float_twin, labeled_fuzz, many_binding_labels, strands_fuzz, width1_fuzz
)


FUZZ = (
    [width1_fuzz(j) for j in range(25)]
    + [labeled_fuzz(j) for j in range(25)]
    + [dag_fuzz(j) for j in range(25)]
    + [strands_fuzz(j) for j in range(25)]
)


def test_opt_path_matches_bruteforce_per_realization():
    for inst in FUZZ:
        orc = Oracle(inst)
        paths = all_feasible_paths(inst)
        for choices, values, _ in iter_realizations(inst):
            sel = orc.opt_path(choices)
            ref_edges, ref_value = best_feasible_path(paths, values)
            assert sel.edges == ref_edges
            assert abs(sel.value - ref_value) < 1e-12


def unreachable_states():
    """Two binding labels of capacity 1 and ties in int values: node u is
    entered only through a labeled edge, so the capacity states with both
    labels left or both spent are unreachable there, and node v sees only
    those two."""
    third = Fraction(1, 3)
    return Instance.build(
        ["s", "u", "v", "t"],
        [
            ("s", "u", ("a",)), ("s", "u", ("b",)), ("s", "v", ()),
            ("u", "v", ("a",)), ("u", "v", ("b",)), ("u", "t", ()),
            ("v", "t", ("a",)), ("v", "t", ()),
        ],
        {"a": 1, "b": 1},
        {
            "s": [(third, {0: 2, 1: 1, 2: 0}), (2 * third, {0: 0, 1: 2, 2: 1})],
            "u": [(third, {3: 3, 4: 1, 5: 0}), (third, {3: 0, 4: 2, 5: 2}), (third, {3: 1, 4: 0, 5: 1})],
            "v": [(Fraction(1, 2), {6: 2, 7: 0}), (Fraction(1, 2), {6: 0, 7: 1})],
        },
    )


def distinct_rows_chain(n: int) -> Instance:
    """A chain of n two-outcome nodes, one edge each, whose DP rows never
    repeat: node i's outcomes are worth 4^i / 3 and 2 * 4^i / 3, so each
    suffix realization's value is its own base-4 number."""
    nodes = [f"v{i}" for i in range(n + 1)]
    half = Fraction(1, 2)
    outcomes = {nodes[i]: [(half, {i: Fraction(k * 4**i, 3)}) for k in (1, 2)] for i in range(n)}
    return Instance.build(nodes, [(a, b, ()) for a, b in zip(nodes, nodes[1:])], outcomes=outcomes)


def test_shared_pass_matches_bruteforce_per_realization():
    labeled = unreachable_states()
    dp = Oracle(labeled)._dp
    assert [len(rows) for rows in dp.cands[1:3]] == [2, 2] and dp.n_states == 4
    # a width-2 dag with two binding labels, whose inner nodes reach 1, 2 or 4 of the 6 capacity states
    dag = generate_random_instance(37, "dag", 8, 3, 2)
    dp = Oracle(dag)._dp
    assert min_path_cover(dag).width == 2 and dp.n_states == 6
    assert sorted({len(rows) for rows in dp.cands[1:-1]}) == [1, 2, 4]
    # markets(4) as the benchmark builds it: skip edges, a one-outcome source, 1024 realizations
    fixed, one = [(1, Fraction(1, 2))], [(Fraction(1, 4), 0), (Fraction(3, 4), 1)]
    two = [(Fraction(1, 2), 0), (Fraction(1, 2), 3)]
    markets = generate_paper_instance("markets", periods=4, dists=[(fixed, two)] * 2 + [(one, two)] * 2)
    chain = distinct_rows_chain(8)
    assert len({sum(values) for _, values, _ in iter_realizations(chain)}) == 2**8
    large = [generate_paper_instance("mchoice", n=9, m=3), markets, dag, chain]
    assert min(map(realization_count, large)) >= DISTINCT_ROWS_FROM  # `_best_ids` runs the distinct-row pass
    for inst in [*FUZZ, labeled, *large, *map(float_twin, large)]:
        orc = Oracle(inst)
        paths = all_feasible_paths(inst)
        best = orc._best_ids
        realizations = list(iter_realizations(inst))  # product order, like the shared pass
        assert len(best) == len(realizations)
        # on one oracle both passes intern the same paths under the same ids
        assert orc._distinct_row_ids() == best == orc._dp.ids()
        for pid, (_, values, _) in zip(best, realizations):
            assert orc._dp.path(pid) == best_feasible_path(paths, values)[0]


def test_small_table_pass_recurses_only_at_nodes_with_several_outcomes():
    # a chain longer than the lowered limit, with two hops per link at six nodes of two outcomes each, whose
    # first hop wins in one outcome and the second in the other: 64 realizations, each its own best path
    limit = 150
    n = limit + 50
    nodes = [f"v{i}" for i in range(n)]
    forks = range(0, n - 1, (n - 1) // 5)[:6]
    edges = [(nodes[i], nodes[i + 1], ()) for i in range(n - 1) for _ in range(1 + (i in forks))]
    start = [*accumulate((1 + (i in forks) for i in range(n - 1)), initial=0)]
    outcomes = {nodes[i]: [(Fraction(1), {start[i]: 1})] for i in range(n - 1)}
    half = Fraction(1, 2)
    for i in forks:
        outcomes[nodes[i]] = [(half, {start[i]: 1, start[i] + 1: 0}), (half, {start[i]: 0, start[i] + 1: 1})]
    inst = Instance.build(nodes, edges, outcomes=outcomes)
    assert len(forks) == 6 and realization_count(inst) == 64 < DISTINCT_ROWS_FROM
    orc = Oracle(inst)
    orc._dp  # built before the limit drops, so that only the pass runs under it
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        best = orc._best_ids
    finally:
        sys.setrecursionlimit(old)
    paths = all_feasible_paths(inst)
    assert [orc._dp.path(pid) for pid in best] == [best_feasible_path(paths, values)[0]
                                                   for _, values, _ in iter_realizations(inst)]
    assert len(set(best)) == 64


def test_offline_statistics_match_bruteforce():
    for inst in FUZZ:
        orc = Oracle(inst)
        expected, x, cond, path_dist = offline_statistics(inst)
        assert abs(orc.expected_opt() - expected) < 1e-9
        got_x = orc.edge_probabilities()
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
    got_x = orc.edge_probabilities(spec)
    assert max(abs(a - b) for a, b in zip(got_x, x_ref)) < 1e-9
    got = orc.path_distribution(spec)
    for p, m in dist_ref.items():
        assert abs(got[p] - m) < 1e-9
    for choices, _, _ in iter_realizations(inst):
        sel = orc.opt_path(choices, spec)
        assert set(sel.edges) <= allowed or sel.edges == tuple(fallback)


def test_x_is_a_unit_flow():
    for inst in FUZZ[:40]:
        x = Oracle(inst).edge_probabilities()
        for i, name in enumerate(inst.nodes):
            inflow = sum(x[e.id] for e in inst.edges if e.dst == name)
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
    realizations = list(iter_realizations(inst))
    values = [orc.opt_path(choices).value for choices, _, _ in realizations]
    masses = [mass for _, _, mass in realizations]
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


def test_online_value_matches_bruteforce():
    labeled = [
        unreachable_states(),
        generate_paper_instance("upper49", eps=Fraction(1, 10)),
        generate_paper_instance("mchoice"),
        generate_paper_instance("mchoice", n=6, m=3, dist=[(Fraction(3, 8), Fraction(1, 4)), (Fraction(5, 8), Fraction(2))]),
    ]
    for inst in FUZZ + labeled:
        assert Oracle(inst).optimal_online_value() == online_value(inst)
        twin = json_twin(inst)
        assert Oracle(twin).optimal_online_value() == pytest.approx(online_value(twin), rel=1e-12, abs=0)


def test_online_dp_backs_up_integer_numerators_without_stable_sum(monkeypatch):
    """On exact tables the online DP never calls `stable_sum`, and its
    one Fraction is the brute force's.  The random dag's inner nodes
    reach 1, 2 or 4 capacity states."""
    named = [
        generate_paper_instance("mchoice", n=9, m=3),
        generate_paper_instance("vertex-matching", bidders=8, items=2),
        generate_random_instance(37, "dag", 8, 3, 2),
    ]
    assert all(inst.exact for inst in named)
    assert {len(rows) for rows in Oracle(named[2])._dp.cands[1:-1]} == {1, 2, 4}

    def refuse(values):
        raise AssertionError("stable_sum on the integer path")

    monkeypatch.setattr("pathprophet.oracle.stable_sum", refuse)
    for inst in [inst for inst in FUZZ if inst.exact] + named:
        got = Oracle(inst).optimal_online_value()
        assert type(got) is Fraction and got == online_value(inst)


def test_online_dp_keeps_its_numbers_off_the_integer_path():
    """Value and type at the edges of the exact rule: exact tables with
    an `int` mass or an inner node without a table back up integer
    numerators, while a zero mass and a float twin add their own numbers
    with the table's one sum."""
    half = Fraction(1, 2)
    int_mass = Instance.build(  # `a` has one outcome of the int mass 1, whose best move is worth the int 2
        ["s", "a", "t"], [("s", "a", ()), ("a", "t", ())],
        outcomes={"s": [(half, {0: Fraction(1, 4)}), (half, {0: 1})], "a": [(1, {1: 2})]},
    )
    zero_mass = Instance.build(
        ["s", "a", "t"], [("s", "a", ()), ("s", "t", ()), ("a", "t", ())],
        outcomes={"s": [(Fraction(0), {0: 5, 1: 0}), (Fraction(1), {0: 0, 1: Fraction(1, 3)})],
                  "a": [(half, {2: 1}), (half, {2: Fraction(3, 2)})]},
    )
    tableless = Instance.build(  # unvalidated: `a` has no table
        ["s", "a", "b", "t"], [("s", "a", ()), ("a", "b", ()), ("b", "t", ())],
        outcomes={"s": [(half, {0: 1}), (half, {0: Fraction(1, 3)})],
                  "b": [(Fraction(1, 4), {2: 7}), (Fraction(3, 4), {2: 1})]},
    )
    twin = float_twin(Instance.build(
        ["s", "a", "t"], [("s", "a", ()), ("s", "t", ()), ("a", "t", ())],
        outcomes={"s": [(Fraction(1, 3), {0: Fraction(1, 10), 1: Fraction(7, 10)}),
                        (Fraction(2, 3), {0: Fraction(3, 10), 1: Fraction(1, 5)})],
                  "a": [(Fraction(1, 3), {2: Fraction(1, 3)}), (Fraction(2, 3), {2: Fraction(1, 7)})]},
    ))
    cases = [
        (generate_paper_instance("markets"), True, Fraction(25, 8)),  # the source's one outcome has the int mass 1
        (int_mass, True, Fraction(21, 8)),
        (zero_mass, False, Fraction(5, 4)),
        (tableless, True, Fraction(19, 6)),
        (twin, False, 0.5708994708994708),
    ]
    for inst, exact, want in cases:
        assert inst.exact is exact
        got = Oracle(inst).optimal_online_value()
        assert type(got) is type(want) and got == want


def test_online_dp_passes_over_an_unvalidated_dead_end():
    """s->a spends the only unit of L and a->t needs it again: the walker
    must not enter a, and no state refuses the instance."""
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ("L",)), ("s", "t", ()), ("a", "t", ("L",))],
        {"L": 1},
        {"s": [(1, {0: 5, 1: 2})], "a": [(1, {2: 1})]},
    )
    assert Oracle(inst).optimal_online_value() == 2 == online_value(inst)
    assert Oracle(inst).expected_opt() == 2


def test_online_value_backs_up_over_a_node_without_a_table():
    """Unvalidated input: `a` has no outcome table, so the walker passes it
    as one outcome of mass 1 and zero values, as the offline pass does."""
    inst = Instance.build(
        ["s", "a", "b", "t"],
        [("s", "a", ()), ("a", "b", ()), ("b", "t", ())],
        outcomes={"s": [(1, {0: 1})], "b": [(1, {2: 7})]},
    )
    assert Oracle(inst).optimal_online_value() == 8 == online_value(inst) == Oracle(inst).expected_opt()


def test_dead_source_is_refused_alike():
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ("L",)), ("a", "t", ("L",))],
        {"L": 1},
        {"s": [(1, {0: 1})], "a": [(1, {1: 1})]},
    )
    assert online_value(inst) is None
    for query in (Oracle.expected_opt, Oracle.optimal_online_value):
        with pytest.raises(InvalidInstanceError, match="^source cannot reach sink within label capacities$"):
            query(Oracle(inst))


def test_oracle_refuses_a_spec_or_node_it_cannot_answer():
    orc = Oracle(two_candidate())
    # the fallback (2,) leaves node 2, not the source; 99 is no edge id
    with pytest.raises(InvalidInstanceError, match="^fallback edge 2 does not continue the path at '1'$"):
        orc.expected_opt(restricted_spec([0], [2]))
    with pytest.raises(InvalidInstanceError, match="^fallback path names 99, which is not an edge id"):
        orc.edge_probabilities(restricted_spec([0], [99]))
    with pytest.raises(InvalidInstanceError, match="^unknown node 'nope'$"):
        orc.choice_laws("nope")


def test_online_state_cap():
    inst = many_binding_labels()
    with pytest.raises(StateCapError):
        Oracle(inst).optimal_online_value()


def test_oracle_rejects_unreachable_sink():
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ())],
        outcomes={"s": [(1.0, {0: 1.0})]},
    )
    with pytest.raises(Exception):
        Oracle(inst).expected_opt()


def json_twin(inst):
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(inst), default=float)))


def specs_of(inst, orc):
    """OPT, plus the strand-restricted specs of a disjoint plan when the
    instance has one."""
    try:
        return [OPT, *build_disjoint_plan(inst, oracle=orc).specs]
    except (CoverError, PolicyError):
        return [OPT]


REFERENCE_CORPUS = [maker(j) for maker in (width1_fuzz, labeled_fuzz, dag_fuzz, strands_fuzz) for j in range(12)]


def unvalidated_tables():
    """Tables off the integer numerators, built without validation, one per
    case of the float and mixed accumulation."""
    # s->a, s->b, a->t, a->b, b->t
    graph = (["s", "a", "b", "t"], [("s", "a", ()), ("s", "b", ()), ("a", "t", ()), ("a", "b", ()), ("b", "t", ())])
    third, zero = Fraction(1, 3), Fraction(0)
    return [
        # a->s runs against node order and is listed ahead of a's forward edges: the DP keeps
        # it in column 0 of `dp.out`, as `out_edges` does, and its `j > i` guard keeps it off paths
        Instance.build(
            ["s", "a", "b", "t"],
            [("s", "a", ()), ("s", "b", ()), ("a", "s", ()), ("a", "b", ()), ("a", "t", ()), ("b", "t", ())],
            outcomes={
                "s": [(0.25, {0: 1.0, 1: 0.5}), (0.75, {0: 0.25, 1: 1.5})],
                "a": [(0.5, {2: 9.0, 3: 0.5, 4: 2.0}), (0.5, {2: 9.0, 3: 3.0, 4: 0.125})],
                "b": [(0.375, {5: 1.0}), (0.625, {5: 0.0})],
            },
        ),
        # floats around an inner node without a table, whose edges are worth the int 0
        Instance.build(*graph, outcomes={
            "s": [(0.1, {0: 0.3, 1: 0.7}), (0.9, {0: 1.1, 1: 0.2})],
            "b": [(0.3, {4: 0.6}), (0.7, {4: 0.0})],
        }),
        # Fractions and floats mixed: a path's values add by `stable_sum`
        Instance.build(*graph, outcomes={
            "s": [(third, {0: 0.5, 1: third}), (1 - third, {0: Fraction(3, 4), 1: 0.1})],
            "a": [(0.4, {2: Fraction(5, 2), 3: 0.3}), (0.6, {2: 0.0, 3: Fraction(7, 3)})],
            "b": [(third, {4: 0.6}), (1 - third, {4: Fraction(1, 2)})],
        }),
        # int masses (one of them 0) with Fraction values: a path's values add by `sum`
        Instance.build(*graph, outcomes={
            "s": [(1, {0: Fraction(1, 2), 1: 1})],
            "a": [(0, {2: 0, 3: 5}), (1, {2: 2, 3: third})],
            "b": [(1, {4: Fraction(5, 4)})],
        }),
        # a Fraction table with a zero mass
        Instance.build(*graph, outcomes={
            "s": [(third, {0: 1, 1: 2}), (1 - third, {0: Fraction(1, 2), 1: 0}), (zero, {0: 5, 1: 5})],
            "a": [(Fraction(1, 4), {2: 1, 3: 0}), (Fraction(3, 4), {2: 0, 3: Fraction(3, 2)})],
            "b": [(Fraction(1), {4: 2})],
        }),
    ]


@pytest.mark.parametrize("corpus", ["fraction", "float", "unvalidated"])
def test_statistics_equal_the_per_realization_loop(corpus):
    cases = unvalidated_tables() if corpus == "unvalidated" else REFERENCE_CORPUS
    restricted = 0
    for inst in cases:
        inst = json_twin(inst) if corpus == "float" else inst
        orc = Oracle(inst)
        for spec in specs_of(inst, orc):
            restricted += spec.allowed is not None
            expected, x, paths, cond = annotation_reference(Oracle(inst), spec)
            assert orc.expected_opt(spec) == expected
            assert orc.edge_probabilities(spec) == x
            assert list(orc.path_distribution(spec).items()) == list(paths.items())
            for name, rows in cond.items():
                for o, law in enumerate(rows):
                    assert orc.conditional_choice_distribution(name, o, spec) == law
    # every strands instance has a plan, and so does every unvalidated table
    assert restricted >= (len(cases) if corpus == "unvalidated" else 12)


def test_an_edge_against_node_order_adds_no_source_state():
    """a->s[L] runs back into the source.  Were it followed, the source
    would be reached with L spent too and get a second DP entry, read
    first; `annotation_reference` runs the same DP, so the statistics
    are pinned by hand here."""
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ()), ("s", "a", ("L",)), ("a", "s", ("L",)), ("a", "t", ()), ("a", "t", ("L",))],
        labels={"L": 1},
        outcomes={
            "s": [(0.5, {0: 0.5, 1: 1.0}), (0.5, {0: 0.5, 1: 0.25})],
            "a": [(0.25, {2: 8.0, 3: 0.5, 4: 2.0}), (0.75, {2: 8.0, 3: 1.0, 4: 0.5})],
        },
    )
    orc = Oracle(inst)
    assert len(orc._dp.cands[0]) == 1
    # best paths per (s, a) outcome: e0 e4 = 2.5, e1 e3 = 2.0, e0 e4 = 2.5, e0 e3 = 1.5
    assert orc.expected_opt() == 1.9375
    assert orc.edge_probabilities() == (0.625, 0.375, 0, 0.75, 0.25)
    assert orc.choice_laws("s") == ((0.25, 0.75, 0.0), (1.0, 0.0, 0.0))
    assert orc.choice_laws("a") == ((0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 0.0))


def test_chain_longer_than_the_recursion_limit_annotates():
    n = sys.getrecursionlimit() + 50
    nodes = [f"v{i}" for i in range(n)]
    edges = [(nodes[i], nodes[i + 1], ()) for i in range(n - 1) for _ in range(2)]
    outcomes = {nodes[i]: [(1.0, {2 * i: 1.0, 2 * i + 1: 0.5})] for i in range(n - 1)}
    # the first and the last hop flip their preference in one of two outcomes
    for i in (0, n - 2):
        outcomes[nodes[i]] = [(0.5, {2 * i: 1.0, 2 * i + 1: 0.5}), (0.5, {2 * i: 0.0, 2 * i + 1: 2.0})]
    inst = Instance.build(nodes, edges, outcomes=outcomes)
    orc = Oracle(inst)
    assert orc.expected_opt() == annotation_reference(orc)[0]
    assert orc.edge_probabilities()[1] == 0.5
    assert orc.edge_probabilities()[2 * (n - 2) + 1] == 0.5
    # every realization's path holds the floats 1.0 and 2.0, and scores the float fsum gives
    assert [repr(orc.opt_path([o] + [0] * (n - 1)).value) for o in (0, 1)] == [repr(n - 1.0), repr(n + 0.0)]


def test_exact_chain_longer_than_the_recursion_limit_annotates():
    # the exact accumulation walks product order with one `itertools.product` row per tabled node
    n = sys.getrecursionlimit() + 50
    nodes = [f"v{i}" for i in range(n)]
    edges = [(nodes[i], nodes[i + 1], ()) for i in range(n - 1) for _ in range(2)]
    outcomes = {nodes[i]: [(Fraction(1), {2 * i: 1, 2 * i + 1: Fraction(1, 2)})] for i in range(n - 1)}
    for i in (0, n - 2):
        half = Fraction(1, 2)
        outcomes[nodes[i]] = [(half, {2 * i: 1, 2 * i + 1: half}), (half, {2 * i: 0, 2 * i + 1: 2})]
    inst = Instance.build(nodes, edges, outcomes=outcomes)
    assert inst.exact
    orc = Oracle(inst)
    # the middle hops take value 1; the first and the last take 1 or 2, each with probability 1/2
    assert orc.expected_opt() == annotation_reference(orc)[0] == n
    assert type(orc.expected_opt()) is Fraction
    assert orc.edge_probabilities()[1] == Fraction(1, 2)
    assert orc.edge_probabilities()[2 * (n - 2) + 1] == Fraction(1, 2)
    # every realization's path holds the ints 1 and 2 and scores an int, as the expected value is exact
    assert [repr(orc.opt_path([o] + [0] * (n - 1)).value) for o in (0, 1)] == [repr(n - 1), repr(n)]


def test_label_budget_and_arrival_states_are_capped_before_allocation():
    inst = many_binding_labels()
    with pytest.raises(StateCapError, match="label-budget states exceed cap"):
        expected_opt(inst)
    with pytest.raises(StateCapError, match="label-budget states exceed cap"):
        Oracle(inst).opt_path(enumerate_realizations(inst)[0])
    with pytest.raises(StateCapError):
        exact_policy_value(inst, "width1-labeled")
    focal = tuple(range(0, 2 * len(inst.nodes) - 2, 2))
    with pytest.raises(StateCapError, match="arrival states exceed cap"):
        evaluate_focal_policy(inst, focal, Oracle(inst))


def test_enumeration_cap_is_checked_before_the_shared_pass(monkeypatch):
    inst = generate_paper_instance("mchoice", n=4, m=2)
    monkeypatch.setenv("PATHPROPHET_ENUM_CAP", "1")
    with pytest.raises(EnumerationCapError, match="enumeration too large, use Monte Carlo"):
        Oracle(inst).expected_opt()


GOLDEN_CORPUS = [(f"fuzz{k}", inst) for k, inst in enumerate(FUZZ)] + [
    (f"{family}{params}", generate_paper_instance(family, **params))
    for family, params in (
        ("markets", {}),
        ("markets", {"periods": 3}),
        ("grid", {"eps": Fraction(1, 64)}),
        ("grid", {"k": 4, "eps": Fraction(3, 8)}),
        ("upper49", {"eps": Fraction(1, 10)}),
        ("mchoice", {}),
        ("mchoice", {"n": 6, "m": 3, "dist": [(Fraction(3, 8), Fraction(1, 4)), (Fraction(5, 8), Fraction(2))]}),
    )
]


def _repr_or_refusal(compute) -> str:
    try:
        return repr(compute())
    except PathProphetError as exc:
        return type(exc).__name__


def oracle_statistics(inst):
    """(name, repr) of every statistic the oracle reports on `inst`, per
    spec, and of every policy's exact value (or the error refusing it)."""
    orc = Oracle(inst)
    out = []
    for k, spec in enumerate(specs_of(inst, orc)):
        out += [
            (f"expected_opt/{k}", repr(orc.expected_opt(spec))),
            (f"edge_probabilities/{k}", repr(orc.edge_probabilities(spec))),
            (f"path_distribution/{k}", repr(orc.path_distribution(spec))),
        ]
        out += [
            (f"choice_laws/{k}/{name}", repr(orc.choice_laws(name, spec)))
            for name, table in zip(inst.nodes, inst.tables)
            if table
        ]
    out.append(("optimal_online_value", _repr_or_refusal(orc.optimal_online_value)))
    for policy in POLICIES:
        out.append((f"exact_policy_value/{policy}", _repr_or_refusal(lambda: exact_policy_value(inst, policy))))
    return out


def golden_lines():
    for key, inst in GOLDEN_CORPUS:
        for twin in ("fraction", "float"):
            for name, text in oracle_statistics(json_twin(inst) if twin == "float" else inst):
                yield f"{key}#{twin}", name, text


# SHA-256 of the `golden_lines` records, one "key name repr" line each,
# taken at commit 1b64782 (before exact tables were annotated on integer
# numerators), leaving out the records in GOLDEN_MOVED
GOLDEN_DIGEST = "814028d09ee981fa736bb6b981a65d639a9a325e48df7487413d2dc9b1091c95"
# exact statistics that moved: each of these instances has a realization
# whose best path carries only int values, a path value that used to be
# summed as floats (a float, or a float-rounded Fraction, at 1b64782)
GOLDEN_MOVED = {
    ("markets{}#fraction", "expected_opt/0"): "Fraction(1959, 512)",
    ("markets{'periods': 3}#fraction", "expected_opt/0"): "Fraction(723, 256)",
    ("upper49{'eps': Fraction(1, 10)}#fraction", "expected_opt/0"): "Fraction(17, 4)",
    ("mchoice{}#fraction", "expected_opt/0"): "Fraction(13, 8)",
}


def test_oracle_statistics_match_the_golden_digest():
    digest = hashlib.sha256()
    moved = {}
    for key, name, text in golden_lines():
        if (key, name) in GOLDEN_MOVED:
            moved[key, name] = text
        else:
            digest.update(f"{key} {name} {text}\n".encode())
    assert moved == GOLDEN_MOVED
    assert digest.hexdigest() == GOLDEN_DIGEST


def assert_exactly_the_bruteforce_statistics(inst, spec=OPT):
    """Every statistic of the exact accumulation equals brute force's in value and type (`repr`)."""
    assert inst.exact
    orc = Oracle(inst)
    expected, x, cond, path_dist = offline_statistics(inst, spec.allowed, spec.fallback)
    assert repr(orc.expected_opt(spec)) == repr(expected)
    assert repr(orc.edge_probabilities(spec)) == repr(tuple(x))
    assert {p: repr(m) for p, m in orc.path_distribution(spec).items()} == {p: repr(m) for p, m in path_dist.items()}
    for name, rows in cond.items():
        for o, law in enumerate(rows):
            got = orc.conditional_choice_distribution(name, o, spec)
            assert {k: repr(got[k]) for k in law} == {k: repr(v) for k, v in law.items()}
            assert all(v == 0 for k, v in got.items() if k not in law)


def test_exact_statistics_through_a_node_without_a_table():
    # no bucket holds an edge out of a tableless node: its x still counts every path through it
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ()), ("a", "t", ())],
        outcomes={"s": [(Fraction(1, 3), {0: 1}), (Fraction(2, 3), {0: Fraction(5, 2)})]},
    )
    assert_exactly_the_bruteforce_statistics(inst)
    assert repr(Oracle(inst).edge_probabilities()) == "(Fraction(1, 1), Fraction(1, 1))"
    # tableless "a" chooses between a->t and a->b->t, and a tie keeps the smaller edge ids
    inst = Instance.build(
        ["s", "a", "b", "t"],
        [("s", "a", ()), ("s", "b", ()), ("a", "t", ()), ("b", "t", ()), ("a", "b", ())],
        outcomes={
            "s": [(Fraction(1, 3), {0: 1, 1: 0}), (Fraction(2, 3), {0: 0, 1: Fraction(1, 2)})],
            "b": [(Fraction(1, 4), {3: 0}), (Fraction(3, 4), {3: 2})],
        },
    )
    assert_exactly_the_bruteforce_statistics(inst)
    x = Oracle(inst).edge_probabilities()
    assert (x[2], x[4]) == (Fraction(1, 12), Fraction(1, 4))


def test_exact_restricted_spec_with_a_fallback_matches_bruteforce():
    inst = strands_fuzz(7)
    fallback = all_feasible_paths(inst)[0]
    spec = restricted_spec(frozenset(fallback) | {inst.edges[-1].id}, fallback)
    orc = Oracle(inst)
    # the fallback stands in for some realizations' best paths
    assert any(not spec.allowed.issuperset(orc._dp.path(pid)) for pid in orc._best_ids)
    assert_exactly_the_bruteforce_statistics(inst, spec)


def test_expected_opt_stays_exact_on_int_valued_paths():
    assert repr(Oracle(generate_paper_instance("mchoice", n=14, m=4)).expected_opt()) == "Fraction(4059, 1024)"
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ()), ("a", "t", ())],
        outcomes={"s": [(Fraction(1, 3), {0: 1}), (Fraction(2, 3), {0: 2})], "a": [(1, {1: 0})]},
    )
    got = Oracle(inst).expected_opt()
    assert type(got) is Fraction and got == Fraction(5, 3)


def test_expected_opt_stays_exact_with_a_zero_mass():
    # a zero mass keeps the table off the integer numerators; its int-valued paths still sum exactly,
    # also through a node without a table, whose edge values are the int 0
    s_table = [(Fraction(1, 3), {0: 1}), (Fraction(2, 3), {0: 2}), (Fraction(0), {0: 5})]
    for outcomes in ({"s": s_table, "a": [(1, {1: 0})]}, {"s": s_table}):
        inst = Instance.build(["s", "a", "t"], [("s", "a", ()), ("a", "t", ())], outcomes=outcomes)
        assert not inst.exact
        got = Oracle(inst).expected_opt()
        assert type(got) is Fraction and got == Fraction(5, 3)
        assert repr(Oracle(json_twin(inst)).expected_opt()) == "1.6666666666666665"


def test_exact_law_rows_keep_the_type_of_an_untouched_bucket():
    # An untouched bucket's law entry is `0 / p`: Fraction(0, 1) under a Fraction mass, the float 0.0
    # under an int mass (node "1" of two-candidate and node "s" of upper49 have the one int mass 1).
    # A repr tells the two apart; these were taken at 16431da.  ROADMAP item 3 (Fraction in,
    # Fraction out) turns these 0.0s into Fractions and updates this test with perfbench/reference.json.
    two = Oracle(generate_paper_instance("two-candidate", eps=Fraction(1, 2)))
    assert repr(two.choice_laws("1")) == "((Fraction(1, 2), Fraction(1, 2), 0.0),)"
    assert repr(two.choice_laws("2")) == (
        "((Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))"
    )
    upper = Oracle(generate_paper_instance("upper49", eps=Fraction(1, 4)))
    assert repr(upper.choice_laws("s")) == "((Fraction(1, 4), Fraction(3, 8), Fraction(3, 8), 0.0),)"
