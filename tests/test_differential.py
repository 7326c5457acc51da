"""Generated instances against the brute-force references.

`instances()` draws small instances that pass `validate_instance`: 3 to
7 nodes on 1 to 3 source-sink chains with forward cross edges (cover
widths 1 to 3), 1 to 3 outcomes per node, and 0 to 2 binding labels of
capacity 1 or 2, each on labeled twins of more unlabeled edges than its
capacity.  Masses and values are drawn as `int`, `Fraction` or `float`
from small pools, so zero masses and exact ties are common.  An instance
whose numbers hold no float is exact (`Instance.exact`) when its masses
are positive and some node's masses are all `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    all_feasible_paths, best_feasible_path, iter_realizations, offline_statistics, online_value, policy_tree,
    staged_tree_accept, unlabeled_tree_accept,
)
from conftest import float_twin
from pathprophet import (
    POLICIES, Instance, Oracle, PathProphetError, evaluate_focal_policy, min_path_cover, prepare_policy,
    restricted_spec, validate_instance,
)
from pathprophet.oracle import OPT, OfflineSpec
from pathprophet.policies import AlphaSchedule, FocalRun

EXACT_VALUES = (0, 1, 2, Fraction(1, 2), Fraction(1, 3), Fraction(3, 2))
FLOAT_VALUES = (0.0, 0.5, 1.0, 0.1, 1 / 3)


@st.composite
def instances(draw) -> Instance:
    n = draw(st.integers(3, 7))
    nodes = [f"v{i}" for i in range(n)]
    width = draw(st.integers(1, 3))
    # each inner node joins one chain; a chain without inner nodes is one source-sink edge
    chain_of = draw(st.lists(st.integers(0, width - 1), min_size=n - 2, max_size=n - 2))
    pairs = []
    for c in range(width):
        stops = [0, *[i + 1 for i, k in enumerate(chain_of) if k == c], n - 1]
        pairs += zip(stops, stops[1:])
    cross = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda p: p[0] < p[1])
    pairs += draw(st.lists(cross, max_size=3))
    edges = [(nodes[a], nodes[b], ()) for a, b in pairs]
    # each label binds: its capacity is below the number of labeled twins that carry it
    labels = {}
    for lbl in ("L0", "L1")[: draw(st.integers(0, 2))]:
        labels[lbl] = draw(st.integers(1, min(2, len(pairs) - 1)))  # at most len(pairs) twins can carry it
        carriers = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=labels[lbl] + 1,
                                 max_size=labels[lbl] + 2, unique=True))
        edges += [(nodes[pairs[e][0]], nodes[pairs[e][1]], (lbl,)) for e in carriers]
    # the number kinds of the instance: Fraction masses only (an exact table when no mass is zero), then
    # int masses too, then floats among masses and values
    kinds = draw(st.sampled_from([("Fraction",), ("Fraction", "int"), ("Fraction", "int", "float")]))
    values = st.sampled_from(EXACT_VALUES + FLOAT_VALUES if "float" in kinds else EXACT_VALUES)
    least = draw(st.integers(0, 1))  # a weight of 0 is a zero mass
    outcomes = {}
    for name in nodes[:-1]:
        out = [e for e, (src, _, _) in enumerate(edges) if src == name]
        k = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(kinds))
        if kind == "int":  # one outcome of mass 1, the rest 0
            at = draw(st.integers(0, k - 1))
            masses = [int(j == at) for j in range(k)]
        else:
            weights = draw(st.lists(st.integers(least, 3), min_size=k, max_size=k).filter(any))
            masses = [Fraction(w, sum(weights)) for w in weights]
            if kind == "float":
                masses = [float(m) for m in masses]
        outcomes[name] = [(m, {e: draw(values) for e in out}) for m in masses]
    inst = Instance.build(nodes, edges, labels, outcomes)
    assert validate_instance(inst).ok
    assert 1 <= len(min_path_cover(inst).paths) <= width
    return inst


def best_paths(orc: Oracle) -> list[tuple[int, ...]]:
    """The shared pass's best path per realization, in product order."""
    return [orc._dp.path(pid) for pid in orc._best_ids]


def holds_float(inst: Instance) -> bool:
    return any(isinstance(x, float) for t in inst.tables for o in t for x in (o.p, *o.values.values()))


# Shrunk type failures of the online property, kept as regression cases:
# an inner node of one outcome of the `int` mass 1 once summed its one
# `int` term with `stable_sum`, which returned the float `math.fsum`
# gives, and the float spread to the source.  The first is exact; the
# second holds only `int` masses, so it is not.
ONLINE_TYPE_LEAKS = [
    Instance.build(
        ["v0", "v1", "v2"],
        [("v0", "v1", ()), ("v1", "v2", ())],
        outcomes={"v0": [(Fraction(1), {0: 0})], "v1": [(1, {1: 0})]},
    ),
    Instance.build(
        ["v0", "v1", "v2"],
        [("v0", "v1", ()), ("v1", "v2", ())],
        outcomes={"v0": [(1, {0: Fraction(1, 3)})], "v1": [(1, {1: 0})]},
    ),
]


def check_online(inst: Instance) -> None:
    got = Oracle(inst).optimal_online_value()
    want = online_value(inst)
    if holds_float(inst):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    else:  # an int or a Fraction: on an exact table the oracle's is a Fraction even where brute force adds ints
        assert got == want and type(got) in (int, Fraction)
    twin = float_twin(inst)
    assert Oracle(twin).optimal_online_value() == pytest.approx(online_value(twin), rel=1e-12, abs=0)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(instances())
def test_online_dp_matches_the_brute_force_walker(inst):
    """Tables without a float: the same value, as an int or a Fraction;
    tables with one and every float twin: within 1e-12 relative."""
    check_online(inst)


@pytest.mark.parametrize("inst", ONLINE_TYPE_LEAKS)
def test_online_type_leaks_stay_mended(inst):
    check_online(inst)
    got = Oracle(inst).optimal_online_value()
    assert type(got) is Fraction and got == online_value(inst)


def specs(inst: Instance) -> list[OfflineSpec]:
    """OPT, and the lexicographically first feasible path's edges plus
    the last edge, with that path as the fallback."""
    fallback = all_feasible_paths(inst)[0]
    return [OPT, restricted_spec(frozenset(fallback) | {inst.edges[-1].id}, fallback)]


def statistics(inst: Instance, spec: OfflineSpec) -> dict:
    """The oracle's expected value, `x`, path law and choice laws as one
    flat dict, keyed as `reference` keys brute force's."""
    orc = Oracle(inst)
    out = {"expected": orc.expected_opt(spec)}
    out.update({("x", e): v for e, v in enumerate(orc.edge_probabilities(spec))})
    out.update({("path", p): m for p, m in orc.path_distribution(spec).items()})
    for name, table in zip(inst.nodes, inst.tables):
        for o in range(len(table)):
            law = orc.conditional_choice_distribution(name, o, spec)
            out.update({("law", name, o, k): v for k, v in law.items()})
    return out


def reference(inst: Instance, spec: OfflineSpec) -> dict:
    expected, x, cond, paths = offline_statistics(inst, spec.allowed, spec.fallback)
    out = {"expected": expected}
    out.update({("x", e): v for e, v in enumerate(x)})
    out.update({("path", p): m for p, m in paths.items()})
    out.update({("law", name, o, k): v for name, rows in cond.items() for o, law in enumerate(rows)
                for k, v in law.items()})
    return out


def assert_agree(got: dict, want: dict, rel: float) -> None:
    """Equal where `rel` is 0, else within `rel` relative; a key one side
    leaves out reads 0."""
    for key in got.keys() | want.keys():
        a, b = got.get(key, 0), want.get(key, 0)
        assert a == (pytest.approx(b, rel=rel, abs=0) if rel else b), key


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instances())
def test_offline_statistics_match_the_brute_force(inst):
    """OPT and one restricted spec: the expected value, `x`, the path law
    and the choice laws equal brute force's on tables without a float,
    and are within 1e-12 relative on tables with one; each float twin is
    within 1e-12 relative of brute force on it and within 1e-9 relative
    of its table."""
    twin = float_twin(inst)
    for spec in specs(inst):
        got = statistics(inst, spec)
        assert_agree(got, reference(inst, spec), 1e-12 if holds_float(inst) else 0)
        got_twin = statistics(twin, spec)
        assert_agree(got_twin, reference(twin, spec), 1e-12)
        assert_agree(got_twin, got, 1e-9)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instances())
def test_both_shared_passes_give_each_realization_its_best_path(inst):
    """The recursion below `DISTINCT_ROWS_FROM` and the distinct-row pass
    above it, each run on every table, against the path search: the same
    path on tables without a float; on tables with one, the same path
    from both passes, worth the best within 1e-12 relative (the DP adds
    from the sink up, so exact ties can round apart, as in
    `FLOAT_TIE_BREAK`)."""
    for table in (inst, float_twin(inst)):
        orc = Oracle(table)
        paths = all_feasible_paths(table)
        ids = orc._dp.ids()
        assert ids == orc._distinct_row_ids()
        for pid, (_, values, _) in zip(ids, iter_realizations(table), strict=True):
            want, best = best_feasible_path(paths, values)
            got = orc._dp.path(pid)
            if holds_float(table):
                assert got in paths and sum(values[e] for e in got) == pytest.approx(best, rel=1e-12, abs=0)
            else:
                assert got == want


# Shrunk from the shared-pass property: the paths (0, 7, 4, 5) and (3, 4, 5) are both worth 7/3, and
# the exact table takes the first.  On the float twin both are worth 2 + float(1/3) exactly, but the DP
# adds from the sink up, rounds the first to 2.333333333333333 and the second to 2.3333333333333335, and
# takes the second.
FLOAT_TIE_BREAK = Instance.build(
    ["v0", "v1", "v2", "v3", "v4", "v5"],
    [("v0", "v1", ()), ("v1", "v2", ()), ("v2", "v5", ()), ("v0", "v3", ()), ("v3", "v4", ()), ("v4", "v5", ()),
     ("v1", "v2", ()), ("v1", "v3", ())],
    outcomes={"v0": [(Fraction(1), {0: 1, 3: 2})], "v1": [(Fraction(1), {1: 0, 6: 0, 7: 1})],
              "v2": [(Fraction(1), {2: 0})], "v3": [(Fraction(1), {4: 0})], "v4": [(Fraction(1), {5: Fraction(1, 3)})]},
)


def test_the_float_tie_break_stays_pinned():
    twin = float_twin(FLOAT_TIE_BREAK)
    for table, path in ((FLOAT_TIE_BREAK, (0, 7, 4, 5)), (twin, (3, 4, 5))):
        orc = Oracle(table)
        assert best_paths(orc) == [orc.opt_path([0] * 6).edges] == [path]
    values = next(iter_realizations(twin))[1]
    assert best_feasible_path(all_feasible_paths(twin), values)[0] == (0, 7, 4, 5)
    assert sum(map(Fraction, (1, 1, 0, values[5]))) == sum(map(Fraction, (2, 0, values[5])))


def prepared_runs(inst: Instance) -> dict[str, tuple[FocalRun, ...]]:
    """The focal runs of each policy that `prepare_policy` accepts."""
    out = {}
    for name in POLICIES:
        try:
            out[name] = prepare_policy(inst, name).runs
        except PathProphetError:
            pass
    return out


def run_statistics(run: FocalRun) -> tuple[dict, dict]:
    """The engine's value and `take_prob` on one focal run, and under the
    labeled rule its feasibility, beside the execution tree's.  The tree
    draws tentatives from the run oracle's choice laws and rebuilds the
    acceptances from its `x` (alpha rule) or from its own arrival masses
    (labeled rule); `test_offline_statistics_match_the_brute_force`
    checks those laws and `x`."""
    graph, focal, oracle, spec, rule = run
    alpha = isinstance(rule, AlphaSchedule)
    engine = evaluate_focal_policy(graph, focal, oracle, spec, schedule=rule if alpha else None)
    laws = {name: [oracle.conditional_choice_distribution(name, o, spec) for o in range(len(table))]
            for name, table in zip(graph.nodes, graph.tables) if table}
    if alpha:
        accept = unlabeled_tree_accept(graph, focal, oracle.edge_probabilities(spec), rule.q)
    else:
        accept = staged_tree_accept(graph, focal, laws, graph.max_labels_per_edge + 2)
    tree = policy_tree(graph, focal, laws, accept)
    got = {"value": engine.value, **{("take", e): v for e, v in engine.take_prob.items()}}
    want = {"value": tree["value"], **{("take", e): v for e, v in tree["taken"].items()}}
    if not alpha:
        got.update({("feas", e): v for e, v in engine.feasibility.items()})
        want.update({("feas", e): v for e, v in tree["feasibility"].items()})
    return got, want


@settings(max_examples=60, derandomize=True, deadline=None)
@given(instances())
def test_policies_match_the_execution_tree(inst):
    """Every focal run of every policy that prepares, the float twin's
    too, within 1e-12 relative of the tree; the twin within 1e-9
    relative of its table where its prophet takes the table's path in
    every realization (rounding a value to a float can make or break a
    tie between two paths, and then the twin's laws are another
    prophet's).  The engine's numbers on a table without a float are
    floats, as in `ENGINE_FLOAT_LEAK`, so they are not compared for
    equality."""
    twin = float_twin(inst)
    runs, twin_runs = prepared_runs(inst), prepared_runs(twin)
    assert runs.keys() == twin_runs.keys()
    for name in runs:
        for run, twin_run in zip(runs[name], twin_runs[name], strict=True):
            got, want = run_statistics(run)
            assert_agree(got, want, 1e-12)
            got_twin, want_twin = run_statistics(twin_run)
            assert_agree(got_twin, want_twin, 1e-12)
            if best_paths(twin_run.oracle) == best_paths(run.oracle):
                assert_agree(got_twin, got, 1e-9)


# Shrunk from the policy property with equality on tables without a float: on this exact table the labeled
# engine's arrival mass 1 at the source sums to the float 1.0 (`stable_sum` of one int), so edge 0's coin
# and take probability are the float 0.3333333333333333 where the tree's are Fraction(1, 3).
ENGINE_FLOAT_LEAK = Instance.build(
    ["v0", "v1", "v2"],
    [("v0", "v1", ()), ("v1", "v2", ()), ("v0", "v1", ("L0",)), ("v1", "v2", ("L0",))],
    {"L0": 1},
    {"v0": [(Fraction(1), {0: 0, 2: 0})], "v1": [(Fraction(1), {1: 0, 3: 0})]},
)


def test_the_engine_float_leak_stays_pinned():
    assert ENGINE_FLOAT_LEAK.exact
    (run,) = prepare_policy(ENGINE_FLOAT_LEAK, "width1-labeled").runs
    got, want = run_statistics(run)
    assert want["take", 0] == Fraction(1, 3)
    assert repr(got["take", 0]) == "0.3333333333333333" and repr(got["feas", 0]) == "1.0"
