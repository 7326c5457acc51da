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

from bruteforce import online_value
from conftest import float_twin, on_the_integer_path
from pathprophet import Instance, Oracle, min_path_cover, validate_instance

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
        labels[lbl] = draw(st.integers(1, 2))
        carriers = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=labels[lbl] + 1,
                                 max_size=labels[lbl] + 2, unique=True))
        edges += [(nodes[pairs[e][0]], nodes[pairs[e][1]], (lbl,)) for e in carriers]
    # the number kinds of the instance: Fraction masses only (a table on the online DP's integer path when
    # no mass is zero), then int masses too, then floats among masses and values
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


# Shrunk failures of the property's type check, had it covered every
# exact table: an inner node of one outcome of the `int` mass 1 sums one
# `int` term with `stable_sum`, which returns the float `math.fsum` gives,
# and the float spreads to the source.  Each pins today's float; the
# brute force gives a `Fraction` of the same value.
ONLINE_TYPE_LEAKS = [
    (
        Instance.build(
            ["v0", "v1", "v2"],
            [("v0", "v1", ()), ("v1", "v2", ())],
            outcomes={"v0": [(Fraction(1), {0: 0})], "v1": [(1, {1: 0})]},
        ),
        0.0,
    ),
]


def check_online(inst: Instance) -> None:
    got = Oracle(inst).optimal_online_value()
    want = online_value(inst)
    if inst.exact:
        assert got == want
        if on_the_integer_path(inst):
            assert type(got) is type(want)
    else:  # a table with a float, or with a zero mass or no Fraction-mass node, runs on its own numbers
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    twin = float_twin(inst)
    assert Oracle(twin).optimal_online_value() == pytest.approx(online_value(twin), rel=1e-12, abs=0)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(instances())
def test_online_dp_matches_the_brute_force_walker(inst):
    """Exact tables: the same value, and the same type where every inner
    node's masses are Fractions; other tables and every float twin:
    within 1e-12 relative."""
    check_online(inst)


@pytest.mark.parametrize("inst, today", ONLINE_TYPE_LEAKS)
def test_online_type_leaks_stay_pinned(inst, today):
    assert inst.exact and not on_the_integer_path(inst)
    check_online(inst)
    got = Oracle(inst).optimal_online_value()
    assert type(got) is float and got == today
    assert type(online_value(inst)) is Fraction
