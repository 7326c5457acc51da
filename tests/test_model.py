"""Instance construction, validation, serialization, realizations."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathprophet import (
    EdgeDef,
    EnumerationCapError,
    Instance,
    InvalidInstanceError,
    Outcome,
    active_label_caps,
    enumerate_realizations,
    generate_paper_instance,
    generate_random_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    paper_families,
    realization_count,
    sample_realization,
    save_instance,
    validate_instance,
)

from bruteforce import iter_realizations
from conftest import diamond, width1_fuzz


def codes(inst):
    return {v.code for v in validate_instance(inst).violations}


def test_build_assigns_dense_edge_ids():
    inst = diamond()
    assert [e.id for e in inst.edges] == [0, 1, 2, 3]
    assert inst.source == "s" and inst.sink == "t"
    assert inst.node_index == {"s": 0, "a": 1, "b": 2, "t": 3}


def test_build_rejects_duplicate_nodes():
    with pytest.raises(InvalidInstanceError):
        Instance.build(["s", "s", "t"], [("s", "t", ())])


def test_build_rejects_unknown_endpoint():
    with pytest.raises(InvalidInstanceError):
        Instance.build(["s", "t"], [("s", "x", ())])


def test_validate_accepts_every_builtin_family():
    for family in paper_families():
        inst = generate_paper_instance(family)
        report = validate_instance(inst)
        assert report.ok, (family, report.violations)


def test_validate_flags_backward_edge():
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "a", ()), ("a", "t", ()), ("a", "s", ())],
        outcomes={
            "s": [(1.0, {0: 0.0})],
            "a": [(1.0, {1: 0.0, 2: 0.0})],
        },
    )
    assert "not-topological" in codes(inst)


def test_validate_flags_bad_mass_sum():
    inst = Instance.build(
        ["s", "t"],
        [("s", "t", ())],
        outcomes={"s": [(0.4, {0: 1.0}), (0.4, {0: 0.0})]},
    )
    assert "bad-mass-sum" in codes(inst)


def test_validate_flags_missing_parallel_unlabeled():
    inst = Instance.build(
        ["s", "t"],
        [("s", "t", ("red",))],
        labels={"red": 1},
        outcomes={"s": [(1.0, {0: 1.0})]},
    )
    assert "missing-parallel-unlabeled" in codes(inst)


def test_validate_flags_undeclared_label():
    inst = Instance.build(
        ["s", "t"],
        [("s", "t", ()), ("s", "t", ("blue",))],
        outcomes={"s": [(1.0, {0: 0.0, 1: 1.0})]},
    )
    assert "unknown-label" in codes(inst)


def test_validate_flags_missing_outcomes_and_key_mismatch():
    inst = Instance.build(["s", "a", "t"], [("s", "a", ()), ("a", "t", ())])
    assert "missing-outcomes" in codes(inst)
    inst2 = Instance.build(
        ["s", "t"],
        [("s", "t", ())],
        outcomes={"s": [(1.0, {5: 1.0})]},
    )
    assert "value-key-mismatch" in codes(inst2)


def test_validate_flags_unreachable_node():
    inst = Instance.build(
        ["s", "a", "t"],
        [("s", "t", ()), ("a", "t", ())],
        outcomes={"s": [(1.0, {0: 1.0})], "a": [(1.0, {1: 0.0})]},
    )
    assert "unreachable" in codes(inst)


@pytest.mark.parametrize(
    "p, value",
    [(float("nan"), 1.0), (1.0, float("nan")), (1.0, float("inf")), (1.0, float("-inf"))],
)
def test_validate_flags_non_finite_numbers(p, value):
    inst = Instance.build(["s", "t"], [("s", "t", ())], outcomes={"s": [(p, {0: value})]})
    assert "non-finite" in codes(inst)


def test_validate_flags_boolean_capacity():
    inst = Instance.build(
        ["s", "t"],
        [("s", "t", ()), ("s", "t", ("red",))],
        labels={"red": True},
        outcomes={"s": [(1.0, {0: 0.0, 1: 1.0})]},
    )
    assert "bad-capacity" in codes(inst)


ONE_HOP = {"s": [(1.0, {0: 1.0})]}
# one instance per check `validate_instance` makes that no other test reaches; "warning" is the enumeration-cap warning
SEEN_BY_VALIDATION = {
    "too-few-nodes": lambda: Instance.build(["s"], []),
    "edge-id": lambda: Instance(("s", "t"), (EdgeDef(1, "s", "t"),), {}, ((Outcome(1.0, {1: 1.0}),), ())),
    "self-loop": lambda: Instance.build(["s", "t"], [("s", "s", ()), ("s", "t", ())], outcomes=ONE_HOP),
    "no-path-to-sink": lambda: Instance.build(["s", "a", "t"], [("s", "t", ()), ("s", "a", ())], outcomes=ONE_HOP),
    "value-key-mismatch": lambda: Instance.build(
        ["s", "a", "t"], [("s", "t", ()), ("s", "a", ())], outcomes={**ONE_HOP, "a": [(1.0, {})]}
    ),
    "negative-mass": lambda: Instance.build(["s", "t"], [("s", "t", ())], outcomes={"s": [(-0.5, {0: 1.0}), (1.5, {0: 1.0})]}),
    "negative-value": lambda: Instance.build(["s", "t"], [("s", "t", ())], outcomes={"s": [(1.0, {0: -1.0})]}),
    "warning": diamond,
}


@pytest.mark.parametrize("code", sorted(SEEN_BY_VALIDATION))
def test_validate_reports_each_check(monkeypatch, code):
    monkeypatch.setenv("PATHPROPHET_ENUM_CAP", "1")
    report = validate_instance(SEEN_BY_VALIDATION[code]())
    if code == "warning":
        assert report.ok and len(report.warnings) == 1 and "exceed the enumeration cap" in report.warnings[0]
    else:
        assert code in {v.code for v in report.violations}


def test_raise_if_invalid():
    inst = Instance.build(["s", "a", "t"], [("s", "a", ()), ("a", "t", ())])
    with pytest.raises(InvalidInstanceError):
        validate_instance(inst).raise_if_invalid()


def test_serialization_roundtrip(tmp_path):
    inst = generate_paper_instance("upper49", eps=0.1)
    again = instance_from_dict(instance_to_dict(inst))
    assert again.nodes == inst.nodes
    assert again.labels == dict(inst.labels)
    assert [(e.src, e.dst, e.labels) for e in again.edges] == [
        (e.src, e.dst, e.labels) for e in inst.edges
    ]
    assert again.tables == inst.tables

    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    loaded = load_instance(str(path))
    assert loaded.tables == inst.tables
    assert loaded.meta == dict(inst.meta)


def test_from_dict_rejects_garbage(tmp_path):
    with pytest.raises(InvalidInstanceError):
        instance_from_dict({"nodes": ["s", "t"]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidInstanceError):
        load_instance(str(bad))


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "an instance document must be a JSON object"),
        (
            {"nodes": ["s", "t"], "edges": [], "outcomes": {"s": {"p": 1}}},
            "outcomes of node 's' must be a list of rows",
        ),
    ],
    ids=["not-an-object", "rows-not-a-list"],
)
def test_from_dict_refuses_a_document_of_the_wrong_shape(doc, message):
    with pytest.raises(InvalidInstanceError, match=message):
        instance_from_dict(doc)


def test_build_refuses_outcomes_for_an_unknown_node():
    with pytest.raises(InvalidInstanceError, match="outcomes given for unknown node 'x'"):
        Instance.build(["s", "t"], [("s", "t", ())], outcomes={"x": [(1.0, {0: 1.0})]})


def test_validate_on_a_document_that_is_not_an_object_is_one_error_line(tmp_path, capsys):
    from pathprophet.cli import main

    path = tmp_path / "list.json"
    path.write_text("[]")
    assert main(["validate", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error[validation]: an instance document must be a JSON object"]


def test_edges_given_as_an_object_are_refused_in_the_library_and_the_cli(tmp_path, capsys):
    from pathprophet.cli import main

    doc = {"nodes": ["s", "t"], "edges": {}}
    with pytest.raises(InvalidInstanceError, match="edges must be a list of edge objects"):
        instance_from_dict(doc)
    path = tmp_path / "edges-object.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error[validation]: edges must be a list of edge objects"]


def test_enumerate_realizations_matches_product():
    inst = diamond()
    ours = enumerate_realizations(inst)
    raw = list(iter_realizations(inst))
    assert len(ours) == realization_count(inst) == len(raw)
    assert ours == [choices for choices, _, _ in raw]
    assert abs(sum(mass for _, _, mass in raw) - 1) < 1e-12


def test_enumeration_cap_message(monkeypatch):
    inst = diamond()
    monkeypatch.setenv("PATHPROPHET_ENUM_CAP", "1")
    with pytest.raises(EnumerationCapError, match="enumeration too large, use Monte Carlo"):
        enumerate_realizations(inst)


def test_fraction_tables_stay_exact():
    half = Fraction(1, 2)
    inst = Instance.build(
        ["s", "t"],
        [("s", "t", ())],
        outcomes={"s": [(half, {0: Fraction(3, 4)}), (half, {0: Fraction(1, 4)})]},
    )
    assert enumerate_realizations(inst) == [(0, 0), (1, 0)]
    masses = [mass for _, _, mass in iter_realizations(inst)]
    assert all(isinstance(m, Fraction) for m in masses)
    assert sum(masses) == 1


def test_sample_realization_is_seed_deterministic():
    inst = width1_fuzz(3)
    a = sample_realization(inst, random.Random(99))
    b = sample_realization(inst, random.Random(99))
    assert a == b
    # one outcome index per node, 0 for a node without a table
    assert len(a) == len(inst.nodes)
    assert all(0 <= c < max(len(t), 1) for c, t in zip(a, inst.tables))


def test_active_label_caps_drops_slack_labels():
    inst = Instance.build(
        ["s", "a", "t"],
        [
            ("s", "a", ()),
            ("s", "a", ("tight",)),
            ("a", "t", ()),
            ("a", "t", ("tight",)),
            ("a", "t", ("loose",)),
        ],
        labels={"tight": 1, "loose": 5},
        outcomes={
            "s": [(1.0, {0: 0.0, 1: 1.0})],
            "a": [(1.0, {2: 0.0, 3: 1.0, 4: 0.5})],
        },
    )
    assert active_label_caps(inst) == (("tight", 1),)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(["width1", "dag"]))
def test_generated_instances_always_validate(seed, shape):
    inst = generate_random_instance(
        seed, shape=shape, n_nodes=4 + seed % 4, max_outcomes=1 + seed % 3, d=seed % 3
    )
    report = validate_instance(inst)
    assert report.ok, report.violations
    masses = [mass for _, _, mass in iter_realizations(inst)]
    assert abs(sum(masses) - 1) < 1e-12
