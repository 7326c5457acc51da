"""End-to-end checks of the command line front end (in-process)."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathprophet.cli import main
from pathprophet.cover import min_path_cover
from pathprophet.instances import kplus1, paper_families, two_candidate, upper49
from pathprophet.model import Instance, instance_to_dict, load_instance, save_instance
from pathprophet.policies import prepare_policy
from pathprophet.simulate import monte_carlo_estimate
from pathprophet.util import derive_seed

from conftest import dag_fuzz, many_binding_labels


def write(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    save_instance(inst, str(path))
    return str(path)


def broken_instance():
    # masses sum to 1/2, flagged by validation but still serializable
    return Instance.build(
        ["a", "b"],
        [("a", "b", ())],
        outcomes={"a": [(0.5, {0: 1})]},
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, two_candidate())
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0
    assert out.startswith("ok: 3 nodes, 4 edges")


def test_validate_reports_violations_and_exit_3(tmp_path, capsys):
    path = write(tmp_path, broken_instance())
    code, out, _ = run(capsys, ["validate", path])
    assert code == 3
    assert "invalid:" in out
    assert "bad-mass-sum" in out


def test_validate_json_payload(tmp_path, capsys):
    path = write(tmp_path, two_candidate())
    code, obj, _ = run_json(capsys, ["validate", path])
    assert code == 0
    assert obj["ok"] is True
    assert obj["violations"] == []
    assert obj["nodes"] == 3 and obj["edges"] == 4


def test_other_commands_refuse_invalid_instance(tmp_path, capsys):
    path = write(tmp_path, broken_instance())
    code, _, err = run(capsys, ["width", path])
    assert code == 3
    assert err.startswith("error[validation]:")


NON_FINITE_OR_BOOL = {
    "nan-mass": '{"p": NaN, "values": {"0": 1}}',
    "infinite-value": '{"p": 1, "values": {"0": Infinity}}',
    "negative-infinite-value": '{"p": 1, "values": {"0": -Infinity}}',
}


@pytest.mark.parametrize("doc", sorted(NON_FINITE_OR_BOOL) + ["bool-capacity"])
@pytest.mark.parametrize("command", ["opt", "validate"])
def test_non_finite_numbers_and_boolean_capacities_exit_3(tmp_path, capsys, doc, command):
    if doc == "bool-capacity":
        text = (
            '{"nodes": ["s", "t"], "labels": {"a": true},'
            ' "edges": [{"src": "s", "dst": "t"}, {"src": "s", "dst": "t", "labels": ["a"]}],'
            ' "outcomes": {"s": [{"p": 1, "values": {"0": 1, "1": 2}}]}}'
        )
    else:
        text = (
            '{"nodes": ["s", "t"], "edges": [{"src": "s", "dst": "t"}],'
            f' "outcomes": {{"s": [{NON_FINITE_OR_BOOL[doc]}]}}}}'
        )
    path = tmp_path / "inst.json"
    path.write_text(text)
    code, out, err = run(capsys, [command, str(path)])
    assert code == 3
    if command == "validate" and doc == "bool-capacity":
        assert out.splitlines() == ["invalid:", "  [bad-capacity] label 'a' has capacity True at a"]
    else:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error[validation]:")


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, ["opt", "/no/such/file.json"])
    assert code == 2
    assert err.startswith("error[io]:")


def test_garbage_json_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 3
    assert "error[validation]:" in err


def test_width_and_cover(tmp_path, capsys):
    path = write(tmp_path, kplus1(k=2, eps=0.5))
    code, out, _ = run(capsys, ["width", path])
    assert code == 0 and out.strip() == "width: 2"
    code, obj, _ = run_json(capsys, ["cover", path])
    assert code == 0
    assert obj["width"] == 2
    assert len(obj["paths"]) == 2
    assert all(order[-1] == "t" for order in obj["node_orders"])


def test_opt_exact(tmp_path, capsys):
    path = write(tmp_path, two_candidate(0.5))
    code, out, _ = run(capsys, ["opt", path])
    assert code == 0
    assert "expected offline value: 1.5" in out
    code, obj, _ = run_json(capsys, ["opt", path])
    assert obj["expected_opt"] == pytest.approx(1.5, abs=1e-12)
    assert obj["mode"] == "exact"


def test_opt_mc_echoes_given_seed(tmp_path, capsys):
    path = write(tmp_path, two_candidate(0.5))
    code, out, _ = run(capsys, ["opt", path, "--mc", "--trials", "400", "--seed", "7"])
    assert code == 0
    assert "seed: 7" in out
    assert "(generated)" not in out


def test_opt_mc_generates_seed_when_missing(tmp_path, capsys):
    path = write(tmp_path, two_candidate(0.5))
    code, out, _ = run(capsys, ["opt", path, "--mc", "--trials", "50"])
    assert code == 0
    assert "(generated)" in out


def test_xprobs_lists_every_edge(tmp_path, capsys):
    inst = upper49(0.1)
    path = write(tmp_path, inst)
    code, out, _ = run(capsys, ["xprobs", path])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == len(inst.edges)
    assert all("x =" in ln for ln in lines)
    code, obj, _ = run_json(capsys, ["xprobs", path])
    assert set(obj["x"]) == {str(i) for i in range(len(inst.edges))}
    assert sum(obj["x"][str(e.id)] for e in inst.edges if e.src == "s") == pytest.approx(1)


def test_online_opt(tmp_path, capsys):
    path = write(tmp_path, upper49(0.1))
    code, obj, _ = run_json(capsys, ["online-opt", path])
    assert code == 0
    assert obj["online_opt"] == pytest.approx(2.0, abs=1e-12)


def test_simulate_exact_human_readable(tmp_path, capsys):
    path = write(tmp_path, two_candidate(0.5))
    code, out, _ = run(capsys, ["simulate", path, "--policy", "width1", "--online"])
    assert code == 0
    assert "e_alg:  0.75" in out
    assert "e_opt:  1.5" in out
    assert "online: 1" in out
    assert "ratio:  0.5" in out
    assert "holds" in out and "VIOLATED" not in out


def test_simulate_exact_json(tmp_path, capsys):
    path = write(tmp_path, two_candidate(0.5))
    code, obj, _ = run_json(capsys, ["simulate", path, "--policy", "width1"])
    assert code == 0
    assert obj["mode"] == "exact"
    assert obj["e_alg"] == pytest.approx(0.75, abs=1e-12)
    assert obj["ratio"] == pytest.approx(0.5, abs=1e-12)
    assert obj["bound_label"] == "1/2"
    assert obj["bound_ok"] is True
    assert "trials" not in obj


def test_simulate_mc_generates_and_marks_seed(tmp_path, capsys):
    path = write(tmp_path, two_candidate(0.5))
    code, obj, _ = run_json(
        capsys, ["simulate", path, "--policy", "width1", "--mc", "--trials", "300"]
    )
    assert code == 0
    assert obj["mode"] == "mc"
    assert obj["trials"] == 300
    assert obj["seed_generated"] is True
    assert isinstance(obj["seed"], int)


def test_simulate_mc_given_seed_reproduces(tmp_path, capsys):
    path = write(tmp_path, two_candidate(0.5))
    args = ["simulate", path, "--policy", "width1", "--mc", "--trials", "200", "--seed", "9"]
    _, obj_a, _ = run_json(capsys, args)
    _, obj_b, _ = run_json(capsys, args)
    assert obj_a == obj_b
    assert "seed_generated" not in obj_a


def test_simulate_rejects_unknown_policy(tmp_path, capsys):
    path = write(tmp_path, two_candidate(0.5))
    with pytest.raises(SystemExit) as ei:
        main(["simulate", path, "--policy", "bogus"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_simulate_policy_mismatch_is_policy_error(tmp_path, capsys):
    # width-1 engine on a width-2 instance
    path = write(tmp_path, kplus1(k=2, eps=0.5))
    code, _, err = run(capsys, ["simulate", path, "--policy", "width1"])
    assert code == 5
    assert err.startswith("error[policy]:")


def test_unlabeled_policy_on_a_labeled_instance_is_refused_alike_in_every_mode(tmp_path, capsys):
    path = write(tmp_path, upper49(0.1))
    refusals = [
        run(capsys, argv)
        for argv in (
            ["simulate", path, "--policy", "width1"],
            ["simulate", path, "--policy", "width1", "--mc", "--seed", "1"],
            ["trace", path, "--policy", "width1", "--seed", "1"],
        )
    ]
    want = "error[policy]: unlabeled policy cannot run on a labeled instance\n"
    assert refusals == [(5, "", want)] * 3


@pytest.mark.parametrize("family", paper_families())
def test_gen_every_family_roundtrips(tmp_path, capsys, family):
    out_path = tmp_path / f"{family}.json"
    code, out, _ = run(capsys, ["gen", family, "-o", str(out_path)])
    assert code == 0
    assert f"wrote {out_path}" in out
    inst = load_instance(str(out_path))
    assert inst.meta["family"] == family
    code, _, _ = run(capsys, ["validate", str(out_path)])
    assert code == 0


def test_gen_forwards_parameters(tmp_path, capsys):
    out_path = tmp_path / "ot.json"
    code, _, _ = run(
        capsys,
        ["gen", "overtime", "--horizon", "4", "--terms", "1,2", "-o", str(out_path)],
    )
    assert code == 0
    inst = load_instance(str(out_path))
    assert inst.meta["horizon"] == 4
    assert inst.meta["terms"] == [1, 2]


def test_gen_random_is_seed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "random", "--shape", "dag", "--nodes", "7", "--d", "1", "--seed", "13"]
    assert run(capsys, argv + ["-o", str(a)])[0] == 0
    assert run(capsys, argv + ["-o", str(b)])[0] == 0
    assert a.read_text() == b.read_text()
    assert load_instance(str(a)).meta["seed"] == 13


def test_gen_random_echoes_generated_seed(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, obj, _ = run_json(capsys, ["gen", "random", "-o", str(out_path)])
    assert code == 0
    assert obj["seed_generated"] is True
    assert load_instance(str(out_path)).meta["seed"] == obj["seed"]


def test_gen_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["gen", "mystery", "-o", "/tmp/x.json"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_trace_is_reproducible(tmp_path, capsys):
    path = write(tmp_path, two_candidate(0.5))
    argv = ["trace", path, "--policy", "width1", "--seed", "5"]
    _, out_a, _ = run(capsys, argv)
    _, out_b, _ = run(capsys, argv)
    assert out_a == out_b
    assert "seed: 5" in out_a
    assert "value:" in out_a
    assert "edges walked:" in out_a


def test_trace_value_matches_first_mc_trial(tmp_path, capsys):
    inst = two_candidate(0.5)
    path = write(tmp_path, inst)
    code, obj, _ = run_json(capsys, ["trace", path, "--policy", "width1", "--seed", "5"])
    assert code == 0
    rep = monte_carlo_estimate(inst, "width1", trials=1, seed=5)
    assert obj["value"] == pytest.approx(rep.mean, abs=1e-12)
    assert obj["steps"]
    assert all(
        set(step) == {"node", "outcome", "tentative", "feasible", "coin", "taken"}
        for step in obj["steps"]
    )


ROW = '{"p": 1, "values": {"0": 1}}'
MALFORMED = {
    "edge-without-src": '{"nodes": ["s", "t"], "edges": [{"dst": "t"}]}',
    "non-object-edge": '{"nodes": ["s", "t"], "edges": [7]}',
    "list-node-name": '{"nodes": [["s"], "t"], "edges": [{"src": "s", "dst": "t"}]}',
    "string-nodes": '{"nodes": "st", "edges": [{"src": "s", "dst": "t"}], "outcomes": {"s": [%s]}}' % ROW,
    "string-edge-labels": (
        '{"nodes": ["s", "t"], "labels": {"a": 1, "b": 1},'
        ' "edges": [{"src": "s", "dst": "t"}, {"src": "s", "dst": "t", "labels": "ab"}],'
        ' "outcomes": {"s": [{"p": 1, "values": {"0": 1, "1": 2}}]}}'
    ),
    "list-labels": '{"nodes": ["s", "t"], "labels": [], "edges": [{"src": "s", "dst": "t"}], "outcomes": {"s": [%s]}}' % ROW,
    "string-mass": '{"nodes": ["s", "t"], "edges": [{"src": "s", "dst": "t"}], "outcomes": {"s": [{"p": "1", "values": {"0": 1}}]}}',
    "bool-value": '{"nodes": ["s", "t"], "edges": [{"src": "s", "dst": "t"}], "outcomes": {"s": [{"p": 1, "values": {"0": true}}]}}',
    "outcomes-list": '{"nodes": ["s", "t"], "edges": [{"src": "s", "dst": "t"}], "outcomes": [%s]}' % ROW,
    # "00" names edge 0 as "0" does, and the later key would win
    "aliased-value-key": (
        '{"nodes": ["s", "t"], "edges": [{"src": "s", "dst": "t"}, {"src": "s", "dst": "t"}],'
        ' "outcomes": {"s": [{"p": 1, "values": {"0": 1, "00": 5, "1": 2}}]}}'
    ),
    # int("1_0") is 10
    "underscore-value-key": (
        '{"nodes": ["s", "t"], "edges": [{"src": "s", "dst": "t"}, {"src": "s", "dst": "t"}],'
        ' "outcomes": {"s": [{"p": 1, "values": {"0": 1, "1_0": 2}}]}}'
    ),
    # past int()'s digit limit for strings
    "long-value-key": '{"nodes": ["s", "t"], "edges": [{"src": "s", "dst": "t"}], "outcomes": {"s": [{"p": 1, "values": {"%s": 1}}]}}'
    % ("1" * 5000),
}


@pytest.mark.parametrize("doc", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["opt", "validate"])
def test_malformed_documents_exit_3_with_one_line(tmp_path, capsys, doc, command):
    path = tmp_path / "inst.json"
    path.write_text(MALFORMED[doc])
    code, out, err = run(capsys, [command, str(path)])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error[validation]:")
    assert "'p'" not in err


@pytest.mark.parametrize("command", ["validate", "opt", "simulate"])
def test_non_object_meta_exits_3_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "inst.json"
    path.write_text('{"nodes": ["s", "t"], "edges": [{"src": "s", "dst": "t"}], "outcomes": {"s": [%s]}, "meta": 5}' % ROW)
    argv = [command, str(path)] + (["--policy", "width1"] if command == "simulate" else [])
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error[validation]: meta must be an object")


def test_opt_over_the_label_budget_cap_exits_4_with_one_line(tmp_path, capsys):
    code, out, err = run(capsys, ["opt", write(tmp_path, many_binding_labels())])
    assert code == 4
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error[cap]:")


# passes `validate`, but its path value 2e308 overflows a float
HUGE_DOC = {
    "nodes": ["s", "a", "t"],
    "edges": [{"id": 0, "src": "s", "dst": "a"}, {"id": 1, "src": "a", "dst": "t"}],
    "outcomes": {"s": [{"p": 1, "values": {"0": 1e308}}], "a": [{"p": 1, "values": {"1": 1e308}}]},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["opt", "{doc}"],
        ["opt", "{doc}", "--mc", "--seed", "1"],
        ["xprobs", "{doc}"],
        ["simulate", "{doc}", "--policy", "width1"],
        ["simulate", "{doc}", "--policy", "width1", "--mc", "--seed", "1"],
        ["trace", "{doc}", "--policy", "width1", "--seed", "1"],
        ["online-opt", "{doc}"],
        ["gen", "classic", "--n", "1025", "-o", "{out}"],
        ["gen", "classic", "--n", "3", "--eps", "1e-300", "-o", "{out}"],
    ],
)
def test_float_overflow_exits_3_with_one_line(tmp_path, capsys, argv):
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(HUGE_DOC))
    assert run(capsys, ["validate", str(doc)])[0] == 0
    argv = [a.format(doc=doc, out=tmp_path / "out.json") for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error[validation]: a value overflowed the float range")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_opt_mc_refuses_non_positive_trials(tmp_path, capsys, trials):
    path = write(tmp_path, two_candidate(0.5))
    code, out, err = run(capsys, ["opt", path, "--mc", "--trials", trials, "--seed", "1"])
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error[args]: trials must be positive"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["markets", "--n", "-1"], "family 'markets' does not take 'n'; it accepts: periods, dists"),
        (["random", "--eps", "0.5"], "family 'random' does not take 'eps'; it accepts: seed, shape, nodes, outcomes, d"),
        (["grid", "--seed", "3"], "family 'grid' does not take 'seed'; it accepts: k, eps"),
        (["grid", "--nodes", "9"], "family 'grid' does not take 'nodes'; it accepts: k, eps"),
    ],
    ids=["markets-n", "random-eps", "grid-seed", "grid-nodes"],
)
def test_gen_refuses_a_parameter_the_family_does_not_take(tmp_path, capsys, argv, message):
    out_path = tmp_path / "x.json"
    code, out, err = run(capsys, ["gen", *argv, "-o", str(out_path)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error[args]: {message}"]
    assert not out_path.exists()


def test_cover_seed_picks_the_cover_that_simulate_and_trace_run_on(tmp_path, capsys):
    path = write(tmp_path, dag_fuzz(7))
    inst = load_instance(path)
    prepared = prepare_policy(inst, "general", min_path_cover(inst, 4))
    seeded = run_json(capsys, ["simulate", path, "--policy", "general", "--cover-seed", "4"])[1]
    unseeded = run_json(capsys, ["simulate", path, "--policy", "general"])[1]
    assert seeded["e_alg"] == prepared.exact_value() == 3.34375
    assert seeded["params"]["cover"] == [list(p) for p in min_path_cover(inst, 4).paths]
    assert unseeded["e_alg"] == 2.9548611111111107
    code, obj, _ = run_json(capsys, ["trace", path, "--policy", "general", "--cover-seed", "4", "--seed", "1"])
    assert code == 0
    traj = prepared.sampler().run(random.Random(derive_seed(1, "traj", 0)))
    assert (obj["edges"], obj["value"], obj["sub_index"]) == (list(traj.edges), traj.value, traj.sub_index)


def json_locations(doc, prefix=()):
    """(location, is an object field) of every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,), isinstance(doc, dict)
        yield from json_locations(value, prefix + (key,))


VALID_DOC = json.loads(json.dumps(instance_to_dict(upper49(0.1)), default=float))
REPLACEMENTS = [None, True, False, "x", [], [1], {}, {"a": 1}, -0.0]
# (location, "drop") removes an object field; (location, i) puts REPLACEMENTS[i] there
MUTATIONS = [
    (location, change)
    for location, is_field in json_locations(VALID_DOC)
    for change in (["drop"] if is_field else []) + list(range(len(REPLACEMENTS)))
]
DOCUMENT_COMMANDS = [
    ["validate"],
    ["width"],
    ["cover"],
    ["opt"],
    ["xprobs"],
    ["online-opt"],
    ["simulate", "--policy", "width1-labeled"],
    ["trace", "--policy", "width1-labeled", "--seed", "1"],
]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MUTATIONS))
def test_mutated_documents_exit_0_or_3_with_one_line(mutation):
    location, change = mutation
    doc = copy.deepcopy(VALID_DOC)
    parent = doc
    for key in location[:-1]:
        parent = parent[key]
    if change == "drop":
        del parent[location[-1]]
    else:
        parent[location[-1]] = copy.deepcopy(REPLACEMENTS[change])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for command in DOCUMENT_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], path] + command[1:])
            assert code in (0, 3), (command, code, err.getvalue())
            if code == 3 and not (command[0] == "validate" and out.getvalue().startswith("invalid:")):
                # `validate` lists the violations of a parsed document on stdout
                assert len(err.getvalue().splitlines()) == 1, (command, err.getvalue())
