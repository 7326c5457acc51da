"""End-to-end checks of the command line front end (in-process)."""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathprophet
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
    # bytes that are not UTF-8, arrays nested past the recursion limit, an int literal past the digit limit
    "not-utf-8": b'{"nodes": ["s\xff", "t"]}',
    "deep-nesting": "[" * 100_000,
    "long-int-literal": '{"nodes": ["s", "t"], "edges": [{"src": "s", "dst": "t"}], "outcomes": {"s": [{"p": %s, "values": {"0": 1}}]}}'
    % ("1" * 5000),
}


@pytest.mark.parametrize("doc", sorted(MALFORMED))
@pytest.mark.parametrize("command", ["opt", "validate"])
def test_malformed_documents_exit_3_with_one_line(tmp_path, capsys, doc, command):
    path = tmp_path / "inst.json"
    doc = MALFORMED[doc]
    path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
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


@pytest.mark.parametrize(
    "argv",
    [
        ["overtime", "--horizon", "0"],
        ["markets", "--periods", "1"],
        ["kplus1", "--k", "0"],
        ["mchoice", "--n", "0"],
        ["vertex-matching", "--bidders", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_gen_refuses_a_family_parameter_out_of_range(tmp_path, capsys, argv):
    out_path = tmp_path / "x.json"
    code, out, err = run(capsys, ["gen", *argv, "-o", str(out_path)])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error[validation]:")
    assert not out_path.exists()


def test_gen_random_echoes_generated_seed_in_text(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, out, _ = run(capsys, ["gen", "random", "-o", str(out_path)])
    assert code == 0
    assert out.endswith(f"\nseed: {load_instance(str(out_path)).meta['seed']} (generated)\n")


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


def fresh_process_run(argv):
    """Exit code and stdout of `argv` run by the real entry point in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pathprophet.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "pathprophet.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return done.returncode, done.stdout


def test_repeated_calls_carry_nothing_from_one_call_to_the_next(tmp_path, capsys):
    path = write(tmp_path, dag_fuzz(7))
    broken = write(tmp_path, broken_instance(), "broken.json")
    simulate = ["simulate", path, "--policy", "general", "--json"]
    trace = ["trace", path, "--policy", "general", "--seed", "5"]
    fresh = {tuple(argv): fresh_process_run(argv) for argv in (simulate, trace)}

    def matches_a_fresh_process(argv):
        code, out, _ = run(capsys, argv)
        return (code, out) == fresh[tuple(argv)]

    assert "online_opt" in run_json(capsys, simulate[:-1] + ["--online"])[1]
    assert matches_a_fresh_process(simulate)
    assert "online_opt" not in json.loads(fresh[tuple(simulate)][1])

    mc = simulate + ["--mc", "--trials", "50"]
    seeded = json.loads(run(capsys, mc + ["--seed", "5"])[1])
    assert seeded["seed"] == 5 and "seed_generated" not in seeded
    assert json.loads(run(capsys, mc)[1])["seed_generated"] is True

    assert run(capsys, ["gen", "two-candidate", "--eps", "0.25", "-o", str(tmp_path / "a.json")])[0] == 0
    assert run(capsys, ["gen", "random", "--seed", "1", "-o", str(tmp_path / "b.json")])[0] == 0

    inst = load_instance(path)
    assert min_path_cover(inst, 3).paths != min_path_cover(inst).paths
    seeded = json.loads(run(capsys, simulate + ["--cover-seed", "3"])[1])
    assert seeded["params"]["cover"] == [list(p) for p in min_path_cover(inst, 3).paths]
    assert matches_a_fresh_process(simulate)
    assert json.loads(fresh[tuple(simulate)][1])["params"]["cover"] == [list(p) for p in min_path_cover(inst).paths]

    failures = [
        (["simulate", path, "--policy", "bogus"], SystemExit),
        (["simulate", path, "--policy", "general", "--exact", "--mc"], SystemExit),
        (["gen", "two-candidate", "--eps", "0.5"], SystemExit),
        (["simulate", path, "--policy", "general", "--mc", "--trials", "0"], 2),
        (["simulate", broken, "--policy", "general"], 3),
    ]
    for i, (argv, want) in enumerate(failures):
        if want is SystemExit:
            with pytest.raises(SystemExit) as ei:
                main(argv)
            assert ei.value.code == 2, argv
        else:
            assert main(argv) == want, argv
        capsys.readouterr()
        assert matches_a_fresh_process([simulate, trace][i % 2]), argv


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


GOLDEN_INSTANCES = {"two_candidate()": (two_candidate, "width1"), "dag_fuzz(7)": (lambda: dag_fuzz(7), "general")}
GOLDEN_COMMANDS = [
    ["validate"],
    ["width"],
    ["cover"],
    ["opt"],
    ["xprobs"],
    ["online-opt"],
    ["simulate", "--policy", "{policy}"],
    ["simulate", "--policy", "{policy}", "--mc", "--seed", "7"],
    ["trace", "--policy", "{policy}", "--seed", "5"],
]


def golden_outputs(directory):
    """(exit code, SHA-256 of stdout) of every golden command, human-readable
    and --json, keyed by instance and command line without the file path."""
    got = {}
    for name, (make, policy) in GOLDEN_INSTANCES.items():
        path = write(directory, make(), "golden.json")
        for command in GOLDEN_COMMANDS:
            for extra in ([], ["--json"]):
                args = [a.format(policy=policy) for a in command[1:]] + extra
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main([command[0], path] + args)
                got[" ".join([name, command[0]] + args)] = (code, hashlib.sha256(out.getvalue().encode()).hexdigest())
    return got


# computed at commit 75f37b5, where `main` built a new parser on every call
GOLDEN_CLI_OUTPUTS = {
    'two_candidate() validate': (0, '7836c6e6e011c908d6d45c81c741a3c9a19d2de493a9a127172227203154cf7e'),
    'two_candidate() validate --json': (0, '2b549777a274a16dbbce6a798e4cc9dc21e15db870c6fd9a8f03e5cc6c42f154'),
    'two_candidate() width': (0, 'cfb7b341593ee16fa35ace46e2950530466575e0d61c7fcaaf82cb31d87bf0b4'),
    'two_candidate() width --json': (0, '33e0d35fa01ceaa2d69b78c2259de3032e0a17765e05baed2af93dbea7f7ff16'),
    'two_candidate() cover': (0, 'ca5fca04e01c79b990f647eed6a4b30fa59c0874a4fd8aa6012aeff1c63fae01'),
    'two_candidate() cover --json': (0, '3e80a73740a84eb17f75782dca476b6749ecd385e413c52b7ada93b82cf4f3d9'),
    'two_candidate() opt': (0, 'e93bd65ed88e37872e3e3199742d6ab6c2b823e4a7e4af836e6e9ef9bbbfcd5e'),
    'two_candidate() opt --json': (0, '37ca55fdf3dcbe33716a9a728b0ea6603a0682c8ee995a41f362f952685a11b8'),
    'two_candidate() xprobs': (0, '95ccd9af22df2067601e6d31df4f8484eb0e9dbe7fde90346db7bf796d073412'),
    'two_candidate() xprobs --json': (0, 'd4d6f407623e296f6f681e6387ea53c27cef5fb41c38d7b226f7a7cd134dba15'),
    'two_candidate() online-opt': (0, '3350f1982fce0b6fe398b023e32cdd2f6a8c6f41d461ff047433449ab8241dba'),
    'two_candidate() online-opt --json': (0, '8d2dfd503416a288e432b7cc0e05990d5b9b038539cbc99e87f9e34ebce19d2a'),
    'two_candidate() simulate --policy width1': (0, '2b344d0fe8308474ac267f61bdf8a0b03dea5cb3b258fd664ba468f2feda1d53'),
    'two_candidate() simulate --policy width1 --json': (0, '11f7bf95f61e1d3326bbe89b8cea73e2986778e5e8780cc5819b4890f7dbe519'),
    'two_candidate() simulate --policy width1 --mc --seed 7': (0, '3dc9ecea16d51c4be6153946c9883588eb3650346830a6319be4b2f5ce1c1a4b'),
    'two_candidate() simulate --policy width1 --mc --seed 7 --json': (0, 'aec9773b63242809b149dff8538b7e2ad72b7a43369feb5f2700c723fb8248e2'),
    'two_candidate() trace --policy width1 --seed 5': (0, '57f9f632627575e776a65c21392216b13c0e5f39fe6779fcdbfff97279ca6cde'),
    'two_candidate() trace --policy width1 --seed 5 --json': (0, 'de8c7bed4f7276b6d11288059fcfd56a9063f46cc1db34c30ab699e7b15f6562'),
    'dag_fuzz(7) validate': (0, '2b671bbee5f96400a94b720c88821f172837a8bcdebf9c3874429cf86fffbbb9'),
    'dag_fuzz(7) validate --json': (0, '2b8dd332fc6484f4983831efffc8370f11052acb6e6b22d06ef8b761b7e04fd3'),
    'dag_fuzz(7) width': (0, 'af47e6e733d1664f2bba51d74220cb350e02703f584a9b8784666853aa6a84ec'),
    'dag_fuzz(7) width --json': (0, '6176c9fa5b6045909cd2b76e7c6bc2671d161d32f484b8b4a78a5380cd847c82'),
    'dag_fuzz(7) cover': (0, '8e7f16ce9a4ec416fd9ee8c0d95724de70c6db988fc2c3aec01e356938e0ffa8'),
    'dag_fuzz(7) cover --json': (0, 'fe68d976797983f7879deaa81902d04c6456c7d54ac1b22b08e56400022522df'),
    'dag_fuzz(7) opt': (0, 'b488bf8e3d6af8838860972e03a89b8d2624e1bb2ea80b00f4d86e9712977c04'),
    'dag_fuzz(7) opt --json': (0, '685e38bb70d6f2810119660b12043d078b1e09643186b3bf5efb67f52d8a8e7a'),
    'dag_fuzz(7) xprobs': (0, '270f35776706f061b5cf70892747c696e0a2f3b8d01d0cdf26721c9049b99277'),
    'dag_fuzz(7) xprobs --json': (0, 'b4d2ad4498eaeeefe50578826569df559fb88a6439dac862b7863f0a32c769c8'),
    'dag_fuzz(7) online-opt': (0, 'd844d00c2c974047343f47ebf1a6e400a0a8b32f58dbe4debc2af06b61747671'),
    'dag_fuzz(7) online-opt --json': (0, '678ad126f24814fa7b9cf8f2d7e94dfa6714f20a6c1f92ecab2c73d9bbe23cc1'),
    'dag_fuzz(7) simulate --policy general': (0, '0b3bc5b652b5a8005192713132b004c01f93be75b85245b00d8fd3e46a47a340'),
    'dag_fuzz(7) simulate --policy general --json': (0, '17b15a18199f98ca3e96ad1be26ab679e2805151958dfba618f99b39042793da'),
    'dag_fuzz(7) simulate --policy general --mc --seed 7': (0, 'a237d0d21013aced9cde8dc525add3fff9b1ac19f198ed575b769e4aaccb228e'),
    'dag_fuzz(7) simulate --policy general --mc --seed 7 --json': (0, '5e6f8fefdef4bed6eacb8e5eedb49574eb7852d57642527d89b02d50f8b21c0b'),
    'dag_fuzz(7) trace --policy general --seed 5': (0, '59ecb5f6eeee6486fd8cfdbf04280b4b9c035727fec2c35791ef08b3398951a3'),
    'dag_fuzz(7) trace --policy general --seed 5 --json': (0, 'e90a486cd3da0d91cab05c0508046b6e657c9d94ca3cbec148cfd1581cf6949c'),
}


def test_cli_output_bytes_match_the_golden_digests(tmp_path):
    got = golden_outputs(tmp_path)
    assert len(got) == len(GOLDEN_CLI_OUTPUTS)
    changed = [key for key, value in got.items() if GOLDEN_CLI_OUTPUTS.get(key) != value]
    assert changed == []


def stdout_digest(argv):
    """(exit code, SHA-256 of stdout) of `argv`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


# computed at commit d7d6f74: command lines the goldens above leave out, as they are and with --json
MORE_GOLDEN_CLI_OUTPUTS = {
    'broken_instance() validate': (3, 'd97bcef181f3027aed81a0d9d90d74c4aded3d5fcbef68f27b707fde7a2cf046'),
    'broken_instance() validate --json': (3, 'bc3c24f0a298a86c7d615f94967b83d2cd6f593497db13dcf7c1581496cbe0eb'),
    'two_candidate() opt --mc --trials 200 --seed 7': (0, '7165da5be2fbd0a7ac10d1188cdd6451f67c6ea5bbd88a5d8256149300628dc2'),
    'two_candidate() opt --mc --trials 200 --seed 7 --json': (0, 'f67a2e9e8d132a400a576945b7b93f906e90b9873b4e7bccb521a5f2b259b931'),
    'two_candidate() simulate --policy width1 --online': (0, 'd781c61188cd5a277d8b41709d1c598fe2f01c0af013dd2a19e78d0dabfa9288'),
    'two_candidate() simulate --policy width1 --online --json': (0, '180eefa7e3ea6cb49898ebf575efa70c139a278b4594a0f9dbc59c0559d20532'),
    'dag_fuzz(7) opt --mc --trials 200 --seed 7': (0, '97b1ac7c228c6b0e6cd84b2f84cf8b4ec4e4c928af182bd7f4fc6be87491cd02'),
    'dag_fuzz(7) opt --mc --trials 200 --seed 7 --json': (0, 'd40ced679b8aa8e8e398e21b6e494a20cdb29d5b68f7c979502b10013bd4a4db'),
    'dag_fuzz(7) simulate --policy general --online': (0, '3722212acca7a7e4ae5a18de9d9fe50d3093cf454b697a4462289858873a3687'),
    'dag_fuzz(7) simulate --policy general --online --json': (0, 'c3942578f5b9553bc921e54c04ecf23e5b26369dd8c0c15aae7581232d1ecad1'),
    'two_candidate() validate, cap 1': (0, '329502be16033fb58eb9fda641fa02f44d3cdcc25bc53bb713f364408fd11628'),
    'two_candidate() validate, cap 1 --json': (0, '2f5f3b522133fefacccf9f32f8aa60d5759fae08aa5dbe646cf7b146bfdac479'),
}


def test_more_cli_output_bytes_match_their_digests(tmp_path, monkeypatch):
    runs = {"broken_instance() validate": ["validate", write(tmp_path, broken_instance(), "broken.json")]}
    for name, (make, policy) in GOLDEN_INSTANCES.items():
        path = write(tmp_path, make(), f"{policy}.json")
        for command in (["opt", "--mc", "--trials", "200", "--seed", "7"], ["simulate", "--policy", policy, "--online"]):
            runs[" ".join([name, *command])] = [command[0], path, *command[1:]]
    # the last run validates under a cap of 1, which adds the enumeration-cap warning
    runs["two_candidate() validate, cap 1"] = ["validate", write(tmp_path, two_candidate(), "two.json")]
    got = {}
    for key, argv in runs.items():
        if key.endswith("cap 1"):
            monkeypatch.setenv("PATHPROPHET_ENUM_CAP", "1")
        for extra in ([], ["--json"]):
            got[" ".join([key, *extra])] = stdout_digest(argv + extra)
    assert got == MORE_GOLDEN_CLI_OUTPUTS
