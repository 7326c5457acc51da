"""Monte Carlo streams pinned bit for bit.

The expected numbers were produced by the per-trial samplers that
predate the compiled focal walker (one `weighted_index` scan and one
conditional-law lookup per step, exact `Fraction` comparisons for the
coins), written here as `repr` floats and compared with `==`.  A change
in the documented draw order, in a coin threshold or in the rounding of
a trajectory value shows up here.
"""

from __future__ import annotations

import json

import pytest

from conftest import dag_fuzz, labeled_fuzz, ladder, strands_fuzz, width1_fuzz
from pathprophet import Oracle, instance_from_dict, instance_to_dict, min_path_cover, save_instance
from pathprophet.cli import main
from pathprophet.policies import feasibility_probabilities
from pathprophet.simulate import monte_carlo_estimate

CASES = {
    "width1": (width1_fuzz(59), (3.779375, 0.030177248287792207, 3.779375)),
    "width1-labeled": (labeled_fuzz(2), (4.305, 0.044340757288213184, 4.305)),
    "general": (dag_fuzz(35), (4.313125, 0.05044250267510346, 4.51625)),
    "disjoint": (strands_fuzz(31), (2.105625, 0.01956607015193588, 2.105625)),
}


def float_twin(inst):
    return instance_from_dict(json.loads(json.dumps(instance_to_dict(inst), default=float)))


@pytest.mark.parametrize("policy", sorted(CASES))
@pytest.mark.parametrize("half", ["frac", "float"])
def test_mc_estimate_is_pinned(policy, half):
    inst, want = CASES[policy]
    if half == "float":
        inst = float_twin(inst)
    r = monte_carlo_estimate(inst, policy, trials=400, seed=2024)
    assert (r.mean, r.std_err, r.realized_mean) == want


def test_staged_feasibility_is_pinned():
    inst = labeled_fuzz(2)
    focal = min_path_cover(inst).paths[0]
    mc = feasibility_probabilities(inst, focal, mode="mc", oracle=Oracle(inst), trials=300, seed=1025)
    assert mc.p == {
        0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 1.0, 7: 1.0,
        8: 0.8833333333333333, 9: 0.7566666666666667, 10: 1.0, 11: 0.87,
    }


def step(node, outcome, tentative, feasible, coin, taken):
    return {
        "node": node, "outcome": outcome, "tentative": tentative,
        "feasible": feasible, "coin": coin, "taken": taken,
    }


TRACES = {
    # an accepted bypass, bookkeeping coins on path edges, an infeasible tentative
    "width1-labeled": (labeled_fuzz(2), [10, 1, 2, 3, 4], 4.0, None, [
        step("v0", 0, 10, True, 0.2528592301758671, 10),
        step("v1", 0, 1, True, 0.43500381534736, 1),
        step("v2", 1, 11, False, None, 2),
        step("v3", 1, 3, True, 0.45201746997948344, 3),
        step("v4", 0, 4, True, 0.638598035551405, 4),
    ]),
    # contracted edge ids in the steps, replayed real edges in `edges`
    "general": (dag_fuzz(35), [1, 8, 6, 7], 4.5, 1, [
        step("s", 0, 0, True, 0.42923593100163193, 1),
        step("v1", 0, 6, True, 0.07882175646654876, 6),
        step("v3", 0, 8, True, 0.8369544867906306, 7),
        step("v4", 1, 9, True, 0.4369728195369288, 9),
    ]),
    # taken at commit 0aa977a: the rung a0 -> b1 (real edge 18), then the 7-edge connector b1 -> ... -> t
    "general/ladder(8)": (ladder(8), [0, 18, 11, 12, 13, 14, 15, 16, 17], 6.666666666666666, 0, [
        step("s", 0, 0, True, 0.05796346851470513, 0),
        step("a0", 0, 3, True, 0.12568793055335237, 3),
    ]),
}


@pytest.mark.parametrize("case", sorted(TRACES))
def test_trace_steps_are_pinned(case, tmp_path, capsys):
    inst, edges, value, sub_index, steps = TRACES[case]
    policy = case.split("/")[0]
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert main(["trace", str(path), "--policy", policy, "--seed", "5", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["edges"] == edges
    assert obj["value"] == value
    assert obj["sub_index"] == sub_index
    assert obj["steps"] == steps
