"""Answer checks that decide which timed jobs count as failed.

Every expected value comes from outside the code under test or is
pinned to the commit that defined the benchmark:

* for the default seed, exact values of the `Fraction` half equal, as
  fractions, the committed reference (`reference.json`), and MC means
  equal theirs within 1e-9 relative (a draw-order change shows here);
* every float twin is within 1e-9 relative of its `Fraction` answer;
* closed-form metadata of the named families holds (`expected_opt`,
  `online_opt`, grid's `opt_lower_bound`);
* for every seed, an MC mean lies within 4 standard errors of the exact
  policy value, computed after the timed phase, unless an independent
  rerun with four times the trials misses it by as much (a sampler that
  is off stays off in the rerun; a chance miss does not repeat);
* the report's own guarantee verdict holds and every pass of a job
  returns the same answer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from workloads import sub_seed

DEFAULT_SEED = 0
REL = 1e-9
SE_WIDTH = 4
RERUN_TRIALS_FACTOR = 4
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
ANSWER_KEYS = ("e_alg", "e_opt", "online_opt")


@dataclass(slots=True)
class Attempt:
    """One timed call: a job in one half during one pass."""

    seconds: float
    answer: dict[str, Any] | None
    error: str | None = None
    traced: bool = False
    layers: dict[str, float] | None = None
    problems: list[str] = field(default_factory=list)


def answer_from_report(rep: Any) -> dict[str, Any]:
    return {
        "e_alg": rep.e_alg, "e_opt": rep.e_opt, "online_opt": rep.online_opt,
        "std_err": rep.std_err, "bound_ok": rep.bound_ok, "width": rep.width,
        "params": rep.params,
    }


def answer_from_cli(doc: dict[str, Any]) -> dict[str, Any]:
    return {
        "e_alg": doc["e_alg"], "e_opt": doc["e_opt"], "online_opt": doc.get("online_opt"),
        "std_err": doc.get("std_err"), "bound_ok": doc["bound_ok"], "width": doc["width"],
        "params": doc["params"],
    }


def close(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


def frac_str(x: Any) -> str | None:
    if x is None:
        return None
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def load_reference(workload: str) -> dict[str, Any] | None:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


def exact_values(api: Any, job: Any) -> dict[str, Any]:
    """Exact answers of a job's `Fraction` instance from the public API."""
    out = {"e_alg": api.simulate.exact_policy_value(job.frac, job.policy)}
    if job.mode == "exact":
        out["e_opt"] = api.oracle.expected_opt(job.frac)
        out["online_opt"] = api.oracle.optimal_online_value(job.frac) if job.include_online else None
    return out


def _meta_problems(meta: dict[str, Any], ans: dict[str, Any]) -> list[str]:
    out = []
    if "expected_opt" in meta and not close(ans["e_opt"], float(meta["expected_opt"])):
        out.append(f"e_opt {ans['e_opt']!r} != closed form {float(meta['expected_opt'])!r}")
    if "online_opt" in meta and ans["online_opt"] is not None and not close(ans["online_opt"], float(meta["online_opt"])):
        out.append(f"online_opt {ans['online_opt']!r} != closed form {float(meta['online_opt'])!r}")
    if "opt_lower_bound" in meta and ans["e_opt"] < float(meta["opt_lower_bound"]) - 1e-9:
        out.append(f"e_opt {ans['e_opt']!r} below closed-form bound {float(meta['opt_lower_bound'])!r}")
    return out


def _reference_problems(job: Any, ans: dict[str, Any], ref: dict[str, Any]) -> list[str]:
    if job.mode == "mc":
        return [] if close(ans["e_alg"], ref["mean"]) else [f"MC mean {ans['e_alg']!r} != reference {ref['mean']!r}"]
    out = []
    for k in ANSWER_KEYS:
        want = None if ref[k] is None else float(Fraction(ref[k]))
        if ans[k] != want:
            out.append(f"{k} {ans[k]!r} != reference {want!r}")
    return out


def _mc_problem(api: Any, job: Any, inst: Any, ans: dict[str, Any], want: float) -> str | None:
    """A mean more than 4 SE from the exact value fails only when an
    independent rerun with four times the trials is also more than 4 SE
    off.  At 500 trials a correct sampler misses by that much once in
    about 16,000 jobs, so a 20-job workload would report a false
    failure every eight hundred runs or so without the rerun."""
    if abs(ans["e_alg"] - want) <= SE_WIDTH * ans["std_err"] + 1e-9:
        return None
    trials = RERUN_TRIALS_FACTOR * job.trials
    rerun = api.simulate.monte_carlo_estimate(inst, job.policy, trials, sub_seed(job.mc_seed, "rerun"))
    if abs(rerun.mean - want) <= SE_WIDTH * rerun.std_err + 1e-9:
        return None
    return (f"MC mean {ans['e_alg']!r} and the {trials}-trial rerun mean {rerun.mean!r} "
            f"are both more than {SE_WIDTH} SE from exact {want!r}")


def check(
    api: Any,
    jobs: list[Any],
    attempts: dict[str, list[list[Attempt]]],
    seed: int,
    fingerprint: str,
    reference: dict[str, Any] | None,
) -> None:
    """Fill `problems` on every attempt; an attempt with problems failed.

    Runs after the timed phase.  Exact values are computed here for MC
    jobs, and for every job under the default seed; `reference` is this
    workload's committed reference.
    """
    pinned = reference if seed == DEFAULT_SEED else None
    if pinned is not None and pinned["fingerprint"] != fingerprint:
        pinned_problem = "inputs differ from the reference inputs for the default seed"
    else:
        pinned_problem = None
    for j, job in enumerate(jobs):
        meta = dict(job.frac.meta or {})
        ref = pinned["jobs"].get(job.key) if pinned is not None and pinned_problem is None else None
        exact = exact_problem = None
        if job.mode == "mc" or pinned is not None:
            try:
                exact = exact_values(api, job)
            except Exception as exc:  # the program failed on this input; the job fails, the check goes on
                exact_problem = f"exact values raised {type(exc).__name__}: {exc}"
        if ref is not None and exact is not None:
            pairs = [("exact_alg", "e_alg")] if job.mode == "mc" else [(k, k) for k in ANSWER_KEYS]
            bad = [k for rk, k in pairs if frac_str(exact[k]) != ref[rk]]
            if bad:
                exact_problem = "exact " + ", ".join(bad) + " differ from the reference fractions"
        mc_problems: dict[tuple, str | None] = {}
        for half in ("frac", "float"):
            first = None
            for p, att in enumerate(attempts[half][j]):
                if att.error is not None:
                    att.problems.append(att.error)
                    continue
                ans = att.answer
                if not ans["bound_ok"]:
                    att.problems.append("guarantee verdict bound_ok is False")
                if first is None:
                    first = ans
                elif ans != first:
                    att.problems.append("answer differs from the first pass")
                att.problems.extend(_meta_problems(meta, ans))
                if half == "float":
                    twin = attempts["frac"][j][p].answer
                    if twin is not None and not all(close(ans[k], twin[k]) for k in ANSWER_KEYS):
                        att.problems.append("float twin disagrees with the Fraction answer")
                else:
                    if pinned_problem is not None:
                        att.problems.append(pinned_problem)
                    if ref is not None:
                        att.problems.extend(_reference_problems(job, ans, ref))
                    if exact_problem is not None:
                        att.problems.append(exact_problem)
                if job.mode == "mc" and exact is not None:
                    key = (half, ans["e_alg"], ans["std_err"])
                    if key not in mc_problems:
                        inst = job.frac if half == "frac" else job.twin
                        mc_problems[key] = _mc_problem(api, job, inst, ans, float(exact["e_alg"]))
                    if mc_problems[key] is not None:
                        att.problems.append(mc_problems[key])
