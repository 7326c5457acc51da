"""Exact evaluation, Monte Carlo estimation, and competitive reports.

Monte Carlo runs are reproducible to the bit: trial j draws from
random.Random seeded by derive_seed(master, "traj", j), so the same
master seed always yields the same trajectories, mean, and standard
error, regardless of how many other runs happened in between.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Any

import random

from .cover import PathCover, min_path_cover
from .errors import PolicyError
from .model import Instance
from .oracle import OPT, Oracle
from .policies import (
    FocalWalker,
    PolicyWalk,
    Trajectory,
    alpha_schedule,
    build_disjoint_plan,
    disjoint_walk,
    evaluate_focal_policy,
    exact_disjoint_value,
    exact_general_cover_value,
    feasibility_probabilities,
    general_cover_walk,
    prepare_general_cover,
)
from .util import derive_seed, stable_sum

POLICIES = ("width1", "width1-labeled", "general", "disjoint")


class _Prepared:
    """Per-(instance, policy) machinery shared by exact and MC paths."""

    def __init__(
        self,
        inst: Instance,
        policy: str,
        cover: PathCover | None,
        cover_seed: int | None,
    ):
        self.inst = inst
        self.policy = policy
        self.oracle = Oracle(inst)
        d = inst.max_labels_per_edge
        if policy in ("width1", "width1-labeled"):
            cov = cover if cover is not None else min_path_cover(inst, cover_seed)
            if cov.width != 1:
                raise PolicyError(
                    f"{policy} needs a width-1 instance; this cover has {cov.width} paths"
                )
            self.focal = cov.paths[0]
            self.width = 1
            if policy == "width1":
                self.schedule = alpha_schedule(
                    inst, self.focal, self.oracle.edge_probabilities(OPT), 0
                )
                self.bound = 0.5
                self.bound_label = "1/2"
            else:
                self.probs = feasibility_probabilities(inst, self.focal, oracle=self.oracle)
                self.bound = 1 / (d + 2)
                self.bound_label = "1/(d+2)"
        elif policy == "general":
            self.prepared = prepare_general_cover(inst, cover, cover_seed=cover_seed)
            self.width = self.prepared.width
            self.bound = 1 / (self.width * (d + 2))
            self.bound_label = "1/(k(d+2))"
        elif policy == "disjoint":
            self.plan = build_disjoint_plan(inst, cover, oracle=self.oracle, cover_seed=cover_seed)
            self.width = self.plan.cover.width
            self.bound = 1 / (self.width + 1)
            self.bound_label = "1/(k+1)"
        else:
            raise ValueError(f"unknown policy {policy!r}; known: {', '.join(POLICIES)}")
        self.d = d
        self._walk: PolicyWalk | None = None

    def exact_value(self) -> float:
        if self.policy == "width1":
            return evaluate_focal_policy(
                self.inst, self.focal, self.oracle, schedule=self.schedule
            ).value
        if self.policy == "width1-labeled":
            return evaluate_focal_policy(self.inst, self.focal, self.oracle).value
        if self.policy == "general":
            return exact_general_cover_value(self.prepared)[0]
        return exact_disjoint_value(self.inst, self.plan, self.oracle)

    def run(self, rng: random.Random, realization=None, record: bool = True) -> Trajectory:
        """One trajectory; the sampler is compiled on the first call."""
        if self._walk is None:
            self._walk = self._compile()
        return self._walk.run(rng, realization, record)

    def _compile(self) -> PolicyWalk:
        if self.policy == "general":
            return general_cover_walk(self.inst, self.prepared)
        if self.policy == "disjoint":
            return disjoint_walk(self.inst, self.plan, self.oracle)
        rule = self.schedule if self.policy == "width1" else self.probs
        return PolicyWalk(self.inst, [FocalWalker(self.inst, self.focal, self.oracle, OPT, rule)])

    def params(self) -> dict[str, Any]:
        out: dict[str, Any] = {"width": self.width, "d": self.d}
        if self.policy in ("width1", "width1-labeled"):
            out["focal"] = list(self.focal)
        elif self.policy == "general":
            out["cover"] = [list(p) for p in self.prepared.cover.paths]
        else:
            out["cover"] = [list(p) for p in self.plan.cover.paths]
            out["strand"] = self.plan.i_star
            out["q"] = self.plan.q[self.plan.i_star]
        return out


def exact_policy_value(
    inst: Instance,
    policy: str,
    cover: PathCover | None = None,
    cover_seed: int | None = None,
) -> float:
    """Exact expected value of a policy.  For the general policy this
    is the certified value: the mean of the k contracted runs, which
    ignores (nonnegative) connector pickups during replay."""
    return _Prepared(inst, policy, cover, cover_seed).exact_value()


@dataclass(frozen=True)
class PolicyRunReport:
    """Monte Carlo summary; identical master seeds give identical reports."""

    policy: str
    trials: int
    seed: int
    mean: float
    std_err: float
    realized_mean: float  # includes connector pickups for the general policy

    def to_dict(self) -> dict[str, Any]:
        return {
            "policy": self.policy,
            "trials": self.trials,
            "seed": self.seed,
            "mean": self.mean,
            "std_err": self.std_err,
            "realized_mean": self.realized_mean,
        }


def monte_carlo_estimate(
    inst: Instance,
    policy: str,
    trials: int,
    seed: int,
    cover: PathCover | None = None,
    cover_seed: int | None = None,
    *,
    prepared: "_Prepared | None" = None,
) -> PolicyRunReport:
    """Estimate a policy's expected value from independent trajectories.

    For the general policy the estimate averages the contracted-run
    values (the certified quantity matching exact_policy_value);
    realized_mean additionally counts connector values picked up during
    replay and is never smaller.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    prep = prepared if prepared is not None else _Prepared(inst, policy, cover, cover_seed)
    certified = []
    realized = []
    for j in range(trials):
        rng = random.Random(derive_seed(seed, "traj", j))
        traj = prep.run(rng, record=False)
        realized.append(traj.value)
        certified.append(traj.inner_value if traj.inner_value is not None else traj.value)
    mean = stable_sum(certified) / trials
    se = statistics.stdev(certified) / math.sqrt(trials) if trials > 1 else 0.0
    return PolicyRunReport(
        policy=policy,
        trials=trials,
        seed=seed,
        mean=mean,
        std_err=se,
        realized_mean=stable_sum(realized) / trials,
    )


@dataclass(frozen=True)
class CompetitiveReport:
    """One policy versus the prophet on one instance."""

    policy: str
    mode: str  # "exact" or "mc"
    e_alg: float
    e_opt: float
    ratio: float | None
    bound: float
    bound_label: str
    bound_ok: bool
    width: int
    d: int
    params: dict[str, Any]
    online_opt: float | None = None
    trials: int | None = None
    seed: int | None = None
    std_err: float | None = None
    realized_mean: float | None = None
    wall_clock: float = 0.0  # informational; excluded from reproducibility

    def to_dict(self) -> dict[str, Any]:
        out = {
            "policy": self.policy,
            "mode": self.mode,
            "e_alg": self.e_alg,
            "e_opt": self.e_opt,
            "ratio": self.ratio,
            "bound": self.bound,
            "bound_label": self.bound_label,
            "bound_ok": self.bound_ok,
            "width": self.width,
            "d": self.d,
            "params": self.params,
        }
        if self.online_opt is not None:
            out["online_opt"] = self.online_opt
        if self.mode == "mc":
            out["trials"] = self.trials
            out["seed"] = self.seed
            out["std_err"] = self.std_err
            out["realized_mean"] = self.realized_mean
        return out


def competitive_report(
    inst: Instance,
    policy: str,
    mode: str = "exact",
    trials: int | None = None,
    seed: int | None = None,
    cover: PathCover | None = None,
    cover_seed: int | None = None,
    include_online: bool = False,
    state_cap: int | None = None,
) -> CompetitiveReport:
    """Bundle E(ALG) against E(OPT), the policy's guarantee, and a
    pass/fail flag.  Exact mode checks e_alg >= bound * e_opt - 1e-9;
    MC mode grants the estimate four standard errors of slack."""
    start = time.perf_counter()
    prep = _Prepared(inst, policy, cover, cover_seed)
    e_opt = float(prep.oracle.expected_opt())
    run_report = None
    if mode == "exact":
        e_alg = float(prep.exact_value())
        std_err = None
        realized = None
    elif mode == "mc":
        if trials is None or seed is None:
            raise ValueError("mc mode needs trials and seed")
        run_report = monte_carlo_estimate(inst, policy, trials, seed, prepared=prep)
        e_alg = run_report.mean
        std_err = run_report.std_err
        realized = run_report.realized_mean
    else:
        raise ValueError(f"unknown mode {mode!r}")
    online = float(prep.oracle.optimal_online_value(state_cap)) if include_online else None
    ratio = e_alg / e_opt if e_opt > 0 else None
    if mode == "exact" and ratio is not None and ratio > 1 + 1e-9:
        raise PolicyError(f"exact ratio {ratio:.12g} exceeds 1; evaluation is inconsistent")
    slack = 1e-9 if mode == "exact" else 4 * (std_err or 0.0) + 1e-9
    bound_ok = e_alg >= prep.bound * e_opt - slack
    return CompetitiveReport(
        policy=policy,
        mode=mode,
        e_alg=e_alg,
        e_opt=e_opt,
        ratio=ratio,
        bound=prep.bound,
        bound_label=prep.bound_label,
        bound_ok=bound_ok,
        width=prep.width,
        d=prep.d,
        params=prep.params(),
        online_opt=online,
        trials=trials if mode == "mc" else None,
        seed=seed if mode == "mc" else None,
        std_err=std_err,
        realized_mean=realized,
        wall_clock=time.perf_counter() - start,
    )
