"""Exact evaluation, Monte Carlo estimation, and competitive reports.

Each entry point takes a policy name and prepares it with
`policies.prepare_policy`; this module only evaluates and reports.  A
caller with its own cover prepares with `prepare_policy(inst, name,
cover)` and reads `exact_value()` or passes the result as `prepared=`;
`competitive_report` also takes `cover`.

Monte Carlo runs are reproducible to the bit: trial j draws from
random.Random seeded by derive_seed(master, "traj", j), so the same
master seed always yields the same trajectories, mean, and standard
error, regardless of how many other runs happened in between.  An
estimate holds one stream (`util.trial_streams`) and reseeds it per
trial, which draws the same numbers as a fresh generator per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

from .cover import PathCover
from .errors import PolicyError
from .model import Instance
from .policies import PreparedPolicy, prepare_policy
from .util import sample_stdev, stable_sum, trial_streams


def exact_policy_value(inst: Instance, policy: str) -> float:
    """Exact expected value of a policy.  For the general policy this
    is the certified value: the mean of the k contracted runs, which
    ignores (nonnegative) connector pickups during replay."""
    return prepare_policy(inst, policy).exact_value()


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


def monte_carlo_estimate(
    inst: Instance,
    policy: str,
    trials: int,
    seed: int,
    *,
    prepared: PreparedPolicy | None = None,
) -> PolicyRunReport:
    """Estimate a policy's expected value from independent trajectories.

    For the general policy the estimate averages the contracted-run
    values (the certified quantity matching exact_policy_value);
    realized_mean additionally counts connector values picked up during
    replay and is never smaller.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    prep = prepared if prepared is not None else prepare_policy(inst, policy)
    trial = prep.sampler().trial
    realized, certified = zip(*[trial(rng) for rng in trial_streams(trials, seed, "traj")])
    mean = stable_sum(certified) / trials
    se = sample_stdev(certified) / math.sqrt(trials) if trials > 1 else 0.0
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

    def to_dict(self) -> dict[str, Any]:
        """The fields in order, without `online_opt` when it is None and
        without the Monte Carlo fields outside mc mode.  A shallow copy:
        `dataclasses.asdict` deep-copies `params`, at about 60 us a call
        where this takes 4."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.online_opt is None:
            del out["online_opt"]
        if self.mode != "mc":
            for key in ("trials", "seed", "std_err", "realized_mean"):
                del out[key]
        return out


def competitive_report(
    inst: Instance,
    policy: str,
    mode: str = "exact",
    trials: int | None = None,
    seed: int | None = None,
    cover: PathCover | None = None,
    include_online: bool = False,
) -> CompetitiveReport:
    """Bundle E(ALG) against E(OPT), the policy's guarantee, and a
    pass/fail flag.  Exact mode checks e_alg >= bound * e_opt - 1e-9;
    MC mode grants the estimate four standard errors of slack."""
    prep = prepare_policy(inst, policy, cover)
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
    online = float(prep.oracle.optimal_online_value()) if include_online else None
    ratio = e_alg / e_opt if e_opt > 0 else None
    if mode == "exact" and ratio is not None and ratio > 1 + 1e-9:
        raise PolicyError(f"exact ratio {ratio:.12g} exceeds 1; evaluation is inconsistent")
    slack = 1e-9 if mode == "exact" else 4 * (std_err or 0.0) + 1e-9
    bound_ok = e_alg >= prep.bound * e_opt - slack
    d = inst.max_labels_per_edge
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
        d=d,
        params={"width": prep.width, "d": d, **prep.params},
        online_opt=online,
        trials=trials if mode == "mc" else None,
        seed=seed if mode == "mc" else None,
        std_err=std_err,
        realized_mean=realized,
    )
