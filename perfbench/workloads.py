"""Seeded job lists for the three benchmark workloads.

A job is one user request: a competitive report for one instance and
one policy.  Every job has two twins that the benchmark interleaves:
the generator's exact `Fraction` instance (entered through the
library) and its JSON round trip with float tables (what every file
and CLI user gets).  Inputs depend only on the workload seed; the
program under test receives the generated instances and nothing else.

Job costs are held steady across seeds on purpose: named families keep
their shape and draw only their values from the seed, and random
instances are drawn until their size (node count, realization count,
cover width) falls in a fixed band.  A seed therefore changes what is
computed but hardly how much.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("prophet-enum", "mc-walk", "exact-sweep")
MC_TRIALS = 500
MC_JOBS_PER_POLICY = 5
SWEEP_JOBS_PER_POLICY = 36


@dataclass
class Job:
    key: str
    policy: str
    frac: Any  # pathprophet.Instance with exact Fraction tables
    twin: Any  # its JSON round trip, float tables
    mode: str = "exact"
    trials: int | None = None
    mc_seed: int | None = None
    include_online: bool = False
    cli_path: str | None = None  # float twin goes through the CLI when set
    work: dict[str, int] = field(default_factory=dict)


def sub_seed(seed: int, *parts: object) -> int:
    """64-bit seed from the workload seed and a path of parts; kept in
    the benchmark so that the program's own seeding cannot move inputs."""
    h = hashlib.sha256(str(seed).encode())
    for part in parts:
        h.update(b"/" + str(part).encode())
    return int.from_bytes(h.digest()[:8], "big")


class Generator:
    """Calls into `pathprophet.instances`, timing every call."""

    def __init__(self, api: Any, seed: int, workload: str):
        self.api = api
        self.rng = random.Random(sub_seed(seed, "perfbench", workload))
        self.seconds = 0.0

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0

    def family(self, name: str, **params: Any) -> Any:
        return self.call(self.api.instances.generate_paper_instance, name, **params)

    def random_shape(
        self,
        shape: str,
        n_nodes: int,
        max_outcomes: int,
        d: int,
        realizations: tuple[int, int],
        width: int | None = None,
    ) -> Any:
        """First seeded random instance whose realization count lies in
        [lo, hi), whose d labels all bind with capacity 1 (so the label
        state space is always 2^d) and whose minimum cover has `width`
        paths."""
        lo, hi = realizations
        for _ in range(5000):
            inst = self.call(
                self.api.instances.generate_random_instance,
                self.rng.randrange(2**32), shape, n_nodes, max_outcomes, d,
            )
            if not lo <= self.api.model.realization_count(inst) < hi:
                continue
            if [cap for _, cap in self.api.model.active_label_caps(inst)] != [1] * d:
                continue
            if width is None or self.api.cover.min_path_cover(inst).width == width:
                return inst
        raise RuntimeError(
            f"no {shape} instance with {n_nodes} nodes, {lo}..{hi} realizations, width {width}"
        )

    def binary_dist(self, scale: int = 1) -> list[tuple[Fraction, Fraction]]:
        """Two dyadic rows: a zero and a positive value."""
        c = self.rng.randrange(1, 8)
        return [(Fraction(c, 8), Fraction(0)), (Fraction(8 - c, 8), Fraction(self.rng.randrange(1, 7) * scale, 4))]

    def eps(self) -> Fraction:
        return Fraction(self.rng.randrange(1, 8), 16)


def float_twin(api: Any, inst: Any) -> Any:
    """What a file user gets: instance_to_dict -> JSON text -> instance."""
    text = json.dumps(api.model.instance_to_dict(inst), sort_keys=True, default=float)
    return api.model.instance_from_dict(json.loads(text))


# -- the three job lists ------------------------------------------------------


def _prophet_enum(g: Generator) -> list[tuple[str, str, Any, dict]]:
    """Exact reports with the online DP on a realization ladder of
    2^7..2^10, thirteen jobs of at most about 0.15 s, so that a run
    makes a dozen passes or more and every job finds a fast spell of the
    host for its fastest pass; a larger job would take a large share of
    each pass and rarely get a fast spell to itself.  The three equal mchoice(9,3) jobs are the
    dearest in the float half and share the top with markets(4) in the
    Fraction half, so the p90 falls inside one group of like jobs.  The
    four random shapes are the cheapest jobs in both halves and the two
    markets jobs sit above the four vertex-matching jobs in the Fraction
    half but below them in the float half, so the median (7th of 13)
    falls inside the vertex-matching group in both and hardly depends on
    which random shapes a seed draws."""
    out = []
    for c in range(3):
        inst = g.family("mchoice", n=9, m=3, dist=g.binary_dist())
        out.append((f"mchoice(9,3)#{c}", "width1-labeled", inst, {}))
    for c in range(4):
        inst = g.family("vertex-matching", bidders=8, items=2, seed=g.rng.randrange(2**32))
        out.append((f"vertex-matching(8,2)#{c}", "width1-labeled", inst, {}))
    inst = g.family("markets", periods=3, dists=[(g.binary_dist(), g.binary_dist(2)) for _ in range(3)])
    out.append(("markets(3)", "general", inst, {}))
    # periods 1-2 with fixed one-period values keep markets(4) at 2^10
    fixed = [(Fraction(1), Fraction(1, 2))]
    dists = [(fixed, g.binary_dist(2)) for _ in range(2)] + [(g.binary_dist(), g.binary_dist(2)) for _ in range(2)]
    out.append(("markets(4)", "general", g.family("markets", periods=4, dists=dists), {}))
    for c in range(2):
        inst = g.random_shape("dag", 9, 3, 1, (128, 256), width=2)
        out.append((f"dag-d1#{c}", "general", inst, {}))
    for c in range(2):
        inst = g.random_shape("strands", 9, 4, 0, (128, 256), width=3)
        out.append((f"strands#{c}", "disjoint", inst, {}))
    return out


# policy -> (random shape it runs on, label count d of the j-th instance)
POLICY_SHAPES = {
    "width1": ("width1", lambda j: 0),
    "width1-labeled": ("width1", lambda j: 1 + j % 2),
    "general": ("dag", lambda j: j % 3),
    "disjoint": ("strands", lambda j: 0),
}
SHAPE_WIDTH = {"width1": 1, "dag": 2, "strands": 2}


def _mc_walk(g: Generator) -> list[tuple[str, str, Any, dict]]:
    """Monte Carlo reports on small random instances, five per policy,
    few enough that a run makes about a dozen passes to take each job's
    fastest from: 6 to 10 nodes and 32 to 159 realizations, so that the
    trajectory sampler rather than oracle preparation dominates."""
    out = []
    for j in range(MC_JOBS_PER_POLICY):
        n = 6 + j % 5
        for policy, (shape, d_of) in POLICY_SHAPES.items():
            d = d_of(j)
            inst = g.random_shape(shape, n, 3, d, (32, 160), width=SHAPE_WIDTH[shape])
            params = {"mode": "mc", "trials": MC_TRIALS, "mc_seed": g.rng.randrange(2**32)}
            out.append((f"{policy}/{shape}-n{n}-d{d}#{j}", policy, inst, params))
    return out


def _exact_sweep(g: Generator) -> list[tuple[str, str, Any, dict]]:
    """Many tiny exact reports shaped like the fuzz corpus (4-9 nodes,
    1-3 outcomes, d 0-2), plus the closed-form families.  Instances
    with more than one outcome per node have 8 to 16 realizations, so
    that enumeration stays small and its size varies little by seed."""
    out = []
    for j in range(SWEEP_JOBS_PER_POLICY):
        n = 4 + j % 6
        outcomes = 1 + (j // 6) % 3
        for policy, (shape, d_of) in POLICY_SHAPES.items():
            d = d_of(j)
            band = (1, 2) if outcomes == 1 else (8, 17)
            inst = g.random_shape(shape, n, outcomes, d, band, width=SHAPE_WIDTH[shape])
            out.append((f"{policy}/{shape}-n{n}-o{outcomes}-d{d}#{j}", policy, inst, {}))
    out.append(("two-candidate", "width1", g.family("two-candidate", eps=g.eps()), {}))
    out.append(("upper49", "width1-labeled", g.family("upper49", eps=g.eps()), {"include_online": True}))
    out.append(("kplus1", "disjoint", g.family("kplus1", k=3, eps=g.eps()), {"include_online": True}))
    out.append(("grid", "general", g.family("grid", k=3, eps=Fraction(1, 64)), {}))
    return out


_JOB_LISTS = {"prophet-enum": _prophet_enum, "mc-walk": _mc_walk, "exact-sweep": _exact_sweep}


def build_jobs(api: Any, workload: str, seed: int, scratch: str | None) -> tuple[list[Job], Generator]:
    """Generate a workload's jobs; for exact-sweep also write each float
    twin to `scratch` so its float half can go through the CLI."""
    g = Generator(api, seed, workload)
    jobs = []
    for i, (key, policy, inst, params) in enumerate(_JOB_LISTS[workload](g)):
        online = params.get("include_online", workload == "prophet-enum")
        job = Job(key, policy, inst, float_twin(api, inst), include_online=online,
                  mode=params.get("mode", "exact"), trials=params.get("trials"),
                  mc_seed=params.get("mc_seed"))
        if workload == "exact-sweep":
            job.cli_path = os.path.join(scratch, f"job{i:03d}.json")
            api.model.save_instance(inst, job.cli_path)
        jobs.append(job)
    return jobs, g


# -- fingerprint ---------------------------------------------------------------


def _canon(x: Any) -> Any:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple, frozenset, set)):
        items = sorted(x) if isinstance(x, (frozenset, set)) else x
        return [_canon(v) for v in items]
    return x


def instance_canon(inst: Any) -> dict[str, Any]:
    """Canonical form built from the Instance fields, independent of the
    package's own serializer."""
    return _canon({
        "nodes": list(inst.nodes),
        "labels": dict(inst.labels),
        "edges": [[e.id, e.src, e.dst, sorted(e.labels)] for e in inst.edges],
        "tables": [[[o.p, dict(o.values)] for o in table] for table in inst.tables],
        "meta": dict(inst.meta or {}),
    })


def fingerprint(jobs: list[Job]) -> str:
    """SHA-256 of the canonical JSON of every generated input, in job order."""
    h = hashlib.sha256()
    for job in jobs:
        doc = {
            "key": job.key, "policy": job.policy, "mode": job.mode, "trials": job.trials,
            "mc_seed": job.mc_seed, "include_online": job.include_online,
            "cli": job.cli_path is not None,
            "frac": instance_canon(job.frac), "float": instance_canon(job.twin),
        }
        h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


# -- work counts from public functions -----------------------------------------


def work_counts(api: Any, job: Job) -> dict[str, int]:
    """Input sizes a job implies, from public functions only."""
    inst = job.frac
    states = len(inst.nodes)
    for _, cap in api.model.active_label_caps(inst):
        states *= cap + 1
    return {
        "realization_count": api.model.realization_count(inst),
        "online_states": states if job.include_online else 0,
        "cover_width": api.cover.min_path_cover(inst).width,
        "trials": job.trials or 0,
    }


def focal_length(params: dict[str, Any]) -> int:
    """Edges on the focal path a report walked (the chosen strand for
    disjoint, the longest cover path for general)."""
    if "focal" in params:
        return len(params["focal"])
    cover = params.get("cover") or [[]]
    if "strand" in params:
        return len(cover[params["strand"]])
    return max(len(p) for p in cover)
