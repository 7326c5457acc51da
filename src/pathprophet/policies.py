"""Online walking policies with exact selection-probability machinery.

All four policies share one idea: walk a focal source-sink path, at
each node draw a "tentative" edge from the offline baseline's choice
law conditioned on the node's freshly observed outcome, and accept the
tentative edge with a carefully chosen probability.  The differences
are in how the acceptance probability is set and in how a focal path
is obtained on graphs wider than one path.

A prepared policy (`PreparedPolicy`) is a list of focal runs with its
guarantee: one run on the instance for `width1`, `width1-labeled` and
`disjoint`, one per cover path's contraction for `general`.
`prepare_policy` builds it from a registry of one prepare function per
name, which also gives `POLICIES`.

The module provides two views of every focal run:

* one sampler, `FocalWalker`, that walks one trajectory with an
  explicit `random.Random`; every `run_*` function and the staged Monte
  Carlo mode of `feasibility_probabilities` drive it.  Its float tables
  are compiled by `PreparedPolicy.sampler` (a `PolicyWalk`), once per
  Monte Carlo estimate, and never in exact mode.
* an exact engine (`evaluate_focal_policy`) that pushes the full
  distribution of the walker's (position, label usage) state forward
  along the focal path, folding outcome tables and acceptance coins
  analytically.  Tentative draws are conditionally independent of the
  walker's state given the node outcome, so the forward pass is exact,
  not an approximation.

Draw order of one trial, which a fixed seed reproduces bit for bit:
one uniform per node that has an outcome table, in node order (unless a
realization is supplied); then `randrange(k)` for the general policy;
then per visited node one uniform for the tentative edge and a coin by
the acceptance rule.  The alpha rule (`width1`, `disjoint`) draws a
coin for every bypass tentative.  The labeled rule (`width1-labeled`,
`general`) draws a bookkeeping coin for a path-edge tentative and a
coin for a bypass tentative with capacity left.  The staged rule of MC
feasibility draws a coin only for a bypass tentative with capacity
left and an acceptance already estimated.  A coin is compared against
`exact_threshold` of the acceptance probability, which decides exactly
as the exact (possibly `Fraction`) probability would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from .cover import PathCover, min_path_cover, shortest_unlabeled_path
from .errors import CoverError, InvalidInstanceError, PolicyError, ScheduleError
from .model import Instance, Realization, active_label_caps
from .oracle import OPT, EdgeProbabilities, OfflineSpec, Oracle, restricted_spec
from .util import TOL, cumulative, derive_seed, exact_threshold, pick, stable_sum


def path_nodes(inst: Instance, focal: Sequence[int]) -> tuple[str, ...]:
    """Node sequence of a focal path, validating that it chains from
    source to sink."""
    if not focal:
        raise PolicyError("focal path must contain at least one edge")
    seq = [inst.edges[focal[0]].src]
    for eid in focal:
        e = inst.edges[eid]
        if e.src != seq[-1]:
            raise PolicyError(f"focal edge {eid} does not start at {seq[-1]!r}")
        seq.append(e.dst)
    if seq[0] != inst.source or seq[-1] != inst.sink:
        raise PolicyError("focal path must run from source to sink")
    return tuple(seq)


# ---------------------------------------------------------------------------
# acceptance schedules for the unlabeled surface


@dataclass(frozen=True)
class AlphaSchedule:
    """Per-position acceptance probabilities for tentative bypass edges.

    With divisor D = 2 - q, position i of the focal path is visited
    with probability 1 - (sum of x over edges spanning i)/D, and the
    schedule sets alpha(i) so that visit(i) * alpha(i) = 1/D.  That
    makes every bypass edge e land in the walk with probability exactly
    x_e / D.
    """

    focal: tuple[int, ...]
    node_order: tuple[str, ...]
    alpha: tuple[float, ...]  # one entry per non-sink position
    visit: tuple[float, ...]  # predicted visit probability, sink included
    skip_sets: tuple[frozenset[int], ...]
    q: float
    x: tuple[float, ...]

    @property
    def divisor(self) -> float:
        return 2 - self.q


def alpha_schedule(
    inst: Instance,
    focal: Sequence[int],
    x: EdgeProbabilities | Sequence[float],
    q: float = 0,
) -> AlphaSchedule:
    """Build the acceptance schedule for a focal path from offline
    selection probabilities.

    `q` is the probability that the offline baseline equals the focal
    path itself; it is 0 for the plain width-1 policy and positive for
    the strand-restricted variant.  Raises ScheduleError when x and q
    cannot have come from a baseline living on this focal path.
    """
    xs = tuple(x.x) if isinstance(x, EdgeProbabilities) else tuple(x)
    if len(xs) != len(inst.edges):
        raise ScheduleError(f"x has {len(xs)} entries for {len(inst.edges)} edges")
    order = path_nodes(inst, focal)
    pos = {name: i for i, name in enumerate(order)}
    for e in inst.edges:
        if xs[e.id] > TOL and (e.src not in pos or e.dst not in pos):
            raise ScheduleError(
                "x/q inconsistent with focal path: "
                f"offline mass {float(xs[e.id]):.6g} sits on edge {e.id} off the focal surface"
            )
    divisor = 2 - q
    m = len(focal)
    alphas = []
    visits = []
    skips = []
    for i in range(m + 1):
        span = frozenset(
            e.id
            for e in inst.edges
            if e.src in pos and e.dst in pos and pos[e.src] < i < pos[e.dst]
        )
        skipped = stable_sum(xs[eid] for eid in span)
        if skipped > 1 - q + 1e-9:
            raise ScheduleError(
                "x/q inconsistent with focal path: "
                f"mass {float(skipped):.6g} skips {order[i]!r} but 1-q is {float(1 - q):.6g}"
            )
        visit = 1 - skipped / divisor
        skips.append(span)
        visits.append(visit)
        if i == m:
            break
        a = (1 / divisor) / visit
        if a > 1 + 1e-9:
            raise ScheduleError(
                f"x/q inconsistent with focal path: alpha {float(a):.9g} at {order[i]!r}"
            )
        alphas.append(min(a, 1))
    return AlphaSchedule(tuple(focal), order, tuple(alphas), tuple(visits), tuple(skips), q, xs)


# ---------------------------------------------------------------------------
# exact forward engine


@dataclass(frozen=True)
class FocalPolicyExact:
    """Exact statistics of one focal-path policy run.

    feasibility[e]: probability of standing at src(e) with spare
    capacity for every label of e.  acceptance[e]: the coin used when e
    comes up tentative.  take_prob[e]: for e off the path, the exact
    probability that the walk traverses e; for the path's own edges,
    the probability that the edge comes up tentative and its coin
    accepts (traversal probability is at least that).
    """

    value: float
    visit_prob: tuple[float, ...]
    feasibility: dict[int, float]
    acceptance: dict[int, float]
    take_prob: dict[int, float]
    divisor: float
    focal: tuple[int, ...]
    node_order: tuple[str, ...]


def evaluate_focal_policy(
    inst: Instance,
    focal: Sequence[int],
    oracle: Oracle | None = None,
    spec: OfflineSpec = OPT,
    divisor: float | None = None,
    schedule: AlphaSchedule | None = None,
) -> FocalPolicyExact:
    """Push the walker's state distribution along the focal path.

    With a schedule the policy is the unlabeled one (path-edge
    tentatives just walk on; bypass tentatives are accepted with
    alpha(i)).  Without a schedule the labeled rule applies: every
    tentative edge e is accepted with min(1, 1/(divisor * p(e))) where
    p(e) is the exact feasible-arrival probability computed on the fly.
    """
    oracle = Oracle(inst) if oracle is None else oracle
    focal = tuple(focal)
    order = path_nodes(inst, focal)
    pos = {name: i for i, name in enumerate(order)}
    if schedule is not None:
        if schedule.focal != focal:
            raise ScheduleError("schedule was built for a different focal path")
        divisor = schedule.divisor
    elif divisor is None:
        divisor = inst.max_labels_per_edge + 2

    xs = oracle.edge_probabilities(spec).x
    for e in inst.edges:
        if xs[e.id] > TOL and (e.src not in pos or e.dst not in pos):
            raise PolicyError(
                f"offline mass {float(xs[e.id]):.6g} on edge {e.id} is off the focal surface"
            )

    active = active_label_caps(inst)
    caps = tuple(c for _, c in active)
    apos = {lbl: i for i, (lbl, _) in enumerate(active)}
    zero = (0,) * len(active)

    m = len(focal)
    arrivals: list[dict[tuple[int, ...], float]] = [{} for _ in range(m + 1)]
    arrivals[0][zero] = 1
    visits: list[float] = []
    value_terms: list[float] = []
    feas: dict[int, float] = {}
    accept: dict[int, float] = {}
    take: dict[int, float] = {}

    for i in range(m):
        u = order[i]
        ui = inst.node_index[u]
        path_eid = focal[i]
        table = inst.tables[ui]
        states = sorted(arrivals[i].items())
        visit_i = stable_sum(mass for _, mass in states)
        visits.append(visit_i)
        if schedule is not None and abs(visit_i - schedule.visit[i]) > 1e-9:
            raise ScheduleError(
                "x/q inconsistent with focal path: engine visits "
                f"{order[i]!r} with probability {float(visit_i):.12g}, "
                f"schedule predicts {float(schedule.visit[i]):.12g}"
            )
        out = inst.out_edges[ui]
        needs = {e.id: tuple(apos[l] for l in e.labels if l in apos) for e in out}
        for e in out:
            need = needs[e.id]
            if need:
                p = stable_sum(
                    mass
                    for usage, mass in states
                    if all(usage[k] < caps[k] for k in need)
                )
            else:
                p = visit_i
            feas[e.id] = p
            take.setdefault(e.id, 0)
            if schedule is not None:
                accept[e.id] = 1 if e.id == path_eid else schedule.alpha[i]
            elif p <= 0:
                if xs[e.id] > TOL:
                    raise PolicyError(
                        f"p(e)=0 encountered for a tentative edge with x_e>0 (edge {e.id})"
                    )
                accept[e.id] = 0
            else:
                accept[e.id] = min(1, 1 / (divisor * p))
        keys: list[int | None] = [e.id for e in out]
        keys.append(None)
        laws = [oracle.conditional_choice_distribution(u, o_idx, spec) for o_idx in range(len(table))]
        for usage, mass in states:
            if mass <= 0:
                continue
            for o_idx, o in enumerate(table):
                if o.p <= 0:
                    continue
                base = mass * o.p
                law = laws[o_idx]
                walk = 0
                for key in keys:
                    c = law.get(key, 0)
                    if key is None:
                        walk = walk + c
                        continue
                    if c <= 0:
                        continue
                    if key == path_eid:
                        # path-edge tentative: movement is a plain walk
                        # either way; the coin is bookkeeping only
                        take[key] += base * c * (1 if schedule is not None else accept[key])
                        walk = walk + c
                        continue
                    need = needs[key]
                    if need and not all(usage[k] < caps[k] for k in need):
                        walk = walk + c
                        continue
                    a = accept[key]
                    if a > 0:
                        dst = inst.edges[key].dst
                        j = pos.get(dst)
                        if j is None:
                            raise PolicyError(f"tentative edge {key} leaves the focal surface")
                        moved = base * c * a
                        value_dst = o.values[key]
                        take[key] += moved
                        if need:
                            bumped = list(usage)
                            for k in need:
                                bumped[k] += 1
                            key_usage = tuple(bumped)
                        else:
                            key_usage = usage
                        land = arrivals[j]
                        land[key_usage] = land.get(key_usage, 0) + moved
                        value_terms.append(moved * value_dst)
                    if a < 1:
                        walk = walk + c * (1 - a)
                if walk > 0:
                    wmass = base * walk
                    land = arrivals[i + 1]
                    land[usage] = land.get(usage, 0) + wmass
                    value_terms.append(wmass * o.values[path_eid])
    final_mass = stable_sum(arrivals[m].values())
    visits.append(final_mass)
    if abs(final_mass - 1) > 1e-9:
        raise PolicyError(f"internal mass leak: terminal mass {float(final_mass):.12g}")
    return FocalPolicyExact(
        value=stable_sum(value_terms),
        visit_prob=tuple(visits),
        feasibility=feas,
        acceptance=accept,
        take_prob=take,
        divisor=divisor,
        focal=focal,
        node_order=order,
    )


# ---------------------------------------------------------------------------
# feasibility probabilities for the labeled rule


@dataclass(frozen=True)
class FeasibilityProbs:
    """p[e] = probability of arriving at src(e) with capacity for e."""

    p: dict[int, float]
    mode: str  # "exact" or "mc"
    divisor: float
    trials: int | None = None
    seed: int | None = None


def feasibility_probabilities(
    inst: Instance,
    focal: Sequence[int],
    x: EdgeProbabilities | Sequence[float] | None = None,
    mode: str = "exact",
    *,
    oracle: Oracle | None = None,
    spec: OfflineSpec = OPT,
    divisor: float | None = None,
    trials: int = 4000,
    seed: int | None = None,
) -> FeasibilityProbs:
    """Feasible-arrival probabilities p(e) for every edge leaving a
    focal-path node, exactly or by staged Monte Carlo.

    The Monte Carlo mode freezes acceptance coins position by position:
    p-hat at position i is estimated with the acceptances already fixed
    for earlier positions, mirroring how a sample-based implementation
    would bootstrap itself.  Estimated acceptances are clamped to [0,1].
    """
    oracle = Oracle(inst) if oracle is None else oracle
    focal = tuple(focal)
    if divisor is None:
        divisor = inst.max_labels_per_edge + 2
    if x is not None:
        xs = tuple(x.x) if isinstance(x, EdgeProbabilities) else tuple(x)
        ours = oracle.edge_probabilities(spec).x
        for eid in range(len(inst.edges)):
            if abs(xs[eid] - ours[eid]) > 1e-6:
                raise PolicyError(
                    f"supplied x disagrees with the offline baseline at edge {eid}"
                )
    if mode == "exact":
        stats = evaluate_focal_policy(inst, focal, oracle, spec, divisor=divisor)
        d = inst.max_labels_per_edge
        if spec.kind == "opt" and divisor == d + 2:
            floor = 1 / (d + 2)
            for eid, pe in stats.feasibility.items():
                if pe < floor - 1e-9:
                    raise PolicyError(
                        f"exact p({eid})={float(pe):.12g} fell below 1/(d+2); "
                        "the offline probabilities are inconsistent"
                    )
        return FeasibilityProbs(dict(stats.feasibility), "exact", divisor)
    if mode != "mc":
        raise ValueError(f"unknown feasibility mode {mode!r}")
    if seed is None:
        raise PolicyError("Monte Carlo feasibility needs an explicit seed")

    walker = FocalWalker(inst, focal, oracle, spec, None)  # staged rule
    draw = PolicyWalk(inst, [walker]).draw
    caps = walker.caps
    est: dict[int, float] = {}
    for i, stop in enumerate(walker.stops):
        tents = stop.tents[:-1]
        hits = [0] * len(tents)
        for j in range(trials):
            rng = random.Random(derive_seed(seed, "feas", i, j))
            _, cur, usage = walker.walk(rng, draw(rng), stop=i)
            if cur != i:
                continue  # skipped past this position
            for k, t in enumerate(tents):
                if all(usage[c] < caps[c] for c in t.need):
                    hits[k] += 1
        for t, h in zip(tents, hits):
            pe = h / trials
            est[t.eid] = pe
            if pe > 0:
                walker.thresholds[t.eid] = exact_threshold(min(1, 1 / (divisor * pe)))
    return FeasibilityProbs(est, "mc", divisor, trials, seed)


# ---------------------------------------------------------------------------
# the compiled focal walker


@dataclass(frozen=True)
class StepRecord:
    node: str
    outcome: int
    tentative: int | None
    feasible: bool | None  # None when no capacity question arose
    coin: float | None
    taken: int


@dataclass(frozen=True)
class Trajectory:
    edges: tuple[int, ...]
    value: float
    steps: tuple[StepRecord, ...]
    sub_index: int | None = None  # cover path used, for composite policies
    inner_value: float | None = None  # certified value before connector replay


class _Tentative(NamedTuple):
    eid: int
    need: tuple[int, ...]  # active-label positions the edge uses
    dst: int | None  # focal position of its head; None: leaves the focal surface


class _Stop(NamedTuple):
    node: str
    slot: int  # index of the node's outcome in the choices the walk reads
    path_eid: int
    laws: list[tuple[list[float], int]]  # per outcome: cumulative choice law
    tents: list[_Tentative | None]  # out-edges in order, then None


class FocalWalker:
    """One walk along a focal path, compiled once per (instance, focal
    path, spec, acceptance rule).

    `rule` is an `AlphaSchedule` (alpha rule), a `FeasibilityProbs`
    (labeled rule) or None (staged rule: no edge is accepted until its
    entry in `thresholds` is set).  `home` is the instance whose
    realization the walk reads; it defaults to `inst` and is the full
    graph when `inst` is a contraction of it.
    """

    def __init__(
        self,
        inst: Instance,
        focal: Sequence[int],
        oracle: Oracle,
        spec: OfflineSpec,
        rule: AlphaSchedule | FeasibilityProbs | None,
        home: Instance | None = None,
    ):
        home = inst if home is None else home
        focal = tuple(focal)
        order = path_nodes(inst, focal)
        pos = {name: i for i, name in enumerate(order)}
        active = active_label_caps(inst)
        apos = {lbl: k for k, (lbl, _) in enumerate(active)}
        self.caps = tuple(c for _, c in active)
        self.labeled = isinstance(rule, FeasibilityProbs)
        if self.labeled and any(inst.edges[eid].labels for eid in focal):
            raise PolicyError("focal path must consist of unlabeled edges")
        if isinstance(rule, AlphaSchedule) and inst.max_labels_per_edge > 0:
            raise PolicyError("unlabeled policy cannot run on a labeled instance")
        tables = oracle.choice_tables(spec)
        self.thresholds: list[float | None] = [None] * len(inst.edges)
        self.stops: list[_Stop] = []
        for i, u in enumerate(order[:-1]):
            ui = inst.node_index[u]
            if ui not in tables:
                raise InvalidInstanceError(f"node {u!r} has no outcome table")
            out = inst.out_edges[ui]
            tents = [
                _Tentative(e.id, tuple(apos[l] for l in e.labels if l in apos), pos.get(e.dst))
                for e in out
            ]
            self.stops.append(_Stop(u, home.node_index[u], focal[i], tables[ui], [*tents, None]))
            for e in out:
                if isinstance(rule, AlphaSchedule):
                    self.thresholds[e.id] = exact_threshold(rule.alpha[i])
                elif self.labeled and rule.p.get(e.id, 0) > 0:
                    a = min(1, 1 / (rule.divisor * rule.p[e.id]))
                    self.thresholds[e.id] = exact_threshold(a)

    def walk(
        self,
        rng: random.Random,
        choices: Sequence[int],
        steps: list[StepRecord] | None = None,
        stop: int | None = None,
    ) -> tuple[list[int], int, list[int]]:
        """Walk from the source to focal position `stop` (default: the
        sink) under the given outcome choices.  Returns the edges taken,
        the position reached and the label usage; appends one record per
        visited node to `steps` when given."""
        rand = rng.random
        caps, thresholds, labeled = self.caps, self.thresholds, self.labeled
        usage = [0] * len(caps)
        edges: list[int] = []
        cur = 0
        end = len(self.stops) if stop is None else stop
        while cur < end:
            node, slot, path_eid, laws, tents = self.stops[cur]
            outcome = choices[slot]
            tent = tents[pick(laws[outcome], rand())]
            taken, nxt, coin, feasible = path_eid, cur + 1, None, None
            if tent is not None:
                eid, need, dst = tent
                if eid == path_eid:
                    if labeled:  # bookkeeping coin: movement is the same either way
                        coin, feasible = rand(), True
                else:
                    ok = not need or all(usage[k] < caps[k] for k in need)
                    thr = thresholds[eid] if ok else None
                    if labeled:
                        feasible = ok
                        if ok and thr is None:
                            raise PolicyError(
                                f"p(e)=0 encountered for a tentative edge with x_e>0 (edge {eid})"
                            )
                    if thr is not None:
                        coin = rand()
                        if coin < thr:
                            if dst is None:
                                raise PolicyError(f"tentative edge {eid} leaves the focal surface")
                            taken, nxt = eid, dst
                            for k in need:
                                usage[k] += 1
            edges.append(taken)
            if steps is not None:
                tentative = None if tent is None else tent.eid
                steps.append(StepRecord(node, outcome, tentative, feasible, coin, taken))
            cur = nxt
        return edges, cur, usage


class PolicyWalk:
    """A policy's trajectory sampler, compiled by one sampler call:
    per node of `inst` a float cumulative table over outcome masses,
    every edge value as an integer numerator over one common denominator
    (a walk's value is the float of its exact sum), and one walker per
    cover path.  With several, one is picked uniformly and its
    contracted walk replayed on `inst` through `contracted`."""

    def __init__(
        self,
        inst: Instance,
        walkers: Sequence[FocalWalker],
        contracted: Sequence[ContractedInstance] | None = None,
        sub_index: int | None = None,
    ):
        self.walkers = tuple(walkers)
        self.sub_index = sub_index
        # per cover path and contracted edge: the real edges it replays as
        self.replay = contracted and [
            [(r.original_id, *r.connector) for r in ci.edges] for ci in contracted
        ]
        self.tables = [cumulative([o.p for o in t]) if t else None for t in inst.tables]
        self.src = [inst.node_index[e.src] for e in inst.edges]
        ratios = [
            [o.values.get(e.id, 0).as_integer_ratio() for o in inst.tables[s]] or [(0, 1)]
            for e, s in zip(inst.edges, self.src)
        ]
        self.den = math.lcm(*(d for row in ratios for _, d in row))
        self.nums = [tuple(n * (self.den // d) for n, d in row) for row in ratios]

    def draw(self, rng: random.Random) -> list[int]:
        """Outcome choice per node: one uniform per node with a table."""
        rand = rng.random
        return [0 if t is None else pick(t, rand()) for t in self.tables]

    def value(self, choices: Sequence[int], edges: Sequence[int]) -> float:
        nums, src = self.nums, self.src
        return sum(nums[e][choices[src[e]]] for e in edges) / self.den

    def run(
        self, rng: random.Random | None, realization: Realization | None = None, record: bool = True
    ) -> Trajectory:
        if rng is None:
            raise PolicyError("a random.Random must be supplied")
        choices = self.draw(rng) if realization is None else realization.choices
        steps: list[StepRecord] | None = [] if record else None
        if not self.replay:
            edges = self.walkers[0].walk(rng, choices, steps)[0]
            value = self.value(choices, edges)
            return Trajectory(tuple(edges), value, tuple(steps or ()), self.sub_index)
        i = rng.randrange(len(self.walkers))
        inner = [self.replay[i][e] for e in self.walkers[i].walk(rng, choices, steps)[0]]
        edges = [eid for real in inner for eid in real]
        value = self.value(choices, edges)
        inner_value = self.value(choices, [real[0] for real in inner])
        if value < inner_value - 1e-9:
            raise PolicyError("replayed walk lost value against its contracted run")
        return Trajectory(tuple(edges), value, tuple(steps or ()), i, inner_value)


# ---------------------------------------------------------------------------
# prepared policies: lists of focal runs


class FocalRun(NamedTuple):
    """One focal walk of a policy: the graph it walks (the instance or a
    contraction of it), its focal path, the oracle and offline spec whose
    choice laws draw the tentatives, and the acceptance rule."""

    graph: Instance
    focal: tuple[int, ...]
    oracle: Oracle
    spec: OfflineSpec
    rule: AlphaSchedule | FeasibilityProbs

    def value(self) -> float:
        """Exact expected value of the walk, by the forward engine."""
        schedule = self.rule if isinstance(self.rule, AlphaSchedule) else None
        return evaluate_focal_policy(
            self.graph, self.focal, self.oracle, self.spec, self.rule.divisor, schedule
        ).value


@dataclass(frozen=True)
class PreparedPolicy:
    """A policy prepared on `inst`.  A trial walks one of `runs`, picked
    uniformly when there are several, and replays a contracted run on
    `inst` through `contracted`; the exact value is the mean of the
    runs' exact values (for a general cover the certified value, which
    leaves out the connectors' nonnegative pickups)."""

    inst: Instance
    oracle: Oracle  # of `inst`: the prophet the bound is measured against
    runs: tuple[FocalRun, ...]
    width: int
    bound: float
    bound_label: str
    params: dict[str, Any]  # the policy's choices beyond width and d, for reports
    contracted: tuple[ContractedInstance, ...] | None = None
    sub_index: int | None = None  # the cover path every trial walks, if fixed

    def exact_value(self) -> float:
        return stable_sum(run.value() for run in self.runs) / len(self.runs)

    def sampler(self) -> PolicyWalk:
        """The trajectory sampler, compiled on each call; exact
        evaluation never builds one."""
        walkers = [FocalWalker(*run, home=self.inst) for run in self.runs]
        return PolicyWalk(self.inst, walkers, self.contracted, self.sub_index)


def run_modified_width1(
    inst: Instance,
    focal: Sequence[int],
    schedule: AlphaSchedule,
    spec: OfflineSpec = OPT,
    rng: random.Random | None = None,
    *,
    oracle: Oracle | None = None,
    realization: Realization | None = None,
) -> Trajectory:
    """Walk the focal path once, accepting bypass tentatives with the
    schedule's alpha.  Core of both width-1 unlabeled variants; with a
    q=0 schedule this is the plain one, with q>0 the strand-restricted
    one."""
    oracle = Oracle(inst) if oracle is None else oracle
    if schedule.focal != tuple(focal):
        raise ScheduleError("schedule was built for a different focal path")
    walker = FocalWalker(inst, focal, oracle, spec, schedule)
    return PolicyWalk(inst, [walker]).run(rng, realization)


def _covering_focal(
    inst: Instance,
    focal: Sequence[int] | None,
    cover: PathCover | None = None,
    cover_seed: int | None = None,
) -> tuple[int, ...]:
    """The path a width-1 policy walks: `focal`, checked to visit every
    node, or else the single path of `cover` (default: a minimum cover)."""
    if focal is not None:
        focal = tuple(focal)
        if set(path_nodes(inst, focal)) != set(inst.nodes):
            raise PolicyError("focal path must visit every node")
        return focal
    cover = min_path_cover(inst, cover_seed) if cover is None else cover
    if cover.width != 1:
        raise PolicyError(
            f"width-1 policy needs a single covering path; this cover has {cover.width} paths"
        )
    return cover.paths[0]


def run_width1_unlabeled(
    inst: Instance,
    focal: Sequence[int] | None = None,
    schedule: AlphaSchedule | None = None,
    spec: OfflineSpec | None = None,
    rng: random.Random | None = None,
    *,
    oracle: Oracle | None = None,
    realization: Realization | None = None,
) -> Trajectory:
    """Width-1 policy for unlabeled graphs: guarantees half the prophet."""
    spec = OPT if spec is None else spec
    oracle = Oracle(inst) if oracle is None else oracle
    focal = _covering_focal(inst, focal)
    if schedule is None:
        schedule = alpha_schedule(inst, focal, oracle.edge_probabilities(spec), 0)
    return run_modified_width1(
        inst, focal, schedule, spec, rng, oracle=oracle, realization=realization
    )


def run_width1_labeled(
    inst: Instance,
    focal: Sequence[int] | None = None,
    x: EdgeProbabilities | Sequence[float] | None = None,
    probs: FeasibilityProbs | None = None,
    rng: random.Random | None = None,
    *,
    oracle: Oracle | None = None,
    spec: OfflineSpec | None = None,
    realization: Realization | None = None,
    divisor: float | None = None,
) -> Trajectory:
    """Width-1 policy for label-capacitated graphs.

    Tentative edge e is accepted with probability 1/(divisor * p(e)),
    divisor defaulting to d+2 for d = most labels on any edge.  The
    focal path itself must be unlabeled and visit every node.
    """
    oracle = Oracle(inst) if oracle is None else oracle
    spec = OPT if spec is None else spec
    focal = _covering_focal(inst, focal)
    if divisor is None:
        divisor = inst.max_labels_per_edge + 2
    if probs is None:
        probs = feasibility_probabilities(
            inst, focal, x, "exact", oracle=oracle, spec=spec, divisor=divisor
        )
    walker = FocalWalker(inst, focal, oracle, spec, probs)
    return PolicyWalk(inst, [walker]).run(rng, realization)


# ---------------------------------------------------------------------------
# general covers: contraction, inner runs, replay


@dataclass(frozen=True)
class ContractedEdge:
    new_id: int
    original_id: int
    connector: tuple[int, ...]  # original unlabeled edges appended on replay


@dataclass(frozen=True)
class ContractedInstance:
    graph: Instance
    focal: tuple[int, ...]  # new ids of the cover path's edges
    edges: tuple[ContractedEdge, ...]
    path_index: int


def build_contracted_instance(inst: Instance, cover: PathCover, index: int) -> ContractedInstance:
    """Project the graph onto cover path `index`.

    Nodes are the path's nodes.  Every original edge leaving a path
    node is kept: an edge whose head v is off the path becomes an
    artificial edge to the earliest path node unlabeled-reachable from
    v, carrying the original value law; the fewest-edge unlabeled route
    v -> that node is stored for replay.  Guarantees ignore connector
    values, so earliest (not nearest) is what keeps the projected
    prophet an upper bound piece.
    """
    if not 0 <= index < cover.width:
        raise CoverError(f"cover has {cover.width} paths, no index {index}")
    path_edges = cover.paths[index]
    order = cover.node_orders[index]
    pos = {name: i for i, name in enumerate(order)}

    n = len(inst.nodes)
    earliest: list[int | None] = [None] * n
    for name, p in pos.items():
        earliest[inst.node_index[name]] = p
    for vi in range(n - 1, -1, -1):
        if inst.nodes[vi] in pos:
            continue
        best: int | None = None
        for e in inst.out_edges[vi]:
            if e.labels:
                continue
            sub = earliest[inst.node_index[e.dst]]
            if sub is not None and (best is None or sub < best):
                best = sub
        earliest[vi] = best

    connectors: dict[str, tuple[int, ...]] = {}

    def connector_for(v: str) -> tuple[int, ...]:
        got = connectors.get(v)
        if got is None:
            got = shortest_unlabeled_path(inst, v, order[earliest[inst.node_index[v]]])
            connectors[v] = got
        return got

    edge_specs: list[tuple[str, str, frozenset[str]]] = []
    records: list[ContractedEdge] = []
    new_of: dict[int, int] = {}
    for u in order[:-1]:
        ui = inst.node_index[u]
        for e in inst.out_edges[ui]:
            v = e.dst
            if v in pos:
                target = v
                conn: tuple[int, ...] = ()
            else:
                ep = earliest[inst.node_index[v]]
                if ep is None:
                    raise CoverError(
                        f"edge {e.id} strands the walker: no unlabeled route from {v!r} back to the cover path"
                    )
                target = order[ep]
                conn = connector_for(v)
            new_id = len(edge_specs)
            new_of[e.id] = new_id
            edge_specs.append((u, target, e.labels))
            records.append(ContractedEdge(new_id, e.id, conn))

    outcomes = {}
    for u in order[:-1]:
        ui = inst.node_index[u]
        rows = []
        for o in inst.tables[ui]:
            rows.append((o.p, {new_of[eid]: val for eid, val in o.values.items()}))
        outcomes[u] = rows
    graph = Instance.build(
        list(order),
        edge_specs,
        labels=dict(inst.labels),
        outcomes=outcomes,
        meta={"cover_path": index},
    )
    focal = tuple(new_of[eid] for eid in path_edges)
    return ContractedInstance(graph, focal, tuple(records), index)


def prepare_general_cover(
    inst: Instance,
    cover: PathCover | None = None,
    *,
    cover_seed: int | None = None,
) -> PreparedPolicy:
    """The general policy: one labeled width-1 run on each cover path's
    contraction, picked uniformly per trial."""
    cover = min_path_cover(inst, cover_seed) if cover is None else cover
    contracted = tuple(build_contracted_instance(inst, cover, i) for i in range(cover.width))
    runs = []
    for ci in contracted:
        orc = Oracle(ci.graph)
        probs = feasibility_probabilities(ci.graph, ci.focal, oracle=orc)
        runs.append(FocalRun(ci.graph, ci.focal, orc, OPT, probs))
    bound = 1 / (cover.width * (inst.max_labels_per_edge + 2))
    params = {"cover": [list(p) for p in cover.paths]}
    return PreparedPolicy(
        inst, Oracle(inst), tuple(runs), cover.width, bound, "1/(k(d+2))", params, contracted
    )


def exact_general_cover_value(prepared: PreparedPolicy) -> tuple[float, tuple[float, ...]]:
    """Certified expected value of the general policy: the mean of the
    k inner exact values (connector values are ignored, they only add)."""
    inner = tuple(run.value() for run in prepared.runs)
    return stable_sum(inner) / prepared.width, inner


def run_general_cover_policy(
    inst: Instance,
    cover: PathCover | None = None,
    rng: random.Random | None = None,
    *,
    prepared: PreparedPolicy | None = None,
    realization: Realization | None = None,
) -> Trajectory:
    """Pick one cover path uniformly, run the labeled width-1 policy on
    its contraction, and replay the walk on the real graph, expanding
    artificial edges with their stored connectors."""
    if prepared is None:
        prepared = prepare_general_cover(inst, cover)
    return prepared.sampler().run(rng, realization)


# ---------------------------------------------------------------------------
# internally disjoint strands


@dataclass(frozen=True)
class DisjointPlan:
    """Strand decomposition for covers that share only source and sink.

    f[i] is the probability the prophet's path stays inside strand i's
    edges; q[i] the probability the strand-restricted baseline equals
    the strand path itself; the policy runs the modified width-1 rule
    on the strand maximizing expected_restricted / (2 - q).
    """

    cover: PathCover
    edge_sets: tuple[frozenset[int], ...]
    f: tuple[float, ...]
    q: tuple[float, ...]
    expected_restricted: tuple[float, ...]
    specs: tuple[OfflineSpec, ...]
    i_star: int


def build_disjoint_plan(
    inst: Instance,
    cover: PathCover | None = None,
    *,
    oracle: Oracle | None = None,
    cover_seed: int | None = None,
) -> DisjointPlan:
    if inst.max_labels_per_edge > 0:
        raise PolicyError("disjoint-paths policy requires an unlabeled instance")
    cover = min_path_cover(inst, cover_seed) if cover is None else cover
    oracle = Oracle(inst) if oracle is None else oracle

    internals = [set(order[1:-1]) for order in cover.node_orders]
    seen: dict[str, int] = {}
    for i, nodes in enumerate(internals):
        for v in nodes:
            if v in seen:
                raise CoverError(f"cover paths {seen[v]} and {i} share internal node {v!r}")
            seen[v] = i
    trivial = [i for i, nodes in enumerate(internals) if not nodes]
    if len(trivial) > 1:
        raise CoverError("more than one cover path has no internal nodes")
    if trivial and trivial[0] != 0:
        # direct source-sink edges are pooled with strand 1, so the
        # internal-free path must be strand 1
        j = trivial[0]
        idx = [j] + [i for i in range(cover.width) if i != j]
        cover = PathCover(
            tuple(cover.paths[i] for i in idx),
            tuple(cover.node_orders[i] for i in idx),
        )
        internals = [internals[i] for i in idx]
        seen = {v: i for i, nodes in enumerate(internals) for v in nodes}

    edge_sets: list[set[int]] = [set() for _ in range(cover.width)]
    for e in inst.edges:
        su = seen.get(e.src)
        sv = seen.get(e.dst)
        if su is None and sv is None:
            owner = 0  # direct source-sink edge
        elif su is None:
            owner = sv
        elif sv is None:
            owner = su
        elif su != sv:
            raise CoverError(f"edge {e.id} bridges strands {su} and {sv}")
        else:
            owner = su
        edge_sets[owner].add(e.id)
    for i, p in enumerate(cover.paths):
        if not set(p) <= edge_sets[i]:
            raise CoverError(f"cover path {i} leaves its own strand edge set")

    path_dist = oracle.path_distribution(OPT)
    f = []
    for i in range(cover.width):
        f.append(stable_sum(mass for path, mass in sorted(path_dist.items()) if set(path) <= edge_sets[i]))
    total_f = stable_sum(f)
    if abs(total_f - 1) > 1e-9:
        raise CoverError(
            f"offline mass escapes the strand partition (sum of f is {float(total_f):.12g})"
        )
    specs = tuple(restricted_spec(edge_sets[i], cover.paths[i]) for i in range(cover.width))
    q = []
    expected = []
    for i in range(cover.width):
        dist = oracle.path_distribution(specs[i])
        qi = dist.get(cover.paths[i], 0)
        if qi < 1 - f[i] - 1e-9:
            raise PolicyError(
                f"strand {i}: fallback probability {float(qi):.12g} below 1-f={float(1 - f[i]):.12g}"
            )
        q.append(qi)
        expected.append(oracle.expected_opt(specs[i]))
    i_star = 0
    best = None
    for i in range(cover.width):
        score = expected[i] / (2 - q[i])
        if best is None or score > best + 1e-15:
            best = score
            i_star = i
    return DisjointPlan(
        cover,
        tuple(frozenset(s) for s in edge_sets),
        tuple(f),
        tuple(q),
        tuple(expected),
        specs,
        i_star,
    )


def _disjoint_policy(inst: Instance, plan: DisjointPlan, oracle: Oracle) -> PreparedPolicy:
    """The disjoint policy on a plan: the alpha rule with divisor 2 - q on
    strand i*, against the strand-restricted baseline."""
    i = plan.i_star
    spec = plan.specs[i]
    schedule = alpha_schedule(inst, plan.cover.paths[i], oracle.edge_probabilities(spec), plan.q[i])
    run = FocalRun(inst, schedule.focal, oracle, spec, schedule)
    k = plan.cover.width
    params = {"cover": [list(p) for p in plan.cover.paths], "strand": i, "q": plan.q[i]}
    return PreparedPolicy(inst, oracle, (run,), k, 1 / (k + 1), "1/(k+1)", params, sub_index=i)


def exact_disjoint_value(inst: Instance, plan: DisjointPlan, oracle: Oracle | None = None) -> float:
    oracle = Oracle(inst) if oracle is None else oracle
    return _disjoint_policy(inst, plan, oracle).exact_value()


def run_disjoint_paths_policy(
    inst: Instance,
    cover: PathCover | None = None,
    plan: DisjointPlan | None = None,
    rng: random.Random | None = None,
    *,
    oracle: Oracle | None = None,
    realization: Realization | None = None,
) -> Trajectory:
    """Strand policy for unlabeled graphs covered by internally
    disjoint paths: restrict the baseline to the best strand and walk
    it with the modified width-1 rule (divisor 2 - q)."""
    oracle = Oracle(inst) if oracle is None else oracle
    if plan is None:
        plan = build_disjoint_plan(inst, cover, oracle=oracle)
    return _disjoint_policy(inst, plan, oracle).sampler().run(rng, realization)


# ---------------------------------------------------------------------------
# the policy registry

# Entries call prepare functions through this module's names, so a
# wrapper installed on one of those names (as in perfbench) applies.


def _width1(inst: Instance, cover: PathCover | None, cover_seed: int | None) -> PreparedPolicy:
    oracle = Oracle(inst)
    focal = _covering_focal(inst, None, cover, cover_seed)
    schedule = alpha_schedule(inst, focal, oracle.edge_probabilities(OPT), 0)
    run = FocalRun(inst, focal, oracle, OPT, schedule)
    return PreparedPolicy(inst, oracle, (run,), 1, 0.5, "1/2", {"focal": list(focal)})


def _width1_labeled(inst: Instance, cover: PathCover | None, cover_seed: int | None) -> PreparedPolicy:
    oracle = Oracle(inst)
    focal = _covering_focal(inst, None, cover, cover_seed)
    probs = feasibility_probabilities(inst, focal, oracle=oracle)
    run = FocalRun(inst, focal, oracle, OPT, probs)
    bound = 1 / (inst.max_labels_per_edge + 2)
    return PreparedPolicy(inst, oracle, (run,), 1, bound, "1/(d+2)", {"focal": list(focal)})


def _general(inst: Instance, cover: PathCover | None, cover_seed: int | None) -> PreparedPolicy:
    return prepare_general_cover(inst, cover, cover_seed=cover_seed)


def _disjoint(inst: Instance, cover: PathCover | None, cover_seed: int | None) -> PreparedPolicy:
    oracle = Oracle(inst)
    plan = build_disjoint_plan(inst, cover, oracle=oracle, cover_seed=cover_seed)
    return _disjoint_policy(inst, plan, oracle)


_PREPARE = {
    "width1": _width1,
    "width1-labeled": _width1_labeled,
    "general": _general,
    "disjoint": _disjoint,
}
POLICIES = tuple(_PREPARE)


def prepare_policy(
    inst: Instance,
    policy: str,
    cover: PathCover | None = None,
    cover_seed: int | None = None,
) -> PreparedPolicy:
    """Prepare a named policy on `inst`.  `cover` fixes the cover paths;
    by default a minimum cover is drawn with `cover_seed`."""
    prepare = _PREPARE.get(policy)
    if prepare is None:
        raise ValueError(f"unknown policy {policy!r}; known: {', '.join(POLICIES)}")
    return prepare(inst, cover, cover_seed)
