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
name, which also gives `POLICIES`.  Each prepare function builds its
runs and `PreparedPolicy` once, in final form, on one `Oracle` of the
instance (for `general`, also one per contraction), which the engine,
`feasibility_probabilities` and `build_disjoint_plan` require as an
argument.  Preparation alone refuses what a rule cannot run (the alpha
rule a labeled instance, the labeled rule a labeled focal edge), so
the exact value and the sampler agree on it.

A focal run has one compiled path (`_compile_path`), one acceptance
rule (`AlphaSchedule` or `FeasibilityProbs`, each handing over a
per-edge acceptance table; the labeled coin lives in
`_labeled_acceptance`) and two evaluators:

* one sampler, `FocalWalker`, that walks one trajectory with an
  explicit `random.Random`.  Only `PreparedPolicy.sampler` (a
  `PolicyWalk`, once per Monte Carlo estimate, never in exact mode) and
  the staged Monte Carlo mode of `feasibility_probabilities` build one.
  Each `run_*` helper walks one trajectory as `prepare_policy(inst, name,
  cover).sampler().run(rng, choices)`, preparing once per call, so a loop
  builds one sampler and runs it instead.
* an exact engine (`evaluate_focal_policy`) that pushes the full
  distribution of the walker's (position, label state) pair forward
  along the focal path, folding outcome tables and acceptance coins
  analytically.  Tentative draws are conditionally independent of the
  walker's state given the node outcome, so the forward pass is exact,
  not an approximation.  `FocalRun.value` runs it for an alpha run; a
  labeled run returns the value exact `FeasibilityProbs` keep from the
  engine run that computed them.  Monte Carlo ones have no exact
  value, and asking for one raises.

Both rules take `x_e` and the choice laws from the run's oracle and
spec, and the labeled coin's divisor is always d + 2 (d = most labels
on one edge); neither is a parameter.  A label state is a state index
of the oracle's best-path DP (capacity left per binding label), and an
edge's label transition is the DP's.

Draw order of one trial, which a fixed seed reproduces bit for bit:
one uniform per node that has an outcome table, in node order
(`model.sample_realization`, unless choices are supplied); then
`randrange(k)` for the general policy; then per visited node one
uniform for the tentative edge and a coin by the acceptance rule.  The
alpha rule (`width1`, `disjoint`) draws a coin for every bypass
tentative.  The labeled rule (`width1-labeled`, `general`) draws a
bookkeeping coin for a path-edge tentative and a coin for a bypass
tentative with capacity left.  The staged rule of MC feasibility draws
a coin only for a bypass tentative with capacity left and an
acceptance already estimated.  A coin is compared against
`exact_threshold` of the acceptance probability, which decides exactly
as the exact (possibly `Fraction`) probability would.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from typing import Any, NamedTuple, Sequence

from .cover import PathCover, chain_nodes, cover_from_paths, min_path_cover, shortest_unlabeled_path
from .errors import CoverError, PolicyError, ScheduleError
from .model import Instance, sample_realization
from .oracle import OPT, OfflineSpec, Oracle, restricted_spec
from .util import TOL, check_state_cap, cumulative, exact_threshold, stable_sum, trial_streams


def path_nodes(inst: Instance, focal: Sequence[int]) -> tuple[str, ...]:
    """Node sequence of a focal path, validating that it chains from
    source to sink."""
    return chain_nodes(inst, focal, "focal", PolicyError)


class _Tentative(NamedTuple):
    eid: int
    trans: tuple[int | None, ...] | None  # its DP label transition; None: uses no binding label
    dst: int | None  # focal position of its head; None: leaves the focal surface


class _FocalPath(NamedTuple):
    focal: tuple[int, ...]
    order: tuple[str, ...]
    pos: dict[str, int]
    full: int  # the label state with every capacity left
    out: list[list[_Tentative]]  # per non-sink position: its out-edges in order


def _compile_path(inst: Instance, focal: tuple[int, ...], order: tuple[str, ...], oracle: Oracle) -> _FocalPath:
    """A focal path with node sequence `order` (from `path_nodes`) as the
    engine and the walker both read it, with the oracle's DP transitions."""
    pos = {name: i for i, name in enumerate(order)}
    dp = oracle._dp
    out = [
        [_Tentative(e.id, dp.trans[e.id], pos.get(e.dst)) for e in inst.out_edges[inst.node_index[u]]]
        for u in order[:-1]
    ]
    return _FocalPath(focal, order, pos, dp.full, out)


def _labeled_acceptance(divisor: float, p: float) -> float:
    """The labeled rule's coin for an edge whose source is reached with
    capacity for it with probability p > 0."""
    return min(1, 1 / (divisor * p))


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
    alpha: tuple[float, ...]  # one entry per non-sink position
    visit: tuple[float, ...]  # predicted visit probability, sink included
    q: float

    @property
    def divisor(self) -> float:
        return 2 - self.q

    def _acceptance(self, path: _FocalPath) -> dict[int, float]:
        """alpha(i) per bypass edge leaving position i, 1 per path edge."""
        return {
            eid: 1 if eid == path_eid else a
            for path_eid, a, tents in zip(path.focal, self.alpha, path.out)
            for eid, _, _ in tents
        }


def alpha_schedule(
    inst: Instance,
    focal: Sequence[int],
    x: Sequence[float],
    q: float = 0,
) -> AlphaSchedule:
    """Build the acceptance schedule for a focal path from offline
    selection probabilities.

    `q` is the probability that the offline baseline equals the focal
    path itself; it is 0 for the plain width-1 policy and positive for
    the strand-restricted variant.  Raises ScheduleError when x and q
    cannot have come from a baseline living on this focal path.
    """
    if len(x) != len(inst.edges):
        raise ScheduleError(f"x has {len(x)} entries for {len(inst.edges)} edges")
    order = path_nodes(inst, focal)
    pos = {name: i for i, name in enumerate(order)}
    for e in inst.edges:
        if x[e.id] > TOL and (e.src not in pos or e.dst not in pos):
            raise ScheduleError(
                "x/q inconsistent with focal path: "
                f"offline mass {float(x[e.id]):.6g} sits on edge {e.id} off the focal surface"
            )
    divisor = 2 - q
    m = len(focal)
    alphas = []
    visits = []
    for i in range(m + 1):
        skipped = stable_sum(
            x[e.id]
            for e in inst.edges
            if e.src in pos and e.dst in pos and pos[e.src] < i < pos[e.dst]
        )
        if skipped > 1 - q + 1e-9:
            raise ScheduleError(
                "x/q inconsistent with focal path: "
                f"mass {float(skipped):.6g} skips {order[i]!r} but 1-q is {float(1 - q):.6g}"
            )
        visit = 1 - skipped / divisor
        visits.append(visit)
        if i == m:
            break
        a = (1 / divisor) / visit
        if a > 1 + 1e-9:
            raise ScheduleError(
                f"x/q inconsistent with focal path: alpha {float(a):.9g} at {order[i]!r}"
            )
        alphas.append(min(a, 1))
    return AlphaSchedule(tuple(focal), tuple(alphas), tuple(visits), q)


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


def evaluate_focal_policy(
    inst: Instance,
    focal: Sequence[int],
    oracle: Oracle,
    spec: OfflineSpec = OPT,
    schedule: AlphaSchedule | None = None,
) -> FocalPolicyExact:
    """Push the distribution of the walker's (position, label state)
    along the focal path.

    With a schedule the policy is the unlabeled one (path-edge
    tentatives just walk on; bypass tentatives are accepted with
    alpha(i)).  Without a schedule the labeled rule applies: every
    tentative edge e is accepted with the labeled coin
    (`_labeled_acceptance`, divisor d + 2) of p(e), the exact
    feasible-arrival probability computed on the fly.
    """
    focal = tuple(focal)
    order = path_nodes(inst, focal)
    if schedule is not None and schedule.focal != focal:
        raise ScheduleError("schedule was built for a different focal path")
    divisor = inst.max_labels_per_edge + 2
    m = len(focal)
    check_state_cap(m + 1, [cap for _, cap in oracle.active_labels], "arrival")

    xs = oracle.edge_probabilities(spec)
    path = _compile_path(inst, focal, order, oracle)
    for e in inst.edges:
        if xs[e.id] > TOL and (e.src not in path.pos or e.dst not in path.pos):
            raise PolicyError(
                f"offline mass {float(xs[e.id]):.6g} on edge {e.id} is off the focal surface"
            )
    laws = [oracle.choice_laws(u, spec) for u in order[:-1]]

    arrivals: list[dict[int, float]] = [{} for _ in range(m + 1)]
    arrivals[0][path.full] = 1
    visits: list[float] = []
    value_terms: list[float] = []
    feas: dict[int, float] = {}
    accept: dict[int, float] = {} if schedule is None else schedule._acceptance(path)
    take: dict[int, float] = {}

    for i, (u, path_eid, tents, node_laws) in enumerate(zip(order, focal, path.out, laws)):
        table = inst.tables[inst.node_index[u]]
        # most capacity left first: one fixed order for every sum below
        states = sorted(arrivals[i].items(), reverse=True)
        visit_i = stable_sum(mass for _, mass in states)
        visits.append(visit_i)
        if schedule is not None and abs(visit_i - schedule.visit[i]) > 1e-9:
            raise ScheduleError(
                "x/q inconsistent with focal path: engine visits "
                f"{order[i]!r} with probability {float(visit_i):.12g}, "
                f"schedule predicts {float(schedule.visit[i]):.12g}"
            )
        for eid, trans, _ in tents:
            if trans is not None:
                p = stable_sum(mass for s, mass in states if trans[s] is not None)
            else:
                p = visit_i
            feas[eid] = p
            take.setdefault(eid, 0)
            if schedule is None:
                if p <= 0 and xs[eid] > TOL:
                    raise PolicyError(f"p(e)=0 encountered for a tentative edge with x_e>0 (edge {eid})")
                accept[eid] = _labeled_acceptance(divisor, p) if p > 0 else 0
        for s, mass in states:
            if mass <= 0:
                continue
            for o, law in zip(table, node_laws):
                if o.p <= 0:
                    continue
                base = mass * o.p
                walk = 0
                for (eid, trans, j), c in zip(tents, law):
                    if c <= 0:
                        continue
                    if eid == path_eid:
                        # path-edge tentative: movement is a plain walk
                        # either way; the coin is bookkeeping only
                        take[eid] += base * c * accept[eid]
                        walk = walk + c
                        continue
                    if trans is not None and trans[s] is None:
                        walk = walk + c
                        continue
                    a = accept[eid]
                    if a > 0:
                        if j is None:
                            raise PolicyError(f"tentative edge {eid} leaves the focal surface")
                        moved = base * c * a
                        take[eid] += moved
                        after = s if trans is None else trans[s]
                        land = arrivals[j]
                        land[after] = land.get(after, 0) + moved
                        value_terms.append(moved * o.values[eid])
                    if a < 1:
                        walk = walk + c * (1 - a)
                walk = walk + law[-1]
                if walk > 0:
                    wmass = base * walk
                    land = arrivals[i + 1]
                    land[s] = land.get(s, 0) + wmass
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
    )


# ---------------------------------------------------------------------------
# feasibility probabilities for the labeled rule


@dataclass(frozen=True)
class FeasibilityProbs:
    """p[e] = probability of arriving at src(e) with capacity for e."""

    p: dict[int, float]
    mode: str  # "exact" or "mc"
    divisor: float  # d + 2
    # exact mode: the value of the engine run that computed p
    _value: float | None = field(default=None, repr=False, compare=False)

    def _acceptance(self, path: _FocalPath) -> dict[int, float]:
        """The labeled rule's coin for every edge with p > 0."""
        return {eid: _labeled_acceptance(self.divisor, p) for eid, p in self.p.items() if p > 0}


def feasibility_probabilities(
    inst: Instance,
    focal: Sequence[int],
    mode: str = "exact",
    *,
    oracle: Oracle,
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
    divisor = inst.max_labels_per_edge + 2
    if mode == "exact":
        stats = evaluate_focal_policy(inst, focal, oracle)
        floor = 1 / divisor
        for eid, pe in stats.feasibility.items():
            if pe < floor - 1e-9:
                raise PolicyError(
                    f"exact p({eid})={float(pe):.12g} fell below 1/(d+2); "
                    "the offline probabilities are inconsistent"
                )
        return FeasibilityProbs(dict(stats.feasibility), "exact", divisor, _value=stats.value)
    if mode != "mc":
        raise ValueError(f"unknown feasibility mode {mode!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if seed is None:
        raise PolicyError("Monte Carlo feasibility needs an explicit seed")

    walker = FocalWalker(inst, focal, oracle, OPT, None)  # staged rule
    est: dict[int, float] = {}
    for i, stop in enumerate(walker.stops):
        tents = stop.out
        hits = [0] * len(tents)
        for rng in trial_streams(trials, seed, "feas", i):
            _, cur, state = walker.walk(rng, sample_realization(inst, rng), stop=i)
            if cur != i:
                continue  # skipped past this position
            for k, t in enumerate(tents):
                if t.trans is None or t.trans[state] is not None:
                    hits[k] += 1
        for t, h in zip(tents, hits):
            pe = h / trials
            est[t.eid] = pe
            if pe > 0:
                walker.thresholds[t.eid] = exact_threshold(_labeled_acceptance(divisor, pe))
    return FeasibilityProbs(est, "mc", divisor)


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


class _Stop(NamedTuple):
    node: str
    slot: int  # index of the node's outcome in the choices the walk reads
    path_eid: int
    # per outcome: the cumulative choice law over the out-edges in order,
    # then None, and the tentative each `bisect_right` index draws
    laws: list[tuple[list[float], list[_Tentative | None]]]
    out: list[_Tentative]


class FocalWalker:
    """One walk along a focal path, compiled once per (instance, focal
    path, spec, acceptance rule).

    `rule` is an `AlphaSchedule` (alpha rule), a `FeasibilityProbs`
    (labeled rule) or None (staged rule: no edge is accepted until its
    entry in `thresholds` is set).  Coin thresholds are `exact_threshold`
    of the rule's acceptance table.  `home` is the instance whose
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
        path = _compile_path(inst, focal, order, oracle)
        self.full = path.full
        self.labeled = isinstance(rule, FeasibilityProbs)
        self.stops = []
        for u, path_eid, out in zip(path.order, path.focal, path.out):
            tents = [*out, None]
            tables = map(cumulative, oracle.choice_laws(u, spec))
            laws = [(cum, [tents[k] for k in picks]) for cum, picks in tables]
            self.stops.append(_Stop(u, home.node_index[u], path_eid, laws, out))
        self.thresholds: list[float | None] = [None] * len(inst.edges)
        for eid, a in ({} if rule is None else rule._acceptance(path)).items():
            self.thresholds[eid] = exact_threshold(a)

    def walk(
        self,
        rng: random.Random,
        choices: Sequence[int],
        steps: list[StepRecord] | None = None,
        stop: int | None = None,
    ) -> tuple[list[int], int, int]:
        """Walk from the source to focal position `stop` (default: the
        sink) under the given outcome choices.  Returns the edges taken,
        the position reached and the label state; appends one record per
        visited node to `steps` when given."""
        rand = rng.random
        stops, thresholds, labeled = self.stops, self.thresholds, self.labeled
        state = self.full
        edges: list[int] = []
        cur = 0
        end = len(stops) if stop is None else stop
        while cur < end:
            node, slot, path_eid, laws, _ = stops[cur]
            cum, tents = laws[choices[slot]]
            tent = tents[bisect_right(cum, rand())]
            taken, nxt, coin, ok = path_eid, cur + 1, None, True
            if tent is not None:
                eid, trans, dst = tent
                if eid == path_eid:
                    if labeled:  # bookkeeping coin: movement is the same either way
                        coin = rand()
                elif trans is None or trans[state] is not None:
                    thr = thresholds[eid]
                    if thr is not None:
                        coin = rand()
                        if coin < thr:
                            if dst is None:
                                raise PolicyError(f"tentative edge {eid} leaves the focal surface")
                            taken, nxt = eid, dst
                            if trans is not None:
                                state = trans[state]
                    elif labeled:
                        raise PolicyError(f"p(e)=0 encountered for a tentative edge with x_e>0 (edge {eid})")
                else:
                    ok = False  # no capacity left for the tentative: no coin
            edges.append(taken)
            if steps is not None:
                tentative, feasible = (None, None) if tent is None else (tent.eid, ok if labeled else None)
                steps.append(StepRecord(node, choices[slot], tentative, feasible, coin, taken))
            cur = nxt
        return edges, cur, state


class PolicyWalk:
    """A policy's trajectory sampler, compiled by one sampler call: one
    walker per cover path.  With several, one is picked uniformly and
    its contracted walk replayed on `inst` through `contracted`.  A
    walk's value is the float of its exact sum over the value numerators
    of `inst.scale`, and a trial's realization is `sample_realization`
    on the trial's stream."""

    def __init__(
        self,
        inst: Instance,
        walkers: Sequence[FocalWalker],
        contracted: Sequence[ContractedInstance] | None = None,
        sub_index: int | None = None,
    ):
        self.inst = inst
        self.walkers = tuple(walkers)
        self.sub_index = sub_index
        # per cover path and contracted edge: the real edges it replays as
        self.replay = contracted and [ci.edges for ci in contracted]
        self.src = [inst.node_index[e.src] for e in inst.edges]
        self.nums, self.den = inst.scale.nums, inst.scale.den

    def _walk(
        self, rng: random.Random, choices: Sequence[int], steps: list[StepRecord] | None
    ) -> tuple[list[int], float, int | None, float | None]:
        """One walk: the real edges taken, their value, the cover path
        walked and, after a replay, the contracted run's value."""
        nums, src, den = self.nums, self.src, self.den
        if not self.replay:
            edges = self.walkers[0].walk(rng, choices, steps)[0]
            return edges, sum([nums[e][choices[src[e]]] for e in edges]) / den, self.sub_index, None
        i = rng.randrange(len(self.walkers))
        inner = [self.replay[i][e] for e in self.walkers[i].walk(rng, choices, steps)[0]]
        edges = [eid for real in inner for eid in real]
        value = sum([nums[e][choices[src[e]]] for e in edges]) / den
        inner_value = sum([nums[real[0]][choices[src[real[0]]]] for real in inner]) / den
        if value < inner_value - 1e-9:
            raise PolicyError("replayed walk lost value against its contracted run")
        return edges, value, i, inner_value

    def trial(self, rng: random.Random) -> tuple[float, float]:
        """One unrecorded Monte Carlo trial on a realization drawn from
        `rng`: the walk's value and its certified value (the contracted
        run's value after a replay, else the value)."""
        _, value, _, inner_value = self._walk(rng, sample_realization(self.inst, rng), None)
        return value, value if inner_value is None else inner_value

    def run(self, rng: random.Random | None, choices: Sequence[int] | None = None) -> Trajectory:
        if rng is None:
            raise PolicyError("a random.Random must be supplied")
        choices = sample_realization(self.inst, rng) if choices is None else choices
        steps: list[StepRecord] = []
        edges, value, sub_index, inner_value = self._walk(rng, choices, steps)
        return Trajectory(tuple(edges), value, tuple(steps), sub_index, inner_value)


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
        """Exact expected value of the walk, from its one forward-engine
        run (for the labeled rule, the one that computed p)."""
        if isinstance(self.rule, AlphaSchedule):
            return evaluate_focal_policy(self.graph, self.focal, self.oracle, self.spec, schedule=self.rule).value
        if self.rule._value is None:
            raise PolicyError("Monte Carlo feasibility probabilities have no exact value")
        return self.rule._value


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


def _covering_focal(inst: Instance, cover: PathCover | None) -> tuple[int, ...]:
    """The path a width-1 policy walks: the single path of `cover`
    (default: the unseeded minimum cover)."""
    cover = min_path_cover(inst) if cover is None else cover
    if cover.width != 1:
        raise PolicyError(
            f"width-1 policy needs a single covering path; this cover has {cover.width} paths"
        )
    return cover.paths[0]


def _labeled_run(inst: Instance, focal: tuple[int, ...], oracle: Oracle) -> FocalRun:
    """The labeled rule on `focal`.  Path-edge tentatives use no
    capacity, so it refuses a labeled focal edge."""
    if any(inst.edges[eid].labels for eid in focal):
        raise PolicyError("focal path must consist of unlabeled edges")
    return FocalRun(inst, focal, oracle, OPT, feasibility_probabilities(inst, focal, oracle=oracle))


# ---------------------------------------------------------------------------
# general covers: contraction, inner runs, replay


@dataclass(frozen=True)
class ContractedInstance:
    graph: Instance
    focal: tuple[int, ...]  # new ids of the cover path's edges
    # per new edge id: its original id, then the original unlabeled
    # connector edges appended on replay
    edges: tuple[tuple[int, ...], ...]


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

    @cache
    def connector_for(v: str) -> tuple[int, ...]:
        return shortest_unlabeled_path(inst, v, order[earliest[inst.node_index[v]]])

    edge_specs: list[tuple[str, str, frozenset[str]]] = []
    replay: list[tuple[int, ...]] = []
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
            new_of[e.id] = len(edge_specs)
            edge_specs.append((u, target, e.labels))
            replay.append((e.id, *conn))

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
    return ContractedInstance(graph, focal, tuple(replay))


def prepare_general_cover(inst: Instance, cover: PathCover | None = None) -> PreparedPolicy:
    """The general policy: one labeled width-1 run on each cover path's
    contraction, picked uniformly per trial."""
    cover = min_path_cover(inst) if cover is None else cover
    contracted = tuple(build_contracted_instance(inst, cover, i) for i in range(cover.width))
    runs = tuple(_labeled_run(ci.graph, ci.focal, Oracle(ci.graph)) for ci in contracted)
    bound = 1 / (cover.width * (inst.max_labels_per_edge + 2))
    params = {"cover": [list(p) for p in cover.paths]}
    return PreparedPolicy(inst, Oracle(inst), runs, cover.width, bound, "1/(k(d+2))", params, contracted)


# ---------------------------------------------------------------------------
# internally disjoint strands


@dataclass(frozen=True)
class DisjointPlan:
    """Strand decomposition for covers that share only source and sink.

    f[i] is the probability the prophet's path stays inside strand i's
    edges; q[i] the probability the strand-restricted baseline equals
    the strand path itself; the policy runs the modified width-1 rule
    on the strand maximizing its restricted baseline's expected value
    over 2 - q.
    """

    cover: PathCover
    edge_sets: tuple[frozenset[int], ...]
    f: tuple[float, ...]
    q: tuple[float, ...]
    specs: tuple[OfflineSpec, ...]
    i_star: int


def build_disjoint_plan(inst: Instance, cover: PathCover | None = None, *, oracle: Oracle) -> DisjointPlan:
    if inst.max_labels_per_edge > 0:
        raise PolicyError("disjoint-paths policy requires an unlabeled instance")
    cover = min_path_cover(inst) if cover is None else cover

    internals = [order[1:-1] for order in cover.node_orders]
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
        cover = cover_from_paths(inst, [cover.paths[i] for i in idx])
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
        specs,
        i_star,
    )


# ---------------------------------------------------------------------------
# the policy registry

# Entries call prepare functions through this module's names, so a
# wrapper installed on one of those names (as in perfbench) applies.


def _width1(inst: Instance, cover: PathCover | None) -> PreparedPolicy:
    """The alpha rule with q = 0 on the covering path.  It ignores
    labels, so it refuses a labeled instance."""
    focal = _covering_focal(inst, cover)
    if inst.max_labels_per_edge > 0:
        raise PolicyError("unlabeled policy cannot run on a labeled instance")
    oracle = Oracle(inst)
    run = FocalRun(inst, focal, oracle, OPT, alpha_schedule(inst, focal, oracle.edge_probabilities(OPT), 0))
    return PreparedPolicy(inst, oracle, (run,), 1, 0.5, "1/2", {"focal": list(focal)})


def _width1_labeled(inst: Instance, cover: PathCover | None) -> PreparedPolicy:
    run = _labeled_run(inst, _covering_focal(inst, cover), Oracle(inst))
    bound = 1 / (inst.max_labels_per_edge + 2)
    return PreparedPolicy(inst, run.oracle, (run,), 1, bound, "1/(d+2)", {"focal": list(run.focal)})


def _general(inst: Instance, cover: PathCover | None) -> PreparedPolicy:
    return prepare_general_cover(inst, cover)


def _disjoint(inst: Instance, cover: PathCover | None) -> PreparedPolicy:
    """The alpha rule with divisor 2 - q on strand i*, against the
    strand-restricted baseline."""
    oracle = Oracle(inst)
    plan = build_disjoint_plan(inst, cover, oracle=oracle)
    i, k = plan.i_star, plan.cover.width
    focal, spec = plan.cover.paths[i], plan.specs[i]
    schedule = alpha_schedule(inst, focal, oracle.edge_probabilities(spec), plan.q[i])
    run = FocalRun(inst, focal, oracle, spec, schedule)
    params = {"cover": [list(p) for p in plan.cover.paths], "strand": i, "q": plan.q[i]}
    return PreparedPolicy(inst, oracle, (run,), k, 1 / (k + 1), "1/(k+1)", params, sub_index=i)


_PREPARE = {
    "width1": _width1,
    "width1-labeled": _width1_labeled,
    "general": _general,
    "disjoint": _disjoint,
}
POLICIES = tuple(_PREPARE)


def prepare_policy(inst: Instance, policy: str, cover: PathCover | None = None) -> PreparedPolicy:
    """Prepare a named policy on `inst`.  `cover` fixes the cover paths;
    by default the policy runs on the unseeded minimum cover.  A seeded
    one is `min_path_cover(inst, seed)`, passed as `cover`."""
    prepare = _PREPARE.get(policy)
    if prepare is None:
        raise ValueError(f"unknown policy {policy!r}; known: {', '.join(POLICIES)}")
    return prepare(inst, cover)


def run_width1_unlabeled(
    inst: Instance, rng: random.Random, cover: PathCover | None = None, *, choices: Sequence[int] | None = None
) -> Trajectory:
    """Width-1 policy for unlabeled graphs: guarantees half the prophet."""
    return prepare_policy(inst, "width1", cover).sampler().run(rng, choices)


# the alpha rule with q = 0 is the width-1 walk itself
run_modified_width1 = run_width1_unlabeled


def run_width1_labeled(
    inst: Instance, rng: random.Random, cover: PathCover | None = None, *, choices: Sequence[int] | None = None
) -> Trajectory:
    """Width-1 policy for label-capacitated graphs: guarantees 1/(d+2)."""
    return prepare_policy(inst, "width1-labeled", cover).sampler().run(rng, choices)


def run_general_cover_policy(
    inst: Instance, rng: random.Random, cover: PathCover | None = None, *, choices: Sequence[int] | None = None
) -> Trajectory:
    """General-cover policy: guarantees 1/(k(d+2)) of the prophet."""
    return prepare_policy(inst, "general", cover).sampler().run(rng, choices)


def run_disjoint_paths_policy(
    inst: Instance, rng: random.Random, cover: PathCover | None = None, *, choices: Sequence[int] | None = None
) -> Trajectory:
    """Internally disjoint strands: guarantees 1/(k+1) of the prophet."""
    return prepare_policy(inst, "disjoint", cover).sampler().run(rng, choices)
