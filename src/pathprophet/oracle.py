"""Offline baselines and their statistics.

The prophet baseline picks, per joint realization, a maximum-value
source-sink path that respects label capacities, breaking value ties by
the lexicographically smallest edge-id sequence so every quantity here
is deterministic.  On top of the per-realization selection this module
computes expected values, per-edge selection probabilities, and the
choice distribution at a node conditioned on that node's outcome.  It
also computes the value of the best fully-informed online walker by
backward induction.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import InvalidInstanceError, StateCapError
from .model import (
    Instance,
    Realization,
    active_label_caps,
    enumerate_realizations,
    sample_realization,
)
from .util import DEFAULT_STATE_CAP, cumulative, derive_seed, stable_sum


@dataclass(frozen=True)
class OfflineSpec:
    """Which offline path the statistics refer to.

    kind "opt": unrestricted best path.
    kind "restricted": the unrestricted best path when its edges all lie
    inside `allowed`, otherwise the fixed `fallback` path.
    """

    kind: str = "opt"
    allowed: frozenset[int] | None = None
    fallback: tuple[int, ...] | None = None


OPT = OfflineSpec()


def restricted_spec(allowed, fallback) -> OfflineSpec:
    return OfflineSpec("restricted", frozenset(allowed), tuple(fallback))


@dataclass(frozen=True)
class PathSelection:
    edges: tuple[int, ...]
    value: float
    label_usage: Mapping[str, int]


@dataclass(frozen=True)
class EdgeProbabilities:
    """x[e] = probability the offline selection uses edge e."""

    x: tuple[float, ...]
    spec: OfflineSpec

    def as_dict(self) -> dict[int, float]:
        return {i: v for i, v in enumerate(self.x)}


@dataclass
class _SpecData:
    expected: float
    x: tuple[float, ...]
    # node index -> outcome index -> {edge id or None: conditional prob}
    cond: dict[int, list[dict[int | None, float]]]
    paths: dict[tuple[int, ...], float]
    tables: dict[int, list[tuple[list[float], int]]] | None = None


class Oracle:
    """Per-instance cache of realizations and offline-path statistics."""

    def __init__(self, inst: Instance, enum_cap: int | None = None):
        self.inst = inst
        self.enum_cap = enum_cap
        self._realizations: list[Realization] | None = None
        self._specs: dict[OfflineSpec, _SpecData] = {}
        self.active_labels = active_label_caps(inst)
        self._active_pos = {lbl: i for i, (lbl, _) in enumerate(self.active_labels)}

    # -- per-realization selection ------------------------------------

    @property
    def realizations(self) -> list[Realization]:
        if self._realizations is None:
            self._realizations = enumerate_realizations(self.inst, self.enum_cap)
        return self._realizations

    def _selection_for(self, edges: tuple[int, ...], values: Sequence[float]) -> PathSelection:
        usage = Counter()
        for eid in edges:
            usage.update(self.inst.edges[eid].labels)
        value = stable_sum(values[eid] for eid in edges)
        return PathSelection(edges, value, dict(usage))

    def _best_unrestricted(self, values: Sequence[float]) -> tuple[int, ...]:
        inst = self.inst
        n = len(inst.nodes)
        if not self.active_labels:
            best_val: list[float | None] = [None] * n
            best_path: list[tuple[int, ...]] = [()] * n
            best_val[n - 1] = 0  # int literal keeps Fraction values exact
            for i in range(n - 2, -1, -1):
                bv = None
                bp: tuple[int, ...] = ()
                for e in inst.out_edges[i]:  # ascending id, so ties keep lex-min
                    j = inst.node_index[e.dst]
                    if best_val[j] is None:
                        continue
                    w = values[e.id] + best_val[j]
                    if bv is None or w > bv:
                        bv, bp = w, (e.id,) + best_path[j]
                best_val[i], best_path[i] = bv, bp
            if best_val[0] is None:
                raise InvalidInstanceError("source cannot reach sink")
            return best_path[0]

        caps = tuple(cap for _, cap in self.active_labels)
        ranges = [range(c + 1) for c in caps]
        # best[i][remaining] = (value, edge ids) from node i with that much capacity left
        best: list[dict[tuple[int, ...], tuple[float, tuple[int, ...]] | None]] = [
            {} for _ in range(n)
        ]
        for rem in itertools.product(*ranges):
            best[n - 1][rem] = (0, ())
        for i in range(n - 2, -1, -1):
            for rem in itertools.product(*ranges):
                cand = None
                for e in inst.out_edges[i]:
                    need = [self._active_pos[lbl] for lbl in e.labels if lbl in self._active_pos]
                    if any(rem[k] == 0 for k in need):
                        continue
                    child = list(rem)
                    for k in need:
                        child[k] -= 1
                    sub = best[inst.node_index[e.dst]][tuple(child)]
                    if sub is None:
                        continue
                    w = values[e.id] + sub[0]
                    if cand is None or w > cand[0]:
                        cand = (w, (e.id,) + sub[1])
                best[i][rem] = cand
        top = best[0][caps]
        if top is None:
            raise InvalidInstanceError("source cannot reach sink within label capacities")
        return top[1]

    def opt_path(self, realization: Realization, spec: OfflineSpec = OPT) -> PathSelection:
        edges = self._best_unrestricted(realization.values)
        if spec.kind == "restricted":
            if not set(edges) <= spec.allowed:
                edges = spec.fallback
        elif spec.kind != "opt":
            raise ValueError(f"unknown offline spec kind {spec.kind!r}")
        return self._selection_for(edges, realization.values)

    # -- aggregated statistics ----------------------------------------

    def _annotate(self, spec: OfflineSpec) -> _SpecData:
        data = self._specs.get(spec)
        if data is not None:
            return data
        inst = self.inst
        edge_src = [inst.node_index[e.src] for e in inst.edges]
        xs: list[float] = [0] * len(inst.edges)
        cond_mass: dict[int, list[dict[int | None, float]]] = {
            i: [{} for _ in table] for i, table in enumerate(inst.tables) if table
        }
        paths: dict[tuple[int, ...], float] = {}
        value_terms = []
        for r in self.realizations:
            sel = self.opt_path(r, spec)
            m = r.mass
            value_terms.append(m * sel.value)
            at_node = {edge_src[eid]: eid for eid in sel.edges}
            for eid in sel.edges:
                xs[eid] += m
            paths[sel.edges] = paths.get(sel.edges, 0) + m
            for i in cond_mass:
                law = cond_mass[i][r.choices[i]]
                key = at_node.get(i)
                law[key] = law.get(key, 0) + m
        cond: dict[int, list[dict[int | None, float]]] = {}
        for i, per_outcome in cond_mass.items():
            table = inst.tables[i]
            keys: list[int | None] = [e.id for e in inst.out_edges[i]]
            keys.append(None)
            rows = []
            for o_idx, law in enumerate(per_outcome):
                p = table[o_idx].p
                if p <= 0:
                    rows.append({k: (1 if k is None else 0) for k in keys})
                else:
                    rows.append({k: law.get(k, 0) / p for k in keys})
            cond[i] = rows
        data = _SpecData(stable_sum(value_terms), tuple(xs), cond, paths)
        self._specs[spec] = data
        return data

    def expected_opt(self, spec: OfflineSpec = OPT) -> float:
        return self._annotate(spec).expected

    def edge_probabilities(self, spec: OfflineSpec = OPT) -> EdgeProbabilities:
        return EdgeProbabilities(self._annotate(spec).x, spec)

    def conditional_choice_distribution(
        self, node: str, outcome_idx: int, spec: OfflineSpec = OPT
    ) -> dict[int | None, float]:
        """Law of the offline selection's edge out of `node` (or None when
        the selection avoids the node), given the node drew `outcome_idx`."""
        i = self.inst.node_index[node]
        data = self._annotate(spec)
        if i not in data.cond:
            raise InvalidInstanceError(f"node {node!r} has no outcome table")
        return dict(data.cond[i][outcome_idx])

    def choice_tables(self, spec: OfflineSpec = OPT) -> dict[int, list[tuple[list[float], int]]]:
        """The conditional choice laws as float cumulative tables
        (`util.cumulative`) over the node's out-edges in order, then
        None; built once per spec, for samplers."""
        data = self._annotate(spec)
        if data.tables is None:
            data.tables = {}
            for i, rows in data.cond.items():
                keys: list[int | None] = [e.id for e in self.inst.out_edges[i]]
                keys.append(None)
                data.tables[i] = [cumulative([law[k] for k in keys]) for law in rows]
        return data.tables

    def path_distribution(self, spec: OfflineSpec = OPT) -> dict[tuple[int, ...], float]:
        return dict(self._annotate(spec).paths)

    # -- Monte Carlo fallbacks ----------------------------------------

    def expected_opt_mc(self, trials: int, seed: int, spec: OfflineSpec = OPT) -> float:
        terms = []
        for j in range(trials):
            rng = random.Random(derive_seed(seed, "opt", j))
            r = sample_realization(self.inst, rng)
            terms.append(self.opt_path(r, spec).value)
        return stable_sum(terms) / trials

    def conditional_choice_distribution_mc(
        self, node: str, outcome_idx: int, trials: int, seed: int, spec: OfflineSpec = OPT
    ) -> dict[int | None, float]:
        inst = self.inst
        i = inst.node_index[node]
        if not inst.tables[i]:
            raise InvalidInstanceError(f"node {node!r} has no outcome table")
        edge_src = {e.id: i for e in inst.out_edges[i]}
        keys: list[int | None] = [e.id for e in inst.out_edges[i]]
        keys.append(None)
        tally: dict[int | None, int] = {k: 0 for k in keys}
        for j in range(trials):
            rng = random.Random(derive_seed(seed, "cond", node, outcome_idx, j))
            r = sample_realization(inst, rng)
            if r.choices[i] != outcome_idx:
                forced = list(r.choices)
                forced[i] = outcome_idx
                values = list(r.values)
                for eid, v in inst.tables[i][outcome_idx].values.items():
                    values[eid] = v
                r = Realization(tuple(forced), tuple(values), 0.0)
            sel = self.opt_path(r, spec)
            hit = None
            for eid in sel.edges:
                if eid in edge_src:
                    hit = eid
                    break
            tally[hit] += 1
        return {k: v / trials for k, v in tally.items()}

    # -- best fully-informed online walker -----------------------------

    def optimal_online_value(self, state_cap: int | None = None) -> float:
        """Expected value of the walker that sees each node's outcome on
        arrival and otherwise knows all distributions."""
        inst = self.inst
        cap = DEFAULT_STATE_CAP if state_cap is None else state_cap
        caps = tuple(c for _, c in self.active_labels)
        n_states = len(inst.nodes)
        for c in caps:
            n_states *= c + 1
        if n_states > cap:
            raise StateCapError(f"{n_states} online states exceed cap {cap}")
        n = len(inst.nodes)
        ranges = [range(c + 1) for c in caps]
        value: list[dict[tuple[int, ...], float]] = [{} for _ in range(n)]
        for rem in itertools.product(*ranges):
            value[n - 1][rem] = 0
        for i in range(n - 2, -1, -1):
            table = inst.tables[i]
            for rem in itertools.product(*ranges):
                per_outcome = []
                for o in table:
                    best = None
                    for e in inst.out_edges[i]:
                        need = [self._active_pos[lbl] for lbl in e.labels if lbl in self._active_pos]
                        if any(rem[k] == 0 for k in need):
                            continue
                        child = list(rem)
                        for k in need:
                            child[k] -= 1
                        w = o.values[e.id] + value[inst.node_index[e.dst]][tuple(child)]
                        if best is None or w > best:
                            best = w
                    if best is None:
                        raise InvalidInstanceError(
                            f"walker can get stuck at {inst.nodes[i]!r}; every node needs an unlabeled way forward"
                        )
                    per_outcome.append(o.p * best)
                value[i][rem] = stable_sum(per_outcome)
        full = tuple(caps)
        return value[0][full]


# module-level conveniences; each call builds a fresh cache


def expected_opt(inst: Instance, spec: OfflineSpec = OPT, enum_cap: int | None = None) -> float:
    return Oracle(inst, enum_cap).expected_opt(spec)


def edge_probabilities(inst: Instance, spec: OfflineSpec = OPT, enum_cap: int | None = None) -> EdgeProbabilities:
    return Oracle(inst, enum_cap).edge_probabilities(spec)


def conditional_choice_distribution(
    inst: Instance, node: str, outcome_idx: int, spec: OfflineSpec = OPT, enum_cap: int | None = None
) -> dict[int | None, float]:
    return Oracle(inst, enum_cap).conditional_choice_distribution(node, outcome_idx, spec)


def optimal_online_value(inst: Instance, state_cap: int | None = None) -> float:
    return Oracle(inst).optimal_online_value(state_cap)
