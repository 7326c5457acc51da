"""Offline baselines and their statistics.

The prophet baseline picks, per joint realization, a maximum-value
source-sink path that respects label capacities, breaking value ties by
the lexicographically smallest edge-id sequence so every quantity here
is deterministic.  On top of the per-realization selection this module
computes expected values, per-edge selection probabilities, and the
choice distribution at a node conditioned on that node's outcome.  It
also computes the value of the best fully-informed online walker by
backward induction over the same `_BestPathDP` rows, so it shares their
live capacity states and the label-budget state cap check.

Exact statistics take one shared pass per oracle and one accumulation
per offline spec; no list of realizations is ever built.

* The shared pass runs the best-path DP (`_BestPathDP`) once per
  realization suffix.  Row i of the DP depends only on the outcomes at
  nodes i..n-1, so the pass walks the realizations with an odometer
  whose fastest digit is the lowest-index node with an outcome table:
  a step that moves node h recomputes rows h..0 and keeps the rows
  above.  Rows have entries only at capacity states reachable from the
  source at full capacity, each looping over choices built once per
  oracle.  It stores each realization's unrestricted best path as one
  interned path id in a flat array (8 bytes per realization), indexed
  by the realization's position in node-major `itertools.product`
  order, the order of `model.enumerate_realizations`.  That result does
  not depend on the spec, so every spec shares it.
* Per spec, the accumulation walks the realizations in that product
  order, maps each distinct path id through the spec, and adds each
  realization's mass `1 * p_0 * p_1 * ...` to its buckets (expected
  value, `x`, path law, conditional laws) with the same operations in
  the same order as a per-realization loop, so float statistics are
  bit-identical to that loop and `Fraction` statistics stay exact.  The
  sum of a path's values is chosen once per table from the types it
  holds, not tested per realization.
* Exact tables (`Instance.exact`) run both passes on the integer
  numerators of `Instance.scale`, which compare and tie as the values
  do, and each statistic becomes one canonical `Fraction` at the end,
  the one `Fraction` arithmetic gives.  Float and mixed tables run on
  their own numbers.

`opt_path` scores one given realization with the same DP rows, and the
online DP backs up expected values over them.  A source with no live
entry is refused once, when the DP is built.  The policies read the
oracle's own tables: the DP's label transitions and states, and per
spec the choice-law rows (`choice_laws`).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import InvalidInstanceError
from .model import Instance, active_label_caps, enumeration_size, sample_realization
from .util import check_state_cap, stable_sum, trial_streams


@dataclass(frozen=True)
class OfflineSpec:
    """Which offline path the statistics refer to.

    With `allowed` None (`OPT`): the unrestricted best path.  Otherwise
    the unrestricted best path when its edges all lie inside `allowed`,
    else the fixed `fallback` path.
    """

    allowed: frozenset[int] | None = None
    fallback: tuple[int, ...] | None = None

    def select(self, best: tuple[int, ...]) -> tuple[int, ...]:
        """The spec's path in a realization whose unrestricted best path
        is `best`."""
        if self.allowed is None or self.allowed.issuperset(best):
            return best
        return self.fallback


OPT = OfflineSpec()


def restricted_spec(allowed, fallback) -> OfflineSpec:
    return OfflineSpec(frozenset(allowed), tuple(fallback))


@dataclass(frozen=True)
class PathSelection:
    edges: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class _SpecData:
    expected: float
    x: tuple[float, ...]
    # node index -> per outcome: the conditional law over the node's
    # out-edges in order, then None
    laws: dict[int, tuple[tuple[float, ...], ...]]
    paths: dict[tuple[int, ...], float]


class _BestPathDP:
    """Best-path rows over (node, remaining label capacity).

    A capacity state is a mixed-radix index over the binding labels'
    remaining capacities; `full`, the last index, has every label at
    capacity.  Row i has one entry per live state of node i (reachable
    from the source at `full`, with the sink in reach): the best value
    from node i to the sink and an interned path id.  Its choices
    (`cands`: column in `out[i]`, dst index, dst's entry; built once, in
    ascending edge id) are the edges to a live child state.  A value is
    `values[e] + best[dst]` and ties keep the lower edge id (strict `>`
    over ascending ids), so the source's path is the
    lexicographically smallest best one.  The label transitions (`trans`:
    per edge id the child state per state, or None for an edge that uses
    no binding label) and every node's edge values per outcome (`values`)
    are built once.  `solve` fills every row for one set of edge values.
    `opt_path` reads `values`, the online DP reads `cands` and `values`,
    and the policies' exact engine and walker read `trans`.  The shared
    pass and the annotation add `sums`: `values`, or for exact tables
    their integer numerators.  A source without a live state is refused
    here.  Callers check the state count first.
    """

    def __init__(self, inst: Instance, active_labels: tuple[tuple[str, int], ...]):
        digit: dict[str, tuple[int, int]] = {}  # label -> (stride, radix)
        n_states = 1
        for lbl, cap in reversed(active_labels):
            digit[lbl] = (n_states, cap + 1)
            n_states *= cap + 1
        self.n_states = n_states
        self.full = n_states - 1
        self.trans: list[tuple[int | None, ...] | None] = []
        for e in inst.edges:
            need = [digit[lbl] for lbl in e.labels if lbl in digit]
            drop = sum(s for s, _ in need)
            states = range(n_states) if need else ()
            row = tuple(st - drop if all(st // s % r for s, r in need) else None for st in states)
            self.trans.append(row or None)
        # out[i]: (edge id, dst index), ascending edge id
        self.out: list[tuple[tuple[int, int], ...]] = []
        # values[i][o]: node i's edge values in outcome o, aligned with out[i];
        # int 0 for a value the outcome leaves out and at a node without a table
        self.values: list[tuple[tuple[float, ...], ...]] = []
        for i, edges in enumerate(inst.out_edges):
            # an edge against node order (validation refuses it) is on no path the DP builds
            row = tuple((e.id, inst.node_index[e.dst]) for e in edges if inst.node_index[e.dst] > i)
            self.out.append(row)
            self.values.append([tuple(o.values.get(eid, 0) for eid, _ in row) for o in inst.tables[i]] or [(0,) * len(row)])
        nums = inst.scale.nums if inst.exact else None
        self.sums = self.values if nums is None else [
            [tuple(nums[e][o] for e, _ in out) for o in range(len(v))] for out, v in zip(self.out, self.values)
        ]
        trans = self.trans
        reach: list[set[int]] = [set() for _ in self.out]  # states reachable from the source at full
        reach[0].add(self.full)
        for i, edges in enumerate(self.out):
            for eid, j in edges:
                t = trans[eid]
                reach[j] |= reach[i] if t is None else {t[s] for s in reach[i]} - {None}
        entry: list[dict[int, int]] = [{} for _ in self.out]  # node -> live state -> its entry
        self.cands: list[tuple[tuple[tuple[int, int, int], ...], ...]] = [()] * len(self.out)
        for i in range(len(self.out) - 1, -1, -1):
            rows = []
            for s in sorted(reach[i]):
                nxt = [(col, j, s if trans[eid] is None else trans[eid][s]) for col, (eid, j) in enumerate(self.out[i])]
                choices = tuple((col, j, entry[j][c]) for col, j, c in nxt if c in entry[j])
                if choices or i == len(self.out) - 1:  # the sink's entries end every path
                    entry[i][s] = len(rows)
                    rows.append(choices)
            self.cands[i] = tuple(rows)
        if not self.cands[0]:
            where = " within label capacities" if n_states > 1 else ""
            raise InvalidInstanceError("source cannot reach sink" + where)
        # path id -> (first edge id, id of the rest); id 0 is the empty path
        self.links: list[tuple[int, int] | None] = [None]
        self._ids: dict[tuple[int, int], int] = {}

    def solve(self, vals: Sequence[Sequence[float]]) -> tuple[list, list]:
        """Value and path-id rows for node i's edge values `vals[i]`,
        aligned with `out[i]`; the source's one entry is at [0][0]."""
        n = len(self.out)
        vrows: list = [None] * n
        prows: list = [None] * n
        vrows[-1] = [0] * len(self.cands[-1])  # int 0 keeps Fraction values exact
        prows[-1] = [0] * len(self.cands[-1])
        for i in range(n - 2, -1, -1):
            self.row(i, vals[i], vrows, prows)
        return vrows, prows

    def row(self, i: int, vals: Sequence[float], vrows: list, prows: list) -> None:
        """Recompute row i from node i's edge values, aligned with
        `out[i]`, and the rows of later nodes."""
        edges = self.out[i]
        ids = self._ids
        best_v = []
        best_p = []
        for choices in self.cands[i]:
            bv = None
            for c, j, k in choices:
                w = vals[c] + vrows[j][k]
                if bv is None or w > bv:
                    bv, bc, bj, bk = w, c, j, k
            key = (edges[bc][0], prows[bj][bk])
            pid = ids.get(key)
            if pid is None:
                pid = ids[key] = len(self.links)
                self.links.append(key)
            best_v.append(bv)
            best_p.append(pid)
        vrows[i], prows[i] = best_v, best_p

    def path(self, pid: int) -> tuple[int, ...]:
        edges = []
        while pid:
            eid, pid = self.links[pid]
            edges.append(eid)
        return tuple(edges)


class Oracle:
    """Per-instance cache of the best path per realization and of the
    offline-path statistics per spec."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self._specs: dict[OfflineSpec, _SpecData] = {}
        self.active_labels = active_label_caps(inst)

    @cached_property
    def _dp(self) -> _BestPathDP:
        check_state_cap(len(self.inst.nodes), [cap for _, cap in self.active_labels], "label-budget")
        return _BestPathDP(self.inst, self.active_labels)

    # -- per-realization selection ------------------------------------

    def opt_path(self, choices: Sequence[int], spec: OfflineSpec = OPT) -> PathSelection:
        """The spec's path and its value when node i draws outcome `choices[i]`."""
        dp = self._dp
        rows = [vals[o] for vals, o in zip(dp.values, choices)]
        _, prows = dp.solve(rows)
        edges = spec.select(dp.path(prows[0][0]))
        value = {eid: v for out, vals in zip(dp.out, rows) for (eid, _), v in zip(out, vals)}
        return PathSelection(edges, stable_sum(value[eid] for eid in edges))

    @cached_property
    def _best_ids(self) -> array:
        """The shared pass: each realization's unrestricted best path id,
        indexed by its position in node-major product order."""
        count = enumeration_size(self.inst)
        dp = self._dp
        n = len(dp.out)
        tables = self.inst.tables
        # (node, outcome count, stride in product order) per odometer digit;
        # nodes with a single outcome never move and are left out
        digits = []
        stride = 1
        for i in range(n - 1, -1, -1):
            if len(tables[i]) > 1:
                digits.append((i, len(tables[i]), stride))
            if tables[i]:
                stride *= len(tables[i])
        digits.reverse()
        ids = array("q", [0]) * count
        vals = [v[0] for v in dp.sums]
        vrows, prows = dp.solve(vals)
        at = [0] * len(digits)
        pos = 0
        while True:
            ids[pos] = prows[0][0]
            # next realization: the lowest-index node moves fastest
            for k, (i, size, stride) in enumerate(digits):
                if at[k] + 1 < size:
                    break
                pos -= at[k] * stride
                at[k] = 0
                vals[i] = dp.sums[i][0]
            else:
                return ids
            at[k] += 1
            pos += stride
            vals[i] = dp.sums[i][at[k]]
            for h in range(min(i, n - 2), -1, -1):
                dp.row(h, vals[h], vrows, prows)

    # -- aggregated statistics ----------------------------------------

    def _annotate(self, spec: OfflineSpec) -> _SpecData:
        data = self._specs.get(spec)
        if data is not None:
            return data
        best = self._best_ids
        dp = self._dp
        inst = self.inst
        masses = inst.scale.masses if inst.exact else [[o.p for o in t] for t in inst.tables]
        # one path-value sum per table: exact on ints and Fractions, compensated on floats,
        # `stable_sum` (a type test per path) only when floats and Fractions mix
        kinds = {type(v) for rows in dp.sums for row in rows for v in row} | {type(p) for row in masses for p in row}
        frac, flt = (any(issubclass(t, cls) for t in kinds) for cls in (Fraction, float))
        add = stable_sum if frac and flt else math.fsum if flt else sum
        tabled = [i for i, table in enumerate(inst.tables) if table]
        # conditional-law buckets: per node with a table a block of rows,
        # one per outcome, with a column per out-edge in order and one
        # for None (the path avoids the node)
        width = [len(inst.out_edges[i]) + 1 for i in tabled]
        base = [0]
        for k, i in enumerate(tabled):
            base.append(base[k] + len(inst.tables[i]) * width[k])
        acc: list[float] = [0] * base[-1]
        column = {e.id: c for out in inst.out_edges for c, e in enumerate(out)}
        edge_src = [inst.node_index[e.src] for e in inst.edges]
        # per distinct path id, first seen first: the spec's path, its slot
        # among the distinct spec paths and its bucket column per tabled node
        chosen = {}
        slot: dict[tuple[int, ...], int] = {}
        for pid in dict.fromkeys(best):
            path = spec.select(dp.path(pid))
            at_node = {edge_src[eid]: column[eid] for eid in path}
            cols = tuple(at_node.get(i, w - 1) for i, w in zip(tabled, width))
            chosen[pid] = (path, slot.setdefault(path, len(slot)), cols)

        last = len(tabled) - 1
        sizes = [len(inst.tables[i]) for i in tabled]
        at = [0] * len(tabled)
        prefix = [1] * (len(tabled) + 1)  # prefix[k + 1] = 1 * p_0 * ... * p_k; int keeps Fraction exact
        rows = [0] * len(tabled)  # bucket offset of each tabled node's current outcome
        cur = [0] * len(inst.edges)  # the current realization's edge values

        def settle(first: int) -> None:
            for k in range(first, len(tabled)):
                i, o = tabled[k], at[k]
                prefix[k + 1] = prefix[k] * masses[i][o]
                rows[k] = base[k] + o * width[k]
                for (eid, _), v in zip(dp.out[i], dp.sums[i][o]):
                    cur[eid] = v

        settle(0)
        xs: list[float] = [0] * len(inst.edges)
        path_mass: list[float] = [0] * len(slot)
        value_of = cur.__getitem__
        value_terms = []
        for pid in best:
            path, p, cols = chosen[pid]
            m = prefix[-1]
            value_terms.append(m * add(map(value_of, path)))
            for eid in path:
                xs[eid] += m
            path_mass[p] += m
            for r, c in zip(rows, cols):
                acc[r + c] += m
            # next realization in product order: the last node moves fastest
            k = last
            while k >= 0 and at[k] + 1 == sizes[k]:
                at[k] = 0
                k -= 1
            if k >= 0:
                at[k] += 1
                settle(k)

        if inst.exact:  # masses over d = prod(mass_den); an untouched bucket stays the int 0 sums start from
            d = math.prod(inst.scale.mass_den)
            xs, acc = ([Fraction(a, d) if a else 0 for a in buckets] for buckets in (xs, acc))
            path_mass = [Fraction(m, d) for m in path_mass]
            value_terms = [Fraction(sum(value_terms), d * inst.scale.den)]
        laws: dict[int, tuple[tuple[float, ...], ...]] = {}
        for k, i in enumerate(tabled):
            w = width[k]
            laws[i] = tuple(
                tuple(a / o.p for a in acc[start : start + w]) if o.p > 0 else (0,) * (w - 1) + (1,)
                for start, o in zip(range(base[k], base[k + 1], w), inst.tables[i])
            )
        data = _SpecData(stable_sum(value_terms), tuple(xs), laws, dict(zip(slot, path_mass)))
        self._specs[spec] = data
        return data

    def expected_opt(self, spec: OfflineSpec = OPT) -> float:
        return self._annotate(spec).expected

    def edge_probabilities(self, spec: OfflineSpec = OPT) -> tuple[float, ...]:
        """x[e]: the probability that the spec's path uses edge e."""
        return self._annotate(spec).x

    def choice_laws(self, node: str, spec: OfflineSpec = OPT) -> tuple[tuple[float, ...], ...]:
        """Per outcome of `node`: the law of the offline selection's edge
        out of it given that outcome, one column per out-edge in order,
        then one for None (the selection avoids the node)."""
        laws = self._annotate(spec).laws.get(self.inst.node_index[node])
        if laws is None:
            raise InvalidInstanceError(f"node {node!r} has no outcome table")
        return laws

    def conditional_choice_distribution(
        self, node: str, outcome_idx: int, spec: OfflineSpec = OPT
    ) -> dict[int | None, float]:
        """Law of the offline selection's edge out of `node` (or None when
        the selection avoids the node), given the node drew `outcome_idx`."""
        law = self.choice_laws(node, spec)[outcome_idx]
        keys: list[int | None] = [e.id for e in self.inst.out_edges[self.inst.node_index[node]]]
        return dict(zip(keys + [None], law))

    def path_distribution(self, spec: OfflineSpec = OPT) -> dict[tuple[int, ...], float]:
        return dict(self._annotate(spec).paths)

    # -- Monte Carlo fallback -----------------------------------------

    def expected_opt_mc(self, trials: int, seed: int) -> float:
        if trials < 1:
            raise ValueError("trials must be positive")
        rngs = trial_streams(trials, seed, "opt")
        terms = [self.opt_path(sample_realization(self.inst, rng)).value for rng in rngs]
        return stable_sum(terms) / trials

    # -- best fully-informed online walker -----------------------------

    def optimal_online_value(self) -> float:
        """Expected value of the walker that sees each node's outcome on
        arrival and otherwise knows all distributions, by backward
        induction over the best-path DP's live rows: per entry and
        outcome, the best of the entry's choices (the first on ties)."""
        dp = self._dp
        value: list = [None] * len(dp.cands)
        value[-1] = [0] * len(dp.cands[-1])
        for i in range(len(dp.cands) - 2, -1, -1):
            # a node without a table is one outcome of mass 1, as in the offline pass
            outcomes = list(zip([o.p for o in self.inst.tables[i]] or [1], dp.values[i]))
            value[i] = [
                stable_sum(p * max(vals[c] + value[j][k] for c, j, k in choices) for p, vals in outcomes)
                for choices in dp.cands[i]
            ]
        out = value[0][0]
        if isinstance(out, float) and not math.isfinite(out):
            raise OverflowError(f"optimal online value is {out}")
        return out


# module-level conveniences; each call builds a fresh cache


def expected_opt(inst: Instance, spec: OfflineSpec = OPT) -> float:
    return Oracle(inst).expected_opt(spec)


def optimal_online_value(inst: Instance) -> float:
    return Oracle(inst).optimal_online_value()
