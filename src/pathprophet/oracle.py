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

* The shared pass computes each distinct row of the best-path DP
  (`_BestPathDP.row`) once.  Row i depends only on node i's outcome and
  the rows of the nodes it points to, so the pass walks the nodes from
  the sink up and gives each suffix realization (outcomes at nodes
  i..n-1) a class: its row, the same for two rows whose values agree in
  value and type and whose path ids agree.  A row is computed once per
  outcome of node i and distinct combination of successor classes, and
  C-level `map` and array repetition spread the classes over the
  suffix realizations; a node's classes are freed once the last node
  that reads them is done.  The gain rests on rows that repeat across
  suffix realizations, as on discrete tables; where none repeat, it
  computes as many rows as a plain walk.  Below `DISTINCT_ROWS_FROM`
  realizations a short recursion (`_BestPathDP.ids`) walks them
  instead: it chooses outcomes from the sink up and computes row h once
  per outcome chosen at node h.  The pass stores each realization's
  best path as one interned path id in a flat array (1, 2 or 8 bytes
  each), in node-major `itertools.product` order, the order of
  `model.enumerate_realizations`.  Every spec shares it.
* Per spec, the accumulation maps each distinct path id through the
  spec once, and walks the realizations beside the path ids with
  `itertools.product` over each tabled node's law-bucket rows (a list
  per outcome: a column per out-edge, then None) and, via `math.prod`,
  its masses (`1 * p_0 * p_1 * ...`).  On tables that are not exact
  a realization's edge values come from `product` over the DP's value
  rows, and its mass goes to every bucket (expected value, `x`, path
  law, conditional laws) in the order of a per-realization loop, so
  float statistics are bit-identical to that loop; a realization's
  value term streams into the expected value's sum, with no list.
* Exact tables (`Instance.exact`) run both passes on the integer
  numerators of `Instance.scale`, which compare and tie as the values
  do.  Integers add in any order, so a realization adds its mass only
  to its path's slot in the path law and to its conditional-law
  buckets; `x[e]` is then the mass of the spec paths through e, and the
  expected value is the sum of each row of value numerators times its
  bucket row.  Each statistic becomes one canonical `Fraction` at the
  end, the one `Fraction` arithmetic gives.

Every sum follows one rule, chosen once per table: exact tables add
integer numerators, and every other table adds its own numbers with one
sum picked from the types it holds (`Oracle._table_sum`).  `opt_path`
scores one realization with the same DP rows, and the online DP backs
up expected values over them (`Oracle.optimal_online_value`).  A
source with no live entry is refused once, when the DP is built.  The
policies read the oracle's own tables: the DP's label transitions and
states, and per spec the choice-law rows (`choice_laws`).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product, repeat
from operator import itemgetter, mul
from typing import Sequence

from .cover import chain_nodes
from .errors import InvalidInstanceError
from .model import Instance, active_label_caps, enumeration_size, sample_realization
from .util import check_state_cap, stable_sum, trial_streams

# Below this many realizations the recursion (`_BestPathDP.ids`) is faster: over the benchmark tables of seeds 0-2
# (fastest of 9 on fresh oracles) it took 0.23x the distinct-row pass's time at 1 realization and 0.74x at 64-127.
# At 128-255 single tables span 0.52x-2.13x: 1.18x over the repeat-rich prophet-enum tables (faster on 10 of 26),
# where the pass is most of a job, and 0.74x over the random-valued mc-walk ones (20 of 20).
DISTINCT_ROWS_FROM = 128


def _typecode(count: int) -> str:
    """An array type that holds 0..count-1: one byte, two, or eight."""
    return "B" if count <= 1 << 8 else "H" if count <= 1 << 16 else "q"


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
    capacity.  `out[i]` lists node i's out-edges in `inst.out_edges`
    order, the one column order of the oracle's tables, and `place` maps
    an edge id to its node and column.  Row i has one entry per live
    state of node i (reachable from the source at `full`, with the sink
    in reach): the best value from node i to the sink and an interned
    path id.  Its choices (`cands`: column, dst index, dst's entry; built
    once, in ascending edge id) are the edges to a live state of a later
    node, so an edge against node order is on no path.  A value is
    `values[e] + best[dst]` and ties keep the lower edge id (strict `>`),
    so the source's path is the lexicographically smallest best one.
    The label transitions (`trans`: per edge id the child state per
    state, or None for an edge that uses no binding label) and every
    node's edge values per outcome (`values`) are built once.  `solve`
    fills every row for one set of edge values, for `opt_path`; `row`
    fills one from the rows of later nodes, in the shared pass once per
    distinct row or, in `ids`, once per outcome chosen at its node.
    `opt_path` and the annotation read `values` at `place`, the online
    DP reads `cands`, `values`, `sums` and each node's successors
    (`succ`, as the shared pass does), and the policies' exact engine and
    walker read `trans`.  The shared pass and the annotation add `sums`:
    `values`, or for exact tables their integer numerators.  A source
    without a live state is refused here; callers check the state count
    first.
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
            if not need:
                self.trans.append(None)
                continue
            drop = sum([s for s, _ in need])
            self.trans.append(tuple([st - drop if all([st // s % r for s, r in need]) else None for st in range(n_states)]))
        # out[i]: (edge id, dst index) per out-edge of node i, in `inst.out_edges` order
        self.out = [tuple([(e.id, inst.node_index[e.dst]) for e in edges]) for edges in inst.out_edges]
        # values[i][o]: node i's edge values in outcome o, aligned with out[i]; int 0 for a value the outcome
        # leaves out, at a node without a table and on an edge against node order (validation refuses it)
        self.values = [[tuple([o.values.get(eid, 0) if j > i else 0 for eid, j in row]) for o in table]
                       or [(0,) * len(row)] for i, (row, table) in enumerate(zip(self.out, inst.tables))]
        self.place = {eid: (i, c) for i, row in enumerate(self.out) for c, (eid, _) in enumerate(row)}
        nums = inst.scale.nums if inst.exact else None
        self.sums = self.values if nums is None else [
            [tuple([nums[e][o] for e, _ in out]) for o in range(len(v))] for out, v in zip(self.out, self.values)
        ]
        trans = self.trans
        reach: list[set[int]] = [set() for _ in self.out]  # states reachable from the source at full
        reach[0].add(self.full)
        for i, edges in enumerate(self.out):
            for eid, j in edges:
                if j > i:
                    t = trans[eid]
                    reach[j] |= reach[i] if t is None else {t[s] for s in reach[i]} - {None}
        entry: list[dict[int, int]] = [{} for _ in self.out]  # node -> live state -> its entry
        self.cands: list[tuple[tuple[tuple[int, int, int], ...], ...]] = [()] * len(self.out)
        for i in range(len(self.out) - 1, -1, -1):
            rows = []
            for s in sorted(reach[i]):
                nxt = [(col, j, s if trans[eid] is None else trans[eid][s])
                       for col, (eid, j) in enumerate(self.out[i]) if j > i]
                choices = tuple((col, j, entry[j][c]) for col, j, c in nxt if c in entry[j])
                if choices or i == len(self.out) - 1:  # the sink's entries end every path
                    entry[i][s] = len(rows)
                    rows.append(choices)
            self.cands[i] = tuple(rows)
        self.succ = [sorted({j for choices in rows for _, j, _ in choices}) for rows in self.cands]
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

    def ids(self) -> array:
        """Each realization's source path id at its position in node-major
        product order, choosing outcomes from the sink up; a run of
        single-outcome nodes is a loop, so the recursion is one level deep
        per node with more than one outcome."""
        sums, row = self.sums, self.row
        size = [*accumulate(map(len, reversed(sums)), mul, initial=1)][::-1]  # size[h]: nodes h..n-1's realizations
        ids = array("q", [0]) * size[0]
        vrows = [None] * (len(sums) - 1) + [[0] * len(self.cands[-1])]  # the sink's row, as `solve` has it
        prows = vrows[:]

        def choose(h: int, pos: int) -> None:  # nodes after h have chosen, at product position `pos`
            while h >= 0 and len(sums[h]) == 1:
                row(h, sums[h][0], vrows, prows)
                h -= 1
            if h < 0:
                ids[pos] = prows[0][0]
                return
            for o, vals in enumerate(sums[h]):
                row(h, vals, vrows, prows)
                choose(h - 1, pos + o * size[h + 1])

        for pos in range(len(sums[-1])):  # the sink's outcomes move no row
            choose(len(sums) - 2, pos)
        return ids

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
        return PathSelection(edges, self._table_sum([rows[i][c] for i, c in map(dp.place.__getitem__, edges)]))

    @cached_property
    def _table_sum(self):
        """The table's one sum, picked by the types it holds: `sum` where it holds no float, as on an exact
        table's integer numerators, `math.fsum` on floats, and `stable_sum` only where both mix."""
        kinds = {type(v) for rows in self._dp.values for row in rows for v in row}
        kinds |= {type(o.p) for table in self.inst.tables for o in table}
        frac, flt = (any(issubclass(t, cls) for t in kinds) for cls in (Fraction, float))
        return stable_sum if frac and flt else math.fsum if flt else sum

    @cached_property
    def _best_ids(self) -> array:
        """The shared pass: each realization's unrestricted best path id,
        indexed by its position in node-major product order."""
        count = enumeration_size(self.inst)
        return self._distinct_row_ids() if count >= DISTINCT_ROWS_FROM else self._dp.ids()

    def _distinct_row_ids(self) -> array:
        """The shared pass by classes, from the sink up: each distinct row
        is computed once, per node outcome and successor classes."""
        dp = self._dp
        n = len(dp.out)
        size = [*accumulate(map(len, reversed(dp.sums)), mul, initial=1)][::-1]  # size[h]: nodes h..n-1's realizations
        succ = dp.succ
        last = {j: h for h in range(n - 1, -1, -1) for j in succ[h]}  # the last node that reads j's classes
        ids = [itemgetter(slice(len(rows), 2 * len(rows))) for rows in dp.cands]  # a class key's path ids
        # per node: per class its key (its row's values, path ids and value types), and per suffix
        # realization its class
        keys, cls, vrows, prows = ([None] * n for _ in range(4))
        keys[-1], cls[-1] = [(0,) * (2 * len(dp.cands[-1]))], array("B", [0]) * size[-2]
        for h in filter(dp.cands.__getitem__, range(n - 2, -1, -1)):  # the nodes with live entries
            # per suffix realization of nodes h+1..n-1, its combination of successor classes (`code`, into
            # `listed` if there are several); per combination, each successor's (node, values, path ids)
            cols = [cls[j] if size[j] == size[h + 1] else cls[j] * (size[h + 1] // size[j]) for j in succ[h]]
            j, listed, code = succ[h][0], None, cols[0]
            if len(cols) > 1:
                index = dict.fromkeys(zip(*cols))
                listed = [tuple([(k, keys[k][c], ids[k](keys[k][c])) for k, c in zip(succ[h], key)]) for key in index]
                index.update(zip(index, range(len(index))))
                code = array(_typecode(len(index)), map(index.__getitem__, zip(*cols)))
            classes, per_outcome = {}, []  # per outcome of node h: per combination its class (at the source: path id)
            for vals in dp.sums[h]:
                new = []
                for combo in listed or zip(zip(repeat(j), keys[j], map(ids[j], keys[j]))):
                    for k, row_v, row_p in combo:  # each successor's row in this combination
                        vrows[k], prows[k] = row_v, row_p
                    dp.row(h, vals, vrows, prows)
                    v = vrows[h]
                    new.append(classes.setdefault((*v, *prows[h], *map(type, v)), len(classes)) if h else prows[0][0])
                per_outcome.append(new)
            cls[h] = array(_typecode(len(classes) if h else len(dp.links)))
            for new in per_outcome:
                cls[h].extend(map(new.__getitem__, code))
            keys[h] = list(classes)
            for k in succ[h]:
                if last[k] == h:
                    keys[k] = cls[k] = None
        return cls[0]

    # -- aggregated statistics ----------------------------------------

    def _annotate(self, spec: OfflineSpec) -> _SpecData:
        data = self._specs.get(spec)
        if data is not None:
            return data
        if spec.fallback is not None:
            chain_nodes(self.inst, spec.fallback, "fallback", InvalidInstanceError)
        best = self._best_ids
        dp = self._dp
        inst = self.inst
        tabled = [i for i, table in enumerate(inst.tables) if table]
        # per distinct path id, first seen first: the spec's path, its slot among the distinct
        # spec paths, its bucket column per tabled node and per edge its (node, column)
        chosen = {}
        slot: dict[tuple[int, ...], int] = {}
        for pid in dict.fromkeys(best):
            path = spec.select(dp.path(pid))
            where = [dp.place[eid] for eid in path]
            at_node = dict(where)
            cols = tuple([at_node.get(i, len(dp.out[i])) for i in tabled])
            chosen[pid] = (path, slot.setdefault(path, len(slot)), cols, where)

        xs: list[float] = [0] * len(inst.edges)
        path_mass: list[float] = [0] * len(slot)
        # conditional-law buckets: per tabled node one row per outcome, with a column
        # per out-edge in order and one for None (the path avoids the node)
        buckets = [[[0] * (len(dp.out[i]) + 1) for _ in inst.tables[i]] for i in tabled]
        # product order, the last tabled node fastest: each realization's path id,
        # its bucket rows and its mass `1 * p_0 * p_1 * ...`
        masses = [inst.scale.masses[i] if inst.exact else [o.p for o in inst.tables[i]] for i in tabled]
        walk = zip(best, product(*buckets), map(math.prod, product(*masses)))
        if inst.exact:
            # integer masses (over d = prod(mass_den)) add in any order: a
            # realization adds its mass only to its path's slot and its law buckets
            for pid, rows, m in walk:
                _, p, cols, _ = chosen[pid]
                path_mass[p] += m
                for row, c in zip(rows, cols):
                    row[c] += m
            # x[e]: the mass of the spec paths through e; the expected value:
            # each `dp.sums` row times its bucket row, over d * den
            for path, m in zip(slot, path_mass):
                for eid in path:
                    xs[eid] += m
            total = sum([n * a for i, rows in zip(tabled, buckets)
                         for nums, row in zip(dp.sums[i], rows) for n, a in zip(nums, row)])
            d = math.prod(inst.scale.mass_den)
            expected = Fraction(total, d * inst.scale.den)
            xs = [Fraction(a, d) if a else 0 for a in xs]  # an untouched x stays the int 0 sums start from
            path_mass = [Fraction(m, d) for m in path_mass]
        else:
            # a table that is not exact adds per realization, in product order; a realization's edge
            # values are one row of `dp.sums` per node, and its value term streams into the table's sum
            add = self._table_sum

            def value_terms():
                for (pid, rows, m), vals in zip(walk, product(*dp.sums)):
                    path, p, cols, where = chosen[pid]
                    for eid in path:
                        xs[eid] += m
                    path_mass[p] += m
                    for row, c in zip(rows, cols):
                        row[c] += m
                    yield m * add([vals[i][c] for i, c in where])

            expected = add(value_terms())
        laws: dict[int, tuple[tuple[float, ...], ...]] = {}
        for i, rows in zip(tabled, buckets):
            law_rows = []
            for o, bucket in zip(inst.tables[i], rows):
                p = o.p
                if inst.exact:  # every mass positive; (a / d) / p as one Fraction, and an untouched
                    # bucket keeps `0 / p`: Fraction(0, 1), or the float 0.0 under an int mass
                    zero, num, den = 0 / p, p.denominator, d * p.numerator
                    law_rows.append(tuple([Fraction(a * num, den) if a else zero for a in bucket]))
                else:
                    law_rows.append(tuple([a / p for a in bucket]) if p > 0 else (0,) * (len(bucket) - 1) + (1,))
            laws[i] = tuple(law_rows)
        data = _SpecData(expected, tuple(xs), laws, dict(zip(slot, path_mass)))
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
        if node not in self.inst.node_index:
            raise InvalidInstanceError(f"unknown node {node!r}")
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
        return self._table_sum(terms) / trials

    # -- best fully-informed online walker -----------------------------

    def optimal_online_value(self) -> float:
        """Expected value of the walker that sees each node's outcome on
        arrival and otherwise knows all distributions, by backward
        induction over the best-path DP's live rows: per entry and
        outcome, the best of the entry's choices (the first on ties), and a
        node without a table is one outcome of mass 1.  On exact tables
        entries are integers: node i's over V * prod(mass_den[i:])
        (`scale[i]`), so that the source's is one canonical `Fraction`;
        other tables add their own numbers with the table's one sum."""
        dp, inst = self._dp, self.inst
        n = len(dp.cands)
        if inst.exact:
            scale = [*accumulate(reversed(inst.scale.mass_den), mul, initial=1)][::-1]
            rows, masses, add = dp.sums, inst.scale.masses, sum
        else:
            scale, rows, masses, add = [1] * (n + 1), dp.values, [[o.p for o in t] for t in inst.tables], self._table_sum
        value: list = [None] * n
        value[-1] = [0] * len(dp.cands[-1])
        for i in range(n - 2, -1, -1):
            up = scale[i + 1]  # node i's edge values and its successors' entries, over scale[i + 1]
            later = {j: value[j] if scale[j] == up else [v * (up // scale[j]) for v in value[j]] for j in dp.succ[i]}
            outcomes = [(m, vals if up == 1 else [v * up for v in vals]) for m, vals in zip(masses[i] or [1], rows[i])]
            value[i] = row = []
            # explicit loops: a comprehension per (entry, outcome) costs more than the few choices it scans
            for choices in dp.cands[i]:
                terms = []
                for m, vals in outcomes:
                    best = None
                    for c, j, k in choices:
                        w = vals[c] + later[j][k]
                        if best is None or w > best:  # the first of equal bests, as `max` keeps
                            best = w
                    terms.append(m * best)
                row.append(add(terms))
        out = value[0][0]
        if inst.exact:
            return Fraction(out, inst.scale.den * scale[0])
        if isinstance(out, float) and not math.isfinite(out):
            raise OverflowError(f"optimal online value is {out}")
        return out


# module-level conveniences; each call builds a fresh cache


def expected_opt(inst: Instance, spec: OfflineSpec = OPT) -> float:
    return Oracle(inst).expected_opt(spec)


def optimal_online_value(inst: Instance) -> float:
    return Oracle(inst).optimal_online_value()
