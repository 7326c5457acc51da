"""Instance model: layered DAGs with per-node correlated edge values.

An instance is a DAG whose nodes are listed in topological order, first
node = source, last node = sink.  Each non-sink node carries a finite
outcome table; an outcome fixes the values of all edges leaving that
node simultaneously, so correlation exists only among sibling edges.
Edges may carry labels drawn from a capacitated label set; a walk may
use at most `capacity` edges of each label.  Every labeled edge is
expected to have an unlabeled parallel twin (checked by the validator).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from .errors import EnumerationCapError, InvalidInstanceError
from .util import TOL, cumulative, default_enum_cap, pick


@dataclass(frozen=True)
class EdgeDef:
    id: int
    src: str
    dst: str
    labels: frozenset[str] = frozenset()

    @property
    def is_labeled(self) -> bool:
        return bool(self.labels)


@dataclass(frozen=True)
class Outcome:
    """One joint realization of the values on a node's outgoing edges.

    `values` maps edge id -> value for every edge leaving the node.
    """

    p: float
    values: Mapping[int, float]


# per-node tuple of outcomes; empty for the sink
OutcomeTable = tuple[Outcome, ...]


@dataclass(frozen=True)
class Instance:
    nodes: tuple[str, ...]
    edges: tuple[EdgeDef, ...]
    labels: Mapping[str, int]
    tables: tuple[OutcomeTable, ...]
    meta: Mapping[str, Any] | None = None

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.nodes)}

    @cached_property
    def out_edges(self) -> tuple[tuple[EdgeDef, ...], ...]:
        buckets: list[list[EdgeDef]] = [[] for _ in self.nodes]
        for e in self.edges:
            buckets[self.node_index[e.src]].append(e)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def in_edges(self) -> tuple[tuple[EdgeDef, ...], ...]:
        buckets: list[list[EdgeDef]] = [[] for _ in self.nodes]
        for e in self.edges:
            buckets[self.node_index[e.dst]].append(e)
        return tuple(tuple(b) for b in buckets)

    @property
    def source(self) -> str:
        return self.nodes[0]

    @property
    def sink(self) -> str:
        return self.nodes[-1]

    @cached_property
    def max_labels_per_edge(self) -> int:
        return max((len(e.labels) for e in self.edges), default=0)

    def table_for(self, node: str) -> OutcomeTable:
        return self.tables[self.node_index[node]]

    @classmethod
    def build(
        cls,
        nodes: Sequence[str],
        edge_specs: Sequence[tuple[str, str, Iterable[str]]],
        labels: Mapping[str, int] | None = None,
        outcomes: Mapping[str, Sequence[tuple[float, Mapping[int, float]]]] | None = None,
        meta: Mapping[str, Any] | None = None,
    ) -> "Instance":
        """Assemble an instance; edge ids are dense in edge_specs order."""
        names = tuple(nodes)
        if len(set(names)) != len(names):
            raise InvalidInstanceError("duplicate node names")
        known = set(names)
        edges = []
        for i, (src, dst, lbls) in enumerate(edge_specs):
            if src not in known or dst not in known:
                raise InvalidInstanceError(f"edge {i} references unknown node")
            edges.append(EdgeDef(i, src, dst, frozenset(lbls)))
        outcomes = outcomes or {}
        for node in outcomes:
            if node not in known:
                raise InvalidInstanceError(f"outcomes given for unknown node {node!r}")
        tables = []
        for name in names:
            rows = outcomes.get(name, ())
            tables.append(tuple(Outcome(p, dict(vals)) for p, vals in rows))
        return cls(names, tuple(edges), dict(labels or {}), tuple(tables), meta)


@dataclass(frozen=True)
class Realization:
    """A full sample of the instance: one outcome index per node.

    `values[e]` is the sampled value of edge id e; `mass` is the joint
    probability (product over nodes, by independence across nodes).
    """

    choices: tuple[int, ...]
    values: tuple[float, ...]
    mass: float


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    where: str = ""


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self) -> None:
        if self.violations:
            lines = [f"[{v.code}] {v.message}" for v in self.violations]
            raise InvalidInstanceError("; ".join(lines))


def _reachable(inst: Instance, forward: bool) -> set[int]:
    adj: list[list[int]] = [[] for _ in inst.nodes]
    for e in inst.edges:
        u, v = inst.node_index[e.src], inst.node_index[e.dst]
        if forward:
            adj[u].append(v)
        else:
            adj[v].append(u)
    start = 0 if forward else len(inst.nodes) - 1
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def validate_instance(inst: Instance) -> ValidationReport:
    """Structural checks; hard problems become violations, scale problems warnings."""
    rep = ValidationReport()
    idx = inst.node_index

    if len(inst.nodes) < 2:
        rep.violations.append(Violation("too-few-nodes", "need at least source and sink"))
        return rep

    for i, e in enumerate(inst.edges):
        if e.id != i:
            rep.violations.append(
                Violation("edge-id", f"edge at position {i} has id {e.id}", where=str(i))
            )
        if e.src == e.dst:
            rep.violations.append(Violation("self-loop", f"edge {i} loops at {e.src}", where=str(i)))
        elif idx[e.src] >= idx[e.dst]:
            rep.violations.append(
                Violation(
                    "not-topological",
                    f"edge {i} goes {e.src}->{e.dst} against node order",
                    where=str(i),
                )
            )
        for lbl in sorted(e.labels):
            if lbl not in inst.labels:
                rep.violations.append(
                    Violation("unknown-label", f"edge {i} uses undeclared label {lbl!r}", where=str(i))
                )

    for lbl, cap in inst.labels.items():
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            rep.violations.append(
                Violation("bad-capacity", f"label {lbl!r} has capacity {cap!r}", where=lbl)
            )

    # every labeled edge needs an unlabeled edge with the same endpoints
    plain = {(e.src, e.dst) for e in inst.edges if not e.is_labeled}
    for e in inst.edges:
        if e.is_labeled and (e.src, e.dst) not in plain:
            rep.violations.append(
                Violation(
                    "missing-parallel-unlabeled",
                    f"labeled edge {e.id} ({e.src}->{e.dst}) has no unlabeled twin",
                    where=str(e.id),
                )
            )

    fwd = _reachable(inst, forward=True)
    bwd = _reachable(inst, forward=False)
    for i, name in enumerate(inst.nodes):
        if i not in fwd:
            rep.violations.append(Violation("unreachable", f"node {name!r} unreachable from source", where=name))
        if i not in bwd:
            rep.violations.append(Violation("no-path-to-sink", f"node {name!r} cannot reach sink", where=name))

    for i, name in enumerate(inst.nodes):
        out = inst.out_edges[i]
        table = inst.tables[i]
        if not out:
            if table:
                rep.violations.append(
                    Violation("value-key-mismatch", f"node {name!r} has outcomes but no outgoing edges", where=name)
                )
            continue
        if not table:
            rep.violations.append(Violation("missing-outcomes", f"node {name!r} has no outcome table", where=name))
            continue
        want = {e.id for e in out}
        total = 0.0
        for j, o in enumerate(table):
            # ints and Fractions are always finite; only floats can be NaN or inf
            if isinstance(o.p, float) and not math.isfinite(o.p):
                rep.violations.append(
                    Violation("non-finite", f"outcome {j} of {name!r} has mass {o.p}", where=name)
                )
            elif o.p < 0:
                rep.violations.append(
                    Violation("negative-mass", f"outcome {j} of {name!r} has mass {o.p}", where=name)
                )
            total += o.p
            if set(o.values.keys()) != want:
                rep.violations.append(
                    Violation(
                        "value-key-mismatch",
                        f"outcome {j} of {name!r} keys {sorted(o.values)} != out-edge ids {sorted(want)}",
                        where=name,
                    )
                )
            else:
                for eid, v in o.values.items():
                    if isinstance(v, float) and not math.isfinite(v):
                        msg = f"edge {eid} gets value {v} in outcome {j} of {name!r}"
                        rep.violations.append(Violation("non-finite", msg, where=name))
                    elif v < 0:
                        rep.violations.append(
                            Violation("negative-value", f"edge {eid} gets value {v} in outcome {j} of {name!r}", where=name)
                        )
        if abs(total - 1.0) > TOL:
            rep.violations.append(
                Violation("bad-mass-sum", f"outcome masses of {name!r} sum to {total!r}", where=name)
            )

    count = realization_count(inst)
    if count > default_enum_cap():
        rep.warnings.append(
            f"{count} joint realizations exceed the enumeration cap; exact oracles will refuse, use Monte Carlo"
        )
    return rep


def realization_count(inst: Instance) -> int:
    count = 1
    for table in inst.tables:
        if table:
            count *= len(table)
    return count


def active_label_caps(inst: Instance) -> tuple[tuple[str, int], ...]:
    """Labels that can actually bind, with their capacities, sorted.

    A label whose capacity is at least the number of edges carrying it
    can never be exhausted, so downstream state spaces may ignore it.
    """
    counts: dict[str, int] = {}
    for e in inst.edges:
        for lbl in e.labels:
            counts[lbl] = counts.get(lbl, 0) + 1
    return tuple(
        sorted((lbl, cap) for lbl, cap in inst.labels.items() if cap < counts.get(lbl, 0))
    )


def _fill_values(inst: Instance, choices: Sequence[int]) -> tuple[float, ...]:
    values = [0.0] * len(inst.edges)
    for i, table in enumerate(inst.tables):
        if not table:
            continue
        for eid, v in table[choices[i]].values.items():
            values[eid] = v
    return tuple(values)


def enumerate_realizations(inst: Instance, cap: int | None = None) -> list[Realization]:
    """All joint realizations in deterministic (node-major) order."""
    cap = default_enum_cap() if cap is None else cap
    count = realization_count(inst)
    if count > cap:
        raise EnumerationCapError(
            f"{count} realizations exceed cap {cap}; enumeration too large, use Monte Carlo"
        )
    ranges = [range(len(t)) if t else range(1) for t in inst.tables]
    out = []
    for choices in itertools.product(*ranges):
        mass = 1  # int seed keeps Fraction-valued masses exact
        for i, table in enumerate(inst.tables):
            if table:
                mass *= table[choices[i]].p
        out.append(Realization(tuple(choices), _fill_values(inst, choices), mass))
    return out


def sample_realization(inst: Instance, rng: random.Random) -> Realization:
    choices = []
    mass = 1
    for table in inst.tables:
        if not table:
            choices.append(0)
            continue
        j = pick(cumulative([o.p for o in table]), rng.random())
        choices.append(j)
        mass *= table[j].p
    return Realization(tuple(choices), _fill_values(inst, choices), mass)


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    d: dict[str, Any] = {
        "nodes": list(inst.nodes),
        "labels": dict(inst.labels),
        "edges": [
            {"id": e.id, "src": e.src, "dst": e.dst, "labels": sorted(e.labels)}
            for e in inst.edges
        ],
        "outcomes": {
            name: [
                {"p": o.p, "values": {str(eid): v for eid, v in sorted(o.values.items())}}
                for o in table
            ]
            for name, table in zip(inst.nodes, inst.tables)
            if table
        },
    }
    if inst.meta is not None:
        d["meta"] = dict(inst.meta)
    return d


# exact types, so bool (a subclass of int) is not a number here
_NUMBER_TYPES = frozenset({int, float, Fraction})


def _names(v: Any) -> bool:
    return isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v)


def instance_from_dict(d: Mapping[str, Any]) -> Instance:
    """Build an instance from its JSON document, checking the shape of
    every field; a malformed document raises InvalidInstanceError."""
    if not isinstance(d, Mapping):
        raise InvalidInstanceError("an instance document must be a JSON object")
    try:
        nodes = d["nodes"]
        raw_edges = d["edges"]
    except KeyError as exc:
        raise InvalidInstanceError(f"missing required field: {exc}") from exc
    if not _names(nodes):
        raise InvalidInstanceError("nodes must be a list of node names (strings)")
    if not isinstance(raw_edges, (list, tuple)):
        raise InvalidInstanceError("edges must be a list of edge objects")
    labels = d.get("labels", {})
    if not isinstance(labels, dict):
        raise InvalidInstanceError("labels must be an object of label capacities")
    edge_specs = []
    for i, re_ in enumerate(raw_edges):
        if not isinstance(re_, dict):
            raise InvalidInstanceError(f"edge {i} must be an object, got {re_!r}")
        if "id" in re_ and re_["id"] != i:
            raise InvalidInstanceError(f"edge ids must be dense and ordered, got {re_['id']} at {i}")
        src, dst, lbls = re_.get("src"), re_.get("dst"), re_.get("labels", ())
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise InvalidInstanceError(f"edge {i} needs string src and dst")
        if not _names(lbls):
            raise InvalidInstanceError(f"edge {i}: labels must be a list of label names (strings)")
        edge_specs.append((src, dst, lbls))
    raw_outcomes = d.get("outcomes", {})
    if not isinstance(raw_outcomes, dict):
        raise InvalidInstanceError("outcomes must be an object mapping node names to lists of rows")
    outcomes = {}
    for node, rows in raw_outcomes.items():
        if not isinstance(rows, (list, tuple)):
            raise InvalidInstanceError(f"outcomes of node {node!r} must be a list of rows")
        parsed = []
        for row in rows:
            values = row.get("values") if isinstance(row, dict) else None
            if not isinstance(values, dict):
                raise InvalidInstanceError(f"bad outcome row for node {node!r}: need an object with p and values")
            if not _NUMBER_TYPES.issuperset(map(type, [row.get("p"), *values.values()])):
                raise InvalidInstanceError(f"bad outcome row for node {node!r}: p and values must be numbers")
            try:
                vals = {int(k): float(v) for k, v in values.items()}
            except ValueError as exc:
                raise InvalidInstanceError(f"bad outcome row for node {node!r}: {exc}") from exc
            parsed.append((float(row["p"]), vals))
        outcomes[node] = parsed
    return Instance.build(nodes, edge_specs, labels, outcomes, d.get("meta"))


def _reject_constant(name: str) -> float:
    raise InvalidInstanceError(f"non-finite number {name} in instance file")


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise InvalidInstanceError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(data)


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # files carry plain floats; exact Fraction tables are in-memory only
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
