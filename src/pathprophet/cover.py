"""Minimum source-to-sink path covers and graph width.

The width of an instance is the smallest number of source-to-sink paths
whose node sets together cover every node; it equals the size of a
largest antichain of the reachability order.  `min_path_cover` builds
an actual cover of that size (the tests cross-check it against a
brute-force antichain search on small graphs).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .errors import CoverError
from .model import Instance
from .util import derive_seed


@dataclass(frozen=True)
class PathCover:
    """A set of source-to-sink paths whose nodes cover the whole graph."""

    paths: tuple[tuple[int, ...], ...]  # edge ids, in walking order
    node_orders: tuple[tuple[str, ...], ...]

    @property
    def width(self) -> int:
        return len(self.paths)


def shortest_unlabeled_path(inst: Instance, src: str, dst: str) -> tuple[int, ...]:
    """Fewest-edge path from src to dst using unlabeled edges only.

    Deterministic: BFS expands nodes in discovery order and scans
    out-edges in id order, so ties resolve to the smallest edge ids.
    Raises CoverError when dst cannot be reached without labels.
    """
    si, di = inst.node_index[src], inst.node_index[dst]
    if si == di:
        return ()
    via: dict[int, int] = {}
    queue = deque([si])
    while queue:
        u = queue.popleft()
        for e in inst.out_edges[u]:
            if e.labels:
                continue
            v = inst.node_index[e.dst]
            if v == si or v in via:
                continue
            via[v] = e.id
            if v == di:
                edges = []
                w = di
                while w != si:
                    eid = via[w]
                    edges.append(eid)
                    w = inst.node_index[inst.edges[eid].src]
                return tuple(reversed(edges))
            queue.append(v)
    raise CoverError(f"no unlabeled path from {src!r} to {dst!r}")


def _reachability(inst: Instance) -> list[int]:
    """reach[i] = bitmask of nodes strictly reachable from node i."""
    n = len(inst.nodes)
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        acc = 0
        for e in inst.out_edges[i]:
            j = inst.node_index[e.dst]
            acc |= (1 << j) | reach[j]
        reach[i] = acc
    return reach


def _hopcroft_karp(n: int, adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Maximum bipartite matching; left/right sides are both node ids."""
    INF = float("inf")
    match_l: list[int] = [-1] * n
    match_r: list[int] = [-1] * n
    while True:
        dist = [INF] * n
        queue = deque()
        for u in range(n):
            if match_l[u] == -1 and adj[u]:
                dist[u] = 0
                queue.append(u)
        reachable_free = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    reachable_free = True
                elif dist[w] is INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not reachable_free:
            return match_l, match_r

        def try_augment(u: int) -> bool:
            for v in adj[u]:
                w = match_r[v]
                if w == -1 or (dist[w] == dist[u] + 1 and try_augment(w)):
                    match_l[u] = v
                    match_r[v] = u
                    return True
            dist[u] = INF
            return False

        for u in range(n):
            if match_l[u] == -1 and adj[u]:
                try_augment(u)


def min_path_cover(inst: Instance, seed: int | None = None) -> PathCover:
    """Cover all nodes with as few source-to-sink paths as possible.

    Chains of the reachability order come from a maximum matching on the
    split bipartite graph; consecutive chain nodes are then joined by
    fewest-edge unlabeled connectors, and every chain is completed with a
    source prefix and sink suffix.  Passing a seed permutes the matching
    adjacency, which can surface a different (equally small) cover.
    """
    n = len(inst.nodes)
    reach = _reachability(inst)
    adj = [[j for j in range(n) if reach[i] >> j & 1] for i in range(n)]
    if seed is not None:
        rng = random.Random(derive_seed(seed, "cover"))
        for row in adj:
            rng.shuffle(row)
    match_l, match_r = _hopcroft_karp(n, adj)

    chains = []
    for head in range(n):
        if match_r[head] != -1:
            continue
        chain = [head]
        while match_l[chain[-1]] != -1:
            chain.append(match_l[chain[-1]])
        chains.append(chain)

    names = inst.nodes
    paths = []
    orders = []
    covered: set[str] = set()
    for chain in chains:
        edges: list[int] = []
        hops = [0] + chain if chain[0] != 0 else list(chain)
        if hops[-1] != n - 1:
            hops.append(n - 1)
        for a, b in zip(hops, hops[1:]):
            edges.extend(shortest_unlabeled_path(inst, names[a], names[b]))
        order = [inst.edges[edges[0]].src] if edges else [inst.source]
        for eid in edges:
            order.append(inst.edges[eid].dst)
        paths.append(tuple(edges))
        orders.append(tuple(order))
        covered.update(order)
    if covered != set(names):
        raise CoverError("constructed cover misses nodes: " + ", ".join(sorted(set(names) - covered)))
    if len(paths) != n - sum(1 for v in match_l if v != -1):
        raise CoverError("chain count disagrees with matching size")
    return PathCover(tuple(paths), tuple(orders))


def cover_from_paths(inst: Instance, paths: list[list[int]] | tuple[tuple[int, ...], ...]) -> PathCover:
    """Wrap explicit edge-id paths as a PathCover, checking they are
    genuine source-to-sink paths that jointly cover every node."""
    out_paths = []
    orders = []
    covered: set[str] = set()
    for p in paths:
        if not p:
            raise CoverError("cover path must contain at least one edge")
        order = [inst.edges[p[0]].src]
        for eid in p:
            e = inst.edges[eid]
            if e.src != order[-1]:
                raise CoverError(f"edge {eid} does not continue the path at {order[-1]!r}")
            order.append(e.dst)
        if order[0] != inst.source or order[-1] != inst.sink:
            raise CoverError("cover path must run from source to sink")
        out_paths.append(tuple(p))
        orders.append(tuple(order))
        covered.update(order)
    if covered != set(inst.nodes):
        raise CoverError("paths do not cover all nodes: missing " + ", ".join(sorted(set(inst.nodes) - covered)))
    return PathCover(tuple(out_paths), tuple(orders))
