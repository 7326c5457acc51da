"""Slow reference implementations used only by the tests.

Everything here enumerates explicitly (realizations, paths, the online
walker's label usage, branches of a policy's coin tree, antichains) and
shares no code with the package's fast paths, so agreement between the
two is meaningful.  The two exceptions score realizations with the
package's per-realization selection (`Oracle.opt_path`, itself checked
against the path search here): the Monte Carlo conditional choice law,
and the per-realization annotation loop, which checks that the oracle's
shared pass gives the same statistics bit for bit.  Meant for instances
with a handful of nodes.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import defaultdict

from pathprophet import StateCapError, sample_realization
from pathprophet.oracle import OPT
from pathprophet.util import derive_seed, stable_sum


def iter_realizations(inst):
    """Yield (choices, values, mass) by direct product enumeration."""
    ranges = [range(len(t)) if t else range(1) for t in inst.tables]
    for choices in itertools.product(*ranges):
        mass = 1
        values = [0] * len(inst.edges)
        for i, table in enumerate(inst.tables):
            if not table:
                continue
            row = table[choices[i]]
            mass = mass * row.p
            for eid, v in row.values.items():
                values[eid] = v
        yield choices, tuple(values), mass


def all_feasible_paths(inst):
    """Every source-sink edge-id path obeying label caps, in lex order."""
    caps = dict(inst.labels)
    out = inst.out_edges
    idx = inst.node_index
    found = []
    usage = defaultdict(int)
    prefix = []

    def dfs(node):
        if node == inst.sink:
            found.append(tuple(prefix))
            return
        for e in out[idx[node]]:  # edge ids ascend within a bucket
            if any(usage[l] + 1 > caps[l] for l in e.labels):
                continue
            for l in e.labels:
                usage[l] += 1
            prefix.append(e.id)
            dfs(e.dst)
            prefix.pop()
            for l in e.labels:
                usage[l] -= 1

    dfs(inst.source)
    return found


def best_feasible_path(paths, values, allowed=None, fallback=None):
    """Max-value path; ties go to the lexicographically smallest edge
    sequence.  With `allowed`, fall back when the winner leaves it."""
    best = None
    best_v = None
    for p in paths:  # lex generation order, so the first max wins
        v = sum(values[e] for e in p)
        if best_v is None or v > best_v:
            best, best_v = p, v
    if best is None:
        raise AssertionError("no feasible source-sink path")
    if allowed is not None and not set(best) <= set(allowed):
        best = tuple(fallback)
        best_v = sum(values[e] for e in best)
    return best, best_v


def offline_statistics(inst, allowed=None, fallback=None):
    """Expected best-path value, per-edge selection probabilities,
    conditional choice laws, and the path distribution, all by direct
    enumeration.  Returns (expected, x, cond, path_dist) where cond maps
    node name -> outcome index -> {edge id or None: prob}."""
    paths = all_feasible_paths(inst)
    x = [0] * len(inst.edges)
    expected = 0
    law_mass = {
        i: [defaultdict(int) for _ in t] for i, t in enumerate(inst.tables) if t
    }
    path_dist = defaultdict(int)
    for choices, values, mass in iter_realizations(inst):
        sel, v = best_feasible_path(paths, values, allowed, fallback)
        expected += mass * v
        path_dist[sel] += mass
        at = {inst.node_index[inst.edges[e].src]: e for e in sel}
        for e in sel:
            x[e] += mass
        for i, laws in law_mass.items():
            laws[choices[i]][at.get(i)] += mass
    cond = {}
    for i, per_outcome in law_mass.items():
        rows = []
        for o, law in enumerate(per_outcome):
            p = inst.tables[i][o].p
            if p <= 0:
                rows.append({None: 1})
            else:
                rows.append({k: m / p for k, m in law.items()})
        cond[inst.nodes[i]] = rows
    return expected, x, cond, dict(path_dist)


def online_value(inst):
    """Expected value of the best fully informed online walker, by
    recursion over (node, used count per declared label): in each
    outcome of a node the walker takes the best out-edge that fits the
    label capacities and still leaves the sink in reach.  None when no
    source-sink path fits."""
    names = sorted(inst.labels)
    caps = [inst.labels[lbl] for lbl in names]
    sink = len(inst.nodes) - 1

    @functools.cache
    def best_from(i, used):
        if i == sink:
            return 0
        moves = []
        for e in inst.out_edges[i]:
            after = tuple(u + (lbl in e.labels) for lbl, u in zip(names, used))
            if all(u <= c for u, c in zip(after, caps)):
                rest = best_from(inst.node_index[e.dst], after)
                if rest is not None:
                    moves.append((e.id, rest))
        if not moves:
            return None
        rows = [(o.p, o.values) for o in inst.tables[i]] or [(1, {})]
        return sum(p * max(values.get(eid, 0) + rest for eid, rest in moves) for p, values in rows)

    return best_from(0, (0,) * len(names))


def policy_tree(inst, focal, laws, accept):
    """Exact statistics of a focal-path policy by branching over every
    realization, tentative draw, and acceptance coin.

    laws: node name -> outcome index -> {edge id or None: prob} (the
    tentative law).  accept: edge id -> acceptance probability; for a
    focal edge the coin never changes the walk, it is tallied into
    `taken` only.  A tentative bypass edge whose labels are exhausted is
    ignored (the walker stays on the path, no coin).

    Returns a dict with keys value, traverse (edge id -> probability the
    walk uses the edge), taken (edge id -> probability the edge comes up
    tentative and its coin accepts), arrive (position -> usage tuple ->
    mass), feasibility (edge id -> arrival mass with room for it).
    """
    order = [inst.edges[focal[0]].src]
    for eid in focal:
        order.append(inst.edges[eid].dst)
    pos = {n: i for i, n in enumerate(order)}
    label_names = sorted(inst.labels)
    caps = [inst.labels[l] for l in label_names]
    lpos = {l: i for i, l in enumerate(label_names)}
    zero = (0,) * len(label_names)

    traverse = defaultdict(int)
    taken = defaultdict(int)
    arrive = [defaultdict(int) for _ in order]
    total_value = [0]

    def room(usage, eid):
        return all(usage[lpos[l]] < caps[lpos[l]] for l in inst.edges[eid].labels)

    def bump(usage, eid):
        out = list(usage)
        for l in inst.edges[eid].labels:
            out[lpos[l]] += 1
        return tuple(out)

    for choices, values, mass in iter_realizations(inst):
        if mass <= 0:
            continue

        def go(i, usage, w):
            arrive[i][usage] += w
            if i == len(order) - 1:
                return
            u = order[i]
            peid = focal[i]
            law = laws[u][choices[inst.node_index[u]]]
            for key, c in law.items():
                if c <= 0:
                    continue
                ww = w * c
                if key is None:
                    traverse[peid] += ww
                    total_value[0] += ww * values[peid]
                    go(i + 1, usage, ww)
                elif key == peid:
                    taken[key] += ww * accept.get(key, 0)
                    traverse[peid] += ww
                    total_value[0] += ww * values[peid]
                    go(i + 1, usage, ww)
                elif not room(usage, key):
                    traverse[peid] += ww
                    total_value[0] += ww * values[peid]
                    go(i + 1, usage, ww)
                else:
                    a = accept.get(key, 0)
                    if a > 0:
                        w2 = ww * a
                        taken[key] += w2
                        traverse[key] += w2
                        total_value[0] += w2 * values[key]
                        go(pos[inst.edges[key].dst], bump(usage, key), w2)
                    if a < 1:
                        w3 = ww * (1 - a)
                        traverse[peid] += w3
                        total_value[0] += w3 * values[peid]
                        go(i + 1, usage, w3)

        go(0, zero, mass)

    feasibility = {}
    for e in inst.edges:
        if e.src not in pos:
            continue
        feasibility[e.id] = sum(
            m for usage, m in arrive[pos[e.src]].items() if room(usage, e.id)
        )
    return {
        "value": total_value[0],
        "traverse": dict(traverse),
        "taken": dict(taken),
        "arrive": [dict(a) for a in arrive],
        "feasibility": feasibility,
    }


def path_order(inst, focal):
    order = [inst.edges[focal[0]].src]
    for eid in focal:
        order.append(inst.edges[eid].dst)
    return order


def unlabeled_tree_accept(inst, focal, xs, q=0):
    """Acceptance dict for the width-1 alpha rule with divisor 2 - q (the
    plain rule at q = 0), recomputed from the brute-forced selection
    probabilities (independent of the package)."""
    order = path_order(inst, focal)
    pos = {n: i for i, n in enumerate(order)}
    accept = {eid: 1 for eid in focal}
    for i in range(len(focal)):
        span = [
            e.id
            for e in inst.edges
            if e.src in pos and e.dst in pos and pos[e.src] < i < pos[e.dst]
        ]
        visit = 1 - sum(xs[eid] for eid in span) / (2 - q)
        alpha = 1 / (2 - q) / visit
        u = order[i]
        for e in inst.out_edges[inst.node_index[u]]:
            if e.id != focal[i] and e.dst in pos:
                accept[e.id] = alpha
    return accept


def staged_tree_accept(inst, focal, laws, divisor):
    """Feed the execution tree its own arrival masses stage by stage to
    rebuild the labeled acceptance rule without touching the engine."""
    order = path_order(inst, focal)
    accept = {}
    for i in range(len(focal)):
        stats = policy_tree(inst, focal, laws, accept)
        for e in inst.out_edges[inst.node_index[order[i]]]:
            p = stats["feasibility"][e.id]
            accept[e.id] = min(1, 1 / (divisor * p)) if p > 0 else 0
    return accept


def closed_cuts(inst):
    """Every source side S of a one-crossing cut: source in S, sink not,
    and no edge enters S from outside.  Yields the forward edge sets."""
    n = len(inst.nodes)
    idx = inst.node_index
    for bits in range(1 << (n - 2)):
        S = {0} | {i + 1 for i in range(n - 2) if bits >> i & 1}
        if any(idx[e.src] not in S and idx[e.dst] in S for e in inst.edges):
            continue
        yield [e.id for e in inst.edges if idx[e.src] in S and idx[e.dst] not in S]


def is_antichain(inst, nodes):
    """True when no member reaches another through the edge relation."""
    idx = inst.node_index
    adj = [[] for _ in inst.nodes]
    for e in inst.edges:
        adj[idx[e.src]].append(idx[e.dst])
    targets = {idx[v] for v in nodes}
    for v in nodes:
        seen = set()
        stack = list(adj[idx[v]])
        while stack:
            w = stack.pop()
            if w in seen:
                continue
            seen.add(w)
            if w in targets:
                return False
            stack.extend(adj[w])
    return True


def max_antichain_bruteforce(inst, node_cap=20):
    """A largest set of pairwise-unreachable nodes, found by search.

    Exponential in the worst case; refuses graphs above node_cap.
    """
    n = len(inst.nodes)
    if n > node_cap:
        raise StateCapError(f"{n} nodes exceed brute-force cap {node_cap}")
    idx = inst.node_index
    adj = [[] for _ in range(n)]
    for e in inst.edges:
        adj[idx[e.src]].append(idx[e.dst])
    comp = [0] * n  # comparability masks
    for i in range(n):
        seen = set()
        stack = list(adj[i])
        while stack:
            j = stack.pop()
            if j not in seen:
                seen.add(j)
                comp[i] |= 1 << j
                comp[j] |= 1 << i
                stack.extend(adj[j])

    best_mask = 0
    best_size = 0

    def extend(cand, chosen, size):
        nonlocal best_mask, best_size
        if size + bin(cand).count("1") <= best_size:
            return
        if not cand:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        v = (cand & -cand).bit_length() - 1
        extend(cand & ~((1 << v) | comp[v]), chosen | (1 << v), size + 1)
        extend(cand & ~(1 << v), chosen, size)

    extend((1 << n) - 1, 0, 0)
    return tuple(inst.nodes[i] for i in range(n) if best_mask >> i & 1)


def conditional_choice_distribution_mc(oracle, node, outcome_idx, trials, seed, spec=OPT):
    """Monte Carlo estimate of the offline baseline's choice law at
    `node` given its outcome: sampled realizations with that node's
    outcome forced, tallied by the baseline's edge out of `node` (None
    when its path does not pass there)."""
    inst = oracle.inst
    i = inst.node_index[node]
    edge_src = {e.id for e in inst.out_edges[i]}
    tally = {e.id: 0 for e in inst.out_edges[i]}
    tally[None] = 0
    for j in range(trials):
        rng = random.Random(derive_seed(seed, "cond", node, outcome_idx, j))
        choices = sample_realization(inst, rng)
        choices[i] = outcome_idx
        sel = oracle.opt_path(choices, spec)
        tally[next((eid for eid in sel.edges if eid in edge_src), None)] += 1
    return {k: v / trials for k, v in tally.items()}


def weighted_index(weights, u):
    """Linear-scan weighted draw: the first bucket whose running sum
    exceeds u in [0, 1), else the last positive-weight bucket."""
    acc = 0.0
    last_positive = 0
    for i, w in enumerate(weights):
        if w > 0:
            last_positive = i
        acc += w
        if u < acc:
            return i
    return last_positive


def annotation_reference(oracle, spec=OPT):
    """The oracle's statistics for `spec` by one loop over the list of
    realizations, each scored by `oracle.opt_path` and its mass added to
    every bucket in enumeration order.  Returns (expected, x, path law,
    cond) with cond: node name -> outcome index -> {edge id or None:
    prob}, keyed like `Oracle.conditional_choice_distribution`."""
    inst = oracle.inst
    edge_src = [inst.node_index[e.src] for e in inst.edges]
    x = [0] * len(inst.edges)
    law_mass = {i: [{} for _ in table] for i, table in enumerate(inst.tables) if table}
    paths = {}
    value_terms = []
    for choices, _, m in iter_realizations(inst):
        sel = oracle.opt_path(choices, spec)
        value_terms.append(m * sel.value)
        at = {edge_src[e]: e for e in sel.edges}
        for e in sel.edges:
            x[e] += m
        paths[sel.edges] = paths.get(sel.edges, 0) + m
        for i, laws in law_mass.items():
            law = laws[choices[i]]
            key = at.get(i)
            law[key] = law.get(key, 0) + m
    cond = {}
    for i, per_outcome in law_mass.items():
        keys = [e.id for e in inst.out_edges[i]] + [None]
        rows = []
        for o, law in enumerate(per_outcome):
            p = inst.tables[i][o].p
            if p <= 0:
                rows.append({k: (1 if k is None else 0) for k in keys})
            else:
                rows.append({k: law.get(k, 0) / p for k in keys})
        cond[inst.nodes[i]] = rows
    return stable_sum(value_terms), tuple(x), paths, cond
