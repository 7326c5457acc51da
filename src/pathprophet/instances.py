"""Instance generators: named benchmark families and random fuzz shapes.

Every generator returns a validated Instance whose `meta` records the
family, its parameters, and any closed-form quantities the family is
known for (prophet value, online value, canonical covers).  Values are
kept dyadic where a family allows it so that value ties stay exact in
floating point.

A family adds its edges in id order and builds a node's outcome rows in
the same pass, from the ids it has just added, or by position where the
ids follow a fixed stride (classic, kplus1, mchoice).  grid's sink edges
come after the whole grid, so it fills each node's value map edge by
edge and builds the rows at the end.  Independent draws at one node,
such as a market's one- and two-period terms, are combined by
`itertools.product`, first draw outermost, with masses multiplied left
to right from the int 1.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import InvalidInstanceError
from .model import Instance, validate_instance
from .util import derive_seed

Dist = Sequence[tuple[float, float]]  # (probability, value) rows


def _check_eps(eps: float) -> None:
    if not 0 < eps <= 1:
        raise InvalidInstanceError(f"eps must lie in (0, 1], got {eps!r}")


def _hit_or_zero(eps: float, hi: float) -> list[tuple[float, float]]:
    _check_eps(eps)
    if eps == 1:
        return [(1, hi)]
    return [(eps, hi), (1 - eps, 0)]


def _finish(inst: Instance) -> Instance:
    validate_instance(inst).raise_if_invalid()
    return inst


def two_candidate(eps: float = 0.5) -> Instance:
    """Two sequential candidates, second one risky: the instance whose
    width-1 policy value is exactly half the prophet for every eps."""
    _check_eps(eps)
    rows = _hit_or_zero(eps, 1 / eps)
    return _finish(
        Instance.build(
            ["1", "2", "t"],
            [("1", "2", ()), ("1", "t", ()), ("2", "t", ()), ("2", "t", ())],
            outcomes={
                "1": [(1, {0: 0, 1: 1})],
                "2": [(p, {2: 0, 3: v}) for p, v in rows],
            },
            meta={
                "family": "two-candidate",
                "eps": eps,
                "width": 1,
                "expected_opt": 2 - eps,
                "expected_width1": 1 - eps / 2,
            },
        )
    )


def classic(n: int = 5, eps: float = 0.5, dists: Sequence[Dist] | None = None) -> Instance:
    """Sequential candidates on a single path: candidate i's value sits
    on a bypass to the sink (the last one on the final path edge).

    Default distributions escalate: candidate i is eps^-(i-1) with
    probability eps^(i-1), the classic tight family.
    """
    if n < 2:
        raise InvalidInstanceError("classic needs at least 2 candidates")
    if dists is None:
        _check_eps(eps)
        dists = [_hit_or_zero(eps ** (i - 1), eps ** (-(i - 1))) for i in range(1, n + 1)]
    if len(dists) != n:
        raise InvalidInstanceError(f"need {n} distributions, got {len(dists)}")
    nodes = [str(i) for i in range(1, n + 1)] + ["t"]
    edges = []
    for i in range(1, n):
        edges += [(str(i), str(i + 1), ()), (str(i), "t", ())]  # ids 2i-2 (on), 2i-1 (bypass)
    edges.append((str(n), "t", ()))
    outcomes = {
        str(i): [(p, {2 * i - 2: 0, 2 * i - 1: v}) for p, v in dists[i - 1]] for i in range(1, n)
    }
    outcomes[str(n)] = [(p, {2 * n - 2: v}) for p, v in dists[n - 1]]
    return _finish(
        Instance.build(
            nodes,
            edges,
            outcomes=outcomes,
            meta={"family": "classic", "n": n, "eps": eps, "width": 1},
        )
    )


def overtime(
    horizon: int = 5,
    terms: Sequence[int] = (1, 2, 3),
    dists: Sequence[Dist] | None = None,
) -> Instance:
    """Hiring over time: at step i one candidate offers every allowed
    term length that still fits the horizon, all terms priced from one
    draw (term times rate); a zero-value skip edge always exists."""
    if horizon < 1:
        raise InvalidInstanceError("horizon must be at least 1")
    if not terms or any(type(x) is not int or x < 1 for x in terms):
        raise InvalidInstanceError("terms must be positive integers")
    terms = sorted(set(terms))
    if dists is None:
        dists = [[(Fraction(1, 2), 0), (Fraction(1, 2), 1)]] * horizon
    if len(dists) != horizon:
        raise InvalidInstanceError(f"need {horizon} distributions, got {len(dists)}")
    nodes = [str(i) for i in range(1, horizon + 1)] + ["t"]

    def node_at(step: int) -> str:
        return "t" if step == horizon + 1 else str(step)

    edges = []
    outcomes = {}
    for i in range(1, horizon + 1):
        term_of = {len(edges): 0}  # edge id -> term; the skip edge earns 0 * rate
        edges.append((str(i), node_at(i + 1), ()))
        for ell in terms:
            if i + ell <= horizon + 1:
                term_of[len(edges)] = ell
                edges.append((str(i), node_at(i + ell), ()))
        outcomes[str(i)] = [(p, {e: ell * v for e, ell in term_of.items()}) for p, v in dists[i - 1]]
    return _finish(
        Instance.build(
            nodes,
            edges,
            outcomes=outcomes,
            meta={"family": "overtime", "horizon": horizon, "terms": list(terms), "width": 1},
        )
    )


def markets(
    periods: int = 4,
    dists: Sequence[tuple[Dist, Dist]] | None = None,
) -> Instance:
    """Two parallel markets with switch-over: hiring in one market for
    one or two periods, where the stay and switch edges of a term share
    one value draw.  Terms whose end would fall past the horizon are
    dropped; a term whose stay and switch targets coincide at the sink
    collapses to a single edge."""
    if periods < 2:
        raise InvalidInstanceError("markets needs at least 2 periods")
    if dists is None:
        one = [(Fraction(1, 2), 0), (Fraction(1, 2), 1)]
        two = [(Fraction(1, 2), 0), (Fraction(1, 2), 2)]
        dists = [(one, two)] * periods
    if len(dists) != periods or any(len(pair) != 2 for pair in dists):
        raise InvalidInstanceError(f"need {periods} distribution pairs (one-period law, two-period law)")
    nodes = ["s"]
    for i in range(1, periods + 1):
        nodes += [f"u{i}", f"v{i}"]
    nodes.append("t")

    def tgt(row: str, i: int) -> str:
        return "t" if i > periods else f"{row}{i}"

    edges: list[tuple[str, str, tuple]] = [("s", "u1", ()), ("s", "v1", ())]
    outcomes = {"s": [(1, {0: 0, 1: 0})]}
    for i in range(1, periods + 1):
        for row, other in (("u", "v"), ("v", "u")):
            node = f"{row}{i}"
            one, two = dists[i - 1]
            groups, laws = [], []  # per term that fits: its edge ids, its value law
            for ell, law in ((1, one), (2, two)):
                if i + ell > periods + 1:
                    continue
                stay, switch = tgt(row, i + ell), tgt(other, i + ell)
                groups.append([len(edges)])
                edges.append((node, stay, ()))
                if switch != stay:
                    groups[-1].append(len(edges))
                    edges.append((node, switch, ()))
                laws.append(law)
            # the terms draw independently; a term's edges share its draw
            outcomes[node] = [
                (math.prod(p for p, _ in draw), {e: v for ids, (_, v) in zip(groups, draw) for e in ids})
                for draw in itertools.product(*laws)
            ]
    return _finish(
        Instance.build(
            nodes,
            edges,
            outcomes=outcomes,
            meta={"family": "markets", "periods": periods, "width": 2},
        )
    )


def upper49(eps: float = 0.1) -> Instance:
    """The four-node labeled instance separating online from 4/9 of the
    prophet: one red-capacity-1 label, an early safe red gain, a late
    risky red jackpot, and a direct fallback worth 2."""
    _check_eps(eps)
    rows = _hit_or_zero(eps, 2 / eps)
    return _finish(
        Instance.build(
            ["s", "a", "b", "t"],
            [
                ("s", "a", ()),          # 0: walk
                ("s", "a", ("red",)),    # 1: safe red, value 1
                ("s", "t", ()),          # 2: direct fallback, value 2
                ("a", "b", ()),          # 3: walk
                ("a", "t", ()),          # 4: fifty-fifty 2
                ("b", "t", ()),          # 5: walk
                ("b", "t", ("red",)),    # 6: red jackpot 2/eps at eps
            ],
            labels={"red": 1},
            outcomes={
                "s": [(1, {0: 0, 1: 1, 2: 2})],
                "a": [
                    (Fraction(1, 2), {3: 0, 4: 2}),
                    (Fraction(1, 2), {3: 0, 4: 0}),
                ],
                "b": [(p, {5: 0, 6: v}) for p, v in rows],
            },
            meta={
                "family": "upper49",
                "eps": eps,
                "width": 1,
                "d": 1,
                "expected_opt": 2 + Fraction(5, 2) * (1 - eps)
                if isinstance(eps, Fraction)
                else 2 + 2.5 * (1 - eps),
                "online_opt": 2,
            },
        )
    )


def grid(k: int = 3, eps: float = 0.01) -> Instance:
    """k-by-k grid with a deterministic-1 column and a jackpot column.

    The sink is appended after the grid's bottom-right corner so the
    column-exit edges (worth 1 and a jackpot draw) exist for every k,
    including k=3 where the literal corner exit would degenerate.
    Meta carries the canonical horizontal and vertical covers used by
    the cover-dependence experiment.
    """
    if k < 3:
        raise InvalidInstanceError("grid needs k >= 3")
    _check_eps(eps)
    rows = _hit_or_zero(eps, 1 / eps)
    nodes = [f"v{r}_{c}" for r in range(k) for c in range(k)] + ["t"]
    edges: list[tuple[str, str, tuple]] = []
    sure: dict[str, dict[int, int]] = {}  # node -> {out-edge id: value unless a jackpot hits}

    def add(src: str, dst: str, value: int = 0) -> int:
        sure.setdefault(src, {})[len(edges)] = value
        edges.append((src, dst, ()))
        return len(edges) - 1

    across: list[list[int]] = [[] for _ in range(k)]  # row r's rightward edges
    down: list[list[int]] = [[] for _ in range(k)]  # column c's downward edges
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                across[r].append(add(f"v{r}_{c}", f"v{r}_{c + 1}"))
            if r + 1 < k:
                down[c].append(add(f"v{r}_{c}", f"v{r + 1}_{c}", 1 if c == 1 else 0))
    bridge = add(f"v{k - 1}_{k - 1}", "t")
    exit1 = add(f"v{k - 1}_1", "t", 1)
    exit2 = add(f"v{k - 1}_2", "t")
    ends = [add(f"v{r}_{k - 1}", "t") for r in range(k - 1)] + [bridge]
    # column 2's downward edges and its exit draw the jackpot, one per node
    jackpot = {f"v{r}_2": e for r, e in enumerate(down[2] + [exit2])}
    outcomes = {
        node: [(p, vals | {jackpot[node]: v}) for p, v in rows] if node in jackpot else [(1, vals)]
        for node, vals in sure.items()
    }
    exits = {1: [exit1], 2: [exit2]}  # other columns run along the bottom row to the bridge
    vertical = [across[0][:c] + down[c] + exits.get(c, across[k - 1][c:] + [bridge]) for c in range(k)]
    return _finish(
        Instance.build(
            nodes,
            edges,
            outcomes=outcomes,
            meta={
                "family": "grid",
                "k": k,
                "eps": eps,
                "width": k,
                "opt_lower_bound": 2 * k - k * k * eps,
                "horizontal_cover": [down[0][:r] + across[r] + [ends[r]] for r in range(k)],
                "vertical_cover": vertical,
            },
        )
    )


def kplus1(k: int = 3, eps: float = 0.01) -> Instance:
    """k parallel risky strands plus one safe direct edge: no online
    policy beats value 1, while the prophet approaches k for small eps."""
    if k < 1:
        raise InvalidInstanceError("kplus1 needs k >= 1")
    _check_eps(eps)
    rows = _hit_or_zero(eps, 1 / eps)
    nodes = ["s"] + [str(i) for i in range(1, k + 1)] + ["t"]
    edges = []
    for i in range(1, k + 1):
        edges.append(("s", str(i), ()))
        edges.append((str(i), "t", ()))
    edges.append(("s", "t", ()))
    outcomes: dict[str, list] = {
        "s": [(1, {2 * (i - 1): 0 for i in range(1, k + 1)} | {2 * k: 1})]
    }
    for i in range(1, k + 1):
        outcomes[str(i)] = [(p, {2 * i - 1: v}) for p, v in rows]
    miss = (1 - eps) ** k
    return _finish(
        Instance.build(
            nodes,
            edges,
            outcomes=outcomes,
            meta={
                "family": "kplus1",
                "k": k,
                "eps": eps,
                "width": k,
                "expected_opt": (1 - miss) / eps + miss,
                "online_opt": 1,
            },
        )
    )


def mchoice(n: int = 4, m: int = 2, dist: Dist | None = None) -> Instance:
    """Pick at most m of n sequential offers: a single path where each
    node has a zero skip edge and a slot-labeled offer edge."""
    if n < 1 or m < 1:
        raise InvalidInstanceError("mchoice needs n >= 1 and m >= 1")
    if dist is None:
        dist = [(Fraction(1, 2), 0), (Fraction(1, 2), 1)]
    nodes = [str(i) for i in range(1, n + 1)] + ["t"]
    edges = []
    for i in range(1, n + 1):
        dst = str(i + 1) if i < n else "t"
        edges.append((str(i), dst, ()))
        edges.append((str(i), dst, ("slot",)))
    outcomes = {
        str(i): [(p, {2 * (i - 1): 0, 2 * i - 1: v}) for p, v in dist]
        for i in range(1, n + 1)
    }
    return _finish(
        Instance.build(
            nodes,
            edges,
            labels={"slot": m},
            outcomes=outcomes,
            meta={"family": "mchoice", "n": n, "m": m, "width": 1, "d": 1},
        )
    )


def vertex_matching(bidders: int = 3, items: int = 2, seed: int = 0) -> Instance:
    """One-sided vertex arrivals: bidder i's node offers one edge per
    item (labeled by the item, capacity 1) plus a zero skip edge; a
    bidder's item values realize jointly on arrival."""
    if bidders < 1 or items < 1:
        raise InvalidInstanceError("need at least one bidder and one item")
    nodes = [f"b{i}" for i in range(1, bidders + 1)] + ["t"]
    labels = {f"item{j}": 1 for j in range(1, items + 1)}
    edges = []
    outcomes = {}
    for i in range(1, bidders + 1):
        node, dst = f"b{i}", f"b{i + 1}" if i < bidders else "t"
        skip = len(edges)  # item j's edge is skip + j
        edges += [(node, dst, ())] + [(node, dst, (f"item{j}",)) for j in range(1, items + 1)]
        rng = random.Random(derive_seed(seed, "bidder", i))
        cut = rng.randrange(1, 8)
        outcomes[node] = [
            (p, {skip: 0} | {skip + j: Fraction(rng.randrange(5), 4) for j in range(1, items + 1)})
            for p in (Fraction(cut, 8), Fraction(8 - cut, 8))
        ]
    return _finish(
        Instance.build(
            nodes,
            edges,
            labels=labels,
            outcomes=outcomes,
            meta={
                "family": "vertex-matching",
                "bidders": bidders,
                "items": items,
                "seed": seed,
                "width": 1,
                "d": 1,
            },
        )
    )


_FAMILIES = {
    "two-candidate": two_candidate,
    "classic": classic,
    "overtime": overtime,
    "markets": markets,
    "upper49": upper49,
    "grid": grid,
    "kplus1": kplus1,
    "mchoice": mchoice,
    "vertex-matching": vertex_matching,
}


def paper_families() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def generate_paper_instance(family: str, **params: Any) -> Instance:
    key = family.replace("_", "-")
    fn = _FAMILIES.get(key)
    if fn is None:
        raise InvalidInstanceError(
            f"unknown family {family!r}; known: {', '.join(paper_families())}"
        )
    accepted = tuple(inspect.signature(fn).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"family {key!r} does not take {', '.join(map(repr, unknown))}; "
            f"it accepts: {', '.join(accepted)}"
        )
    return fn(**params)


# ---------------------------------------------------------------------------
# random fuzz instances


def _dyadic_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(7), 4)  # 0 .. 1.5 in quarter steps


def _dyadic_masses(rng: random.Random, rows: int) -> list[Fraction]:
    cuts = sorted(rng.sample(range(1, 8), rows - 1)) if rows > 1 else []
    bounds = [0] + cuts + [8]
    return [Fraction(b - a, 8) for a, b in zip(bounds, bounds[1:])]


def _attach_tables(
    inst_nodes: list[str],
    edges: list[tuple[str, str, tuple]],
    rng: random.Random,
    max_outcomes: int,
) -> dict[str, list]:
    by_src: dict[str, list[int]] = {}
    for i, (src, _dst, _labels) in enumerate(edges):
        by_src.setdefault(src, []).append(i)
    outcomes = {}
    for node in inst_nodes[:-1]:
        ids = by_src[node]
        rows_n = rng.randint(1, max_outcomes)
        masses = _dyadic_masses(rng, rows_n)
        rows = []
        for p in masses:
            rows.append((p, {e: _dyadic_value(rng) for e in ids}))
        outcomes[node] = rows
    return outcomes


def _sprinkle_labels(
    edges: list[tuple[str, str, tuple]], rng: random.Random, d: int
) -> tuple[list[tuple[str, str, tuple]], dict[str, int]]:
    """Add labeled parallel copies of some existing edges.

    Copies guarantee the unlabeled-twin rule by construction.  With d=2
    some copies carry both labels.
    """
    if d == 0:
        return edges, {}
    labels = {f"L{i}": rng.randint(1, 2) for i in range(d)}
    out = list(edges)
    candidates = list(range(len(edges)))
    rng.shuffle(candidates)
    copies = max(2, len(edges) // 2)
    for idx in candidates[:copies]:
        src, dst, _ = edges[idx]
        if d == 1 or rng.random() < 0.6:
            tag = (f"L{rng.randrange(d)}",)
        else:
            tag = ("L0", "L1")
        out.append((src, dst, tag))
    return out, labels


def generate_random_instance(
    seed: int,
    shape: str = "dag",
    n_nodes: int = 6,
    max_outcomes: int = 3,
    d: int = 0,
) -> Instance:
    """Seeded random instance in one of three shapes.

    "width1": a backbone path with forward bypasses (width 1).
    "strands": internally disjoint strands with strand-local bypasses
    and an optional direct source-sink edge (unlabeled; the disjoint
    policy's home turf).
    "dag": a small layered DAG where every node lies on a
    source-to-sink path.  d in {0,1,2} adds labeled parallel copies.
    """
    rng = random.Random(derive_seed(seed, "inst", shape, n_nodes, max_outcomes, d))
    if n_nodes < 3:
        raise InvalidInstanceError("need at least 3 nodes")
    if not 1 <= max_outcomes <= 8:
        raise InvalidInstanceError(f"max_outcomes must be 1..8 (masses are eighths), got {max_outcomes}")
    if shape == "width1":
        nodes = [f"v{i}" for i in range(n_nodes)]
        edges: list[tuple[str, str, tuple]] = []
        for i in range(n_nodes - 1):
            edges.append((nodes[i], nodes[i + 1], ()))
        for i in range(n_nodes):
            for j in range(i + 2, n_nodes):
                if rng.random() < 0.4:
                    edges.append((nodes[i], nodes[j], ()))
        edges, labels = _sprinkle_labels(edges, rng, d)
    elif shape == "strands":
        if d:
            raise InvalidInstanceError("strand instances are unlabeled")
        if n_nodes < 4:
            raise InvalidInstanceError("strand instances need at least 4 nodes")
        k = min(rng.randint(2, 3), n_nodes - 2)
        nodes = ["s"]
        strand_nodes: list[list[str]] = []
        budget = n_nodes - 2
        for i in range(k):
            size = max(1, min(rng.randint(1, 2), budget - (k - 1 - i)))
            budget -= size
            chain = [f"s{i}n{j}" for j in range(size)]
            strand_nodes.append(chain)
            nodes += chain
        nodes.append("t")
        edges = []
        for chain in strand_nodes:
            hops = ["s"] + chain + ["t"]
            for a, b in zip(hops, hops[1:]):
                edges.append((a, b, ()))
            # strand-local forward skips
            for ai in range(len(hops)):
                for bi in range(ai + 2, len(hops)):
                    if (hops[ai], hops[bi]) != ("s", "t") and rng.random() < 0.35:
                        edges.append((hops[ai], hops[bi], ()))
        if rng.random() < 0.5:
            edges.append(("s", "t", ()))
        labels = {}
    elif shape == "dag":
        inner = n_nodes - 2
        layer_sizes = []
        while inner > 0:
            take = min(inner, rng.randint(1, 3))
            layer_sizes.append(take)
            inner -= take
        layers = [["s"]]
        idx = 0
        for size in layer_sizes:
            layers.append([f"v{idx + j}" for j in range(size)])
            idx += size
        layers.append(["t"])
        nodes = [v for layer in layers for v in layer]
        edges = []
        have_out: set[str] = set()
        have_in: set[str] = set()

        def add(u: str, v: str) -> None:
            edges.append((u, v, ()))
            have_out.add(u)
            have_in.add(v)

        for li in range(len(layers) - 1):
            for u in layers[li]:
                for v in layers[li + 1]:
                    if rng.random() < 0.6:
                        add(u, v)
        # a few forward skips
        for li in range(len(layers) - 2):
            for u in layers[li]:
                for v in layers[li + 2]:
                    if rng.random() < 0.2:
                        add(u, v)
        for li in range(len(layers) - 1):
            for u in layers[li]:
                if li > 0 and u not in have_in:
                    add(rng.choice(layers[li - 1]), u)
                if u not in have_out:
                    add(u, rng.choice(layers[li + 1]))
        edges.sort(key=lambda e: (nodes.index(e[0]), nodes.index(e[1])))
        edges, labels = _sprinkle_labels(edges, rng, d)
    else:
        raise InvalidInstanceError(f"unknown shape {shape!r}")

    outcomes = _attach_tables(nodes, edges, rng, max_outcomes)
    return _finish(
        Instance.build(
            nodes,
            edges,
            labels=labels,
            outcomes=outcomes,
            meta={
                "family": "random",
                "shape": shape,
                "seed": seed,
                "n_nodes": n_nodes,
                "max_outcomes": max_outcomes,
                "d": d,
            },
        )
    )
