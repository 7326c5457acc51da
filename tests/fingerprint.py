"""Behaviour fingerprint: one `layer<TAB>key<TAB>repr` line per record.

    python tests/fingerprint.py --out FILE [--tree DIR]
    python tests/fingerprint.py --compare A B

`--out` writes the records of one checkout's program: `src/` of
`--tree` (default: the checkout holding this file).  The corpus always
comes from this file's checkout, so two trees are measured on the same
inputs:

* every job twin (the exact `Fraction` instance and its JSON float
  round trip) of the three benchmark workloads at seeds 0 to 2, from
  `perfbench/workloads.build_jobs`, each with its job's policy;
* the four fuzz makers of `tests/conftest.py` (j < 40) and every named
  family at its default parameters, each with its JSON float twin and
  every policy;
* `conftest.ladder(8)` and its JSON float twin with every policy: its
  `general` walks replay connectors of up to 7 edges, where the fuzz
  makers' connectors have at most 3.

Layers, each reached through public calls only:

* `oracle`: per spec a policy runs on (OPT on the instance, and each
  focal run's graph and spec), the expected value, `x`, the path law
  and every tabled node's choice-law rows;
* `online`: the optimal online value;
* `cover`: `min_path_cover` unseeded and for seeds 0, 1 and 2;
* `policy`: width, bound, params, `exact_value()` and each focal run's
  acceptance rule (its schedule or feasibility table);
* `feas`: on each focal run under the labeled rule, exact and staged
  Monte Carlo (10 trials, seed 11) `feasibility_probabilities`;
* `mc`: a 60-trial `monte_carlo_estimate`;
* `walk`: one recorded `sampler().run` on the stream of Monte Carlo
  trial 0 (`derive_seed(11, "traj", 0)`).

A refusal is recorded as its exception type and message.  `repr` tells
`int`, `float` and `Fraction` apart, so a statistic that changes type
moves.  `--compare` prints each layer's count of moved, missing and new
records, with the moved ones split into two kinds, lists them, and exits
1 if there are any.  A `type` move holds the same numbers in other types:
with every int, float and `Fraction(n, d)` in both reprs read as an exact
rational, the two agree (`2.0` and `2`, `0.75` and `Fraction(3, 4)`).
Every other move is a `value` move.  The file is not named `test_*`, so
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import re
import sys
import tempfile
import types
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_SEEDS = (0, 1, 2)
FUZZ_COUNT = 40
MC_TRIALS = 60
MC_SEED = 11
FEAS_TRIALS = 10
COVER_SEEDS = (None, 0, 1, 2)


def _load(tree: str) -> types.SimpleNamespace:
    """Import pathprophet from `tree`/src, and the corpus makers from this checkout."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path[:0] = [src, HERE, os.path.join(ROOT, "perfbench")]
    names = ("cover", "instances", "model", "oracle", "policies", "simulate", "util", "errors")
    api = types.SimpleNamespace(**{m: importlib.import_module("pathprophet." + m) for m in names})
    if not os.path.abspath(api.model.__file__).startswith(src + os.sep):
        raise SystemExit(f"pathprophet was imported from {api.model.__file__}, not from {src}")
    return api


def _refusal(exc: Exception) -> str:
    return f"!{type(exc).__name__}({str(exc)!r})"


def _text(compute) -> str:
    try:
        return repr(compute())
    except Exception as exc:  # a refusal is behaviour too
        return _refusal(exc)


def float_twin(api, inst):
    text = json.dumps(api.model.instance_to_dict(inst), sort_keys=True, default=float)
    return api.model.instance_from_dict(json.loads(text))


def corpus(api) -> list[tuple[str, object, tuple[str, ...]]]:
    """(key, instance, policies) for every instance of the corpus."""
    import conftest
    import workloads

    out = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload in workloads.WORKLOADS:
            for seed in WORKLOAD_SEEDS:
                jobs, _ = workloads.build_jobs(api, workload, seed, scratch)
                for job in jobs:
                    key = f"{workload}/{seed}/{job.key}"
                    out += [(f"{key}#frac", job.frac, (job.policy,)), (f"{key}#float", job.twin, (job.policy,))]
    ladder, everything = conftest.ladder(8), api.policies.POLICIES
    out += [("ladder(8)#exact", ladder, everything), ("ladder(8)#float", float_twin(api, ladder), everything)]
    return out + named_corpus(api, FUZZ_COUNT)


def named_corpus(api, fuzz_count: int) -> list[tuple[str, object, tuple[str, ...]]]:
    """(key, instance, policies) for the fuzz makers' j < `fuzz_count` and
    every named family, each with its JSON float twin and every policy."""
    import conftest

    everything = api.policies.POLICIES
    makers = (conftest.width1_fuzz, conftest.labeled_fuzz, conftest.dag_fuzz, conftest.strands_fuzz)
    named = [(f"{maker.__name__}({j})", maker(j)) for maker in makers for j in range(fuzz_count)]
    named += [(family, api.instances.generate_paper_instance(family)) for family in api.instances.paper_families()]
    out = []
    for key, inst in named:
        out += [(f"{key}#exact", inst, everything), (f"{key}#float", float_twin(api, inst), everything)]
    return out


def oracle_records(orc, spec, node_names, tables, key: str):
    yield "oracle", f"{key}|expected", _text(lambda: orc.expected_opt(spec))
    yield "oracle", f"{key}|x", _text(lambda: orc.edge_probabilities(spec))
    yield "oracle", f"{key}|paths", _text(lambda: orc.path_distribution(spec))
    for name, table in zip(node_names, tables):
        if table:
            yield "oracle", f"{key}|laws/{name}", _text(lambda: orc.choice_laws(name, spec))


def records(api, key: str, inst, policies: tuple[str, ...]):
    orc = api.oracle.Oracle(inst)
    yield from oracle_records(orc, api.oracle.OPT, inst.nodes, inst.tables, f"{key}|OPT")
    yield "online", key, _text(orc.optimal_online_value)
    for seed in COVER_SEEDS:
        yield "cover", f"{key}|seed={seed}", _text(lambda: api.cover.min_path_cover(inst, seed))
    for policy in policies:
        pkey = f"{key}|{policy}"
        try:
            prep = api.policies.prepare_policy(inst, policy)
        except Exception as exc:
            yield "policy", f"{pkey}|prepare", _refusal(exc)
            continue
        yield "policy", f"{pkey}|meta", repr((prep.width, prep.bound, prep.bound_label, prep.params, prep.sub_index))
        yield "policy", f"{pkey}|exact_value", _text(prep.exact_value)
        for r, run in enumerate(prep.runs):
            yield "policy", f"{pkey}|run{r}|rule", repr((run.focal, run.rule))
            if isinstance(run.rule, api.policies.FeasibilityProbs):
                for mode in ("exact", "mc"):
                    yield "feas", f"{pkey}|run{r}|{mode}", _text(lambda: api.policies.feasibility_probabilities(
                        run.graph, run.focal, mode, oracle=run.oracle, trials=FEAS_TRIALS, seed=MC_SEED))
            graph = run.graph
            yield from oracle_records(run.oracle, run.spec, graph.nodes, graph.tables, f"{pkey}|run{r}")
        yield "mc", pkey, _text(lambda: api.simulate.monte_carlo_estimate(inst, policy, MC_TRIALS, MC_SEED, prepared=prep))
        rng = random.Random(api.util.derive_seed(MC_SEED, "traj", 0))
        yield "walk", pkey, _text(lambda: prep.sampler().run(rng))


def write(tree: str, path: str) -> int:
    api = _load(tree)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for key, inst, policies in corpus(api):
            for layer, rkey, text in records(api, key, inst, policies):
                fh.write(f"{layer}\t{rkey}\t{text}\n")
                count += 1
    print(f"{count} records written to {path}")
    return 0


def read(path: str) -> dict[tuple[str, str], str]:
    with open(path, encoding="utf-8") as fh:
        rows = (line.rstrip("\n").split("\t", 2) for line in fh)
        return {(layer, key): text for layer, key, text in rows}


# a Fraction(n, d), or an int or float literal that is not part of a name
NUMBER = re.compile(r"Fraction\((-?\d+), (-?\d+)\)|(?<![\w.])-?\d+(\.\d*)?(e[-+]?\d+)?(?![\w.])")


def exact_text(text: str) -> str:
    """`text` with every int, float and `Fraction(n, d)` in it written as the exact rational it holds."""
    def rational(m: re.Match) -> str:
        if m[1]:
            q = Fraction(int(m[1]), int(m[2]))
        else:
            q = Fraction(float(m[0])) if m[3] or m[4] else Fraction(int(m[0]))
        return f"<{q}>"

    return NUMBER.sub(rational, text)


def compare(a_path: str, b_path: str) -> int:
    a, b = read(a_path), read(b_path)
    moved: dict[str, list[str]] = defaultdict(list)
    kinds: dict[str, list[str]] = defaultdict(list)  # per layer, each moved record's kind
    for rec in sorted(a.keys() | b.keys()):
        layer, key = rec
        if rec not in b:
            moved[layer].append(f"  missing  {key}\n    A {a[rec]}")
        elif rec not in a:
            moved[layer].append(f"  new      {key}\n    B {b[rec]}")
        elif a[rec] != b[rec]:
            kind = "type" if exact_text(a[rec]) == exact_text(b[rec]) else "value"
            kinds[layer].append(kind)
            moved[layer].append(f"  {kind:<8} {key}\n    A {a[rec]}\n    B {b[rec]}")
    for layer in sorted({k[0] for k in a.keys() | b.keys()}):
        count = sum(k[0] == layer for k in a.keys() | b.keys())
        split = ", ".join(f"{kinds[layer].count(kind)} {kind}" for kind in ("type", "value"))
        print(f"{layer}: {len(moved[layer])} of {count} records ({split})")
        if moved[layer]:
            print("\n".join(moved[layer]))
    total = sum(map(len, moved.values()))
    print(f"{total} moved records ({len(a)} in A, {len(b)} in B)")
    return 1 if total else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE", help="write the records of the program in --tree")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list the records that differ")
    parser.add_argument("--tree", default=ROOT, help="checkout whose src/ is fingerprinted (default: this one)")
    args = parser.parse_args(argv)
    if args.out:
        return write(args.tree, args.out)
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
