"""Command line front end.

Subcommands: validate, width, cover, opt, xprobs, online-opt, simulate,
gen, trace.  Human-readable tables by default, --json for machines.
Randomized subcommands take --seed; when omitted a seed is generated
and echoed so any run can be reproduced.  Exit codes: 0 ok, 2 bad
arguments, 3 validation failure, 4 size cap exceeded, 5 policy/cover
errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any

from .errors import (
    CoverError,
    EnumerationCapError,
    InvalidInstanceError,
    PolicyError,
    ScheduleError,
    StateCapError,
)
from .cover import min_path_cover
from .instances import generate_paper_instance, generate_random_instance, paper_families
from .model import (
    Instance,
    load_instance,
    save_instance,
    validate_instance,
)
from .oracle import Oracle
from .policies import POLICIES, prepare_policy
from .simulate import competitive_report
from .util import derive_seed


def _emit_json(obj: Any) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True, default=float))


def _fresh_seed() -> int:
    return random.SystemRandom().randrange(2**32)


def _load_checked(path: str) -> Instance:
    inst = load_instance(path)
    validate_instance(inst).raise_if_invalid()
    return inst


# -- subcommand handlers ----------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    inst = load_instance(args.instance)
    report = validate_instance(inst)
    if args.json:
        _emit_json(
            {
                "ok": report.ok,
                "violations": [
                    {"code": v.code, "message": v.message, "where": v.where}
                    for v in report.violations
                ],
                "warnings": list(report.warnings),
                "nodes": len(inst.nodes),
                "edges": len(inst.edges),
                "labels": {k: v for k, v in sorted(inst.labels.items())},
            }
        )
    else:
        if report.ok:
            print(
                f"ok: {len(inst.nodes)} nodes, {len(inst.edges)} edges, "
                f"{len(inst.labels)} labels"
            )
        else:
            print("invalid:")
            for v in report.violations:
                where = f" at {v.where}" if v.where else ""
                print(f"  [{v.code}] {v.message}{where}")
        for w in report.warnings:
            print(f"  warning: {w}")
    return 0 if report.ok else 3


def _cmd_width(args: argparse.Namespace) -> int:
    inst = _load_checked(args.instance)
    cover = min_path_cover(inst, args.cover_seed)
    if args.json:
        _emit_json({"width": cover.width})
    else:
        print(f"width: {cover.width}")
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    inst = _load_checked(args.instance)
    cover = min_path_cover(inst, args.cover_seed)
    if args.json:
        _emit_json(
            {
                "width": cover.width,
                "paths": [list(p) for p in cover.paths],
                "node_orders": [list(o) for o in cover.node_orders],
            }
        )
    else:
        print(f"width: {cover.width}")
        for i, (path, order) in enumerate(zip(cover.paths, cover.node_orders)):
            edges = ", ".join(str(e) for e in path)
            print(f"path {i}: {' -> '.join(order)}  (edges {edges})")
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    inst = _load_checked(args.instance)
    oracle = Oracle(inst)
    if args.mc:
        seed, generated = (args.seed, False) if args.seed is not None else (_fresh_seed(), True)
        value = oracle.expected_opt_mc(args.trials, seed)
        payload = {
            "expected_opt": float(value),
            "mode": "mc",
            "trials": args.trials,
            "seed": seed,
        }
        if args.json:
            _emit_json(payload)
        else:
            print(f"expected offline value (MC): {float(value):.9g}")
            tag = " (generated)" if generated else ""
            print(f"trials: {args.trials}, seed: {seed}{tag}")
    else:
        value = oracle.expected_opt()
        if args.json:
            _emit_json({"expected_opt": float(value), "mode": "exact"})
        else:
            print(f"expected offline value: {float(value):.9g}")
    return 0


def _cmd_xprobs(args: argparse.Namespace) -> int:
    inst = _load_checked(args.instance)
    probs = Oracle(inst).edge_probabilities()
    if args.json:
        _emit_json({"x": {str(i): float(v) for i, v in enumerate(probs.x)}})
    else:
        for e in inst.edges:
            lbl = f" [{','.join(sorted(e.labels))}]" if e.labels else ""
            print(f"edge {e.id:3d} {e.src} -> {e.dst}{lbl}: x = {float(probs.x[e.id]):.9g}")
    return 0


def _cmd_online_opt(args: argparse.Namespace) -> int:
    inst = _load_checked(args.instance)
    value = Oracle(inst).optimal_online_value()
    if args.json:
        _emit_json({"online_opt": float(value)})
    else:
        print(f"optimal online value: {float(value):.9g}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    inst = _load_checked(args.instance)
    generated = False
    seed = args.seed
    if args.mc and seed is None:
        seed, generated = _fresh_seed(), True
    report = competitive_report(
        inst,
        args.policy,
        mode="mc" if args.mc else "exact",
        trials=args.trials if args.mc else None,
        seed=seed,
        cover_seed=args.cover_seed,
        include_online=args.online,
    )
    if args.json:
        out = report.to_dict()
        if generated:
            out["seed_generated"] = True
        _emit_json(out)
    else:
        print(f"policy: {report.policy}  (mode {report.mode})")
        print(f"e_alg:  {report.e_alg:.9g}")
        if report.mode == "mc":
            tag = " (generated)" if generated else ""
            print(f"        trials={report.trials} seed={report.seed}{tag} std_err={report.std_err:.3g}")
            if report.realized_mean is not None and report.realized_mean != report.e_alg:
                print(f"        realized mean incl. connectors: {report.realized_mean:.9g}")
        print(f"e_opt:  {report.e_opt:.9g}")
        if report.online_opt is not None:
            print(f"online: {report.online_opt:.9g}")
        if report.ratio is not None:
            print(f"ratio:  {report.ratio:.9g}")
        verdict = "holds" if report.bound_ok else "VIOLATED"
        print(
            f"bound:  {report.bound_label} = {report.bound:.9g} "
            f"(k={report.width}, d={report.d}) -> {verdict}"
        )
    return 0 if report.bound_ok else 5


def _cmd_trace(args: argparse.Namespace) -> int:
    inst = _load_checked(args.instance)
    seed, generated = (args.seed, False) if args.seed is not None else (_fresh_seed(), True)
    walk = prepare_policy(inst, args.policy, None, args.cover_seed).sampler()
    traj = walk.run(random.Random(derive_seed(seed, "traj", 0)))
    if args.json:
        _emit_json(
            {
                "seed": seed,
                "policy": args.policy,
                "value": float(traj.value),
                "edges": list(traj.edges),
                "sub_index": traj.sub_index,
                "steps": [
                    {
                        "node": s.node,
                        "outcome": s.outcome,
                        "tentative": s.tentative,
                        "feasible": s.feasible,
                        "coin": s.coin,
                        "taken": s.taken,
                    }
                    for s in traj.steps
                ],
            }
        )
    else:
        tag = " (generated)" if generated else ""
        print(f"policy: {args.policy}, seed: {seed}{tag}")
        if traj.sub_index is not None:
            print(f"cover path used: {traj.sub_index}")
        print("node        outcome  tentative  feasible  coin      taken")
        for s in traj.steps:
            tent = "-" if s.tentative is None else str(s.tentative)
            feas = "-" if s.feasible is None else ("yes" if s.feasible else "no")
            coin = "-" if s.coin is None else f"{s.coin:.6f}"
            print(f"{s.node:<11} {s.outcome:<8} {tent:<10} {feas:<9} {coin:<9} {s.taken}")
        names = []
        for eid in traj.edges:
            e = inst.edges[eid]
            names.append(f"{eid}:{e.src}->{e.dst}")
        print("edges walked: " + ", ".join(names))
        print(f"value: {float(traj.value):.9g}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    params: dict[str, Any] = {}
    generated = False
    if args.family == "random":
        seed = args.seed
        if seed is None:
            seed, generated = _fresh_seed(), True
        inst = generate_random_instance(
            seed,
            shape=args.shape,
            n_nodes=args.nodes,
            max_outcomes=args.outcomes,
            d=args.d,
        )
    else:
        for key in ("eps",):
            if getattr(args, key) is not None:
                params[key] = getattr(args, key)
        for key, attr in (
            ("n", "n"),
            ("k", "k"),
            ("m", "m"),
            ("horizon", "horizon"),
            ("periods", "periods"),
            ("bidders", "bidders"),
            ("items", "items"),
        ):
            if getattr(args, attr) is not None:
                params[key] = getattr(args, attr)
        if args.terms is not None:
            params["terms"] = [int(x) for x in args.terms.split(",")]
        if args.seed is not None and args.family == "vertex-matching":
            params["seed"] = args.seed
        inst = generate_paper_instance(args.family, **params)
    save_instance(inst, args.out)
    payload = {
        "path": args.out,
        "family": args.family,
        "nodes": len(inst.nodes),
        "edges": len(inst.edges),
    }
    if generated:
        payload["seed"] = inst.meta.get("seed") if inst.meta else None
        payload["seed_generated"] = True
    if args.json:
        _emit_json(payload)
    else:
        print(f"wrote {args.out}: family={args.family}, {len(inst.nodes)} nodes, {len(inst.edges)} edges")
        if generated:
            print(f"seed: {payload['seed']} (generated)")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathprophet",
        description="Sequential path selection on stochastic DAGs: offline "
        "baselines, online policies, covers, and benchmark instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    add_json(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("width", help="minimum number of covering paths")
    p.add_argument("instance")
    p.add_argument("--cover-seed", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("cover", help="print a minimum path cover")
    p.add_argument("instance")
    p.add_argument("--cover-seed", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("opt", help="expected offline (prophet) value")
    p.add_argument("instance")
    p.add_argument("--mc", action="store_true", help="Monte Carlo instead of exact")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("xprobs", help="per-edge offline selection probabilities")
    p.add_argument("instance")
    add_json(p)
    p.set_defaults(func=_cmd_xprobs)

    p = sub.add_parser("online-opt", help="value of the best fully informed walker")
    p.add_argument("instance")
    add_json(p)
    p.set_defaults(func=_cmd_online_opt)

    p = sub.add_parser("simulate", help="run a policy against the prophet")
    p.add_argument("instance")
    p.add_argument("--policy", choices=POLICIES, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="exact evaluation (default)")
    group.add_argument("--mc", action="store_true", help="Monte Carlo estimate")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cover-seed", type=int, default=None)
    p.add_argument("--online", action="store_true", help="include the optimal online value")
    add_json(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen", help="generate a benchmark or random instance")
    p.add_argument("family", choices=list(paper_families()) + ["random"])
    p.add_argument("-o", "--out", required=True, help="output JSON path")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--terms", type=str, default=None, help="comma-separated term lengths")
    p.add_argument("--periods", type=int, default=None)
    p.add_argument("--bidders", type=int, default=None)
    p.add_argument("--items", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--shape", choices=("dag", "width1", "strands"), default="dag")
    p.add_argument("--nodes", type=int, default=6)
    p.add_argument("--outcomes", type=int, default=3)
    p.add_argument("--d", type=int, default=0, choices=(0, 1, 2))
    add_json(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("trace", help="walk one reproducible trajectory")
    p.add_argument("instance")
    p.add_argument("--policy", choices=POLICIES, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--cover-seed", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInstanceError as exc:
        print(f"error[validation]: {exc}", file=sys.stderr)
        return 3
    except (EnumerationCapError, StateCapError) as exc:
        print(f"error[cap]: {exc}", file=sys.stderr)
        return 4
    except (PolicyError, CoverError, ScheduleError) as exc:
        print(f"error[policy]: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error[args]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
