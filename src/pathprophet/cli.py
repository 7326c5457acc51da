"""Command line front end.

Subcommands: validate, width, cover, opt, xprobs, online-opt, simulate,
gen, trace.  Human-readable tables by default, --json for machines.
Randomized subcommands take --seed; when omitted a seed is generated
and echoed so any run can be reproduced.  Exit codes: 0 ok, 2 bad
arguments, 3 validation failure (or a value that overflows the float
range), 4 size cap exceeded, 5 policy/cover errors.

Each `_cmd_*` handler returns (exit code, JSON payload, text lines) and
prints nothing; `main` prints the payload under --json and the lines
otherwise, or one `error[...]` line on stderr when the handler raises.
A payload that carries a library record (`Violation`, `PathCover`,
`StepRecord`) carries it by the record's own fields, so each field list
is kept in one module.  Every subcommand but `gen` is declared by one
call that adds its parser, its `instance` argument and its handler, and
`--json` is added to every subcommand in one place, as its last option.

`main(argv)` may be called any number of times in one process: it
builds its parser once, on first use, and each call parses into a
fresh namespace.  `build_parser()` returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys
from typing import Any, Callable

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


def _seed(given: int | None) -> tuple[int, str]:
    """`given` with no tag, or a fresh seed tagged for its echo as generated."""
    if given is not None:
        return given, ""
    return random.SystemRandom().randrange(2**32), " (generated)"


def _load_checked(path: str) -> Instance:
    inst = load_instance(path)
    validate_instance(inst).raise_if_invalid()
    return inst


# -- subcommand handlers ----------------------------------------------------

# (exit code, JSON payload, text lines)
Output = tuple[int, Any, list[str]]


def _cmd_validate(args: argparse.Namespace) -> Output:
    inst = load_instance(args.instance)
    report = validate_instance(inst)
    payload = {
        "ok": report.ok,
        "violations": [dataclasses.asdict(v) for v in report.violations],
        "warnings": list(report.warnings),
        "nodes": len(inst.nodes),
        "edges": len(inst.edges),
        "labels": {k: v for k, v in sorted(inst.labels.items())},
    }
    if report.ok:
        lines = [f"ok: {len(inst.nodes)} nodes, {len(inst.edges)} edges, {len(inst.labels)} labels"]
    else:
        lines = ["invalid:"]
        for v in report.violations:
            where = f" at {v.where}" if v.where else ""
            lines.append(f"  [{v.code}] {v.message}{where}")
    lines += [f"  warning: {w}" for w in report.warnings]
    return (0 if report.ok else 3), payload, lines


def _cmd_width(args: argparse.Namespace) -> Output:
    cover = min_path_cover(_load_checked(args.instance), args.cover_seed)
    return 0, {"width": cover.width}, [f"width: {cover.width}"]


def _cmd_cover(args: argparse.Namespace) -> Output:
    cover = min_path_cover(_load_checked(args.instance), args.cover_seed)
    payload = {"width": cover.width, **dataclasses.asdict(cover)}
    lines = [f"width: {cover.width}"]
    for i, (path, order) in enumerate(zip(cover.paths, cover.node_orders)):
        edges = ", ".join(str(e) for e in path)
        lines.append(f"path {i}: {' -> '.join(order)}  (edges {edges})")
    return 0, payload, lines


def _cmd_opt(args: argparse.Namespace) -> Output:
    oracle = Oracle(_load_checked(args.instance))
    if not args.mc:
        value = float(oracle.expected_opt())
        return 0, {"expected_opt": value, "mode": "exact"}, [f"expected offline value: {value:.9g}"]
    seed, tag = _seed(args.seed)
    value = float(oracle.expected_opt_mc(args.trials, seed))
    payload = {"expected_opt": value, "mode": "mc", "trials": args.trials, "seed": seed}
    return 0, payload, [f"expected offline value (MC): {value:.9g}", f"trials: {args.trials}, seed: {seed}{tag}"]


def _cmd_xprobs(args: argparse.Namespace) -> Output:
    inst = _load_checked(args.instance)
    x = [float(v) for v in Oracle(inst).edge_probabilities()]
    lines = []
    for e in inst.edges:
        lbl = f" [{','.join(sorted(e.labels))}]" if e.labels else ""
        lines.append(f"edge {e.id:3d} {e.src} -> {e.dst}{lbl}: x = {x[e.id]:.9g}")
    return 0, {"x": {str(i): v for i, v in enumerate(x)}}, lines


def _cmd_online_opt(args: argparse.Namespace) -> Output:
    value = float(Oracle(_load_checked(args.instance)).optimal_online_value())
    return 0, {"online_opt": value}, [f"optimal online value: {value:.9g}"]


def _cmd_simulate(args: argparse.Namespace) -> Output:
    inst = _load_checked(args.instance)
    seed, tag = _seed(args.seed) if args.mc else (args.seed, "")
    report = competitive_report(
        inst,
        args.policy,
        mode="mc" if args.mc else "exact",
        trials=args.trials if args.mc else None,
        seed=seed,
        cover=min_path_cover(inst, args.cover_seed),
        include_online=args.online,
    )
    payload = report.to_dict()
    if tag:
        payload["seed_generated"] = True
    lines = [f"policy: {report.policy}  (mode {report.mode})", f"e_alg:  {report.e_alg:.9g}"]
    if report.mode == "mc":
        lines.append(f"        trials={report.trials} seed={report.seed}{tag} std_err={report.std_err:.3g}")
        if report.realized_mean is not None and report.realized_mean != report.e_alg:
            lines.append(f"        realized mean incl. connectors: {report.realized_mean:.9g}")
    lines.append(f"e_opt:  {report.e_opt:.9g}")
    if report.online_opt is not None:
        lines.append(f"online: {report.online_opt:.9g}")
    if report.ratio is not None:
        lines.append(f"ratio:  {report.ratio:.9g}")
    verdict = "holds" if report.bound_ok else "VIOLATED"
    lines.append(f"bound:  {report.bound_label} = {report.bound:.9g} (k={report.width}, d={report.d}) -> {verdict}")
    return (0 if report.bound_ok else 5), payload, lines


def _cmd_trace(args: argparse.Namespace) -> Output:
    inst = _load_checked(args.instance)
    seed, tag = _seed(args.seed)
    walk = prepare_policy(inst, args.policy, min_path_cover(inst, args.cover_seed)).sampler()
    traj = walk.run(random.Random(derive_seed(seed, "traj", 0)))
    value = float(traj.value)
    payload = {
        "seed": seed,
        "policy": args.policy,
        "value": value,
        "edges": list(traj.edges),
        "sub_index": traj.sub_index,
        "steps": [dataclasses.asdict(s) for s in traj.steps],
    }
    lines = [f"policy: {args.policy}, seed: {seed}{tag}"]
    if traj.sub_index is not None:
        lines.append(f"cover path used: {traj.sub_index}")
    lines.append("node        outcome  tentative  feasible  coin      taken")
    for s in traj.steps:
        tent = "-" if s.tentative is None else str(s.tentative)
        feas = "-" if s.feasible is None else ("yes" if s.feasible else "no")
        coin = "-" if s.coin is None else f"{s.coin:.6f}"
        lines.append(f"{s.node:<11} {s.outcome:<8} {tent:<10} {feas:<9} {coin:<9} {s.taken}")
    names = [f"{eid}:{inst.edges[eid].src}->{inst.edges[eid].dst}" for eid in traj.edges]
    lines += ["edges walked: " + ", ".join(names), f"value: {value:.9g}"]
    return 0, payload, lines


# the flags `gen random` takes, as `generate_random_instance` names them
_RANDOM_PARAMS = {"seed": "seed", "shape": "shape", "nodes": "n_nodes", "outcomes": "max_outcomes", "d": "d"}


def _cmd_gen(args: argparse.Namespace) -> Output:
    # every family parameter given; the family's own check refuses the extras
    skip = ("command", "func", "family", "out", "json")
    params = {k: v for k, v in vars(args).items() if v is not None and k not in skip}
    if "terms" in params:
        params["terms"] = [int(x) for x in params["terms"].split(",")]
    tag = ""
    if args.family == "random":
        unknown = sorted(set(params) - set(_RANDOM_PARAMS))
        if unknown:
            raise ValueError(
                f"family 'random' does not take {', '.join(map(repr, unknown))}; "
                f"it accepts: {', '.join(_RANDOM_PARAMS)}"
            )
        params["seed"], tag = _seed(args.seed)
        inst = generate_random_instance(**{_RANDOM_PARAMS[key]: value for key, value in params.items()})
    else:
        inst = generate_paper_instance(args.family, **params)
    save_instance(inst, args.out)
    payload = {"path": args.out, "family": args.family, "nodes": len(inst.nodes), "edges": len(inst.edges)}
    lines = [f"wrote {args.out}: family={args.family}, {len(inst.nodes)} nodes, {len(inst.edges)} edges"]
    if tag:
        payload.update(seed=params["seed"], seed_generated=True)
        lines.append(f"seed: {params['seed']}{tag}")
    return 0, payload, lines


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathprophet",
        description="Sequential path selection on stochastic DAGs: offline "
        "baselines, online policies, covers, and benchmark instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str, func: Callable[[argparse.Namespace], Output]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.add_argument("instance")
        p.set_defaults(func=func)
        return p

    def add_cover_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cover-seed", type=int, default=None, help="seed that picks among the minimum path covers")

    command("validate", "check an instance file", _cmd_validate)
    add_cover_seed(command("width", "minimum number of covering paths", _cmd_width))
    add_cover_seed(command("cover", "print a minimum path cover", _cmd_cover))

    p = command("opt", "expected offline (prophet) value", _cmd_opt)
    p.add_argument("--mc", action="store_true", help="Monte Carlo instead of exact")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)

    command("xprobs", "per-edge offline selection probabilities", _cmd_xprobs)
    command("online-opt", "value of the best fully informed walker", _cmd_online_opt)

    p = command("simulate", "run a policy against the prophet", _cmd_simulate)
    p.add_argument("--policy", choices=POLICIES, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="exact evaluation (default)")
    group.add_argument("--mc", action="store_true", help="Monte Carlo estimate")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=None)
    add_cover_seed(p)
    p.add_argument("--online", action="store_true", help="include the optimal online value")

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
    p.add_argument("--shape", choices=("dag", "width1", "strands"), default=None)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--outcomes", type=int, default=None)
    p.add_argument("--d", type=int, default=None, choices=(0, 1, 2))
    p.set_defaults(func=_cmd_gen)

    p = command("trace", "walk one reproducible trajectory", _cmd_trace)
    p.add_argument("--policy", choices=POLICIES, required=True)
    p.add_argument("--seed", type=int, default=None)
    add_cover_seed(p)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True, default=float))
        else:
            print("\n".join(lines))
        return code
    except InvalidInstanceError as exc:
        print(f"error[validation]: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error[validation]: a value overflowed the float range ({exc})", file=sys.stderr)
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
