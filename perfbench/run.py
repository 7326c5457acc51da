"""Benchmark entry point: one workload, one fresh process, one client.

    python3 perfbench/run.py --workload prophet-enum --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Run from the repository root.  The program is imported from `src/` of
the checkout this file sits in.  A run generates its inputs from the
seed, runs whole passes over its job list until `--seconds` have gone
by (and at least `MIN_PASSES`), then checks every answer.  Within a
pass each job runs twice back to back, `Fraction` twin and float twin,
in alternating order.  A job's time is its fastest pass: the host's
speed moves by up to 1.8x from pass to pass, and the slower passes
measure its other tenants rather than the program.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; `--out DIR` also
writes the full record (provenance, input fingerprint, per-job work
counts and failures) to `DIR/<workload>-s<seed>-t<trace>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from typing import Any

T_START = time.perf_counter()

import checks
import workloads
from checks import Attempt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HALVES = ("frac", "float")
MODULES = ("model", "oracle", "cover", "policies", "simulate", "cli", "instances", "util")
MIN_PASSES = 4  # a job's fastest pass is taken from at least this many
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


class SetupError(Exception):
    pass


def load_program() -> types.SimpleNamespace:
    """Import pathprophet from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pathprophet", "__init__.py")):
        raise SetupError(f"no program to measure: {src}/pathprophet is missing")
    sys.path.insert(0, src)
    api = types.SimpleNamespace(**{m: importlib.import_module("pathprophet." + m) for m in MODULES})
    if not os.path.abspath(api.model.__file__).startswith(src + os.sep):
        raise SetupError(f"pathprophet was imported from {api.model.__file__}, not from {src}")
    return api


def setup(api: Any, workload: str, seed: int, scratch: str) -> dict[str, Any]:
    """Everything before the first timed job: inputs, files, fingerprint,
    work counts, size checks and the reference."""
    jobs, gen = workloads.build_jobs(api, workload, seed, scratch)
    for job in jobs:
        job.work = workloads.work_counts(api, job)
    if workload == "prophet-enum":
        enum_cap, state_cap = api.util.default_enum_cap(), api.util.DEFAULT_STATE_CAP
        for job in jobs:
            if job.work["realization_count"] > enum_cap or job.work["online_states"] > state_cap:
                raise SetupError(f"{job.key} exceeds the default enumeration or state cap: {job.work}")
    return {
        "jobs": jobs,
        "generate_s": gen.seconds,
        "fingerprint": workloads.fingerprint(jobs),
        "reference": checks.load_reference(workload) if seed == checks.DEFAULT_SEED else None,
    }


def run_job(api: Any, job: workloads.Job, half: str) -> Attempt:
    """Time one job.  The float twin of an exact-sweep job goes through
    `cli.main` in-process with its output captured."""
    try:
        if half == "float" and job.cli_path is not None:
            argv = ["simulate", job.cli_path, "--policy", job.policy, "--json"]
            if job.include_online:
                argv.append("--online")
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = api.cli.main(argv)
            dt = time.perf_counter() - t0
            if code != 0:
                return Attempt(dt, None, f"cli exit {code}: {err.getvalue().strip()}")
            return Attempt(dt, checks.answer_from_cli(json.loads(out.getvalue())))
        inst = job.frac if half == "frac" else job.twin
        t0 = time.perf_counter()
        rep = api.simulate.competitive_report(
            inst, job.policy, mode=job.mode, trials=job.trials, seed=job.mc_seed,
            include_online=job.include_online,
        )
        dt = time.perf_counter() - t0
        return Attempt(dt, checks.answer_from_report(rep))
    except Exception as exc:  # a job that raises is a failed job, and the run goes on
        return Attempt(float("nan"), None, f"raised {type(exc).__name__}: {exc}")


def timed_phase(api: Any, jobs: list, seconds: float, tracer: Any) -> tuple[dict, int]:
    """Whole passes until `seconds` are used; returns the attempts and
    the number of passes.  With a tracer, odd passes are traced."""
    attempts: dict[str, list[list[Attempt]]] = {h: [[] for _ in jobs] for h in HALVES}
    min_passes = 2 if tracer else MIN_PASSES
    start = last = time.perf_counter()
    p = 0
    # stop before a pass that would end past `seconds`, once enough passes ran
    while p < min_passes or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.install()
        try:
            for j, job in enumerate(jobs):
                for half in HALVES if (j + p) % 2 == 0 else HALVES[::-1]:
                    att = run_job(api, job, half)
                    if traced:
                        att.traced, att.layers = True, tracer.take()
                    done = attempts[half][j]
                    if done and att.answer == done[0].answer:
                        att.answer = done[0].answer  # keeps memory flat, so peak RSS does not grow with passes
                    done.append(att)
        finally:
            if traced:
                tracer.uninstall()
        p += 1
    return attempts, p


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time from process start to the end of set-up, in fresh
    processes that stop right before the first job would run."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            dt = time.perf_counter() - t0
            try:
                _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise SetupError("set-up process timed out")
        if line.strip() != "ready" or child.returncode != 0:
            raise SetupError(f"set-up process failed: {err.strip()}")
        times.append(dt)
    return times


def provenance(seed: int, trace: int) -> dict[str, Any]:
    sha = dirty = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True, timeout=20)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=20).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=20)
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "seed": seed, "trace": bool(trace),
    }


# -- metrics --------------------------------------------------------------------


def _ok(att: Attempt) -> bool:
    """After `checks.check`: a raised job has its error among the problems."""
    return not att.problems


def fastest(job_atts: list[Attempt], traced: bool | None = None) -> float | None:
    """A job's time: its fastest pass that did not raise.  `traced` picks
    traced or untraced passes; None takes all."""
    secs = [a.seconds for a in job_atts if a.error is None and (traced is None or a.traced == traced)]
    return min(secs) if secs else None


def jobs_per_s(attempts: list[list[Attempt]], traced: bool | None = None) -> float:
    """Correct jobs per second of busy time for one pass over the job
    list, each job at its fastest pass and counted by its share of
    correct passes."""
    done = busy = 0.0
    for job_atts in attempts:
        best = fastest(job_atts, traced)
        if best is not None:
            atts = [a for a in job_atts if traced is None or a.traced == traced]
            done += sum(map(_ok, atts)) / len(atts)
            busy += best
    return done / busy if busy else 0.0


def end_to_end(attempts: dict, setup_times: list[float], rss_mb: float) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {"setup_s": (statistics.median(setup_times), "s")}
    for h in HALVES:
        secs = [t for t in map(fastest, attempts[h]) if t is not None]
        if len(secs) < 2:
            continue
        m[f"job_s_p50.{h}"] = (statistics.median(secs), "s")
        m[f"job_s_p90.{h}"] = (statistics.quantiles(secs, n=10, method="inclusive")[8], "s")
        m[f"jobs_per_s.{h}"] = (jobs_per_s(attempts[h]), "1/s")
    m["peak_rss_mb"] = (rss_mb, "MiB")
    return m


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(jobs: list, attempts: dict, generate_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced attempts: times per job (or per
    trial, realization, sample) for each half, counts over both halves."""
    m: dict[str, tuple[float, str]] = {}
    both: Counter[str] = Counter()
    for h in HALVES:
        t: Counter[str] = Counter()
        for job, job_atts in zip(jobs, attempts[h]):
            for a in job_atts:
                if a.traced and a.error is None:
                    t.update(a.layers)
                    t.update({"jobs": 1, "trials": job.trials or 0, "job_s": a.seconds,
                              "online_states": job.work["online_states"]})
        both.update(t)
        n, trials = t["jobs"], t["trials"]
        oracle_s = t["model.enumerate.self_s"] + t["oracle.annotate.self_s"] + t["oracle.opt_path.self_s"]
        plain, traced = jobs_per_s(attempts[h], False), jobs_per_s(attempts[h], True)
        rows = {
            "model.enumerate_s": (_div(t["model.enumerate.self_s"], n), "s"),
            "oracle.annotate_s": (_div(t["oracle.annotate.self_s"], n), "s"),
            "oracle.opt_path_s": (_div(t["oracle.opt_path.self_s"], n), "s"),
            "oracle.us_per_realization": (1e6 * _div(oracle_s, t["model.realizations"]), "us"),
            "oracle.online_s": (_div(t["oracle.online.self_s"], n), "s"),
            "model.sample_us": (1e6 * _div(t["model.sample.self_s"], t["model.sample.calls"]), "us"),
            "policies.walk_us_per_trial": (1e6 * _div(t["policies.walk.self_s"], trials), "us"),
            "simulate.mc_us_per_trial": (1e6 * _div(t["simulate.mc.total_s"], trials), "us"),
            "policies.prepare_s": (_div(t["policies.prepare.self_s"], n), "s"),
            "policies.engine_s": (_div(t["policies.engine.self_s"], n), "s"),
            "cover.min_path_cover_s": (_div(t["cover.min_path_cover.self_s"], n), "s"),
            "simulate.report_self_s": (_div(t["simulate.report.self_s"], n), "s"),
            "model.parse_s": (_div(t["model.parse.self_s"], n), "s"),
            "model.validate_s": (_div(t["model.validate.self_s"], n), "s"),
            "cli.main_self_s": (_div(t["cli.main.self_s"], n), "s"),
            "trace.job_s": (_div(t["job_s"], n), "s"),
            "trace.oracle_share": (_div(oracle_s + t["oracle.online.self_s"], t["job_s"]), "ratio"),
            "trace.mc_share": (_div(t["simulate.mc.total_s"], t["job_s"]), "ratio"),
            "trace.walk_share": (_div(t["policies.walk.self_s"], t["job_s"]), "ratio"),
            "trace.jobs_per_s_untraced": (plain, "1/s"),
            "trace.jobs_per_s_traced": (traced, "1/s"),
            "trace.overhead": (_div(plain, traced), "ratio"),
        }
        m.update({f"{k}.{h}": v for k, v in rows.items()})
    n = both["jobs"]
    m.update({
        "model.realizations": (_div(both["model.realizations"], n), "count"),
        "oracle.opt_path_calls": (_div(both["oracle.opt_path.calls"], n), "count"),
        "oracle.specs_per_realization": (_div(both["oracle.opt_path.calls"], both["model.realizations"]), "ratio"),
        "oracle.online_states": (_div(both["online_states"], n), "count"),
        "model.samples": (_div(both["model.sample.calls"], n), "count"),
        "policies.cond_law_calls_per_trial": (_div(both["policies.cond_law_calls"], both["trials"]), "count"),
        "policies.engine_calls": (_div(both["policies.engine.calls"], n), "count"),
        "cover.calls": (_div(both["cover.min_path_cover.calls"], n), "count"),
        "instances.generate_s": (generate_s, "s"),
    })
    return m


# -- entry points --------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    api = load_program()
    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        state = setup(api, args.workload, args.seed, scratch)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        setup_main_s = time.perf_counter() - T_START
        jobs = state["jobs"]
        tracer = None
        if args.trace:
            import tracer as tracer_module

            tracer = tracer_module.Tracer({m: getattr(api, m) for m in MODULES})
        attempts, passes = timed_phase(api, jobs, args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
        checks.check(api, jobs, attempts, args.seed, state["fingerprint"], state["reference"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(scratch))

    if args.trace:
        metrics = per_layer(jobs, attempts, state["generate_s"])
    else:
        metrics = end_to_end(attempts, setup_times, rss_mb)
    by_half = {h: [a for job_atts in attempts[h] for a in job_atts] for h in HALVES}
    attempted = sum(map(len, by_half.values()))
    failed = sum(not _ok(a) for atts in by_half.values() for a in atts)
    failed_share = {h: sum(not _ok(a) for a in atts) / len(atts) for h, atts in by_half.items()}
    prov = provenance(args.seed, args.trace)
    print(f"# {args.workload}: seed {args.seed}, {len(jobs)} jobs x {passes} passes, trace {args.trace}")
    print(f"# input fingerprint {state['fingerprint']}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:40s} {value:14.6g} {unit}")
    for h in HALVES:
        print(f"{args.workload:13s} {'failed_share.' + h:40s} {failed_share[h]:14.6g} ratio")
    problems = sorted({f"{jobs[j].key} [{h}]: {msg}" for h in HALVES for j, job_atts in enumerate(attempts[h])
                       for a in job_atts for msg in a.problems})
    for msg in problems[:20]:
        print(f"# FAILED {msg}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "provenance": prov, "fingerprint": state["fingerprint"], "passes": passes,
            "setup_main_s": setup_main_s, "setup_s_samples": setup_times,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "failed_share": failed_share, "attempted": attempted, "failed": failed,
            "pass_busy_s": {h: [sum(a[p].seconds for a in attempts[h] if a[p].error is None) for p in range(passes)]
                            for h in HALVES},
            "problems": problems,
            "jobs": [
                {"key": job.key, "policy": job.policy, "mode": job.mode, **job.work,
                 "focal_length": next((workloads.focal_length(a.answer["params"]) for a in attempts["frac"][j]
                                       if a.answer is not None), None),
                 **{f"pass_s.{h}": [a.seconds for a in attempts[h][j]] for h in HALVES}}
                for j, job in enumerate(jobs)
            ],
        }
        path = os.path.join(args.out, f"{args.workload}-s{args.seed}-t{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; the last line merges their
    results with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w} failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}:{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="directory for the full result record")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
