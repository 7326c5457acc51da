"""Write reference.json: exact answers for the default seed.

    python3 perfbench/make_reference.py

Run once, at the commit that defines the benchmark.  Exact jobs store
their values as fractions from the `Fraction` instances; MC jobs store
the mean of the `Fraction` half, which pins the draw order.  Later runs
with the default seed are checked against this file, so regenerate it
only when the workload itself changes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    api = run.load_program()
    scratch = os.path.join(run.ROOT, ".perfbench_tmp", "reference")
    os.makedirs(scratch, exist_ok=True)
    out = {"seed": checks.DEFAULT_SEED, "workloads": {}}
    try:
        for w in workloads.WORKLOADS:
            jobs, _ = workloads.build_jobs(api, w, checks.DEFAULT_SEED, scratch)
            refs = {}
            for job in jobs:
                exact = checks.exact_values(api, job)
                if job.mode == "mc":
                    rep = api.simulate.competitive_report(job.frac, job.policy, mode="mc", trials=job.trials, seed=job.mc_seed)
                    refs[job.key] = {"mean": rep.e_alg, "exact_alg": checks.frac_str(exact["e_alg"])}
                else:
                    refs[job.key] = {k: checks.frac_str(exact[k]) for k in checks.ANSWER_KEYS}
            out["workloads"][w] = {"fingerprint": workloads.fingerprint(jobs), "jobs": refs}
            print(f"{w}: {len(refs)} jobs", file=sys.stderr)
    finally:
        shutil.rmtree(os.path.dirname(scratch), ignore_errors=True)
    with open(checks.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
