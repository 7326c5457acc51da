"""The answer checks count a perturbed answer as a failed job.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import tempfile

import pytest

import checks
import run
import workloads

API = run.load_program()


@pytest.fixture(scope="module")
def sweep():
    """One pass of exact-sweep at the default seed, with its checks' inputs."""
    scratch = tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_test")
    try:
        jobs, _ = workloads.build_jobs(API, "exact-sweep", checks.DEFAULT_SEED, scratch)
        attempts = {h: [[run.run_job(API, job, h)] for job in jobs] for h in run.HALVES}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return jobs, attempts, workloads.fingerprint(jobs), checks.load_reference("exact-sweep")


def _failed(jobs, attempts, fingerprint, reference, seed=checks.DEFAULT_SEED):
    attempts = copy.deepcopy(attempts)
    checks.check(API, jobs, attempts, seed, fingerprint, reference)
    return {(h, j) for h in run.HALVES for j, atts in enumerate(attempts[h]) for a in atts if not run._ok(a)}


def test_seed_commit_answers_pass(sweep):
    assert _failed(*sweep) == set()


def test_perturbed_exact_answer_fails(sweep):
    jobs, attempts, fingerprint, reference = sweep
    for half in run.HALVES:
        bad = copy.deepcopy(attempts)
        bad[half][5][0].answer["e_alg"] += 1e-6
        assert (half, 5) in _failed(jobs, bad, fingerprint, reference)
        # without the reference, the twin check still catches it
        assert ("float", 5) in _failed(jobs, bad, fingerprint, reference, seed=7)


def test_closed_form_answer_fails(sweep):
    jobs, attempts, fingerprint, reference = sweep
    j = next(i for i, job in enumerate(jobs) if job.key == "upper49")
    bad = copy.deepcopy(attempts)
    for half in run.HALVES:
        bad[half][j][0].answer["online_opt"] += 0.25
    assert {("frac", j), ("float", j)} <= _failed(jobs, bad, fingerprint, reference, seed=7)


def test_changed_inputs_fail_the_reference(sweep):
    jobs, attempts, _, reference = sweep
    assert ("frac", 0) in _failed(jobs, attempts, "0" * 64, reference)


def test_mc_checks(monkeypatch):
    jobs, _ = workloads.build_jobs(API, "mc-walk", checks.DEFAULT_SEED, None)
    fingerprint = workloads.fingerprint(jobs)
    reference = checks.load_reference("mc-walk")
    job = jobs[0]
    attempts = {h: [[run.run_job(API, job, h)]] for h in run.HALVES}
    assert _failed([job], attempts, fingerprint, reference) == set()
    # a changed draw order shows against the reference
    bad = copy.deepcopy(attempts)
    bad["frac"][0][0].answer["e_alg"] *= 1 + 1e-8
    assert ("frac", 0) in _failed([job], bad, fingerprint, reference)
    # a chance miss of 5 SE is not a failure when the rerun lands near the exact value
    far = copy.deepcopy(attempts)
    for half in run.HALVES:
        ans = far[half][0][0].answer
        ans["e_alg"] += 5 * ans["std_err"] + 1e-6
    assert _failed([job], far, fingerprint, reference, seed=7) == set()
    # a biased sampler is off in the rerun too
    honest = API.simulate.monte_carlo_estimate

    def biased(*args, **kwargs):
        rep = honest(*args, **kwargs)
        return dataclasses.replace(rep, mean=rep.mean + 5 * rep.std_err + 1e-6)

    monkeypatch.setattr(API.simulate, "monte_carlo_estimate", biased)
    skewed = {h: [[run.run_job(API, job, h)]] for h in run.HALVES}
    assert _failed([job], skewed, fingerprint, reference, seed=7) == {("frac", 0), ("float", 0)}
