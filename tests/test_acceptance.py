"""Ten headline checks, one printed verdict line each.

Each test prints `[acceptance NN] label: PASS/FAIL (detail)` before
asserting, so a `pytest -s tests/test_acceptance.py` run reads as a
checklist.  Expected values come from closed forms stated in the
instance metadata or from the brute-force references in bruteforce.py,
never from the code under test.
"""

from __future__ import annotations

import time

from bruteforce import closed_cuts, max_antichain_bruteforce, policy_tree, offline_statistics
from conftest import dag_fuzz, labeled_fuzz, strands_fuzz, width1_fuzz
from pathprophet import (
    Oracle,
    cover_from_paths,
    evaluate_focal_policy,
    feasibility_probabilities,
    generate_random_instance,
    min_path_cover,
    prepare_general_cover,
)
from pathprophet.instances import grid, kplus1, two_candidate, upper49
from pathprophet.oracle import expected_opt, optimal_online_value
from pathprophet.simulate import competitive_report, exact_policy_value, monte_carlo_estimate

SUITES = (
    ("width1", width1_fuzz),
    ("width1-labeled", labeled_fuzz),
    ("general", dag_fuzz),
    ("disjoint", strands_fuzz),
)


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num:02d} {label}: {detail}"


def test_01_two_candidate_tightness():
    t0 = time.perf_counter()
    tight = two_candidate(1e-3)
    ratio = exact_policy_value(tight, "width1") / expected_opt(tight)
    fixed = two_candidate(0.5)
    alg = exact_policy_value(fixed, "width1")
    opt_v = expected_opt(fixed)
    dt = time.perf_counter() - t0
    ok = (
        0.5 <= ratio <= 0.501
        and abs(alg - 0.75) <= 1e-9
        and abs(opt_v - 1.5) <= 1e-9
        and dt < 1
    )
    verdict(
        1,
        "width-1 policy achieves half the prophet",
        ok,
        f"ratio={ratio:.6f}, E(ALG)={alg:.6g}, E(OPT)={opt_v:.6g}, {dt:.2f}s",
    )


def test_02_capacity_pushes_online_toward_four_ninths():
    t0 = time.perf_counter()
    inst = upper49(0.1)
    e_opt = expected_opt(inst)
    online = optimal_online_value(inst)
    ratios = {}
    for eps in (0.1, 0.01, 0.001):
        g = upper49(eps)
        ratios[eps] = optimal_online_value(g) / expected_opt(g)
    dt = time.perf_counter() - t0
    target = 4 / 9
    near = all(abs(r - target) <= 0.3 * eps for eps, r in ratios.items())
    mono = ratios[0.1] > ratios[0.01] > ratios[0.001] > target
    ok = abs(e_opt - 4.25) <= 1e-9 and abs(online - 2) <= 1e-9 and near and mono and dt < 1
    verdict(
        2,
        "capacity-1 label caps online at 4/9 of the prophet",
        ok,
        f"E(OPT)={e_opt:.6g}, online={online:.6g}, "
        + ", ".join(f"eps={e:g}: {r:.6f}" for e, r in ratios.items())
        + f", {dt:.2f}s",
    )


def test_03_parallel_strands_pin_online_at_one():
    t0 = time.perf_counter()
    eps = 0.01
    parts = []
    ok = True
    for k in (2, 3, 4):
        inst = kplus1(k, eps)
        online = optimal_online_value(inst)
        e_opt = expected_opt(inst)
        miss = (1 - eps) ** k
        formula = (1 - miss) / eps + miss
        val = exact_policy_value(inst, "disjoint")
        ok = (
            ok
            and abs(online - 1) <= 1e-9
            and abs(e_opt - formula) <= 1e-9
            and val >= e_opt / (k + 1) - 1e-9
        )
        parts.append(f"k={k}: E(OPT)={e_opt:.4f}, policy={val:.4f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 5
    verdict(3, "k risky strands leave every online policy at 1", ok, "; ".join(parts) + f", {dt:.2f}s")


def test_04_cover_choice_decides_the_general_bound():
    t0 = time.perf_counter()
    k, eps = 3, 0.01
    inst = grid(k, eps)
    e_opt = expected_opt(inst)
    lower = 2 * k - k * k * eps
    horiz = cover_from_paths(inst, inst.meta["horizontal_cover"])
    vert = cover_from_paths(inst, inst.meta["vertical_cover"])
    h_val = prepare_general_cover(inst, horiz).exact_value()
    v_val = prepare_general_cover(inst, vert).exact_value()
    dt = time.perf_counter() - t0
    ok = (
        e_opt >= lower - 1e-9
        and h_val <= 1.2
        and h_val >= e_opt / (2 * k) - 1e-9
        and v_val >= 2 - 0.1
        and dt < 30
    )
    verdict(
        4,
        "on the grid the cover choice separates the policies",
        ok,
        f"E(OPT)={e_opt:.4f} (>= {lower:.2f}), horizontal={h_val:.4f}, "
        f"vertical={v_val:.4f}, {dt:.2f}s",
    )


def test_05_exact_guarantees_across_the_fuzz_corpus():
    t0 = time.perf_counter()
    checked = 0
    failed = 0
    worst = float("inf")
    for policy, make in SUITES:
        for j in range(200):
            inst = make(j)
            rep = competitive_report(inst, policy)
            worst = min(worst, rep.e_alg - rep.bound * rep.e_opt)
            failed += 0 if rep.bound_ok else 1
            checked += 1
    dt = time.perf_counter() - t0
    ok = failed == 0 and checked == 800 and dt < 300
    verdict(
        5,
        "all four guarantees hold on 4x200 random instances",
        ok,
        f"{checked - failed}/{checked} ok, worst margin {worst:+.3g}, {dt:.1f}s",
    )


def test_06_selection_probabilities_match_the_offline_relaxation():
    # engine identities on every suite instance, then an independent
    # execution-tree reconstruction on the <= 5 node ones
    worst_plain = 0.0
    for j in range(200):
        inst = width1_fuzz(j)
        orc = Oracle(inst)
        focal = min_path_cover(inst).paths[0]
        engine = evaluate_focal_policy(inst, focal, orc)
        x = orc.edge_probabilities()
        fs = set(focal)
        for e in inst.edges:
            if e.id not in fs:
                worst_plain = max(worst_plain, abs(engine.take_prob[e.id] - x[e.id] / 2))

    worst_lab = 0.0
    floor_lab = 0.0
    for j in range(200):
        inst = labeled_fuzz(j)
        orc = Oracle(inst)
        focal = min_path_cover(inst).paths[0]
        engine = evaluate_focal_policy(inst, focal, orc)
        x = orc.edge_probabilities()
        d = inst.max_labels_per_edge
        fs = set(focal)
        for e in inst.edges:
            want = x[e.id] / (d + 2)
            if e.id not in fs:
                worst_lab = max(worst_lab, abs(engine.take_prob[e.id] - want))
            else:
                floor_lab = max(floor_lab, want - engine.take_prob[e.id])

    small = [j for j in range(24) if 4 + j % 4 <= 5]
    worst_tree = 0.0
    for j in small:
        inst = labeled_fuzz(j)
        orc = Oracle(inst)
        focal = min_path_cover(inst).paths[0]
        engine = evaluate_focal_policy(inst, focal, orc)
        d = inst.max_labels_per_edge
        _, _, laws, _ = offline_statistics(inst)
        order = [inst.edges[focal[0]].src] + [inst.edges[eid].dst for eid in focal]
        accept: dict[int, float] = {}
        for i in range(len(focal)):
            stats = policy_tree(inst, focal, laws, accept)
            for e in inst.out_edges[inst.node_index[order[i]]]:
                p = stats["feasibility"][e.id]
                accept[e.id] = min(1, 1 / ((d + 2) * p)) if p > 0 else 0
        tree = policy_tree(inst, focal, laws, accept)
        worst_tree = max(worst_tree, abs(engine.value - tree["value"]))
        for e in inst.edges:
            worst_tree = max(
                worst_tree, abs(engine.take_prob[e.id] - tree["taken"].get(e.id, 0))
            )

    ok = worst_plain <= 1e-9 and worst_lab <= 1e-9 and floor_lab <= 1e-9 and worst_tree <= 1e-9
    verdict(
        6,
        "per-edge selection probabilities are x/2 resp. x/(d+2)",
        ok,
        f"max |dev| plain={float(worst_plain):.2g}, labeled={float(worst_lab):.2g}, "
        f"tree cross-check={float(worst_tree):.2g} on {len(small)} instances",
    )


def test_07_min_cover_width_equals_max_antichain():
    t0 = time.perf_counter()
    mismatches = 0
    for j in range(500):
        inst = generate_random_instance(j, shape="dag", n_nodes=6 + j % 15, max_outcomes=1)
        w = min_path_cover(inst).width
        a = len(max_antichain_bruteforce(inst))
        mismatches += int(w != a)
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 120
    verdict(
        7,
        "cover width matches the largest antichain on 500 DAGs",
        ok,
        f"{500 - mismatches}/500 equal, up to 20 nodes, {dt:.1f}s",
    )


def test_08_labeled_feasibility_never_drops_below_the_floor():
    worst = float("inf")
    for j in range(200):
        inst = labeled_fuzz(j)
        orc = Oracle(inst)
        focal = min_path_cover(inst).paths[0]
        d = inst.max_labels_per_edge
        probs = feasibility_probabilities(inst, focal, oracle=orc)
        worst = min(worst, min(p - 1 / (d + 2) for p in probs.p.values()))

    mc_bad = 0
    trials = 4000
    for j in range(0, 200, 25):
        inst = labeled_fuzz(j)
        orc = Oracle(inst)
        focal = min_path_cover(inst).paths[0]
        exact = feasibility_probabilities(inst, focal, oracle=orc)
        mc = feasibility_probabilities(
            inst, focal, mode="mc", oracle=orc, trials=trials, seed=1000 + j
        )
        for eid, p in exact.p.items():
            se = (p * (1 - p) / trials) ** 0.5
            if abs(mc.p[eid] - p) > 4 * se + 1e-9:
                mc_bad += 1
    ok = worst >= -1e-9 and mc_bad == 0
    verdict(
        8,
        "tentative edges stay feasible with probability >= 1/(d+2)",
        ok,
        f"worst exact margin {float(worst):+.4f}, {mc_bad} MC outliers at 4 SE",
    )


def test_09_offline_selection_mass_crosses_every_cut_once():
    worst = 0.0
    n_cuts = 0
    for _policy, make in SUITES:
        for j in range(200):
            inst = make(j)
            x = Oracle(inst).edge_probabilities()
            for cut in closed_cuts(inst):
                worst = max(worst, abs(sum(x[e] for e in cut) - 1))
                n_cuts += 1
    ok = worst <= 1e-9 and n_cuts > 0
    verdict(
        9,
        "offline selection mass is a unit flow through every cut",
        ok,
        f"{n_cuts} cuts brute-forced, max |sum - 1| = {float(worst):.2g}",
    )


def test_10_identical_seeds_give_bit_identical_reports():
    inst = dag_fuzz(3)
    a = monte_carlo_estimate(inst, "general", trials=400, seed=20260819)
    b = monte_carlo_estimate(inst, "general", trials=400, seed=20260819)
    strand = strands_fuzz(5)
    sa = monte_carlo_estimate(strand, "disjoint", trials=400, seed=11)
    sb = monte_carlo_estimate(strand, "disjoint", trials=400, seed=11)
    ra = competitive_report(inst, "general", mode="mc", trials=300, seed=77)
    rb = competitive_report(inst, "general", mode="mc", trials=300, seed=77)
    ok = (
        a == b
        and a.to_dict() == b.to_dict()
        and sa == sb
        and ra.to_dict() == rb.to_dict()
    )
    verdict(
        10,
        "Monte Carlo reports depend only on the master seed",
        ok,
        f"mean={a.mean:.9g} twice, strand mean={sa.mean:.9g} twice",
    )
