"""Named families carry correct closed-form meta; random shapes are sound."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

import pytest

from bruteforce import offline_statistics
from pathprophet.errors import InvalidInstanceError
from pathprophet.instances import (
    classic,
    generate_paper_instance,
    generate_random_instance,
    grid,
    kplus1,
    markets,
    mchoice,
    overtime,
    paper_families,
    two_candidate,
    upper49,
    vertex_matching,
)
from pathprophet.cover import cover_from_paths, min_path_cover
from pathprophet.model import instance_to_dict, validate_instance
from pathprophet.oracle import expected_opt, optimal_online_value
from pathprophet.simulate import exact_policy_value


def table(inst, node):
    return inst.tables[inst.node_index[node]]


@pytest.mark.parametrize("family", paper_families())
def test_every_family_builds_valid(family):
    inst = generate_paper_instance(family)
    assert validate_instance(inst).ok
    assert inst.meta["family"] == family


def test_family_name_accepts_underscores():
    a = generate_paper_instance("two_candidate", eps=0.25)
    b = generate_paper_instance("two-candidate", eps=0.25)
    assert instance_to_dict(a) == instance_to_dict(b)


def test_unknown_family_rejected():
    with pytest.raises(InvalidInstanceError, match="unknown family"):
        generate_paper_instance("nope")


@pytest.mark.parametrize("eps", [0.5, 0.25, 1e-3])
def test_two_candidate_meta_matches_oracle_and_policy(eps):
    inst = two_candidate(eps)
    assert inst.meta["expected_opt"] == pytest.approx(2 - eps, abs=1e-12)
    assert expected_opt(inst) == pytest.approx(2 - eps, abs=1e-12)
    assert exact_policy_value(inst, "width1") == pytest.approx(1 - eps / 2, abs=1e-12)


def test_two_candidate_eps_one_degenerates_to_sure_thing():
    inst = two_candidate(1.0)
    assert expected_opt(inst) == pytest.approx(1.0, abs=1e-12)


def test_two_candidate_rejects_bad_eps():
    with pytest.raises(InvalidInstanceError):
        two_candidate(0.0)
    with pytest.raises(InvalidInstanceError):
        two_candidate(1.5)


def test_classic_two_candidates_agrees_with_dedicated_family():
    # n=2 of the escalating ladder is the two-candidate gadget
    inst = classic(n=2, eps=0.25)
    assert expected_opt(inst) == pytest.approx(2 - 0.25, abs=1e-12)
    assert len(min_path_cover(inst).paths) == 1


def test_classic_ladder_prophet_matches_bruteforce_and_grows():
    prev = 0.0
    for n in (2, 3, 4):
        inst = classic(n=n, eps=0.5)
        expected, _x, _cond, _paths = offline_statistics(inst)
        val = expected_opt(inst)
        assert val == pytest.approx(float(expected), abs=1e-12)
        assert val > prev
        prev = val


def test_classic_rejects_bad_shapes():
    with pytest.raises(InvalidInstanceError):
        classic(n=1)
    with pytest.raises(InvalidInstanceError, match="distributions"):
        classic(n=3, dists=[[(1, 1)]] * 2)


def test_upper49_meta_matches_oracles():
    inst = upper49(eps=0.1)
    assert inst.meta["d"] == 1
    assert expected_opt(inst) == pytest.approx(float(inst.meta["expected_opt"]), abs=1e-12)
    assert expected_opt(inst) == pytest.approx(4.25, abs=1e-12)
    assert optimal_online_value(inst) == pytest.approx(2.0, abs=1e-12)
    caps = dict(inst.labels)
    assert caps == {"red": 1}


def test_upper49_width_one():
    assert len(min_path_cover(upper49()).paths) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kplus1_meta_matches_oracles(k):
    eps = 0.01
    inst = kplus1(k=k, eps=eps)
    miss = (1 - eps) ** k
    assert inst.meta["expected_opt"] == pytest.approx((1 - miss) / eps + miss, abs=1e-12)
    assert expected_opt(inst) == pytest.approx(inst.meta["expected_opt"], abs=1e-9)
    assert optimal_online_value(inst) == pytest.approx(1.0, abs=1e-12)
    assert len(min_path_cover(inst).paths) == max(k, 1)


def test_grid_meta_covers_are_real_covers():
    inst = grid(k=3, eps=0.01)
    for key in ("horizontal_cover", "vertical_cover"):
        cover = cover_from_paths(inst, inst.meta[key])
        assert len(cover.paths) == 3
    assert len(min_path_cover(inst).paths) == 3


def test_grid_prophet_beats_documented_lower_bound():
    inst = grid(k=3, eps=0.01)
    assert expected_opt(inst) >= inst.meta["opt_lower_bound"] - 1e-9
    assert inst.meta["opt_lower_bound"] == pytest.approx(2 * 3 - 9 * 0.01, abs=1e-12)


def test_grid_rejects_small_k():
    with pytest.raises(InvalidInstanceError):
        grid(k=2)


def test_overtime_skip_edge_is_always_free():
    inst = overtime(horizon=4, terms=(1, 2))
    # first out-edge of each decision node is the zero-value skip
    for node in inst.nodes[:-1]:
        out = [e for e in inst.edges if e.src == node]
        skip = min(out, key=lambda e: e.id)
        for row in table(inst, node):
            assert row.values[skip.id] == 0
    assert len(min_path_cover(inst).paths) == 1


def test_overtime_term_edges_price_from_one_draw():
    # a term of length ell pays ell times the per-step rate
    inst = overtime(horizon=3, terms=(1, 2))
    node = "1"
    out = {e.id: e for e in inst.edges if e.src == node}
    spans = {}
    order = sorted(out)
    for e in order:
        dst = out[e].dst
        spans[e] = 4 if dst == "t" else int(dst)
    for row in table(inst, node):
        rates = set()
        for e in order[1:]:  # skip edge excluded
            ell = spans[e] - 1
            rates.add(Fraction(row.values[e]) / ell if ell else None)
        assert len(rates) == 1


@pytest.mark.parametrize("terms", [(1.5, 2.9), (True,), ("2",)])
def test_overtime_refuses_terms_that_are_not_ints(terms):
    with pytest.raises(InvalidInstanceError, match="terms must be positive integers"):
        overtime(horizon=3, terms=terms)


def test_markets_stay_and_switch_share_one_draw():
    inst = markets(periods=4)
    by_src: dict[str, list] = {}
    for e in inst.edges:
        by_src.setdefault(e.src, []).append(e)
    for node, out in by_src.items():
        if node == "s":
            continue
        # group out-edges by destination period; stay/switch pairs agree
        by_period: dict[str, list] = {}
        for e in out:
            by_period.setdefault(e.dst[1:] if e.dst != "t" else "t", []).append(e)
        for row in table(inst, node):
            for group in by_period.values():
                assert len({row.values[e.id] for e in group}) == 1


def test_markets_width_two():
    inst = markets(periods=3)
    assert len(min_path_cover(inst).paths) == 2
    assert inst.meta["width"] == 2


@pytest.mark.parametrize("entry", [([(1, 1)],), ([(1, 1)], [(1, 2)], [(1, 3)])], ids=["one-law", "three-laws"])
def test_markets_refuses_a_distribution_entry_that_is_not_a_pair(entry):
    with pytest.raises(InvalidInstanceError, match="distribution pair"):
        markets(3, [entry] * 3)


def test_mchoice_slot_cap_and_skips():
    inst = mchoice(n=4, m=2)
    assert dict(inst.labels) == {"slot": 2}
    assert len(min_path_cover(inst).paths) == 1
    labeled = [e for e in inst.edges if e.labels]
    assert len(labeled) == 4
    for e in labeled:
        twins = [
            o
            for o in inst.edges
            if o.src == e.src and o.dst == e.dst and not o.labels
        ]
        assert twins


def test_vertex_matching_structure_and_determinism():
    a = vertex_matching(bidders=3, items=2, seed=5)
    b = vertex_matching(bidders=3, items=2, seed=5)
    assert instance_to_dict(a) == instance_to_dict(b)
    c = vertex_matching(bidders=3, items=2, seed=6)
    assert instance_to_dict(a) != instance_to_dict(c)
    assert dict(a.labels) == {"item1": 1, "item2": 1}
    for node in a.nodes[:-1]:
        out = [e for e in a.edges if e.src == node]
        assert len(out) == 3  # skip + one edge per item
        rows = table(a, node)
        assert sum(row.p for row in rows) == 1
        assert all(isinstance(row.p, Fraction) for row in rows)


def test_random_instance_is_seed_deterministic():
    a = generate_random_instance(11, shape="dag", n_nodes=7, max_outcomes=3, d=1)
    b = generate_random_instance(11, shape="dag", n_nodes=7, max_outcomes=3, d=1)
    assert instance_to_dict(a) == instance_to_dict(b)
    c = generate_random_instance(12, shape="dag", n_nodes=7, max_outcomes=3, d=1)
    assert instance_to_dict(a) != instance_to_dict(c)


@pytest.mark.parametrize("max_outcomes", [0, 9, -2])
def test_random_instance_refuses_max_outcomes_outside_one_to_eight(max_outcomes):
    with pytest.raises(InvalidInstanceError, match="max_outcomes must be 1..8"):
        generate_random_instance(3, shape="dag", n_nodes=7, max_outcomes=max_outcomes)


def test_random_width1_shape_has_width_one():
    for seed in range(8):
        inst = generate_random_instance(seed, shape="width1", n_nodes=6)
        assert len(min_path_cover(inst).paths) == 1


def test_random_labeled_shape_sprinkles_twinned_copies():
    inst = generate_random_instance(3, shape="dag", n_nodes=7, d=2)
    labeled = [e for e in inst.edges if e.labels]
    assert labeled
    assert max(len(e.labels) for e in labeled) <= 2
    for e in labeled:
        assert any(
            o.src == e.src and o.dst == e.dst and not o.labels for o in inst.edges
        )


def test_random_shape_rejections():
    with pytest.raises(InvalidInstanceError, match="unlabeled"):
        generate_random_instance(0, shape="strands", d=1)
    with pytest.raises(InvalidInstanceError, match="at least 4"):
        generate_random_instance(0, shape="strands", n_nodes=3)
    with pytest.raises(InvalidInstanceError, match="unknown shape"):
        generate_random_instance(0, shape="torus")
    with pytest.raises(InvalidInstanceError, match="at least 3"):
        generate_random_instance(0, n_nodes=2)


def test_random_masses_are_exact_eighths():
    inst = generate_random_instance(9, shape="dag", n_nodes=6)
    for rows in inst.tables[:-1]:
        if not rows:
            continue
        assert sum(Fraction(row.p) for row in rows) == 1
        for row in rows:
            assert Fraction(row.p).denominator in (1, 2, 4, 8)


# -- pinned generator output -------------------------------------------------

EPS_GRID = (0.5, 1e-3, 1.0, Fraction(1, 4), Fraction(1, 64))


def generator_cases() -> list[tuple[str, Any]]:
    """(name, thunk) for every pinned generator call."""

    def call(family, **kw):
        name = f"{family}({', '.join(f'{k}={v!r}' for k, v in kw.items())})"
        return name, lambda: generate_paper_instance(family, **kw)

    cases = [call(family) for family in paper_families()]
    for family, kw in [
        ("two-candidate", {}),
        ("upper49", {}),
        ("kplus1", {"k": 3}),
        ("grid", {"k": 3}),
        ("grid", {"k": 4}),
        ("grid", {"k": 5}),
        ("classic", {"n": 4}),
    ]:
        cases += [call(family, **kw, eps=eps) for eps in EPS_GRID]
    cases += [call("classic", n=n) for n in (2, 3, 5, 8)]
    cases.append(
        call(
            "classic",
            n=3,
            dists=[
                [(0.25, 1.0), (0.75, 0)],
                [(Fraction(1, 3), 2), (Fraction(2, 3), Fraction(1, 2))],
                [(1, 3)],
            ],
        )
    )
    for horizon in (1, 2, 4, 6):
        for terms in ((1,), (1, 2), (1, 2, 3), (2, 5)):
            cases.append(call("overtime", horizon=horizon, terms=terms))
    cases.append(
        call(
            "overtime",
            horizon=3,
            terms=(1, 2),
            dists=[[(0.5, 1.5), (0.5, 0)], [(Fraction(1, 4), 1), (Fraction(3, 4), 2)], [(1, 0.25)]],
        )
    )
    cases += [call("markets", periods=periods) for periods in (2, 3, 4, 5)]
    thirds = [(Fraction(1, 3), 1), (Fraction(2, 3), 0)]
    quarters = [(Fraction(1, 4), 3), (Fraction(3, 4), Fraction(1, 2))]
    cases.append(call("markets", periods=3, dists=[(thirds, quarters)] * 3))
    mixed = ([(0.25, 1), (0.75, 0.5)], [(Fraction(1, 2), 2.0), (Fraction(1, 2), 0)])
    cases.append(call("markets", periods=2, dists=[mixed, (thirds, [(1, 1.5)])]))
    cases += [call("mchoice", n=n) for n in (2, 3, 5, 8)]
    cases += [call("vertex-matching", seed=seed) for seed in range(4)]
    for shape, ds in (("width1", (0, 1, 2)), ("strands", (0,)), ("dag", (0, 1, 2))):
        for d in ds:
            for seed in range(12):
                cases.append(
                    (
                        f"random(seed={seed}, shape={shape!r}, d={d})",
                        lambda seed=seed, shape=shape, d=d: generate_random_instance(seed, shape, d=d),
                    )
                )
    return cases


def instance_fingerprint(inst) -> str:
    """SHA-256 of a canonical JSON of everything an instance holds; masses,
    values and meta go in by `repr`, so a changed number type shows."""
    doc = {
        "nodes": list(inst.nodes),
        "edges": [[e.id, e.src, e.dst, sorted(e.labels)] for e in inst.edges],
        "labels": dict(inst.labels),
        "rows": [
            [[repr(o.p), [[e, repr(v)] for e, v in sorted(o.values.items())]] for o in rows]
            for rows in inst.tables
        ],
        "meta": repr(inst.meta),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# computed from the generators at commit 1f02b18, before the families
# dropped their keyed-edge bookkeeping
GENERATOR_FINGERPRINTS = {
    'classic()': '85d3fcba548ac4c896f6a165aaee3ff95d8c746ffe4e784ac36e773c88b04881',
    'grid()': 'd3a15dadc5db3319934b589f2688f1e0454018e257b2714d366117c789b18409',
    'kplus1()': '587bbf0a2270f3394372f89a39e120c624e1ad192c6ece2d2cfb59090a4f33b7',
    'markets()': 'b06ec0c1db16decc267e848e88ab752601d57bd21b9d6f6b068eafc9d644d79e',
    'mchoice()': '5a3aea03a04b5d215fd17beff089cdb3cd3796fd8b629c2459bf01726893cf9d',
    'overtime()': '76f691b2041be3f679ea9313056b61e4089e244be95f05cd01f308efb45ae97c',
    'two-candidate()': '3fb1c473882bd38ec95e71aedda0b2d197bdd4c434b8c401c168f2bc290e9801',
    'upper49()': '0db34eecea0a21427f0df0447fa52afee26c26070187e5fec71368020cb3f4fc',
    'vertex-matching()': '782753f28312d4f739d2103ca2b8412b0983a7af43f4ceedb3c5d959c567605b',
    'two-candidate(eps=0.5)': '3fb1c473882bd38ec95e71aedda0b2d197bdd4c434b8c401c168f2bc290e9801',
    'two-candidate(eps=0.001)': '9917cb1d2a3ef17d6f1885f9f9361bc92df6a939b869e9bec99de86b7ff673e6',
    'two-candidate(eps=1.0)': 'c41acb5d4b9b8ae5076cb5d285ac76e245cedcd672096cd47ee8816dfad49843',
    'two-candidate(eps=Fraction(1, 4))': 'dd8c037928e02982db40722ea2150bea2a3971e4b43ac46d118cf44143a58766',
    'two-candidate(eps=Fraction(1, 64))': '7c572b06356409d484d7f1104575e6b170340b2633c9296a1d1820a08cb9b9c9',
    'upper49(eps=0.5)': 'd983e62e11d877b61e40d32c923d5b85e39790818505abd7d532978cf8631535',
    'upper49(eps=0.001)': '09d8bbde097f4e690db5ebe8d6681bb248a1ae793fd8805d8e367acf1d0fdeb8',
    'upper49(eps=1.0)': '1f47c8f475a5b3d20318b26b34ba13961d90e838621df29468e92e169fbe9dac',
    'upper49(eps=Fraction(1, 4))': '12d586c0190bcefa73e94eb0143abfd603c70c17083810c70423d76225cfb442',
    'upper49(eps=Fraction(1, 64))': 'b5e26e82d3c49f91680302eaf3d9dbf2bdc0005a8879951bab8e60740caee543',
    'kplus1(k=3, eps=0.5)': '95597414c0f620c5cb21c5b9ac245f5361ed8f25458788025610eddd073b57c3',
    'kplus1(k=3, eps=0.001)': '35f5634c8e66cd0dbe49ef6cbed1e06398eb5b9f2b3a690b3a2ff00cd80fe241',
    'kplus1(k=3, eps=1.0)': '79b8a35767ddb32a33ebd4ab3fea6fda02ee4b87a141e0a9dc2e0d6d21fd0ced',
    'kplus1(k=3, eps=Fraction(1, 4))': '19ae24e29e1ce7748d27fefd7f77121103266289bd7d81279233e8b9ac457f4a',
    'kplus1(k=3, eps=Fraction(1, 64))': '38eb5dac953d7111533ced3a38a2866fa26eb415eea5c04a9d18f6ecceadd429',
    'grid(k=3, eps=0.5)': '740d20552491b505af7bddb34a947d175e0a49e0a97b344ed3d8b1aef0ef45f3',
    'grid(k=3, eps=0.001)': '3d0de116adcca73975a7dcefba6f722477a22a4a82092f48315e5d46b324cf53',
    'grid(k=3, eps=1.0)': '15aa3209e4dba3f87703b50c4df40a7955c9998003451cb6269bed825fecbb50',
    'grid(k=3, eps=Fraction(1, 4))': 'd0821a5141b9b33743d93cdf961e85529504c8e2c872aa4e1d0d7f3f2e26a398',
    'grid(k=3, eps=Fraction(1, 64))': '6f060733e07bd4bd79350ea117e305d684bf39c967463e0d7d6526b2b6e939b6',
    'grid(k=4, eps=0.5)': '0db8f2f8b8cfd772131102fbb7df77fa86ca2187ad355989ebdaf698d9b83663',
    'grid(k=4, eps=0.001)': '038225680f4aaedc1b032d943db07cf5dc59f5d2d9d62044bfdc47a63e730b44',
    'grid(k=4, eps=1.0)': '6e76ac767fd6d6a00135a11f531dae1adff2486921d231bd6efa472e4df9defc',
    'grid(k=4, eps=Fraction(1, 4))': 'e2abf1edc8bc9d165d22c3d7cb50602103df20abb1009f2f76d090b1924d50e2',
    'grid(k=4, eps=Fraction(1, 64))': '5bb23eaa265f4e4490be8de4eb18c175418b8e76dd986a11fb9662751f722612',
    'grid(k=5, eps=0.5)': '179de5e2f692c9a1617f4d346bdc8d62ae683dc3869e94918b1604befc4dccfe',
    'grid(k=5, eps=0.001)': '5e9f776e07cc78dc25c68f3aa25572765b342a24b419049b9d00d27fbbc20f51',
    'grid(k=5, eps=1.0)': '396c3c1a7a025f43df13037753677578ebc76b191a91fef2df9599553ae3c3cb',
    'grid(k=5, eps=Fraction(1, 4))': 'a9a422c6ea97e9e16a550cad21a0774eafcc22911c393a703a1b545dbc42fbb0',
    'grid(k=5, eps=Fraction(1, 64))': '809c9d0c45f28a6066b39674439bbda79035f67ac41c02e73f050273f17893f7',
    'classic(n=4, eps=0.5)': '99350280aa7f93a173535c51e655eba6a2b45523f8c1c92bdc756c7d91ff20e3',
    'classic(n=4, eps=0.001)': 'c7bdfd740581f10cfc4388e08fdfe09de60b9e2223850cc303f88ba3efdc7fc9',
    'classic(n=4, eps=1.0)': 'b18c91e3909e8567a1b88e94dab32d6311094c01b2dc4405b1d32d50ff7839f3',
    'classic(n=4, eps=Fraction(1, 4))': 'dec41c88c30cbd7c14762a028c3d70bc50d2f2193eb230cb39e40223f1067509',
    'classic(n=4, eps=Fraction(1, 64))': '68494c842f1b453ba0045a15eb5a73aa27a5ae3934cbb0f062280cf0d545cc01',
    'classic(n=2)': 'aa9b07c01551ec6eeb55874aa704db379d9aee165131af5c34118630b15b415d',
    'classic(n=3)': '156206e4e9044a02a8894f7902032edfbea848c512e226c4b9af5164314858a2',
    'classic(n=5)': '85d3fcba548ac4c896f6a165aaee3ff95d8c746ffe4e784ac36e773c88b04881',
    'classic(n=8)': 'b7ac174126fce7deef7a750396b5cd92d1960be9e0b2f55a7bf74108132ff926',
    'classic(n=3, dists=[[(0.25, 1.0), (0.75, 0)], [(Fraction(1, 3), 2), (Fraction(2, 3), Fraction(1, 2))], [(1, 3)]])': '9b599579a94af446fca8fa763244dc93dcca79feabb506d661205347a37d3cfc',
    'overtime(horizon=1, terms=(1,))': '2fb68b59dbb33bbf32295326b0fcfd19bb0cfb632b327a88be144c943bba6c7c',
    'overtime(horizon=1, terms=(1, 2))': '8af9f89101bddefb1f81baa8c9d337da6984a78da1f31bfbcb9efad523a18d99',
    'overtime(horizon=1, terms=(1, 2, 3))': 'b40d0f1e7758d0e7448c4bf90e1091d8f87a6e4d075a9f850db6d2c0bef8bd11',
    'overtime(horizon=1, terms=(2, 5))': 'f510fc6a87091b552ffd3b5388fc3dc7ce6f44e22e404dca8b85831b79f7a9b1',
    'overtime(horizon=2, terms=(1,))': '803a1249b8ff2578202e822d947473235f9b8155c47a4ec60408c8c6fc6afdcc',
    'overtime(horizon=2, terms=(1, 2))': 'f709e772099b540e6220dd26aa2551ff69544c10accaa40eb76b59d709786a40',
    'overtime(horizon=2, terms=(1, 2, 3))': '0bb9bb3480b1b19d0442dd11fd2e62247d5d416f6995a72ebceca467a154f29f',
    'overtime(horizon=2, terms=(2, 5))': 'cd39c1cf5de792abbeccb7029346e9617d968b7c6674b4cdc69ea5c589f0fbd3',
    'overtime(horizon=4, terms=(1,))': '0e74e65a28984abd0149d240d8b1e8b37b0df5670159d5cccc2427f367559e6e',
    'overtime(horizon=4, terms=(1, 2))': '3afa8a4d2bba5616065a5fa37905cf7883d5b25367686147a19594e457b1bca8',
    'overtime(horizon=4, terms=(1, 2, 3))': '476fca81fc670396a64bf6b01b5f204d0b4916d4bd634e9feb411bf64d2c9e77',
    'overtime(horizon=4, terms=(2, 5))': '3ffecdd3aaee0114f685fea1003a80e519389149300c93047df72924f55cdded',
    'overtime(horizon=6, terms=(1,))': '76e9d16765602b20eaecd32d3e9ea6b65b4a8deb3be99744468955ea6fefe3f7',
    'overtime(horizon=6, terms=(1, 2))': '4d026f32d1e78267cde74d96c20bcce5157445305373c4742c7bc5ffc265b577',
    'overtime(horizon=6, terms=(1, 2, 3))': '012b753f7a2dca92759ab2582c5ab90154efeb0d03ad857d1df6c9d84b577721',
    'overtime(horizon=6, terms=(2, 5))': 'd556eff683dc30e10c837aee7d3a5e2f34ed45ef3f55a55eed736fabbf4aa75b',
    'overtime(horizon=3, terms=(1, 2), dists=[[(0.5, 1.5), (0.5, 0)], [(Fraction(1, 4), 1), (Fraction(3, 4), 2)], [(1, 0.25)]])': '5350a3813d203149c8b92c70bfc5bd8c7f5a308d2c2a522c3038d6b6ef88a733',
    'markets(periods=2)': '55600ddabfb916261a85ba136b0176e0bda1fccebf1a9daaa083cc4f987a50dd',
    'markets(periods=3)': 'fe79d125ee021b8c79c09c83ae9f202e02ab6506a0a9077787169497549a9c71',
    'markets(periods=4)': 'b06ec0c1db16decc267e848e88ab752601d57bd21b9d6f6b068eafc9d644d79e',
    'markets(periods=5)': '15770c52437a878c867ab31e37f054d74681aba013fc92c22c22a8be9e8bf67a',
    'markets(periods=3, dists=[([(Fraction(1, 3), 1), (Fraction(2, 3), 0)], [(Fraction(1, 4), 3), (Fraction(3, 4), Fraction(1, 2))]), ([(Fraction(1, 3), 1), (Fraction(2, 3), 0)], [(Fraction(1, 4), 3), (Fraction(3, 4), Fraction(1, 2))]), ([(Fraction(1, 3), 1), (Fraction(2, 3), 0)], [(Fraction(1, 4), 3), (Fraction(3, 4), Fraction(1, 2))])])': '169681a1f17359dfaa2627ebbc4fa88861c5f93acc9aaaed7f30e5dc65f9f542',
    'markets(periods=2, dists=[([(0.25, 1), (0.75, 0.5)], [(Fraction(1, 2), 2.0), (Fraction(1, 2), 0)]), ([(Fraction(1, 3), 1), (Fraction(2, 3), 0)], [(1, 1.5)])])': 'd8f8e746586c4fcb6432d67db3fdd1f87a266a7df6b9cff848e74e5fc66bed84',
    'mchoice(n=2)': 'f990b29a497090022e98e18a3e64d3a18b9a3eab788c004064eef9c857c8acb8',
    'mchoice(n=3)': '19eef71cdfaa2154fe9d7d3c3ffe557459c981c1d6901a8ea5f2a7e938ef0921',
    'mchoice(n=5)': '06c6307985a1a1728217143fc847374a17b761ab9dc07d1daf0a100fd249a214',
    'mchoice(n=8)': '21c21a339d154f7c20194d577216b972bffa9504ad94d2cea048db8a7b7be72b',
    'vertex-matching(seed=0)': '782753f28312d4f739d2103ca2b8412b0983a7af43f4ceedb3c5d959c567605b',
    'vertex-matching(seed=1)': '6ebbd1bef7ef68279e47c6d41e62e56f8139bca54e46425fa7003d7c7b42ee60',
    'vertex-matching(seed=2)': '29f7ff7e5ee8b87cfb773db7d0d99794ce0ee46c4c992012d727672ce209a9ec',
    'vertex-matching(seed=3)': 'd5ae5c63d55e4405a0ddb3e3daf9f4c999b3db28f392ab24b997b2680961789c',
    "random(seed=0, shape='width1', d=0)": 'a72dec472844f330fe72089f3fe7bc40d6f4dec2e622f876fc458450c2555bda',
    "random(seed=1, shape='width1', d=0)": '08eab99318c560bde0766565f3415c2c81d0acaeedeb5175915d0e9886810644',
    "random(seed=2, shape='width1', d=0)": '11d9a34119cdf1a9dd319fad2073694512fcd951a9c40658a9d54bab661489cd',
    "random(seed=3, shape='width1', d=0)": '671bbc130438d66160dcb5a999b05c60e086dcf1240a21f0e75a050745713060',
    "random(seed=4, shape='width1', d=0)": 'cc50fa82b7f994a0a38199bfcd39d12558bb1ff0594e20465ba00c42f75a51e2',
    "random(seed=5, shape='width1', d=0)": '4aa19ec27663ed5ce73f8037c1f61cce1dc4e2d44311ac59e9e54d765afe88bd',
    "random(seed=6, shape='width1', d=0)": 'b7ff84bee4972cb83299b3be3233b855c82f7b6a70ec0489398469ac96f7dcc8',
    "random(seed=7, shape='width1', d=0)": '6f73041260dc5f1fe07bdf4ef876707fe07a698c12f9efd633abdf7f73c19ce4',
    "random(seed=8, shape='width1', d=0)": 'fbaee37da6a987fbfd310b343981a0fc855144e45b0d7a17e893432b3d6368d8',
    "random(seed=9, shape='width1', d=0)": 'fed3119f1ac3c5c503e873b6dec2c3aec667d32b90cfdf12fbb3f05d51dc6eba',
    "random(seed=10, shape='width1', d=0)": '7fc99cff38d77f19146347f02fb574b1be2846e1d0f452c2b45fdf0052ce4513',
    "random(seed=11, shape='width1', d=0)": '622f9464d7a7d619b1eae2f4a23a2e7f41e949b28887a43216b60a5c9c3d0379',
    "random(seed=0, shape='width1', d=1)": '189a1f1523b8a457755362dca04d1769df1b34962257594b1070dbc9ecb304df',
    "random(seed=1, shape='width1', d=1)": '768d8e2fd95d327b90d2c8d477759e13fc0c85a60de62e948c9c2049287e9975',
    "random(seed=2, shape='width1', d=1)": '6a583fe975acd24edfcd8ae99664c6b600a3a2466b9d4b6dffa8fb0105a1a6e3',
    "random(seed=3, shape='width1', d=1)": 'fb5d0720f45331971fcdf9849c52e3b9c4338445b522902f6b39d52e7d579140',
    "random(seed=4, shape='width1', d=1)": '29267030e4bf7063fd1afca0b08659265d7719f5c567c4cc91470797a9a8f7ad',
    "random(seed=5, shape='width1', d=1)": '7e1d97b919e8996abfba3e8717c3ca609f3213c25e7a62a854e909b064db8685',
    "random(seed=6, shape='width1', d=1)": '8d7999ec9cd1f6edef104c89a679f17c1d8c1479cc8f9029175c556530ea32f5',
    "random(seed=7, shape='width1', d=1)": '1a707a0cf1479728469518e9df9281e6927ba11cd27b624528b27e421d4d3c33',
    "random(seed=8, shape='width1', d=1)": 'bff7b976d88b9041dba3e47211e55e1c58d2b7774a20d90edd1b5f5bface9195',
    "random(seed=9, shape='width1', d=1)": 'afcbdb33cd11bc68ca438f054c1d2dc2ece3b23556076649afc4db9884541bae',
    "random(seed=10, shape='width1', d=1)": 'e469f7d7f1ad320a375883a66c620d0b9d760237d7f6d2c53a2c3539478bf96e',
    "random(seed=11, shape='width1', d=1)": '0ef87ecd592f7adf7292a2c6d3e59acb07158aec9ed96e49222d4180c5371e1b',
    "random(seed=0, shape='width1', d=2)": 'b88d2c3365ebc5c3a995667b92b9b9539ff775c060e078f757b1f21d103c591f',
    "random(seed=1, shape='width1', d=2)": '692b5a0ab2aaf1e0d44052b6ed8692811dc3286c4bde474d0f9ff710508c03ab',
    "random(seed=2, shape='width1', d=2)": '7045f36ccb41473745f7a05f3f92d69fa234736df1e47a18c60f1d6b0445c351',
    "random(seed=3, shape='width1', d=2)": 'aca1ce5ec45caf9559a7c26fa378888e21dd217e0b92d8da2e8bfb50c8e964f7',
    "random(seed=4, shape='width1', d=2)": '3ed7feeb3fa2c51601fc97eece37b7686143acff0c8459f229e32c0950cb9b33',
    "random(seed=5, shape='width1', d=2)": '9802d9606ae0c993f8d287ed4ab91a14cbbe910433df4bc7eb5d165e79ee6e19',
    "random(seed=6, shape='width1', d=2)": '0a699d88262aa27247b805b41c7bb9671b28be135073e042a9643e234f752c57',
    "random(seed=7, shape='width1', d=2)": '0307ae47f85d97c0188acc92f8ca4ee527e2c3c5b150fd4f0472ea01f477b5c6',
    "random(seed=8, shape='width1', d=2)": 'b2dc7df9bccce2f370df704d1f31b2dc9acb875ed3d1d3d6347cca186e4aa7ee',
    "random(seed=9, shape='width1', d=2)": '266fdcff311b9e6918ef7f1d25717cf49a797739212e704e20854bf19f50cc33',
    "random(seed=10, shape='width1', d=2)": '2d17d05fd8e9c0005cd918ed86b6654b6097e4c1ee2f7723cdf8fd43cebc1661',
    "random(seed=11, shape='width1', d=2)": '3b292896b75b5ffc3665b032f708ebf9cdeeb8763511527672535121586c468e',
    "random(seed=0, shape='strands', d=0)": 'c59e35171e38cb95ce00750bdb61564d3cbf2a3c2273d3094b981bf34da4eaa5',
    "random(seed=1, shape='strands', d=0)": '729286517970d1e984dad80406592b6fc45c17f28f1abeb9eaa958ffeb0c0355',
    "random(seed=2, shape='strands', d=0)": '6fe36a2f38ce478f68be3e41c02c7597f88f85a0129d9c18c2e8cdc2107ddb05',
    "random(seed=3, shape='strands', d=0)": 'a93004ec0f2907f755d41a45faab223e8a5a9e3e3c8abd278bb5ae322e6601b0',
    "random(seed=4, shape='strands', d=0)": 'cdcb58fe2ecb2964b850b60b3625e142136400a27acabfcb015f0b88786605cc',
    "random(seed=5, shape='strands', d=0)": '3de01f8026b0c272591d73bb778a8ca17708cd3fb1e76908bad4506decbb3217',
    "random(seed=6, shape='strands', d=0)": 'ceb9004696af0dd40c582f45bcd2b640ac023cf5e2ae3da5f2dc2da969225af0',
    "random(seed=7, shape='strands', d=0)": '067ab5984fbe8a44f953abeadf8320e82b642838eaccaaa4767b9e89a5de0246',
    "random(seed=8, shape='strands', d=0)": '0f31eebc3e511cbb59227f27c4e679ce0c0414f966b78b45d55b353724f333a5',
    "random(seed=9, shape='strands', d=0)": '180cdd3670277d46eafd040adafb2e8b271a086978abedabe3fab1929195185a',
    "random(seed=10, shape='strands', d=0)": 'e7ca825d2b94f22974e34c24ccadace92eee78b8b322713227d23f2d5d5203ca',
    "random(seed=11, shape='strands', d=0)": '6fd4c84806559d1b20589a0f6d38c81a71debc1bb22787aca39a82ba7c4d3906',
    "random(seed=0, shape='dag', d=0)": 'bc671b20b3a9e041691e6a5796a89587821360439185d84fdd6b6311cc97e15e',
    "random(seed=1, shape='dag', d=0)": '0b7251308382eba786acf4c961905255a4f968cb513a897db70102a5f6b9a3d7',
    "random(seed=2, shape='dag', d=0)": '47ebc9d51840f9d46f484376791c2e839bce97409c88d0c670de447b80bd8d24',
    "random(seed=3, shape='dag', d=0)": '55ecef040ab41fb77ba12eba08e72e935b12439f748ee9070d22e802d713a444',
    "random(seed=4, shape='dag', d=0)": '8203f49eb2126ea28e63217945262c448559a1571fd7deb1fa8a97520a978667',
    "random(seed=5, shape='dag', d=0)": 'e606031603732cdb624587843d479da3adea781379ad7ce970f6fd0fb9d12772',
    "random(seed=6, shape='dag', d=0)": '4e245ec30c9266590ecf5b07caff7c47a9f080f91c23b9bf6c926a9191fbed18',
    "random(seed=7, shape='dag', d=0)": 'f420426fd16dd1b26b5e00e1d62b12b104857004fdbe7983c2300424f265c27e',
    "random(seed=8, shape='dag', d=0)": '7d11fa86446f2bec17d87351f039753fbd08f99c068026a822d2987952d409e3',
    "random(seed=9, shape='dag', d=0)": '1c1f5383264d8b7b4e52e4e08b720c76f45d6239d36c5c718bdd3cad84db56b2',
    "random(seed=10, shape='dag', d=0)": '8ab1a1d7b0553269d78acc28cc2c772d04fe41351c672fc298a1184cf547faff',
    "random(seed=11, shape='dag', d=0)": '8f9e356572e6caf81c1e04e54423c9cff0d2568e0a0477a692cafaa3fe698d8d',
    "random(seed=0, shape='dag', d=1)": '8fc7dbd935ee2a96fdaf58f58a9e301c8c5f4af484343ba349f073f61ed1be1f',
    "random(seed=1, shape='dag', d=1)": '6bf025251e3f35232fa15bf638d901405a8c8fb6a7b887c969e6267dbe8441df',
    "random(seed=2, shape='dag', d=1)": 'e31915da8cc5a58dee352bf3affe6522133ae28fbdbdeefb280af3fec07cb3ac',
    "random(seed=3, shape='dag', d=1)": '224200172a6432b70a0d15cac796b11aebf9362e2da92e323e5362dd183807d5',
    "random(seed=4, shape='dag', d=1)": '9ed2007daa5af373d3835867c79e43f63a0deeea0d5e8ebbf1f29987ea897c42',
    "random(seed=5, shape='dag', d=1)": 'f243e91f76361bd29bfdc9a05fd35a0e349e59ecb2ada88a249dd7b3163bc3ea',
    "random(seed=6, shape='dag', d=1)": '887f42405df1834becfd9dd15a7aa37b5ac575ec02d3d716c0338ab56955d63f',
    "random(seed=7, shape='dag', d=1)": 'ccdc74ff1c4115fd2c9497b6d38495feb4bcad778d697547552d9655638d3f26',
    "random(seed=8, shape='dag', d=1)": '61ce1bdb3ccd2b51fbf425de33818b9bbf57920b29ff60c5c9a4b10a5ed475b5',
    "random(seed=9, shape='dag', d=1)": '9c41938e0f4cb8fd7df6c3379e306423c618ea9b60d40337fc41dadb322dfa69',
    "random(seed=10, shape='dag', d=1)": 'ce889e283374d060a51c6f0b5ed8e620f9a4dd0fe650cbe6e921a1e012b958dd',
    "random(seed=11, shape='dag', d=1)": 'd418eb97aea4ed6e8a4ae971f881da2ee1a5be2c8b846dc31230122ed419a900',
    "random(seed=0, shape='dag', d=2)": '73074bc3818e967d7162fd526446e2ef97ccb57a569ea7a73bee0e51c01bbfa2',
    "random(seed=1, shape='dag', d=2)": 'bae51d28c5eab80c5aa5e37336ffd4d7b8c50fc7504f5c1f2cc6e727b134f187',
    "random(seed=2, shape='dag', d=2)": 'd14caf24852acde6623823420311bf3e619c73898206941ecee35238a2c5d60f',
    "random(seed=3, shape='dag', d=2)": '879cca949eaab6bcd3d8fa544dbae29b7f5409be5fe44f170ef08e67c7cda5cb',
    "random(seed=4, shape='dag', d=2)": '29b144b321809742701c65d8b7db7e114b55f9362c989a16bf0b1938d24ee200',
    "random(seed=5, shape='dag', d=2)": '83323989f060cd96d0747d8f62aec8b31cfe68526afd77db7849a9e23916b093',
    "random(seed=6, shape='dag', d=2)": 'c879873e3465a60534e9876085181958114095bd07a6b67cffa2cc6ab1e19107',
    "random(seed=7, shape='dag', d=2)": 'b588ff5f2415766d2376957ca9e02a4454c203619e8d374f8760b36b4b9f92f5',
    "random(seed=8, shape='dag', d=2)": '255d1c499bb2f3ffc1c71bde8a27114e1b7feb2a99ad14a10894e82dd67432cf',
    "random(seed=9, shape='dag', d=2)": 'b82228da8714b4150b80c631613a126d1b9c61a260fbc67d55ae4ddd6b0c2745',
    "random(seed=10, shape='dag', d=2)": '60d74ad57a5ea742a6b4048ad4ece0308dbf588b711a2b2399912e84559f63f9',
    "random(seed=11, shape='dag', d=2)": 'a48db1762fbd23415e0696d04d8bb96a86b716c2ba2eb2485ab3dead2390633b',
}


def test_generated_instances_match_their_parent_fingerprints():
    got = {name: instance_fingerprint(make()) for name, make in generator_cases()}
    assert len(got) == len(GENERATOR_FINGERPRINTS)
    changed = [name for name, digest in got.items() if GENERATOR_FINGERPRINTS.get(name) != digest]
    assert changed == []
