"""One pinned SHA-256 per `tests/fingerprint.py` layer.

The records are those `python tests/fingerprint.py --out` writes for the
named part of its corpus (the four fuzz makers' j < PINNED_FUZZ_COUNT and
every named family, each with its float twin and every policy), which
runs in about a second.  A full dump and `--compare` against a parent
checkout lists what moved; this test only says which layer did.
"""

from __future__ import annotations

import hashlib
import types

import fingerprint
from pathprophet import cover, instances, model, oracle, policies, simulate, util

PINNED_FUZZ_COUNT = 16
API = types.SimpleNamespace(
    cover=cover, instances=instances, model=model, oracle=oracle, policies=policies, simulate=simulate, util=util
)

# SHA-256 of each layer's "key<TAB>repr" lines, in corpus order, taken at
# commit 8c4dd8c, leaving out the records in MOVED
DIGESTS = {
    "online": "375e35fd90fe58cef6803f42064fba7d9e750711e1dcb1521c6a6835d14f517e",
    "policy": "eaaaf854084d2d35227d5e50b59b5df361445c1022a76a6545f739f756891d0c",
    "mc": "936a5529bf50cc2ff70c69dfab5541e8f3ae46c15ba9258d1a29a48bad2fb2db",
    # taken at commit c805857
    "cover": "8ff31433534db2d0de1320b91d38d9ac5421aa3cd58d43e958fc0df304529502",
    "feas": "efac30e93daa9897cd43ef48b922b0075d46ebacb1ecf7e3f4e041c4bea31782",
    "walk": "52d38baf9d3840bbb67cb47af2036692793e4a0f514e7cfb3532900a55568f01",
    # taken at commit 5fe233b, the parent of the change that moved the records below
    "oracle": "478d89bf91f1e5343fbeb33f55486729b97776e62b0d09af0efb585120e9b430",
}
# (layer, key) -> repr of each record that moved on purpose since the
# digests were taken; a change that moves a record adds it here
MOVED: dict[tuple[str, str], str] = {
    # grid's contraction tables hold only ints: the expected value adds with `sum`, not `math.fsum`
    ("oracle", "grid#exact|general|run1|expected"): "2",
    ("oracle", "grid#exact|general|run2|expected"): "1",
}


def test_fingerprint_layers_match_their_pinned_digests():
    digests = {layer: hashlib.sha256() for layer in DIGESTS}
    moved = {}
    for key, inst, names in fingerprint.named_corpus(API, PINNED_FUZZ_COUNT):
        for layer, rkey, text in fingerprint.records(API, key, inst, names):
            if (layer, rkey) in MOVED:
                moved[layer, rkey] = text
            else:
                digests[layer].update(f"{rkey}\t{text}\n".encode())
    assert moved == MOVED
    got = {layer: d.hexdigest() for layer, d in digests.items()}
    assert got == DIGESTS


def test_compare_counts_type_and_value_moves_apart(tmp_path, capsys):
    """A `type` move holds the same exact rationals in other types; any other change is a `value` move."""
    rows_a = [
        ("oracle", "int", "2.0"), ("oracle", "fraction", "(0.75, 1)"), ("oracle", "third", "0.3333333333333333"),
        ("oracle", "same", "Fraction(1, 2)"), ("online", "gone", "1"), ("online", "names", "{'v0': 1e-05}"),
        ("policy", "edge", "(0, 1)"),
    ]
    rows_b = [
        ("oracle", "int", "2"), ("oracle", "fraction", "(Fraction(3, 4), 1)"), ("oracle", "third", "Fraction(1, 3)"),
        ("oracle", "same", "Fraction(1, 2)"), ("online", "names", "{'v0': Fraction(1, 100000)}"),
        ("online", "new", "0"), ("policy", "edge", "(0, 2)"),
    ]
    for name, rows in (("a.tsv", rows_a), ("b.tsv", rows_b)):
        (tmp_path / name).write_text("".join(f"{layer}\t{key}\t{text}\n" for layer, key, text in rows))
    assert fingerprint.compare(str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if " of " in line or "moved records" in line] == [
        "online: 3 of 3 records (0 type, 1 value)",
        "oracle: 3 of 4 records (2 type, 1 value)",
        "policy: 1 of 1 records (0 type, 1 value)",
        "7 moved records (7 in A, 7 in B)",
    ]
    listed = [line.split() for line in out if line.startswith("  ") and not line.startswith("    ")]
    assert {key: label for label, key in listed} == {
        "gone": "missing", "names": "value", "new": "new", "fraction": "type", "int": "type", "third": "value",
        "edge": "value",
    }
