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
    "oracle": "4d73dbe2cb24da0a47a9b09d839d9733cb5c43d7002621f3f4dc4fbd9241f953",
    "online": "375e35fd90fe58cef6803f42064fba7d9e750711e1dcb1521c6a6835d14f517e",
    "policy": "eaaaf854084d2d35227d5e50b59b5df361445c1022a76a6545f739f756891d0c",
    "mc": "936a5529bf50cc2ff70c69dfab5541e8f3ae46c15ba9258d1a29a48bad2fb2db",
    # taken at commit c805857
    "cover": "8ff31433534db2d0de1320b91d38d9ac5421aa3cd58d43e958fc0df304529502",
    "feas": "efac30e93daa9897cd43ef48b922b0075d46ebacb1ecf7e3f4e041c4bea31782",
    "walk": "52d38baf9d3840bbb67cb47af2036692793e4a0f514e7cfb3532900a55568f01",
}
# (layer, key) -> repr of each record that moved on purpose since the
# digests were taken; a change that moves a record adds it here
MOVED: dict[tuple[str, str], str] = {}


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
