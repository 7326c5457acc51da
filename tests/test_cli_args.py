"""The namespace each subcommand parses a minimal command line into.

This pins every flag default, including the ones no output digest shows
(`opt --trials`, the `gen` family parameters), without depending on how
a Python version lays out `--help`.
"""

from __future__ import annotations

import pytest

from pathprophet.cli import build_parser

PARSED = {
    ("validate", "i.json"): {"command": "validate", "instance": "i.json", "json": False, "func": "_cmd_validate"},
    ("width", "i.json"): {
        "command": "width", "instance": "i.json", "cover_seed": None, "json": False, "func": "_cmd_width",
    },
    ("cover", "i.json"): {
        "command": "cover", "instance": "i.json", "cover_seed": None, "json": False, "func": "_cmd_cover",
    },
    ("opt", "i.json"): {
        "command": "opt", "instance": "i.json", "mc": False, "trials": 2000, "seed": None, "json": False,
        "func": "_cmd_opt",
    },
    ("xprobs", "i.json"): {"command": "xprobs", "instance": "i.json", "json": False, "func": "_cmd_xprobs"},
    ("online-opt", "i.json"): {
        "command": "online-opt", "instance": "i.json", "json": False, "func": "_cmd_online_opt",
    },
    ("simulate", "i.json", "--policy", "general"): {
        "command": "simulate", "instance": "i.json", "policy": "general", "exact": False, "mc": False,
        "trials": 2000, "seed": None, "cover_seed": None, "online": False, "json": False, "func": "_cmd_simulate",
    },
    ("gen", "grid", "-o", "o.json"): {
        "command": "gen", "family": "grid", "out": "o.json", "eps": None, "n": None, "k": None, "m": None,
        "horizon": None, "terms": None, "periods": None, "bidders": None, "items": None, "seed": None,
        "shape": None, "nodes": None, "outcomes": None, "d": None, "json": False, "func": "_cmd_gen",
    },
    ("trace", "i.json", "--policy", "width1"): {
        "command": "trace", "instance": "i.json", "policy": "width1", "seed": None, "cover_seed": None,
        "json": False, "func": "_cmd_trace",
    },
}


@pytest.mark.parametrize("argv", sorted(PARSED), ids=lambda argv: argv[0])
def test_minimal_command_line_parses_to_its_pinned_namespace(argv):
    parsed = vars(build_parser().parse_args(list(argv)))
    parsed["func"] = parsed["func"].__name__
    assert parsed == PARSED[argv]

