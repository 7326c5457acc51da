"""Every span target of the benchmark tracer names a live function.

`perfbench/tracer.py` wraps each `(module, attribute)` of its `TARGETS`
when a traced benchmark run starts; a renamed or deleted function would
only surface there, as an AttributeError.  This checks the names here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in tracer_targets()], ids=lambda name: name)
def test_tracer_target_resolves(module, attr):
    home = importlib.import_module(f"pathprophet.{module}")
    if "." in attr:  # the tracer patches a method in its class's own namespace
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(home, cls_name)), f"pathprophet.{module}.{attr} is missing"
    else:
        assert callable(getattr(home, attr, None)), f"pathprophet.{module}.{attr} is missing"
