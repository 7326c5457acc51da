"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CODE = """
import json, sys
before = set(sys.modules)
import pathprophet, pathprophet.cli
print(json.dumps(sorted({name.split('.')[0] for name in set(sys.modules) - before})))
"""


def test_runtime_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CODE], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert "pathprophet" in loaded
    outside = [name for name in loaded if name != "pathprophet" and name not in sys.stdlib_module_names]
    assert outside == []
