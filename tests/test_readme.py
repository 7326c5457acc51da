"""The README's examples run as written."""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pathprophet
from pathprophet.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = {p.stem for p in (ROOT / "src" / "pathprophet").glob("*.py")} - {"__init__"}


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the `## heading` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def command_lines() -> list[list[str]]:
    lines = fenced_block("Command line", "sh").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("pathprophet ")]


def test_command_line_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = command_lines()
    assert len(commands) >= 10
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0, (argv, err.getvalue())


def test_library_example_prints_its_commented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("Library", "python"), {})
    assert out.getvalue().splitlines()[:3] == ["4.25", "2.0", "1"]


def test_instance_file_example_validates(tmp_path):
    path = tmp_path / "hand-rolled.json"
    path.write_text(fenced_block("Instance files", "json"), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", str(path)]) == 0
        assert main(["opt", str(path)]) == 0
    assert out.getvalue().splitlines()[-1] == "expected offline value: 1.5"


def test_dotted_names_resolve():
    """A backticked `module.name` or `ExportedClass.name` names something
    that exists (a `module.py` is a file name, not an attribute)."""
    checked = 0
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README))):
        head, *rest = name.split(".")
        if head in MODULES and rest != ["py"]:
            obj = importlib.import_module(f"pathprophet.{head}")
        elif head in pathprophet.__all__ and isinstance(getattr(pathprophet, head), type):
            obj = getattr(pathprophet, head)
        else:
            continue
        for part in rest:  # a dataclass field without a default is no class attribute
            assert hasattr(obj, part) or part in getattr(obj, "__dataclass_fields__", {}), (
                f"README names `{name}`, which does not resolve"
            )
            obj = getattr(obj, part, None)
        checked += 1
    assert checked >= 10
