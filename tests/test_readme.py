"""The README's Python and CLI examples run as written, on public names only."""

import importlib
import pathlib
import re
import shlex
import subprocess
import sys

import cohgeom
from conftest import cli_env

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run(tmp_path, monkeypatch):
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) >= 2
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        # later blocks reuse the names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)
    for name in cohgeom.__all__:
        assert hasattr(cohgeom, name), name
    assert set(re.findall(r"\bcg\.(\w+)", text)) <= set(cohgeom.__all__)


def test_cli_examples_run(tmp_path):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("cohgeom ")
    ]
    assert len(commands) >= 7
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "cohgeom.cli", *argv[1:]],
            cwd=tmp_path,
            env=cli_env(),
            capture_output=True,
        )
        assert proc.returncode == 0, (argv, proc.stderr)


def test_flags_exist():
    # every flag the README names is an option of the CLI; the one exception
    # belongs to pip
    cli = (README.parent / "src" / "cohgeom" / "cli.py").read_text()
    options = set(re.findall(r'"(--[\w-]+)"', cli))
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", README.read_text()))
    assert flags - options - {"--no-build-isolation"} == set()


def test_module_names_exist():
    # every `module.NAME` the README names in a cohgeom submodule is defined
    # there, so a constant that goes cannot stay in the prose
    modules = {path.stem for path in (README.parent / "src" / "cohgeom").glob("*.py")}
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    named = [pair for span in spans for pair in re.findall(r"(?<![\w.])(\w+)\.(\w+)", span)]
    checked = [(module, name) for module, name in named if module in modules]
    assert checked
    for module, name in checked:
        assert hasattr(importlib.import_module(f"cohgeom.{module}"), name), (module, name)
