"""The README's Python examples run as written, on public names only."""

import pathlib
import re

import cohgeom

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
