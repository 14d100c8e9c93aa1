import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def cli_env() -> dict:
    """Environment for a ``python -m cohgeom.cli`` child process.

    ``PYTHONPATH`` starts with the absolute ``SRC``, so the child imports the
    package from any working directory.
    """
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([str(SRC), inherited] if inherited else [str(SRC)])
    return {**os.environ, "PYTHONPATH": path}


def cli_args(cpus: int) -> list:
    """Argument prefix that runs ``cohgeom.cli`` in a child whose
    ``os.cpu_count()`` reports ``cpus``, which sets the sampling pool size."""
    return [
        sys.executable,
        "-c",
        "import os, runpy; "
        f"os.cpu_count = lambda: {cpus}; "
        "runpy.run_module('cohgeom.cli', run_name='__main__')",
    ]


@pytest.fixture
def small_memory(monkeypatch) -> int:
    """Make ``os.sysconf`` report 1 MiB of physical memory; returns that size."""
    sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
    return 256 * 4096
