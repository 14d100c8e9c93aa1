import os
import sys
from pathlib import Path

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
