"""Every name a package module or a test file imports is used in that file,
every private module-level name of the package is read in the package, the
package exports exactly the pinned public names, `import cohgeom` loads no
numpy, only the commands that build surfaces load the surface layer, only
`verify` loads the oracle suites, and a CLI process runs one BLAS thread
unless the user chose another count.

``__future__`` imports are skipped by the import scan.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import cli_env

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cohgeom"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_scanner_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from x import y as z\n"
        "os.sep\n"
    )
    assert unused_imports(source) == ["math", "z"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """The ``_``-prefixed names, dunders aside, that a module of ``sources``
    defines at its top level by ``def``, ``class`` or assignment, and that no
    source reads as a name or an attribute."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
                defined += [n.id for n in names if isinstance(n.ctx, ast.Store)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    private = [n for n in defined if n.startswith("_") and not n.startswith("__")]
    return [name for name in private if name not in read]


def test_scanner_finds_an_unread_private_name():
    first = (
        "_A, (_B, C) = 1, (2, 3)\n"
        "_D: int = 4\n"
        "__version__ = '1'\n"
        "def _f():\n"
        "    _local = _A  # _B\n"
        "class _K:\n"
        "    pass\n"
        "def _g():\n"
        "    pass\n"
        "obj._D = 5\n"
    )
    second = "import first\nfirst._g()\n"
    assert unread_private_names([first, second]) == ["_B", "_D", "_f", "_K"]


def test_no_unread_private_names():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


# The public API, one entry point per quantity.  A name added to or dropped
# from cohgeom.__all__ must show up here as a reviewed change.
PUBLIC_API = [
    "ChannelKind",
    "DomainError",
    "MeasureKind",
    "TOL_PSD",
    "TriangleMesh",
    "apply_product_channel",
    "bell_density",
    "bell_discord_values",
    "bell_relative_entropy_values",
    "correlation_map_values",
    "correlations_of",
    "default_p_grid",
    "discord_equals_coherence_values",
    "dynamics_trajectory",
    "entangled_values",
    "export_obj",
    "extract_isosurface",
    "filter_triangles",
    "grid_axis",
    "hermitian_spectrum",
    "kraus_ops",
    "l1_coherence",
    "level_surface",
    "relative_entropy_coherence",
    "sample_field",
    "surface_stats",
    "trace_norm_coherence_x",
    "x_density",
    "x_relative_entropy_values",
]


def test_public_api_is_pinned():
    import cohgeom

    assert cohgeom.__all__ == PUBLIC_API
    assert set(PUBLIC_API) <= set(dir(cohgeom))
    assert PUBLIC_API == sorted(PUBLIC_API) and len(PUBLIC_API) == 29


# The surface layer and what only it needs, the marching-cubes tables.
# `import cohgeom` resolves geometry's names on first use.
SURFACE_MODULES = ["cohgeom.geometry", "cohgeom._mc_tables"]
# What the surface layer's workers, plain threads, do without.
EXECUTOR_MODULES = ["concurrent.futures", "logging"]
# The oracle suites, which only `verify` runs.
ORACLE_MODULES = ["cohgeom.verification"]


def child_value(code: str, env: dict | None = None):
    """The literal that a fresh interpreter, run with ``env`` (by default
    ``cli_env()``), prints on its last line after ``code``."""
    child = subprocess.run(
        [sys.executable, "-c", code], env=env or cli_env(), capture_output=True, text=True,
        check=True,
    )
    return ast.literal_eval(child.stdout.splitlines()[-1])


def modules_after(code: str, modules: list[str]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after ``code``."""
    return child_value(f"import sys\n{code}\nprint([m for m in {modules!r} if m in sys.modules])")


def test_package_import_loads_no_numpy_and_sets_nothing():
    code = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import cohgeom\n"
        "print(['numpy' in sys.modules, dict(os.environ) == before])"
    )
    assert child_value(code) == [False, True]


BLAS = "OPENBLAS_NUM_THREADS"
UNSET = {k: v for k, v in cli_env().items() if k != BLAS}


def test_cli_runs_one_blas_thread_unless_the_user_chose():
    # the variable is read when numpy loads, so the CLI sets it first
    code = "import os\nimport cohgeom.cli\nprint(repr(os.environ.get('OPENBLAS_NUM_THREADS')))"
    assert child_value(code, UNSET) == "1"
    assert child_value(code, {**UNSET, BLAS: "2"}) == "2"


def test_cli_import_leaves_the_gc_on():
    # only a process that runs the CLI as __main__ turns it off, until run()
    assert child_value("import gc, cohgeom.cli\nprint(gc.isenabled())") is True


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_cli_process_holds_one_thread():
    # numpy's OpenBLAS would start a worker per extra CPU
    code = (
        "import cohgeom.cli, numpy\n"
        "status = open('/proc/self/status').read()\n"
        "print(int(status.split('Threads:')[1].split()[0]))"
    )
    assert child_value(code, UNSET) == 1


CLI = "from cohgeom.cli import main\nassert main({argv!r}) == 0"
STATE = ["--c1", "0.3", "--c2", "-0.2", "--c3", "0.1"]


# "{out}" stands for a file under tmp_path
@pytest.mark.parametrize(
    "code",
    [
        "import cohgeom",
        CLI.format(argv=["verify", "--samples", "1"]),
        CLI.format(argv=["measure", *STATE]),
        CLI.format(argv=["measure", *STATE, "--out", "{out}"]),
        CLI.format(argv=["dynamics", *STATE]),
        CLI.format(argv=["dynamics", *STATE, "--out", "{out}"]),
    ],
    ids=["import", "verify", "measure", "measure-out", "dynamics", "dynamics-out"],
)
def test_surface_layer_is_not_loaded(tmp_path, code):
    assert modules_after(code.format(out=tmp_path / "out"), SURFACE_MODULES) == []


def test_surface_run_loads_the_surface_layer(tmp_path):
    argv = ["surface", "--level", "0.5", "--resolution", "8", "--out", str(tmp_path / "x.obj")]
    loaded = modules_after(CLI.format(argv=argv), SURFACE_MODULES + EXECUTOR_MODULES)
    assert loaded == SURFACE_MODULES


def test_only_verify_loads_the_oracle_suites(tmp_path):
    # one interpreter runs every other command, then verify
    surface = ["surface", "--level", "0.5", "--resolution", "8", "--out", str(tmp_path / "x.obj")]
    others = "\n".join(
        CLI.format(argv=argv) for argv in (["measure", *STATE], ["dynamics", *STATE], surface)
    )
    assert modules_after(others, ORACLE_MODULES) == []
    verify = CLI.format(argv=["verify", "--samples", "1"])
    assert modules_after(f"{others}\n{verify}", ORACLE_MODULES) == ORACLE_MODULES


def test_public_names_are_their_modules_objects():
    # read through the package first, so geometry's names resolve on first use
    code = (
        "import cohgeom\n"
        "public = {name: getattr(cohgeom, name) for name in cohgeom.__all__}\n"
        "from cohgeom import channels, geometry, measures, states\n"
        "for name, value in public.items():\n"
        "    owners = [m for m in (channels, geometry, measures, states) if name in vars(m)]\n"
        "    assert owners and all(value is vars(m)[name] for m in owners), name\n"
        "try:\n"
        "    cohgeom.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')"
    )
    assert modules_after(code, SURFACE_MODULES) == SURFACE_MODULES
