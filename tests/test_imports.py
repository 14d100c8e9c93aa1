"""Every name a package module or a test file imports is used in that file,
and the package exports exactly the pinned public names.

``__init__.py`` is skipped by the import scan, because it imports names to
re-export them, and so are ``__future__`` imports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cohgeom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
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
    assert PUBLIC_API == sorted(PUBLIC_API) and len(PUBLIC_API) == 28
