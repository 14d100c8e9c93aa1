"""Acceptance gate: one test per release criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (plus its runtime).
"""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cohgeom import measures, verification
from cohgeom.channels import ChannelKind, default_p_grid, dynamics_trajectory
from cohgeom.geometry import (
    extract_isosurface,
    grid_axis,
    sample_field,
    surface_stats,
)
from cohgeom.measures import (
    bell_relative_entropy_values,
    discord_equals_coherence_values,
    l1_coherence,
    relative_entropy_coherence,
    trace_norm_coherence_x,
)
from cohgeom.states import bell_density, bell_eigenvalues
from cohgeom.verification import sample_physical_bell
from conftest import cli_args, cli_env

BELL_VERTICES = ((1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1))

# frozen at build time from this implementation (deterministic pipeline):
# entangled area fractions of the relative-entropy surface at resolution 64
FRACTION_GOLDENS = {
    0.001: 0.0,
    0.2: 0.38444416586796365,
    0.5: 0.829833900684229,
    0.9: 1.0,
}

COHERENCE_HALF_AXIS = 0.18872187554086706


@contextmanager
def criterion(num, name, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:>2} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"runtime {elapsed:.1f}s exceeds {limit_seconds}s"
    print(f"criterion {num:>2} ({name}): PASS  [{elapsed:.1f}s]")


def test_criterion_01_bell_vertex_coherence():
    with criterion(1, "unit coherence at the four pure-state vertices", 1.0):
        for vertex in BELL_VERTICES:
            rho = bell_density(vertex)
            assert abs(l1_coherence(rho) - 1.0) <= 1e-12
            assert abs(bell_relative_entropy_values(*vertex) - 1.0) <= 1e-12
            assert abs(relative_entropy_coherence(rho) - 1.0) <= 1e-12


def test_criterion_02_zero_characterization():
    with criterion(2, "coherence vanishes exactly on the c3 axis", 5.0):
        for c3 in np.linspace(-1.0, 1.0, 21):
            rho = bell_density((0, 0, c3))
            assert l1_coherence(rho) <= 1e-12
            assert trace_norm_coherence_x(rho) <= 1e-12
            assert bell_relative_entropy_values(0, 0, c3) <= 1e-12
            assert relative_entropy_coherence(rho) <= 1e-12
        rng = np.random.default_rng(101)
        rows = sample_physical_bell(30000, rng)
        rows = rows[np.maximum(np.abs(rows[:, 0]), np.abs(rows[:, 1])) > 0.01]
        assert len(rows) >= 10000
        rows = rows[:10000]
        l1 = measures.l1_values(rows[:, 0], rows[:, 1])
        assert l1.min() > 0.0


def test_criterion_03_closed_form_vs_eigensolver():
    with criterion(3, "closed forms match the LAPACK entropy route", 30.0):
        rng = np.random.default_rng(102)
        bell = verification.bell_closed_vs_jacobi(10000, rng)
        assert bell.deviation <= 1e-10, bell.line()
        x = verification.x_closed_vs_jacobi(10000, rng)
        assert x.deviation <= 1e-10, x.line()


def test_criterion_04_channel_map_fidelity():
    with criterion(4, "correlation maps match Kraus application", 30.0):
        rng = np.random.default_rng(103)
        result = verification.channel_map_vs_kraus(100, rng)
        assert result.deviation <= 1e-12, result.line()


def test_criterion_05_discord_equality_region():
    with criterion(5, "discord equals coherence exactly on |c3| = max", 60.0):
        axis = np.linspace(-1.0, 1.0, 41)
        c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij")
        physical = np.minimum.reduce(bell_eigenvalues(c1, c2, c3)) >= 0
        discord = measures.bell_discord_values(c1, c2, c3)
        coherence = measures.bell_relative_entropy_values(c1, c2, c3)
        numeric_eq = np.abs(discord - coherence) <= 1e-9
        region = np.abs(c3) >= np.maximum(np.abs(c1), np.abs(c2)) - 1e-9
        # the numerical equality set is exactly the |c3|-attains-max region
        assert np.array_equal(numeric_eq[physical], region[physical])
        # and the public predicate agrees with the numerical test pointwise
        flags = discord_equals_coherence_values(c1[physical], c2[physical], c3[physical])
        assert np.array_equal(flags, numeric_eq[physical])


def test_criterion_06_dynamics_endpoints_and_monotonicity():
    with criterion(6, "trajectories decrease; endpoints match the oracle", 5.0):
        grid = default_p_grid(101)
        for start in ((-0.1, 0.4, 0.4), (-0.5, 0.1, 0.1)):
            for kind in ChannelKind:
                values = dynamics_trajectory(start, kind, grid)
                assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
                if kind in (ChannelKind.PHASE_FLIP, ChannelKind.AMPLITUDE_DAMPING):
                    assert values[-1] == 0.0
        bf_end = dynamics_trajectory((-0.5, 0.1, 0.1), "bf", grid)[-1]
        oracle = relative_entropy_coherence(bell_density((-0.5, 0, 0)))
        assert abs(bf_end - oracle) <= 1e-4
        assert abs(bf_end - COHERENCE_HALF_AXIS) <= 1e-12


def test_criterion_07_isosurface_fidelity():
    with criterion(7, "mesh vertices sit on the sampled level set", 60.0):
        n = 32
        ax = grid_axis(n)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        sphere = np.sqrt(x * x + y * y + z * z)
        mesh = extract_isosurface(sphere, 0.5)
        assert len(mesh.triangles) > 0
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(radii - 0.5).max() <= 0.02

        mesh = extract_isosurface(sample_field("l1", 64), 0.5)
        assert len(mesh.triangles) > 0
        values = measures.l1_values(mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert np.abs(values - 0.5).max() <= 0.01


def test_criterion_08_entangled_fraction_trend():
    with criterion(8, "entangled share of the level surface grows with level", 300.0):
        grid = sample_field("rel-ent", 64)
        fractions = []
        for level, golden in FRACTION_GOLDENS.items():
            stats = surface_stats(extract_isosurface(grid, level))
            fraction = stats["entangled_area_fraction"]
            assert fraction == pytest.approx(golden, rel=1e-6, abs=1e-9)
            fractions.append(fraction)
        assert all(b > a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] > 0.5


def test_criterion_09_x_slice_shift():
    with criterion(9, "larger Bloch components push the surface up in c3", 120.0):
        means = {}
        for rs in ((0.1, 0.1), (0.5, 0.5)):
            grid = sample_field("rel-ent", 64, slice=rs)
            mesh = extract_isosurface(grid, 0.1)
            assert len(mesh.triangles) > 0
            means[rs] = float(mesh.centroids()[:, 2].mean())
        assert means[(0.5, 0.5)] > means[(0.1, 0.1)]


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI output across runs and threads", 300.0):

        def run(*argv, cli=(sys.executable, "-m", "cohgeom.cli")):
            proc = subprocess.run(
                [*cli, *argv],
                capture_output=True,
                cwd=tmp_path,
                env=cli_env(),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        commands = {
            "measure": ("measure", "--c1", "0.3", "--c2", "-0.2", "--c3", "0.4"),
            "dynamics": ("dynamics", "--c1", "-0.1", "--c2", "0.4", "--c3", "0.4",
                         "--channel", "all"),
            "verify": ("verify", "--samples", "300"),
        }
        for name, argv in commands.items():
            assert run(*argv) == run(*argv), f"{name} stdout differs between runs"

        payloads = []
        # the sampling pool takes os.cpu_count() workers, which each child
        # reports as 1, 1 and 8
        for tag, cpus in (("a", 1), ("b", 1), ("c", 8)):
            obj = tmp_path / f"{tag}.obj"
            stats = tmp_path / f"{tag}.json"
            out = run(
                "surface", "--measure", "rel-ent", "--level", "0.2",
                "--resolution", "32", "--out", str(obj), "--stats-out", str(stats),
                cli=cli_args(cpus),
            )
            payloads.append((out, obj.read_bytes(), stats.read_bytes()))
        assert payloads[0] == payloads[1], "surface output differs between runs"
        assert payloads[0][1:] == payloads[2][1:], "surface output depends on threads"
