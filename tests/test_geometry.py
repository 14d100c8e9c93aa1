import hashlib
import os
import platform
import re
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohgeom import _textio, geometry, measures, states
from cohgeom.channels import correlation_map_values
from cohgeom._mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from cohgeom.geometry import (
    EDGE_CROSSED,
    PEAK_PER_GRID_BYTE,
    export_obj,
    extract_isosurface,
    filter_triangles,
    grid_axis,
    level_surface,
    sample_field,
    surface_stats,
)
from cohgeom.measures import discord_equals_coherence_values
from cohgeom.states import (
    DomainError,
    TOL_PSD,
    bell_eigenvalues,
    entangled_values,
    x_eigenvalues,
)
from conftest import cli_env


def workers_of(monkeypatch, calls):
    """The workers of each call in ``calls``, one pass each: the calling
    thread, which takes the first run, plus the threads that the pass
    starts."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    seen = []
    for call in calls:
        started.clear()
        call()
        seen.append(1 + len(started))
    return seen


def sphere_grid(n=32):
    ax = grid_axis(n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.sqrt(x * x + y * y + z * z)


class TestGridAxis:
    def test_endpoints_and_symmetry(self):
        for n in (8, 16, 17, 64):
            ax = grid_axis(n)
            assert ax[0] == -1.0 and ax[-1] == 1.0
            assert np.array_equal(ax, -ax[::-1])

    def test_odd_resolution_hits_origin(self):
        assert grid_axis(17)[8] == 0.0

    @pytest.mark.parametrize("resolution", [64.9, 16.0, "16", True, None])
    def test_resolution_must_be_an_integer(self, resolution):
        # int() made 64.9 a grid of 64 nodes
        with pytest.raises(DomainError, match="resolution must be an integer"):
            grid_axis(resolution)

    def test_takes_numpy_integers_and_needs_two_nodes(self):
        assert np.array_equal(grid_axis(np.int32(17)), grid_axis(17))
        with pytest.raises(DomainError, match="resolution must be at least 2"):
            grid_axis(1)

    def test_resolution_beyond_memory_rejected(self, small_memory):
        # 10**12 nodes raised MemoryError; the integer range and the axis
        # are charged 16 bytes a node, as default_p_grid's steps are
        fits = small_memory // 16
        assert len(grid_axis(fits)) == fits
        with pytest.raises(DomainError, match=f"resolution {fits + 1} needs .* physical memory"):
            grid_axis(fits + 1)
        with pytest.raises(DomainError, match="physical memory"):
            grid_axis(10**12)


class TestSampleField:
    def test_l1_zero_on_axis_node(self):
        grid = sample_field("l1", 17)
        assert grid[8, 8, 3] == 0.0

    def test_l1_near_axis_node_value(self):
        grid = sample_field("l1", 16)
        ax = grid_axis(len(grid))
        i = np.argmin(np.abs(ax))
        expected = float(measures.l1_values(ax[i], ax[i]))
        assert grid[i, i, i] == expected

    def test_rel_ent_bounded_by_one(self):
        grid = sample_field("rel-ent", 16)
        assert np.nanmax(grid) <= 1.0 + 1e-12
        # node at the (1, -1, 1) vertex itself
        assert grid[-1, 0, -1] == pytest.approx(1.0, abs=1e-12)

    def test_slice_masks_unphysical_nodes(self):
        grid = sample_field("rel-ent", 16, slice=(0.5, 0.5))
        ax = grid_axis(len(grid))
        i0 = 0  # c3 = -1 layer is unphysical for r = s = 0.5
        assert np.isnan(grid[:, :, i0]).all()
        lam_ok = np.isfinite(grid)
        assert lam_ok.any()

    def test_mask_matches_physicality(self):
        grid = sample_field("l1", 16)
        ax = grid_axis(len(grid))
        c1, c2, c3 = np.meshgrid(ax, ax, ax, indexing="ij")
        physical = np.minimum.reduce(bell_eigenvalues(c1, c2, c3)) >= -TOL_PSD
        assert np.array_equal(np.isfinite(grid), physical)

    @pytest.mark.parametrize("resolution", [8.7, 16.0, "9", True, None])
    def test_resolution_must_be_an_integer(self, resolution):
        # int() ran 8.7 at n = 8 and "9" at n = 9
        with pytest.raises(DomainError, match="resolution must be an integer"):
            sample_field("l1", resolution)

    def test_takes_numpy_integers(self):
        grid = sample_field("l1", np.int64(9))
        assert np.array_equal(grid, sample_field("l1", 9), equal_nan=True)

    def test_channel_premap_changes_field(self):
        plain = sample_field("rel-ent", 16)
        mapped = sample_field("rel-ent", 16, channel="pf", p=0.5)
        mask = np.isfinite(plain)
        assert np.array_equal(mask, np.isfinite(mapped))
        assert np.nanmax(mapped) < np.nanmax(plain)

    def test_thread_count_does_not_change_values(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        one = sample_field("rel-ent", 20)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        many = sample_field("rel-ent", 20)
        assert np.array_equal(one, many, equal_nan=True)

    def test_pool_takes_cpu_count(self, monkeypatch):
        # one worker when the count is unknown
        seen = []
        for cpus in (5, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            seen += workers_of(monkeypatch, [lambda: sample_field("l1", 8)])
        assert seen == [5, 1]

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's page faults"
    )
    def test_workers_keep_their_pages(self):
        # Each thread's sampler holds its last kernel output until its next
        # call, so a worker's temporaries stay resident from one chunk to the
        # next: 0.3-1.2 grids' pages of minor faults at n = 192, where
        # dropping the output after every call took 1.8-2.1, and returning
        # the temporaries to the OS after every chunk once took about 5.  Two
        # workers, so the count does not depend on the host's cores.
        child = (
            "import os, resource\n"
            "os.cpu_count = lambda: 2\n"
            "from cohgeom.geometry import sample_field\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "grid = sample_field('rel-ent', 192)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(after - before, grid.nbytes // resource.getpagesize())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], env=cli_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        faults, grid_pages = map(int, proc.stdout.split())
        assert faults < 3 * grid_pages

    # discord and channels need the Bell-diagonal family, (r, s) = (0, 0)
    FAMILY = r"Bell-diagonal family only, \(r, s\) = \(0, 0\)"

    def test_discord_with_slice_rejected(self):
        for rs in ((0.1, 0.1), (0.1, 0.0)):
            with pytest.raises(DomainError, match=self.FAMILY):
                sample_field("discord", 16, slice=rs)

    def test_channel_with_slice_rejected(self):
        for rs in ((0.1, 0.1), (0.0, 0.1)):
            with pytest.raises(DomainError, match=self.FAMILY):
                sample_field("l1", 16, slice=rs, channel="bf", p=0.5)

    @pytest.mark.parametrize("channel", [None, "bf", "pf", "bpf", "gad"])
    @pytest.mark.parametrize("measure", ["l1", "trace", "rel-ent", "discord"])
    def test_zero_slice_is_the_bell_family(self, measure, channel):
        # the family is decided by the value of (r, s), not by whether a
        # slice was given: (0, 0) samples with the Bell mask and kernels
        kwargs = {} if channel is None else {"channel": channel, "p": 0.3}
        bell = sample_field(measure, 20, **kwargs).tobytes()
        for rs in ((0.0, 0.0), (0.0, -0.0)):
            assert sample_field(measure, 20, slice=rs, **kwargs).tobytes() == bell

    def test_trace_is_l1_on_a_slice(self):
        # for X states the trace-norm coherence equals the l1 coherence
        rs = (0.3, -0.2)
        trace = sample_field("trace", 20, slice=rs)
        assert trace.tobytes() == sample_field("l1", 20, slice=rs).tobytes()
        assert np.isfinite(trace).any()

    def test_slice_of_wrong_length_rejected(self):
        with pytest.raises(DomainError, match=r"expected 2 values \(r, s\), got 1"):
            sample_field("rel-ent", 8, slice=(0.1,))

    def test_slice_of_columns_rejected(self):
        with pytest.raises(DomainError, match="one number each for r, s"):
            sample_field("rel-ent", 8, slice=(np.array([0.1, 0.2]), 0.0))

    def test_small_resolution_rejected(self):
        with pytest.raises(DomainError):
            sample_field("l1", 7)

    def test_p_without_channel_rejected(self):
        with pytest.raises(DomainError):
            sample_field("l1", 16, p=0.5)

    def test_unknown_measure_rejected(self):
        with pytest.raises(DomainError, match="unknown measure 'bogus'"):
            sample_field("bogus", 16)

    @pytest.mark.parametrize(
        "channel, p", [("zz", 0.5), ("bf", 2.0), ("bf", [0.1, 0.2]), ("bf", np.array([0.5]))]
    )
    def test_bad_channel_rejected_before_sampling(self, monkeypatch, channel, p):
        def no_pool(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(geometry, "_over_runs", no_pool)
        # the range check refuses an array p before anything is allocated
        match = "one number each for channel probability" if np.ndim(p) else None
        with pytest.raises(DomainError, match=match):
            sample_field("rel-ent", 16, channel=channel, p=p)

    def test_huge_resolution_rejected_before_allocating(self):
        with pytest.raises(DomainError, match="physical memory"):
            sample_field("l1", 100000)

    def test_resolution_beyond_memory_rejected(self, small_memory):
        # 2 grids of 8 n^3 bytes: n = 40 fits in 1 MiB, n = 41 does not
        assert PEAK_PER_GRID_BYTE * 8 * 40**3 <= small_memory
        assert PEAK_PER_GRID_BYTE * 8 * 41**3 > small_memory
        assert sample_field("l1", 40).shape == (40,) * 3
        with pytest.raises(DomainError, match="resolution 41 needs .* physical memory"):
            sample_field("l1", 41)

    @pytest.mark.parametrize("threads", [1, 3, 16])
    @pytest.mark.parametrize(
        "measure, kwargs",
        [
            ("l1", {}),
            ("trace", {}),
            ("rel-ent", {}),
            ("discord", {}),
            ("discord", {"channel": "gad", "p": 0.3}),
            ("rel-ent", {"slice": (0.3, -0.2)}),
            ("rel-ent", {"channel": "bf", "p": 0.3}),
            ("rel-ent", {"channel": "pf", "p": 0.3}),
            ("rel-ent", {"channel": "bpf", "p": 0.3}),
            ("rel-ent", {"channel": "gad", "p": 0.3}),
            ("l1", {"slice": (0.3, -0.2)}),
            ("trace", {"slice": (0.3, -0.2)}),
            ("discord", {"slice": (0.0, 0.0), "channel": "gad", "p": 0.3}),
            # extreme X slices: no physical node at n = 20, and a thin sliver
            ("rel-ent", {"slice": (1.0, 0.0)}),
            ("l1", {"slice": (1.0, 0.0)}),
            ("rel-ent", {"slice": (0.9, 0.9)}),
            ("l1", {"slice": (0.9, 0.9)}),
        ],
    )
    def test_slabs_match_full_grid_reference(self, monkeypatch, measure, kwargs, threads):
        # 3-layer chunks: one worker's run of 20 layers ends in a 2-layer
        # chunk, and 16 workers' runs are one or two layers long
        monkeypatch.setattr(geometry, "SLAB_NODES", 3 * 20 * 20 + 7)
        monkeypatch.setattr(os, "cpu_count", lambda: threads)
        ax = grid_axis(20)
        c = np.meshgrid(ax, ax, ax, indexing="ij")
        # (r, s) = (0, 0) is the Bell-diagonal family
        rs = kwargs.get("slice", (0.0, 0.0))
        bell = rs == (0.0, 0.0)
        lam = bell_eigenvalues(*c) if bell else x_eigenvalues(*rs, *c)
        physical = np.minimum.reduce(lam) >= -TOL_PSD
        if "channel" in kwargs:
            c = correlation_map_values(kwargs["channel"], kwargs["p"], *c)
        if measure in ("l1", "trace"):
            field = measures.l1_values(c[0], c[1])
        elif measure == "discord":
            field = measures.bell_discord_values(*c)
        elif bell:
            field = measures.bell_relative_entropy_values(*c)
        else:
            field = measures.x_relative_entropy_values(*rs, *c)
        expected = np.where(physical, field, np.nan)
        # np.empty's stale heap bytes can repeat an earlier grid, so a layer
        # that no chunk fills could still match; poisoned with 7, beyond every
        # field, it cannot.  The stand-in takes np.empty's every argument, as
        # numpy's own callers pass a dtype, and poisons only float arrays
        empty = np.empty

        def poisoned(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(7.0)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        got = sample_field(measure, 20, **kwargs)
        assert np.array_equal(got, expected, equal_nan=True)

    def test_kernel_sees_only_physical_nodes(self, monkeypatch):
        seen = []
        for name in ("bell_relative_entropy_values", "x_relative_entropy_values"):
            kernel = getattr(measures, name)
            monkeypatch.setattr(
                measures, name, lambda *c, kernel=kernel: seen.append(c[-3:]) or kernel(*c)
            )
        grid = sample_field("rel-ent", 24)
        assert sum(np.broadcast(*c).size for c in seen) == np.isfinite(grid).sum()
        # level_surface's blocks at n = 130 reach past the last node; every
        # coordinate the kernel gets is finite and passes the per-node test
        for rs in ((0.0, 0.0), (0.9, 0.9)):
            seen.clear()
            assert len(level_surface("rel-ent", 130, 0.05, slice=rs).triangles) > 0
            c = np.concatenate([np.broadcast_arrays(*part) for part in seen], axis=1)
            assert np.isfinite(c).all()
            lam = bell_eigenvalues(*c) if rs == (0.0, 0.0) else x_eigenvalues(*rs, *c)
            assert (np.minimum.reduce(lam) >= -TOL_PSD).all()

    def test_kernel_calls_take_a_quarter_chunk(self, monkeypatch):
        # chunks of 8 layers of 24^2 nodes, or of up to 6 block closures of
        # 9^3: every batch, recorded by the size of its physicality test (the
        # kernel then gets its physical nodes), takes at most SLAB_NODES / 4
        # nodes or one row along out's first axis, and a chunk takes several
        # batches.  One worker, so the batches come chunk by chunk.
        monkeypatch.setattr(geometry, "SLAB_NODES", 8 * 24 * 24)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        calls = []
        physical, box_cases = states._bell_physical, geometry._box_cases
        monkeypatch.setattr(
            states,
            "_bell_physical",
            lambda *c: calls.append(np.broadcast(*c).size) or physical(*c),
        )
        sample_field("rel-ent", 24)
        # more calls than the 3 chunks
        assert len(calls) > 3
        assert max(calls) <= max(geometry.SLAB_NODES // 4, 24 * 24)
        # level_surface marks each chunk's end by its case pass
        calls.clear()
        monkeypatch.setattr(
            geometry, "_box_cases", lambda *args: calls.append(None) or box_cases(*args)
        )
        assert len(level_surface("rel-ent", 130, 0.05).triangles) > 0
        sizes = [size for size in calls if size is not None]
        assert max(sizes) <= max(geometry.SLAB_NODES // 4, 9**3)
        ends = [i for i, size in enumerate(calls) if size is None]
        assert max(np.diff([-1, *ends]) - 1) > 1

    def test_nodes_past_the_grid_are_unphysical(self):
        # level_surface's last blocks reach past node n - 1; (1, 0, 0) is a
        # physical state on the grid's last c1 layer, and the nodes beyond it
        # must not repeat it
        at, _ = geometry._checked_field("l1", 9, None, None, None)
        out = np.empty(3)
        at(out, np.array([8, 9, 12]), np.array(4), np.array(4))
        assert np.isfinite(out[0])
        assert np.isnan(out[1:]).all()


class TestExtractIsosurface:
    def test_sphere_oracle(self):
        mesh = extract_isosurface(sphere_grid(32), 0.5)
        assert len(mesh.triangles) > 0
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(radii - 0.5).max() <= 0.02
        # closed and uncracked: every edge borders exactly two triangles, and
        # the Euler characteristic is the sphere's
        edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        assert (counts == 2).all()
        assert len(mesh.vertices) - len(counts) + len(mesh.triangles) == 2

    def test_thin_tube_hugs_c3_axis(self):
        # at odd resolution the axis nodes exist, so the square tube
        # max(|c1|, |c2|) = level is resolved exactly by linear interpolation
        grid = sample_field("l1", 65)
        mesh = extract_isosurface(grid, 0.001)
        assert len(mesh.triangles) > 0
        values = measures.l1_values(mesh.vertices[:, 0], mesh.vertices[:, 1])
        assert np.abs(values - 0.001).max() <= 1e-9
        assert surface_stats(mesh)["entangled_area_fraction"] == 0.0

    def test_level_above_field_range_gives_empty_mesh(self):
        mesh = extract_isosurface(sample_field("l1", 16), 1.5)
        assert len(mesh.vertices) == 0 and len(mesh.triangles) == 0

    def test_nonpositive_level_rejected(self):
        with pytest.raises(DomainError):
            extract_isosurface(sphere_grid(8), 0.0)

    def test_unreadable_level_rejected(self):
        # float() raised ValueError and TypeError for these
        for level in ("x", None):
            with pytest.raises(DomainError, match="level must be a number"):
                extract_isosurface(sphere_grid(8), level)
            with pytest.raises(DomainError, match="level must be a number"):
                level_surface("l1", 8, level)

    @pytest.mark.parametrize("level", ["0.5", True, 0.5 + 0j, np.array([0.5])])
    def test_level_is_read_by_the_number_rule(self, level):
        # float() accepted "0.5" and True, and raised TypeError for complex
        for call in (
            lambda: extract_isosurface(sphere_grid(8), level),
            lambda: level_surface("l1", 8, level),
        ):
            with pytest.raises(DomainError, match="level must be a number"):
                call()

    @pytest.mark.parametrize("grid", [np.full((8, 8, 8), "0.5"), np.ones((8, 8, 8), bool)])
    def test_grid_is_read_by_the_number_rule(self, grid):
        with pytest.raises(DomainError, match="grid must be a number"):
            extract_isosurface(grid, 0.5)

    def test_malformed_grid_rejected(self):
        for shape in ((4, 5, 4), (7, 7, 7), (8, 8)):
            with pytest.raises(DomainError):
                extract_isosurface(np.zeros(shape), 0.5)

    def test_vertices_stay_physical(self):
        mesh = extract_isosurface(sample_field("rel-ent", 24), 0.2)
        lam_min = np.minimum.reduce(
            bell_eigenvalues(mesh.vertices[:, 0], mesh.vertices[:, 1], mesh.vertices[:, 2])
        )
        assert lam_min.min() >= -TOL_PSD  # NaN fails too
        entangled = entangled_values(0.0, 0.0, *mesh.vertices.T)
        # the surface has both separable and entangled vertices
        assert entangled.any() and not entangled.all()

    def test_transverse_sign_flip_symmetry(self):
        mesh = extract_isosurface(sample_field("rel-ent", 24), 0.2)
        points = mesh.vertices
        mirrored = points * np.array([-1.0, -1.0, 1.0])
        # compare as point sets: vertex order differs between the two halves
        dist = np.linalg.norm(points[:, None, :] - mirrored[None, :, :], axis=2)
        assert dist.min(axis=1).max() <= 1e-9
        assert dist.min(axis=0).max() <= 1e-9

    def test_deterministic(self):
        a = extract_isosurface(sample_field("rel-ent", 20), 0.3)
        b = extract_isosurface(sample_field("rel-ent", 20), 0.3)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)

    def test_masked_cubes_contribute_nothing(self):
        grid = sphere_grid(16)
        grid[0:8, 0:8, 0:8] = np.nan
        mesh = extract_isosurface(grid, 0.5)
        octant = (
            (mesh.vertices[:, 0] < -0.2)
            & (mesh.vertices[:, 1] < -0.2)
            & (mesh.vertices[:, 2] < -0.2)
        )
        assert not octant.any()


class TestCubeCases:
    @staticmethod
    def corner_loop(vals, level):
        # the 8-corner pass that the chunked case pass replaced, kept as its
        # reference: the active cubes' cases, then the key and interpolation
        # parameter of each of their crossed edges
        m = vals.shape[0] - 1
        case = np.zeros((m, m, m), dtype=np.uint8)
        skip = np.zeros((m, m, m), dtype=bool)
        for bit, (di, dj, dk) in enumerate(CORNER_OFFSETS):
            corner = vals[di : m + di, dj : m + dj, dk : m + dk]
            skip |= np.isnan(corner)
            case |= (corner < level).astype(np.uint8) << bit
        skip |= (case == 0) | (case == 255)
        cubes = np.flatnonzero(~skip)
        case = case.ravel()[cubes]
        cube_of, edge_of = np.nonzero(EDGE_CROSSED[case])
        offset_a, offset_b = np.array(CORNER_OFFSETS)[np.array(EDGE_CORNERS)[edge_of].T]
        lower = np.stack(np.unravel_index(cubes, (m, m, m)), axis=1)[cube_of]
        lower += np.minimum(offset_a, offset_b)
        axis = np.argmax(offset_a != offset_b, axis=1)
        va = vals[tuple(lower.T)]
        vb = vals[tuple((lower + np.eye(3, dtype=int)[axis]).T)]
        key = np.ravel_multi_index(tuple(lower.T), vals.shape) * 3 + axis
        return case, key, (level - va) / (vb - va)

    @staticmethod
    def chunked(vals, level, layers):
        # the chunks of the given number of cube layers, joined in order
        n = len(vals)
        parts = [
            geometry._box_cases(vals[None, i0 : i0 + layers + 1], [(i0, 0, 0)], level, n)
            for i0 in range(0, n - 1, layers)
        ]
        return [np.concatenate(column) for column in zip(*parts)]

    @staticmethod
    def blocked(vals, level, size):
        # each layer of blocks of size^3 cubes as one batch of their closures,
        # NaN beyond the grid, with the blocks of each layer in reverse order
        n = len(vals)
        padded = np.full((n + size,) * 3, np.nan)
        padded[:n, :n, :n] = vals
        parts = []
        starts = range(0, n - 1, size)
        for i0 in starts:
            origins = [(i0, j0, k0) for j0 in starts for k0 in starts][::-1]
            boxes = [padded[i:, j:, k:][: size + 1, : size + 1, : size + 1] for i, j, k in origins]
            parts.append(geometry._box_cases(np.stack(boxes), origins, level, n))
        return [np.concatenate(column) for column in zip(*parts)]

    def assert_matches_corner_loop(self, vals, level, layers):
        expected = self.corner_loop(vals, level)
        for got in (self.chunked(vals, level, layers), self.blocked(vals, level, layers)):
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)
            assert got[0].dtype == np.uint8

    @pytest.mark.parametrize("n", [8, 9, 20])
    @pytest.mark.parametrize("nan_share", [0.0, 0.02, 0.3])
    def test_matches_corner_loop(self, n, nan_share):
        # chunks of 3 cube layers: 7, 8 and 19 layers end in a short chunk
        rng = np.random.default_rng(n)
        for vals in (
            rng.random((n, n, n)),
            # many nodes exactly at the level, which count as not below it
            rng.choice([0.25, 0.5, 0.75], size=(n, n, n)),
        ):
            vals[rng.random(vals.shape) < nan_share] = np.nan
            self.assert_matches_corner_loop(vals, 0.5, 3)

    @pytest.mark.parametrize("fill", [np.nan, 0.5, 0.2])
    def test_uniform_grids_have_no_active_cube(self, fill):
        case, key, t = geometry._box_cases(np.full((1, 8, 8, 8), fill), [(0, 0, 0)], 0.5, 8)
        assert len(case) == len(key) == len(t) == 0

    def test_empty_batch_has_no_active_cube(self):
        # a chunk of block layers that hold no kept block
        boxes, origins = np.empty((0, 9, 9, 9)), np.empty((0, 3), dtype=int)
        case, key, t = geometry._box_cases(boxes, origins, 0.5, 8)
        assert len(case) == len(key) == len(t) == 0

    def test_box_ends_are_not_read_across(self):
        # on a checkerboard every cube is active, and so would be any cube
        # read from a box's last layer into the next row, plane or box; 10
        # nodes make 3 chunks and 27 blocks of 3 cube layers with no node
        # beyond the grid, so no NaN hides such a cube
        vals = np.indices((10, 10, 10)).sum(axis=0) % 2.0
        self.assert_matches_corner_loop(vals, 0.5, 3)

    def test_sampled_field(self):
        vals = sample_field("discord", 24)
        for level in (0.05, 0.2, 0.5):
            self.assert_matches_corner_loop(vals, level, 23)

    @pytest.mark.parametrize("n", [8, 20])
    def test_split_case_pass_gives_the_same_mesh(self, monkeypatch, n):
        grid = sample_field("rel-ent", n)
        # chunks of 2 cube layers: 7 and 19 layers end in a 1-layer chunk, and
        # 16 workers outnumber the 4 and 10 chunks
        monkeypatch.setattr(geometry, "SLAB_NODES", 2 * n * n + 7)
        meshes = []
        for cpus in (1, 2, 3, 16):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            meshes.append(extract_isosurface(grid, 0.2))
        assert len(meshes[0].triangles) > 0
        for mesh in meshes[1:]:
            assert np.array_equal(mesh.vertices, meshes[0].vertices)
            assert np.array_equal(mesh.triangles, meshes[0].triangles)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 16])
    def test_every_cube_layer_is_marched(self, monkeypatch, cpus):
        # a ramp along c1 crosses each level between two node layers in one
        # plane, so the levels reach the first and the last cube layer and
        # every chunk and run boundary; broadcast, the grid is not contiguous
        n = 9
        monkeypatch.setattr(geometry, "SLAB_NODES", 3 * n * n + 7)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        ramp = np.broadcast_to(np.arange(1.0, n + 1)[:, None, None], (n, n, n))
        for layer in range(n - 1):
            mesh = extract_isosurface(ramp, layer + 1.5)
            assert len(mesh.triangles) == 2 * (n - 1) ** 2
            assert_allclose(mesh.vertices[:, 0], grid_axis(n)[layer] + 1 / (n - 1))

    @pytest.mark.parametrize("n", [128, 192])
    def test_case_pass_memory_does_not_grow_with_the_grid(self, monkeypatch, n):
        # traced allocations, not RSS, so the bound does not depend on how
        # the host's malloc reuses pages; the mesh is small at this level
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        grid = sample_field("rel-ent", n)
        tracemalloc.start()
        try:
            extract_isosurface(grid, 0.85)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * geometry.SLAB_NODES * 2

    def test_case_pool_takes_cpu_count(self, monkeypatch):
        # one set of workers per case pass, sharing the sampling pool's rule:
        # one worker when the count is unknown, for both entry points;
        # level_surface at n = 48 has a layer of blocks for each of 5 runs
        seen = []
        for cpus in (5, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            seen += workers_of(
                monkeypatch,
                [lambda: extract_isosurface(sphere_grid(8), 0.5), lambda: level_surface("l1", 48, 0.5)],
            )
        assert seen == [5, 5, 1, 1]


class TestLevelSurface:
    EXTREME = [(1.0, 0.0), (0.9, 0.9)]
    FIELDS = [
        ("l1", 0.3, {}),
        ("trace", 0.3, {}),
        ("rel-ent", 0.2, {}),
        ("discord", 0.2, {}),
        ("rel-ent", 0.2, {"channel": "bf", "p": 0.3}),
        ("rel-ent", 0.1, {"channel": "pf", "p": 0.3}),
        ("discord", 0.1, {"channel": "bpf", "p": 0.3}),
        ("l1", 0.2, {"channel": "gad", "p": 0.3}),
        ("rel-ent", 0.2, {"slice": (0.3, -0.2)}),
        ("trace", 0.1, {"slice": (-0.3, 0.9)}),
        # levels like the benchmark's, where most blocks are certified
        ("rel-ent", 0.8953, {}),
        ("discord", 0.6521, {}),
        ("rel-ent", 0.8234, {"channel": "pf", "p": 0.0093}),
        ("rel-ent", 0.8858, {"slice": (-0.0131, 0.0634)}),
        ("l1", 0.5, {}),
        # every block certified: empty meshes
        ("rel-ent", 1.0, {}),
        ("discord", 1.5, {}),
        # extreme X slices, whose physical set is at most one node or a
        # thin sliver
        ("rel-ent", 0.05, {"slice": (1.0, 0.0)}),
        ("l1", 0.2, {"slice": (1.0, 0.0)}),
        ("rel-ent", 0.05, {"slice": (0.9, 0.9)}),
        ("l1", 0.2, {"slice": (0.9, 0.9)}),
    ]

    @pytest.mark.parametrize("n", [8, 9, 20, 97, 130])
    @pytest.mark.parametrize("measure, level, kwargs", FIELDS)
    def test_equals_the_two_step_path(self, monkeypatch, measure, level, kwargs, n):
        expected = extract_isosurface(sample_field(measure, n, **kwargs), level)
        # the thin sheets above 0.8 need the finer grids; the extreme slices
        # have a surface at n >= 97 at most
        sliver = kwargs.get("slice") in self.EXTREME
        if not sliver and (n >= 20 and level < 0.8 or n >= 97 and level < 1.0):
            assert len(expected.triangles) > 0
        # chunks of 3 cube layers, or of about 3 n^2 nodes of blocks: the
        # cube layers of 7, 8 and 19 layers, and the blocks of 96 and 129,
        # where BLOCK_CUBES does not divide them, end in short chunks, and the
        # workers' runs split them unevenly
        monkeypatch.setattr(geometry, "SLAB_NODES", 3 * n * n + 7)
        for cpus in (1, 2, 3, 16):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            mesh = level_surface(measure, n, level, **kwargs)
            assert mesh.vertices.tobytes() == expected.vertices.tobytes()
            assert np.array_equal(mesh.triangles, expected.triangles)

    def test_level_above_field_range_gives_empty_mesh(self):
        mesh = level_surface("rel-ent", 20, 1.5)
        assert mesh.vertices.shape == (0, 3) and mesh.triangles.shape == (0, 3)

    def test_kernel_sees_only_uncertified_blocks(self, monkeypatch):
        # a thin sheet: the blocks whose bounds clear the level are never
        # sampled, so the kernel sees under a quarter of the physical nodes
        physical = np.isfinite(sample_field("rel-ent", 128)).sum()
        seen = []
        kernel = measures.bell_relative_entropy_values
        monkeypatch.setattr(
            measures,
            "bell_relative_entropy_values",
            lambda *c: seen.append(np.broadcast(*c).size) or kernel(*c),
        )
        assert len(level_surface("rel-ent", 128, 0.8953).triangles) > 0
        assert 0 < sum(seen) < physical / 4

    def test_empty_boxes_are_those_of_the_unmapped_state(self, monkeypatch):
        # the mask is that of the unmapped state, so a box is certified empty
        # by its unmapped corners; the mapped box, which the channel shrinks
        # toward the tetrahedron's centre, holds physical states far more often
        # and would leave 2,299 of the 4,096 blocks uncertified, not 790
        sampled = []
        box_cases = geometry._box_cases
        monkeypatch.setattr(
            geometry,
            "_box_cases",
            lambda boxes, *args: sampled.append(len(boxes)) or box_cases(boxes, *args),
        )
        level_surface("rel-ent", 128, 0.1, channel="pf", p=0.5)
        assert 0 < sum(sampled) < 1200

    def test_bounds_pass_grows_with_the_surface(self, monkeypatch):
        # the halving bounds the boxes near the level: fewer than the 32^3
        # blocks that a flat pass bounds whole at n = 256 before any eighth
        boxes = []
        ranges = measures._eigenvalue_ranges

        def counted(r, s, lo, hi):
            boxes.append(lo[0].size)
            return ranges(r, s, lo, hi)

        monkeypatch.setattr(measures, "_eigenvalue_ranges", counted)
        level_surface("rel-ent", 256, 0.8953)
        assert 0 < sum(boxes) < 32**3

    @pytest.mark.parametrize("measure", ["l1", "trace"])
    def test_two_coordinate_bounds_skip_the_mapped_eigenvalues(self, monkeypatch, measure):
        # the l1 and trace ranges read the mapped box's ends alone, so under a
        # channel the bounds take only the unmapped boxes' eigenvalue ranges,
        # as without one: one call per halving, 4 at n = 64, where each
        # halving took 2 when the mapped boxes' ranges were computed too
        calls = []
        ranges = measures._eigenvalue_ranges
        monkeypatch.setattr(
            measures, "_eigenvalue_ranges", lambda *args: calls.append(1) or ranges(*args)
        )
        level_surface(measure, 64, 0.5)
        plain, calls[:] = len(calls), []
        mesh = level_surface(measure, 64, 0.5, channel="bf", p=0.3)
        assert len(calls) == plain > 0
        expected = extract_isosurface(sample_field(measure, 64, channel="bf", p=0.3), 0.5)
        assert len(expected.triangles) > 0
        assert mesh.vertices.tobytes() == expected.vertices.tobytes()
        assert mesh.triangles.tobytes() == expected.triangles.tobytes()

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (("l1", 7, 0.5), {}),
            (("l1", 16, 0.0), {}),
            (("l1", 16, -0.5), {}),
            (("l1", 7, 0.0), {}),
            (("bogus", 16, 0.5), {}),
            (("discord", 16, 0.5), {"slice": (0.1, 0.0)}),
            (("l1", 16, 0.5), {"slice": (0.0, 0.1), "channel": "bf", "p": 0.5}),
            (("l1", 16, 0.5), {"channel": "bf"}),
            (("l1", 16, 0.5), {"p": 0.5}),
            (("l1", 8.7, 0.5), {}),
            (("l1", "9", 0.5), {}),
            (("l1", 16, 0.5), {"channel": "bf", "p": [0.1, 0.2]}),
        ],
    )
    def test_raises_what_the_two_step_path_raises(self, args, kwargs):
        measure, n, level = args
        with pytest.raises(DomainError) as expected:
            extract_isosurface(sample_field(measure, n, **kwargs), level)
        with pytest.raises(DomainError, match=re.escape(str(expected.value))):
            level_surface(measure, n, level, **kwargs)

    def test_keeps_the_memory_guard(self, small_memory):
        assert len(level_surface("l1", 40, 0.5).triangles) > 0
        with pytest.raises(DomainError, match="resolution 41 needs .* physical memory"):
            level_surface("l1", 41, 0.5)

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="counts glibc malloc's page faults"
    )
    def test_workers_keep_their_pages(self):
        # As in sample_field, each thread's sampler keeps its temporaries
        # from one chunk to the next: 0.5-0.7 grids' pages of minor faults
        # at n = 192.  When the output was held per pool task, one task per
        # chunk took 3.4.  Two workers, so the count does not depend on the
        # host's cores.
        child = (
            "import os, resource\n"
            "os.cpu_count = lambda: 2\n"
            "from cohgeom.geometry import level_surface\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "level_surface('rel-ent', 192, 0.84)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print(after - before, 8 * 192**3 // resource.getpagesize())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], env=cli_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        faults, grid_pages = map(int, proc.stdout.split())
        assert faults < 2 * grid_pages


class TestOverRuns:
    # zero-size layers, as level_surface's block layers with no uncertified
    # block: at both ends, inside a chunk, and as whole runs
    SIZES = [
        [0, 0, 4, 0, 7, 3, 12, 0, 0, 5, 5, 0, 1, 0, 0],
        [0] * 6,
        [3] * 9 + [0] * 7,
    ]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("cpus", [1, 2, 3, 16])
    def test_chunks_cover_each_layer_once_in_order(self, monkeypatch, size, cpus):
        monkeypatch.setattr(geometry, "SLAB_NODES", 10)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

        def work(i0, i1):
            # the first layers' chunks finish last
            time.sleep(0.001 * (len(size) - i0))
            return i0, i1

        chunks = geometry._over_runs(np.array(size), work)
        # in chunk order, each layer in exactly one chunk
        assert [i0 for i0, _ in chunks] == [0] + [i1 for _, i1 in chunks[:-1]]
        assert chunks[-1][1] == len(size)
        for i0, i1 in chunks:
            assert i0 < i1
            assert i1 - i0 == 1 or sum(size[i0:i1]) <= 10

    def test_first_run_is_the_callers(self, monkeypatch):
        monkeypatch.setattr(geometry, "SLAB_NODES", 10)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        chunks = geometry._over_runs(np.full(9, 4), lambda i0, i1: threading.current_thread())
        assert chunks[0] is threading.current_thread()
        assert len(set(chunks)) == 3

    @pytest.mark.parametrize(
        "failing, delays", [((1, 2), (6, 4, 2)), ((2,), (6, 4, 2)), ((0, 2), (0, 4, 6))]
    )
    def test_first_failing_run_raises_after_every_run_ends(self, monkeypatch, failing, delays):
        # 3 runs of one chunk each, from layers 0, 2 and 5, each ending after
        # its delay in ms; every run has ended when the exception of the
        # first failing one, in run order, arrives
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        heads, ended = [0, 2, 5], []

        def work(i0, i1):
            run = heads.index(i0)
            time.sleep(0.001 * delays[run])
            ended.append(run)
            if run in failing:
                raise KeyError(run)

        threads = threading.active_count()
        with pytest.raises(KeyError) as raised:
            geometry._over_runs(np.ones(9, dtype=int), work)
        assert raised.value.args == (failing[0],)
        assert sorted(ended) == [0, 1, 2]
        assert threading.active_count() == threads


class TestMeshBytes:
    # sha256 of export_obj without metadata; any change to vertex order,
    # coordinates or triangles changes these
    @pytest.mark.parametrize(
        "measure, n, level, kwargs, digest",
        [
            ("rel-ent", 24, 0.2, {}, "55aad02184e5a2a3d3f9da12683ec49189e9535df9dba797c03108b0fcdacb76"),
            ("l1", 33, 0.5, {}, "fd814ac397dddd781c26e28d4e0e419e90d1e70c1e05ea35fcdd633a2b8b6858"),
            ("discord", 32, 0.3, {}, "aedfe7a2c17de27051ed2674bcd49f263d6cdcf1594646702b57bcaf63f42efd"),
            (
                "rel-ent", 32, 0.3, {"slice": (0.3, -0.2)},
                "8602da6f12919caec7e57c3216483969f66ee1cb13ddf36bd028e4f3f06fba81",
            ),
            (
                "rel-ent", 32, 0.25, {"channel": "gad", "p": 0.1},
                "167ce9f16e1223bea15e68700e5fa93d7b107d9526ba84229652ce3808d1779e",
            ),
        ],
    )
    def test_pinned_digest(self, tmp_path, measure, n, level, kwargs, digest):
        path = tmp_path / "mesh.obj"
        export_obj(extract_isosurface(sample_field(measure, n, **kwargs), level), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_row_blocks_give_the_same_obj(self, tmp_path, monkeypatch):
        # 7-row blocks: the mesh's vertex and triangle counts end in partial
        # blocks, and the bytes match the first pinned digest
        monkeypatch.setattr(_textio, "BLOCK_ROWS", 7)
        mesh = extract_isosurface(sample_field("rel-ent", 24), 0.2)
        assert len(mesh.vertices) % 7 and len(mesh.triangles) % 7
        path = tmp_path / "mesh.obj"
        export_obj(mesh, path)
        digest = "55aad02184e5a2a3d3f9da12683ec49189e9535df9dba797c03108b0fcdacb76"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_triangle_table_is_pinned(self):
        # the table is decoded from text; its repr is that of the literal of
        # 256 tuples it replaced
        digest = "4e600d4af75e45dc0860ddb934b36b4463d852bae6d5e060bbd2ec7a006799da"
        assert hashlib.sha256(repr(TRI_TABLE).encode()).hexdigest() == digest

    def test_triangle_table_uses_exactly_the_crossed_edges(self):
        used = np.zeros_like(EDGE_CROSSED)
        for case, edges in enumerate(TRI_TABLE):
            used[case, list(edges)] = True
        assert np.array_equal(used, EDGE_CROSSED)


def random_mesh():
    rng = np.random.default_rng(7)
    vertices = rng.standard_normal((500, 3)) * 10.0 ** rng.integers(-8, 8, (500, 1))
    return geometry.TriangleMesh(vertices, rng.integers(0, 500, (2000, 3)))


class TestTriangleMesh:
    @pytest.mark.parametrize("index", [2.5, np.nan, 2.0 + 1e-15])
    def test_indices_that_are_not_whole_numbers_rejected(self, index):
        # dtype=int made 2.5 index 2, and NaN raised ValueError
        with pytest.raises(DomainError, match="triangle indices must be integers"):
            geometry.TriangleMesh(np.eye(3), [[0, 1, index]])

    def test_whole_float_indices_read_as_ints(self):
        mesh = geometry.TriangleMesh(np.eye(3), np.array([[0.0, 1.0, 2.0]]))
        assert mesh.triangles.dtype == int
        assert mesh.triangles.tolist() == [[0, 1, 2]]
        with pytest.raises(DomainError, match="out of range"):
            geometry.TriangleMesh(np.eye(3), [[0, 1, np.inf]])

    @pytest.mark.parametrize(
        "mesh",
        [
            lambda: level_surface("l1", 40, 0.4965),
            lambda: level_surface("rel-ent", 32, 0.2),
            lambda: level_surface("discord", 32, 0.3),
            lambda: level_surface("rel-ent", 32, 0.3, slice=(0.3, -0.2)),
            random_mesh,
        ],
        ids=["l1", "rel-ent", "discord", "x-slice", "random"],
    )
    def test_areas_and_centroids_equal_the_numpy_forms(self, mesh):
        mesh = mesh()
        a, b, c = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
        areas = np.linalg.norm(np.cross(b - a, c - a), axis=1) / 2
        assert len(areas) > 0
        assert np.array_equal(mesh.triangle_areas(), areas)
        assert np.array_equal(mesh.centroids(), mesh.vertices[mesh.triangles].mean(axis=1))


class TestSurfaceStats:
    def test_empty_mesh(self):
        mesh = extract_isosurface(sample_field("l1", 16), 1.5)
        stats = surface_stats(mesh)
        assert stats == {
            "total_area": 0.0,
            "entangled_area_fraction": 0.0,
            "vertex_count": 0,
            "triangle_count": 0,
        }

    def test_high_level_more_entangled_than_low(self):
        # levels are picked so both tubes survive the masked-cube trim at
        # this resolution; near level 1 the tube thins below the cell size
        grid = sample_field("l1", 33)
        low = surface_stats(extract_isosurface(grid, 0.001))
        high = surface_stats(extract_isosurface(grid, 0.9))
        assert high["triangle_count"] > 0
        assert high["entangled_area_fraction"] > low["entangled_area_fraction"]
        assert high["entangled_area_fraction"] > 0.9

    def test_x_slice_uses_the_slice_states(self):
        # every centroid has |c1| + |c2| + |c3| <= 1, yet the PPT test of the
        # slice's X states finds 0.4633 of the area entangled (0.5307 at
        # n = 128)
        rs = (-0.3, 0.9)
        mesh = extract_isosurface(sample_field("rel-ent", 64, slice=rs), 0.1)
        assert surface_stats(mesh, rs)["entangled_area_fraction"] == pytest.approx(
            0.4633, abs=1e-3
        )

    @pytest.mark.parametrize(
        "rs", [(0.1,), (0.1, 0.2, 0.3), (0.1, 1.5), (0.1, np.array([0.2, 0.3]))]
    )
    def test_bad_slice_rejected(self, rs):
        mesh = extract_isosurface(sphere_grid(8), 0.5)
        with pytest.raises(DomainError, match=r"\(r, s\)|s must lie|r, s$"):
            surface_stats(mesh, rs)

    @pytest.mark.parametrize("mesh", ["x", np.eye(3), None])
    def test_a_mesh_that_is_not_a_triangle_mesh_rejected(self, mesh):
        with pytest.raises(DomainError, match="mesh must be a TriangleMesh"):
            surface_stats(mesh)

    def test_counts_match_mesh(self):
        mesh = extract_isosurface(sample_field("rel-ent", 16), 0.2)
        stats = surface_stats(mesh)
        assert stats["vertex_count"] == len(mesh.vertices)
        assert stats["triangle_count"] == len(mesh.triangles)
        assert stats["total_area"] == pytest.approx(mesh.triangle_areas().sum())


class TestFilterTriangles:
    def test_discord_equality_restriction_is_mirrored(self):
        grid = sample_field("rel-ent", 33)
        mesh = extract_isosurface(grid, 0.05)
        restricted = filter_triangles(mesh, discord_equals_coherence_values)
        assert 0 < len(restricted.triangles) < len(mesh.triangles)
        cent = restricted.centroids()
        assert (cent[:, 2] > 0).any() and (cent[:, 2] < 0).any()
        # every surviving centroid satisfies the predicate
        assert discord_equals_coherence_values(*cent.T).all()

    @pytest.mark.parametrize(
        "keep",
        [
            lambda *c: True,
            lambda *c: np.float64(0.3),
            lambda c1, c2, c3: c3,
            lambda c1, c2, c3: c3[1:] > 0,
        ],
        ids=["scalar", "float", "float-column", "wrong-length"],
    )
    def test_predicate_must_give_one_bool_per_triangle(self, keep):
        mesh = extract_isosurface(sphere_grid(16), 0.5)
        with pytest.raises(DomainError, match="keep must return a boolean array"):
            filter_triangles(mesh, keep)

    def test_a_mesh_that_is_not_a_triangle_mesh_rejected(self):
        with pytest.raises(DomainError, match="mesh must be a TriangleMesh, got str"):
            filter_triangles("x", lambda c1, c2, c3: c3 > 0)

    @pytest.mark.parametrize("triangles", [np.empty((0, 3)), [[0, 1, 2]]])
    def test_no_kept_triangle_keeps_no_vertex(self, triangles):
        mesh = geometry.TriangleMesh(np.eye(3), triangles)
        kept = filter_triangles(mesh, lambda c1, c2, c3: c3 > 1.0)
        assert kept.vertices.shape == (0, 3) and kept.triangles.shape == (0, 3)

    def test_reindexing_preserves_geometry(self):
        mesh = extract_isosurface(sphere_grid(16), 0.5)
        kept = filter_triangles(mesh, lambda c1, c2, c3: c3 > 0)
        assert len(kept.triangles) > 0
        assert kept.triangles.max() < len(kept.vertices)
        assert_allclose(
            np.sort(kept.triangle_areas()),
            np.sort(mesh.triangle_areas()[mesh.centroids()[:, 2] > 0]),
        )


class TestExportObj:
    def test_empty_mesh_writes_header_only(self, tmp_path):
        mesh = extract_isosurface(sample_field("l1", 16), 1.5)
        path = tmp_path / "empty.obj"
        export_obj(mesh, path, {"measure": "l1", "level": 1.5, "resolution": 16})
        lines = path.read_text().splitlines()
        assert lines and all(line.startswith("#") for line in lines)
        assert "# measure: l1" in lines

    def test_single_triangle_format(self, tmp_path):
        from cohgeom.geometry import TriangleMesh

        mesh = TriangleMesh(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[0, 1, 2]]),
        )
        path = tmp_path / "triangle.obj"
        export_obj(mesh, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines == ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 2 3"]

    def test_round_trip(self, tmp_path):
        mesh = extract_isosurface(sphere_grid(16), 0.5)
        path = tmp_path / "sphere.obj"
        export_obj(mesh, path)
        verts = []
        faces = []
        for line in path.read_text().splitlines():
            if line.startswith("v "):
                verts.append([float(tok) for tok in line.split()[1:]])
            elif line.startswith("f "):
                faces.append([int(tok) - 1 for tok in line.split()[1:]])
        assert np.abs(np.array(verts) - mesh.vertices).max() <= 1e-9
        assert np.array_equal(np.array(faces), mesh.triangles)

    def test_byte_identical_output(self, tmp_path):
        mesh = extract_isosurface(sample_field("rel-ent", 16), 0.2)
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        export_obj(mesh, p1, {"level": 0.2})
        export_obj(mesh, p2, {"level": 0.2})
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_float_metadata_writes_the_float(self, tmp_path):
        # under numpy 2, repr(np.float64(0.5)) is "np.float64(0.5)"
        mesh = extract_isosurface(sphere_grid(8), 0.5)
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        export_obj(mesh, p1, {"level": 0.5, "p": 0.1})
        export_obj(mesh, p2, {"level": np.float64(0.5), "p": np.float64(0.1)})
        assert p1.read_bytes() == p2.read_bytes()
        assert "# level: 0.5\n" in p1.read_text()

    @pytest.mark.parametrize(
        "mesh, metadata, match",
        [
            ("x", None, "mesh must be a TriangleMesh, got str"),
            (None, {}, "mesh must be a TriangleMesh, got NoneType"),
            (geometry.TriangleMesh(np.eye(3), [[0, 1, 2]]), "abc", "metadata must be a dict"),
            (geometry.TriangleMesh(np.eye(3), [[0, 1, 2]]), [("a", 1)], "metadata must be a dict"),
        ],
        ids=["str-mesh", "none-mesh", "str-metadata", "list-metadata"],
    )
    def test_bad_mesh_or_metadata_rejected_before_opening(self, tmp_path, mesh, metadata, match):
        with pytest.raises(DomainError, match=match):
            export_obj(mesh, tmp_path / "x.obj", metadata)
        assert list(tmp_path.iterdir()) == []
