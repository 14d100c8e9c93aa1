"""Level surfaces of coherence fields over the Bell-diagonal state tetrahedron.

Samples a chosen measure on a regular grid covering [-1, 1]^3 in correlation
space (optionally for an X-state slice at fixed Bloch components, optionally
after pre-mapping the grid through a decoherence channel), extracts
constant-value surfaces with marching cubes, measures the share of a surface
that lies in the entangled region by the PPT test, and exports meshes as
Wavefront OBJ plus flat JSON statistics.
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channels, measures, states
from ._mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from .measures import MeasureKind
from .states import DomainError, TOL_PSD, bell_eigenvalues, x_eigenvalues

# Triangles at or below this area are dropped as degenerate.
DEGENERATE_AREA = 1e-14

# Nodes per c1-slab of the sampling pass.  Each worker holds a few temporaries
# of at most this size, and keeps them resident from one slab to the next:
# rel-ent at n = 256 peaked at 167, 166-172, 229-237 and 367-370 MB RSS after
# sampling with 1, 2, 8 and 16 workers, about 13 MB per worker.  2^20- and
# 2^21-node slabs were measured no faster and used up to 2.5x the peak memory.
SLAB_NODES = 1 << 18

# Estimated peak bytes of a surface run per grid byte: the float64 grid,
# extract_isosurface's per-cube arrays and mesh, and the sampling slabs.
# Measured at 1.4-2.6 over a bare import at n = 192 and 256 (rel-ent, discord
# and l1 at levels 0.2 and 0.84, one and two workers); the larger meshes of
# low levels set the top of that range.  The workers' temporaries do not grow
# with the grid: with 16 workers, whose first slabs are the 16 largest, the
# ratio reached 4.8 at n = 192 and 2.6 at n = 256, but near the memory limit
# the grid is gigabytes and dominates.
PEAK_PER_GRID_BYTE = 3


def grid_axis(resolution: int) -> np.ndarray:
    """Node coordinates covering [-1, 1] inclusive, exactly sign-symmetric."""
    n = int(resolution)
    return (2.0 * np.arange(n) - (n - 1)) / (n - 1)


def sample_field(
    measure,
    resolution: int,
    slice: tuple[float, float] | None = None,
    channel=None,
    p: float | None = None,
) -> np.ndarray:
    """Sample a coherence/discord field over the correlation-space grid.

    Returns an ``(n, n, n)`` float array: entry ``[i, j, k]`` is the field at
    (axis[i], axis[j], axis[k]) in (c1, c2, c3) order, with ``axis =
    grid_axis(n)``; unphysical nodes are NaN.

    Parameters
    ----------
    measure : MeasureKind or str
        Field to sample.  Discord needs the Bell-diagonal family, (r, s) =
        (0, 0); trace equals l1 on every X state and is sampled as l1.
    resolution : int
        Nodes per axis, at least 8; nodes include the endpoints of [-1, 1].
        A resolution whose estimated surface-run peak, PEAK_PER_GRID_BYTE
        times the 8 n^3 grid bytes, exceeds the machine's physical memory
        is rejected before anything is allocated.
    slice : (r, s), optional
        Fixed Bloch components of the sampled X states; None means (0, 0).
        The value decides the family: (0, 0) is the Bell-diagonal one, with
        its own mask and kernels, so ``slice=(0, 0)`` equals no slice.
    channel, p : optional
        Pre-map every grid triple through this decoherence channel at
        strength p, a scalar, before evaluating the measure.  Channels, like
        discord, need (r, s) = (0, 0).  Give both or neither.

    Nodes whose state is unphysical are masked with NaN; with a channel
    pre-map the mask reflects the initial (unmapped) state.  The physical
    nodes of each (c1, c2) row form one interval of c3, whose ends are found
    once per grid, by bisection over all n^2 rows at once.  Every channel
    scales each component on its own, so the channel map is applied to the
    axis once, and the l1 field, free of c3, is evaluated once per row; the
    other measures are evaluated on the physical nodes only.  The grid is
    filled in fixed c1-slabs of about SLAB_NODES nodes by ``workers =
    os.cpu_count()`` threads; the output does not depend on that count.  The
    slabs are ordered by physical node count, largest first, and worker w
    fills the w-th, (w + workers)-th, ... of them in turn, which spreads the
    uneven physical share along c1 evenly.  Each worker fills the NaN of its
    own slabs and keeps its temporaries resident from one slab to the next
    instead of paging them in again for every slab, so memory is the grid
    plus a few temporaries of a slab's physical node count per worker.
    """
    measure = states._member(MeasureKind, measure, "measure")
    n = int(resolution)
    if n < 8:
        raise DomainError("resolution must be at least 8")
    r, s = (0.0, 0.0) if slice is None else states._in_range(("r", "s"), slice)
    if (channel is None) != (p is None):
        raise DomainError("a channel pre-map and its probability p must be given together")
    if channel is not None:
        channel = states._member(channels.ChannelKind, channel, "channel")
        if np.ndim(p) != 0:
            raise DomainError(f"p must be a scalar, got shape {np.shape(p)}")
        p = channels._check_probability(p)
    if (r, s) == (0.0, 0.0):
        eigenvalues, rising = bell_eigenvalues, (1, 2)
        kernel = measures.bell_relative_entropy_values
        if measure is MeasureKind.DISCORD:
            kernel = measures.bell_discord_values
    elif measure is MeasureKind.DISCORD or channel is not None:
        raise DomainError(
            "discord and channel pre-maps are defined on the Bell-diagonal "
            f"family only, (r, s) = (0, 0); got (r, s) = ({r}, {s})"
        )
    else:
        eigenvalues, rising = functools.partial(x_eigenvalues, r, s), (0, 1)
        kernel = functools.partial(measures.x_relative_entropy_values, r, s)
    states._require_memory(f"resolution {n}", PEAK_PER_GRID_BYTE * 8 * n**3)

    axis = grid_axis(n)
    values = np.empty((n, n, n))
    rows = max(1, SLAB_NODES // (n * n))
    # per (c1, c2) row q = i n + j
    c1, c2 = np.repeat(axis, n), np.tile(axis, n)
    lo, hi = _physical_intervals(eigenvalues, rising, c1, c2, axis)
    length = np.maximum(hi - lo, 0)
    ax3 = axis
    if channel is not None:
        # every channel scales each component on its own, so mapping the axis
        # maps every node; the mask above stays that of the unmapped state
        ax1, ax2, ax3 = channels.correlation_map_values(channel, p, axis, axis, axis)
        c1, c2 = np.repeat(ax1, n), np.tile(ax2, n)

    workers = os.cpu_count() or 1
    # largest physical share first: each worker's temporaries then only
    # shrink from slab to slab, so malloc can reuse their pages
    starts = np.arange(0, n, rows)
    physical = np.add.reduceat(length, starts * n)
    starts = starts[np.argsort(-physical, kind="stable")]

    def fill(worker: int) -> None:
        # One loop per worker, not one call per slab: a slab's arrays stay
        # referenced until the next slab's replace them, so the heap never
        # empties in bulk and malloc keeps the pages of freed temporaries
        # instead of returning them to the OS.  The field is named for the
        # same reason: written straight into the slab, it would leave the
        # kernel's freed temporaries on top of the heap, and rel-ent at
        # n = 256 took 2.7x the minor faults.
        for i0 in starts[worker::workers]:
            slab = values[i0 : i0 + rows].reshape(-1)
            slab.fill(np.nan)
            q = np.s_[i0 * n : i0 * n + len(slab) // n]
            run = length[q]
            k = np.arange(run.sum()) + np.repeat(lo[q] - np.cumsum(run) + run, run)
            # node k of the slab's row t is entry t n + k of the slab
            node = k + np.repeat(np.arange(len(run)) * n, run)
            if measure in (MeasureKind.L1, MeasureKind.TRACE_NORM):
                field = np.repeat(measures.l1_values(c1[q], c2[q]), run)
            else:
                e1, e2, e3 = np.repeat(c1[q], run), np.repeat(c2[q], run), ax3[k]
                field = kernel(e1, e2, e3)
            slab[node] = field

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, range(workers)))
    return values


def _physical_intervals(eigenvalues, rising, c1, c2, axis):
    """Per (c1, c2) row, the c3 node indices [lo, hi) whose state is physical.

    ``eigenvalues(c1, c2, c3)`` gives the four closed-form eigenvalues; the
    two indexed by ``rising`` can only grow with c3 and the other two can
    only shrink.  That holds in floating point too, because c3 enters each
    expression once, added to or subtracted from an operand free of c3, and
    rounding is monotone.  So the nodes where every eigenvalue is at least
    -TOL_PSD form one interval per row (empty where hi <= lo), the same nodes
    as the per-node test.  Its ends are found by bisection over all rows at
    once, about log2(n) evaluations per row.
    """
    falling = [i for i in range(4) if i not in rising]
    n = len(axis)

    def leading(holds):
        # per row, how many leading nodes satisfy holds, true on a prefix
        count = np.zeros(len(c1), dtype=np.intp)
        step = 1 << (n.bit_length() - 1)
        while step:
            ahead = count + step
            lam = eigenvalues(c1, c2, axis[np.minimum(ahead, n) - 1])
            advance = (ahead <= n) & holds(lam)
            count[advance] = ahead[advance]
            step >>= 1
        return count

    lo = leading(lambda lam: ~(np.minimum(*(lam[i] for i in rising)) >= -TOL_PSD))
    hi = leading(lambda lam: np.minimum(*(lam[i] for i in falling)) >= -TOL_PSD)
    return lo, hi


@dataclass
class TriangleMesh:
    """Indexed triangle mesh in correlation coordinates."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise DomainError("triangle indices out of range")

    def triangle_areas(self) -> np.ndarray:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return np.linalg.norm(np.cross(b - a, c - a), axis=1) / 2

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)


# The case tables as arrays.  An edge is crossed when its two corners lie on
# opposite sides of the level; each edge starts at a lower grid node and runs
# along one axis; triangle edge lists are padded with -1.
_CORNER_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1
_EDGE_A, _EDGE_B = np.array(EDGE_CORNERS).T
EDGE_CROSSED = _CORNER_BITS[:, _EDGE_A] != _CORNER_BITS[:, _EDGE_B]
_OFFSET_A, _OFFSET_B = np.array(CORNER_OFFSETS)[[_EDGE_A, _EDGE_B]]
_EDGE_LOWER = np.minimum(_OFFSET_A, _OFFSET_B)
_EDGE_AXIS = np.argmax(_OFFSET_A != _OFFSET_B, axis=1)
TRI_EDGES = np.array([edges + (-1,) * (15 - len(edges)) for edges in TRI_TABLE])
# _cube_cases codes corner (di, dj, dk) as bit 4 di + 2 dj + dk; this maps a
# code to the case index of the tables, whose bit i is corner CORNER_OFFSETS[i].
_CODE_BITS = np.array(CORNER_OFFSETS) @ (4, 2, 1)
_CASE_OF_CODE = (
    ((np.arange(256)[:, None] >> _CODE_BITS) & 1) << np.arange(8)
).sum(axis=1).astype(np.uint8)


def _corner_codes(flag, *args):
    """Per-cube 8-bit codes of the per-node booleans ``flag(*args)``: bit
    4 di + 2 dj + dk is the flag at corner (di, dj, dk).

    The flags are combined along k, then j, then i, each pass over an array
    one node shorter along its axis; each stage is freed once the next exists,
    so the peak is about two grid-sized byte arrays.
    """
    code = flag(*args).view(np.uint8)
    for axis, shift in ((2, 1), (1, 2), (0, 4)):
        head = (np.s_[:],) * axis
        upper = np.left_shift(code[head + (np.s_[1:],)], shift)
        upper |= code[head + (np.s_[:-1],)]
        code = upper
    return code


def _cube_cases(vals, level):
    """Flat indices of the active cubes in index order, and their case indices.

    A cube is active when no corner is NaN and the level separates its
    corners; a corner is below the level when its value is less than it.
    The cube layers are split into ``os.cpu_count()`` contiguous runs of i,
    one per thread, and the results joined in order.
    """
    m = len(vals) - 1
    workers = os.cpu_count() or 1
    bounds = [m * w // workers for w in range(workers + 1)]

    def cases(i0: int, i1: int):
        # cube layers [i0, i1) read grid layers i0 ... i1
        part = vals[i0 : i1 + 1]
        active = _corner_codes(np.isnan, part) == 0
        code = _corner_codes(np.less, part, level)
        active &= code != 0
        active &= code != 255
        cubes = np.flatnonzero(active)
        return cubes + i0 * m * m, _CASE_OF_CODE[code.ravel()[cubes]]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        cubes, case = zip(*pool.map(cases, bounds[:-1], bounds[1:]))
    return np.concatenate(cubes), np.concatenate(case)


def extract_isosurface(grid, level: float) -> TriangleMesh:
    """Extract the triangle mesh of the field's level set via marching cubes.

    ``grid`` is a cubic array laid out as :func:`sample_field` returns it,
    with at least 8 nodes per axis.

    Linear interpolation along cube edges; any cube with a masked (NaN)
    corner contributes nothing, which trims the surface at the boundary of
    the physical set.  A level outside the field's range simply yields an
    empty mesh.  Output is deterministic.  Vertices are numbered by first
    encounter when cubes are visited in index order and, within a cube,
    edges 0-11 in order; a grid edge shared by several cubes gives one
    vertex.  Triangles follow in the same cube order, each cube's in table
    order, minus those of area at most DEGENERATE_AREA.  The per-cube case
    pass runs split across ``os.cpu_count()`` threads, one contiguous run of
    c1 layers each; the mesh does not depend on that count.
    """
    vals = np.asarray(grid, dtype=float)
    if vals.ndim != 3 or len(set(vals.shape)) != 1:
        raise DomainError(f"grid must be cubic, got shape {vals.shape}")
    n = vals.shape[0]
    if n < 8:
        raise DomainError("grid resolution must be at least 8 per axis")
    level = float(level)
    if not level > 0.0:
        raise DomainError(f"level must be positive, got {level}")
    axis = grid_axis(n)

    cubes, cube_case = _cube_cases(vals, level)
    origin = np.stack(np.unravel_index(cubes, (n - 1,) * 3), axis=1)

    # Crossed (cube, edge) pairs in cube order, keyed by lower node and axis;
    # ranking the distinct keys by first occurrence numbers the vertices.
    crossed = EDGE_CROSSED[cube_case]
    cube_of, edge_of = np.nonzero(crossed)
    lower = origin[cube_of] + _EDGE_LOWER[edge_of]
    key = np.ravel_multi_index(tuple(lower.T), vals.shape) * 3 + _EDGE_AXIS[edge_of]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    edge_vertex = np.full(crossed.shape, -1)
    edge_vertex[crossed] = rank[inverse]

    pair = first[order]
    lo, ax = lower[pair], _EDGE_AXIS[edge_of[pair]]
    va = vals[tuple(lo.T)]
    vb = vals[tuple((lo + np.eye(3, dtype=int)[ax]).T)]
    t = (level - va) / (vb - va)
    rows = np.arange(len(lo))
    a = lo[rows, ax]
    verts = axis[lo]
    verts[rows, ax] = axis[a] + t * (axis[a + 1] - axis[a])

    tri_edges = TRI_EDGES[cube_case]
    cube_row, slot = np.nonzero(tri_edges >= 0)
    tris = edge_vertex[cube_row, tri_edges[cube_row, slot]]

    mesh = TriangleMesh(verts, tris)
    mesh.triangles = mesh.triangles[mesh.triangle_areas() > DEGENERATE_AREA]
    return mesh


def filter_triangles(mesh: TriangleMesh, keep) -> TriangleMesh:
    """Keep only triangles whose centroid satisfies the predicate.

    ``keep(c1, c2, c3)`` is called once with the centroid columns and must
    return a boolean array with one entry per triangle, such as
    :func:`~cohgeom.measures.discord_equals_coherence_values`; anything else
    raises DomainError.  Vertices no longer referenced are dropped and
    indices compacted, preserving order.
    This realizes restricted surfaces such as the part of a coherence level
    set on which discord agrees with the coherence.
    """
    kept = np.asarray(keep(*mesh.centroids().T))
    if kept.dtype != bool or kept.shape != (len(mesh.triangles),):
        raise DomainError(
            f"keep must return a boolean array of shape ({len(mesh.triangles)},), "
            f"got {kept.dtype} of shape {kept.shape}"
        )
    used, triangles = np.unique(mesh.triangles[kept].ravel(), return_inverse=True)
    return TriangleMesh(mesh.vertices[used], triangles)


def surface_stats(mesh: TriangleMesh, slice: tuple[float, float] | None = None) -> dict:
    """Area totals and the entangled-region share of a mesh.

    ``slice`` is the (r, s) of the X states the mesh was sampled over, as
    given to :func:`sample_field`; None means Bell-diagonal states.  A
    triangle counts as entangled when the state at its centroid is, by
    :func:`~cohgeom.states.entangled_values`.  An empty mesh reports zero
    areas and fraction 0.
    """
    r, s = (0.0, 0.0) if slice is None else states._in_range(("r", "s"), slice)
    areas = mesh.triangle_areas()
    total = float(areas.sum())
    if total > 0.0:
        entangled = states.entangled_values(r, s, *mesh.centroids().T)
        fraction = float(areas[entangled].sum() / total)
    else:
        fraction = 0.0
    return {
        "total_area": total,
        "entangled_area_fraction": fraction,
        "vertex_count": int(len(mesh.vertices)),
        "triangle_count": int(len(mesh.triangles)),
    }


def export_obj(mesh: TriangleMesh, destination, metadata: dict | None = None) -> None:
    """Write a mesh as ASCII Wavefront OBJ.

    One ``v`` line per vertex with 9-significant-digit coordinates, one
    1-indexed ``f`` line per triangle, preceded by comment lines recording
    the metadata (measure, level, resolution, slice, ...).  The file at the
    path ``destination`` is written atomically through :func:`open_atomic`.
    Identical meshes and metadata produce byte-identical files.
    """
    with open_atomic(destination) as out:
        out.write("# constant-level surface mesh\n")
        for key, value in (metadata or {}).items():
            if isinstance(value, float):
                value = repr(value)
            elif value is None:
                value = "none"
            out.write(f"# {key}: {value}\n")
        out.write(f"# vertices: {len(mesh.vertices)}\n")
        out.write(f"# triangles: {len(mesh.triangles)}\n")
        out.write("v %.9g %.9g %.9g\n" * len(mesh.vertices) % tuple(mesh.vertices.flat))
        out.write("f %d %d %d\n" * len(mesh.triangles) % tuple((mesh.triangles + 1).flat))


@contextlib.contextmanager
def open_atomic(path):
    """Open an ASCII text file that appears at ``path`` only once complete.

    Writes go to a new temporary file in the same directory, which replaces
    ``path`` when the block exits normally and is removed when it raises, so
    a failed write leaves neither a partial file nor a changed old one.
    """
    temp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(temp, "x", encoding="ascii", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        if isinstance(exc, OSError) and exc.filename == temp:
            exc.filename = os.fspath(path)
        raise
