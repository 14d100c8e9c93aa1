"""Level surfaces of coherence fields over the Bell-diagonal state tetrahedron.

Samples a chosen measure on a regular grid covering [-1, 1]^3 in correlation
space (optionally for an X-state slice at fixed Bloch components, optionally
after pre-mapping the grid through a decoherence channel), extracts
constant-value surfaces with marching cubes, classifies geometry against the
separable octahedron |c1| + |c2| + |c3| <= 1, and exports meshes as Wavefront
OBJ plus flat JSON statistics.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channels, measures, states
from ._mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from .measures import MeasureKind
from .states import DomainError, TOL_PSD, bell_eigenvalues, x_eigenvalues

# Region classification slack on the octahedron boundary.
TOL_SEPARABLE = 1e-12

# Triangles at or below this area are dropped as degenerate.
DEGENERATE_AREA = 1e-14

# Nodes per c1-slab of the sampling pass.  Each worker holds a few temporaries
# of at most this size; 2^20- and 2^21-node slabs were measured no faster and
# used up to 2.5x the peak memory.
SLAB_NODES = 1 << 18

# Estimated peak bytes of a surface run per grid byte: the float64 grid,
# extract_isosurface's per-cube arrays and mesh, and the sampling slabs.
# Measured at 1.4-2.7 over a bare import at n = 192 and 256 (rel-ent, discord
# and l1 at levels 0.2-0.84, one and two threads); the larger meshes of low
# levels set the top of that range.
PEAK_PER_GRID_BYTE = 3


class RegionTag(enum.Enum):
    """Where a point in correlation space sits."""

    INVALID = "invalid"
    SEPARABLE = "separable"
    ENTANGLED = "entangled"


def classify_point(params) -> RegionTag:
    """Classify a correlation triple against the state set and the octahedron.

    Unphysical triples (any eigenvalue below -TOL_PSD, or NaN) are invalid;
    physical ones are separable when |c1| + |c2| + |c3| <= 1 and entangled
    otherwise.
    """
    c1, c2, c3 = (float(v) for v in params)
    invalid, entangled = _classify_arrays(c1, c2, c3)
    if invalid:
        return RegionTag.INVALID
    return RegionTag.ENTANGLED if entangled else RegionTag.SEPARABLE


def _classify_arrays(c1, c2, c3):
    """Vectorized classify_point returning (invalid, entangled) boolean arrays."""
    lam_min = np.minimum.reduce(bell_eigenvalues(c1, c2, c3))
    invalid = ~(lam_min >= -TOL_PSD)  # catches NaN as invalid
    entangled = ~invalid & (np.abs(c1) + np.abs(c2) + np.abs(c3) > 1.0 + TOL_SEPARABLE)
    return invalid, entangled


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
        Field to sample.  Discord is only defined on the Bell-diagonal
        family, so it cannot be combined with a slice.
    resolution : int
        Nodes per axis, at least 8; nodes include the endpoints of [-1, 1].
        A resolution whose estimated surface-run peak, PEAK_PER_GRID_BYTE
        times the 8 n^3 grid bytes, exceeds the machine's physical memory
        is rejected before anything is allocated.
    slice : (r, s), optional
        Sample X states at these fixed Bloch components instead of
        Bell-diagonal states.  Restricted to the l1 and relative-entropy
        measures.
    channel, p : optional
        Pre-map every grid triple through this decoherence channel at
        strength p, a scalar, before evaluating the measure (Bell-diagonal
        only).  Give both or neither.

    Nodes whose state is unphysical are masked with NaN; with a channel
    pre-map the mask reflects the initial (unmapped) state.  The grid is
    filled in fixed c1-slabs of about SLAB_NODES nodes by ``os.cpu_count()``
    worker threads; the output does not depend on that count.  The physical
    nodes of each (c1, c2) row form one interval of c3, whose ends are found
    by bisection, and the channel map and the measure are evaluated on those
    nodes only, so memory is the grid plus a few temporaries of a slab's
    physical node count per thread.
    """
    measure = states._member(MeasureKind, measure, "measure")
    n = int(resolution)
    if n < 8:
        raise DomainError("resolution must be at least 8")
    if slice is not None:
        if measure in (MeasureKind.DISCORD, MeasureKind.TRACE_NORM):
            raise DomainError(
                f"measure {measure.value!r} is not defined for an X-state slice"
            )
        if channel is not None:
            raise DomainError(
                "channel maps act on the Bell-diagonal family; they cannot be "
                "combined with an X-state slice"
            )
        r, s = states._in_range(("r", "s"), slice)
    if (channel is None) != (p is None):
        raise DomainError("a channel pre-map and its probability p must be given together")
    if channel is not None:
        channel = states._member(channels.ChannelKind, channel, "channel")
        if np.ndim(p) != 0:
            raise DomainError(f"p must be a scalar, got shape {np.shape(p)}")
        p = channels._check_probability(p)
    peak = PEAK_PER_GRID_BYTE * 8 * n**3
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if peak > memory:
        raise DomainError(
            f"resolution {n} needs about {peak / 2**30:.3g} GiB, more than the "
            f"{memory / 2**30:.3g} GiB of physical memory"
        )

    axis = grid_axis(n)
    values = np.full((n, n, n), np.nan)
    rows = max(1, SLAB_NODES // (n * n))
    if slice is None:
        eigenvalues, rising = bell_eigenvalues, (1, 2)
    else:
        eigenvalues, rising = functools.partial(x_eigenvalues, r, s), (0, 1)

    def fill(i0: int) -> None:
        slab = values[i0 : i0 + rows].reshape(-1)
        c1 = np.repeat(axis[i0 : i0 + rows], n)
        c2 = np.tile(axis, len(c1) // n)
        lo, hi = _physical_intervals(eigenvalues, rising, c1, c2, axis)
        length = np.maximum(hi - lo, 0)
        k = np.arange(length.sum()) + np.repeat(lo - np.cumsum(length) + length, length)
        e1, e2, e3 = np.repeat(c1, length), np.repeat(c2, length), axis[k]
        # node k of row q is entry q n + k of the slab
        node = k + np.repeat(np.arange(len(c1)) * n, length)
        if channel is not None:
            e1, e2, e3 = channels.correlation_map_values(channel, p, e1, e2, e3)
        if measure in (MeasureKind.L1, MeasureKind.TRACE_NORM):
            slab[node] = measures.l1_values(e1, e2)
        elif measure is MeasureKind.RELATIVE_ENTROPY and slice is None:
            slab[node] = measures.bell_relative_entropy_values(e1, e2, e3)
        elif measure is MeasureKind.RELATIVE_ENTROPY:
            slab[node] = measures.x_relative_entropy_values(r, s, e1, e2, e3)
        else:
            slab[node] = measures.bell_discord_values(e1, e2, e3)

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        list(pool.map(fill, range(0, n, rows)))
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
    """
    active = _corner_codes(np.isnan, vals) == 0
    code = _corner_codes(np.less, vals, level)
    active &= code != 0
    active &= code != 255
    cubes = np.flatnonzero(active)
    return cubes, _CASE_OF_CODE[code.ravel()[cubes]]


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
    order, minus those of area at most DEGENERATE_AREA.
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


def surface_stats(mesh: TriangleMesh) -> dict:
    """Area totals and the entangled-region share of a mesh.

    A triangle counts as entangled when its centroid classifies entangled.
    An empty mesh reports zero areas and fraction 0.
    """
    areas = mesh.triangle_areas()
    total = float(areas.sum())
    if total > 0.0:
        cent = mesh.centroids()
        _, entangled = _classify_arrays(cent[:, 0], cent[:, 1], cent[:, 2])
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
