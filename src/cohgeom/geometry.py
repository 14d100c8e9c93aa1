"""Level surfaces of coherence fields over the Bell-diagonal state tetrahedron.

Samples a chosen measure on a regular grid covering [-1, 1]^3 in correlation
space (optionally for an X-state slice at fixed Bloch components, optionally
after pre-mapping the grid through a decoherence channel), extracts
constant-value surfaces with marching cubes, measures the share of a surface
that lies in the entangled region by the PPT test, and exports meshes as
Wavefront OBJ plus flat JSON statistics.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _textio, channels, measures, states
from ._mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from .measures import MeasureKind
from .states import DomainError, TOL_PSD

# Triangles at or below this area are dropped as degenerate.
DEGENERATE_AREA = 1e-14

# Grid nodes per chunk of c1 layers in every n^3 pass (see _over_runs); the
# sampler of _checked_field evaluates a quarter of it per kernel call.  Each
# worker holds a few temporaries of at most this size and keeps their pages
# from one chunk to the next:
# rel-ent at n = 256 peaked at 162, 162-166, 184 and 214-221 MiB RSS after
# sampling with 1, 2, 8 and 16 workers, about 4 MiB per worker.
# level_surface, which samples only the blocks the level may cross, peaked at
# 5-60, 4-64 and 5-116 MiB over a bare import with 1, 2 and 16 workers
# (rel-ent, discord and l1 at levels 0.2 and 0.84, n = 192 and 256), the top
# set by the mesh of a low level.  2^20- and 2^21-node chunks were measured
# no faster and used up to 2.5x the peak memory; 2^17-node chunks saved 1-10
# MiB of peak but made the case pass 0.07 -> 0.09 s.
SLAB_NODES = 1 << 18

# Cubes per axis of the blocks that level_surface samples, where its halving
# search ends (see level_surface).  Two workers at n = 256, best of 5, two
# runs, before that search: 8 took rel-ent at 0.8953 to 0.078-0.090 s and
# discord at 0.2 to 0.39-0.41 s; 6 took 0.11 and 0.39-0.43 s, 12 and 16 took
# 0.08-0.09 and 0.44-0.47 s, and 4 took 0.19 and 0.48-0.49 s.  Smaller blocks
# bound the field more tightly but sample more shared nodes: a block's
# closure has (b + 1)^3 nodes for its b^3 cubes.
BLOCK_CUBES = 8

# A block is certified only when its bounds clear the level by this much, far
# above the kernels' rounding of about 1e-13.
BOUND_MARGIN = 1e-9

# Estimated peak bytes per grid byte of a surface run that holds the grid,
# sample_field then extract_isosurface: the float64 grid, the chunk
# temporaries of both passes, and the mesh with its per-vertex and
# per-triangle arrays, which grow with the surface, not the grid.  Measured at
# 1.03-1.61 over a bare import at n = 192 and 256 (rel-ent, discord and l1 at
# levels 0.2 and 0.84, one and two workers); the larger meshes of low levels
# set the top of that range.  The workers' temporaries do not grow with the
# grid: with 16 workers the ratio reached 1.7 at n = 192 and 1.5 at n = 256,
# but near the memory limit the grid is gigabytes and dominates.
# level_surface, which never holds the grid and samples only the blocks the
# level may cross, read 0.05-0.68 with one and two workers (same fields,
# levels and sizes) and at most 1.8 with 16, yet keeps this estimate as its
# guard, so both paths accept the same resolutions.
PEAK_PER_GRID_BYTE = 2


def grid_axis(resolution: int) -> np.ndarray:
    """Node coordinates covering [-1, 1] inclusive, exactly sign-symmetric.
    ``resolution``, the number of nodes, is an integer of at least 2 whose
    arrays, the integer range and the axis, fit in physical memory."""
    n = states._require_count("resolution", resolution, 2, "resolution must be at least 2")
    states._require_memory(f"resolution {n}", 16 * n)
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
        Nodes per axis, an integer of at least 8; nodes include the
        endpoints of [-1, 1].
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
    pre-map the mask reflects the initial (unmapped) state.  A node is
    physical when every closed-form eigenvalue of its state is at least
    -TOL_PSD, tested at each node as it is sampled.  Every channel scales each
    component on its own, so the channel map is applied to the axis once, and
    every measure is evaluated on the physical nodes only, through the same
    sampler as :func:`level_surface`'s.  The c1 layers are filled chunk by
    chunk on the workers of :func:`_over_runs`, and the sampler evaluates
    about SLAB_NODES / 4 nodes per kernel call, so memory is the grid plus a
    few temporaries of that size per worker, and the grid does not depend on
    the worker count.
    """
    at, _ = _checked_field(measure, resolution, slice, channel, p)
    n = int(resolution)
    values = np.empty((n, n, n))
    nodes = np.arange(n)
    _over_runs(
        np.full(n, n * n),
        lambda i0, i1: at(values[i0:i1], nodes[i0:i1, None, None], nodes[:, None], nodes),
    )
    return values


def _checked_field(measure, resolution, slice, channel, p):
    """Check a field's inputs once; return ``(at, bounds)``.

    ``at(out, i, j, k)`` writes into ``out`` the field at the nodes of
    broadcastable index arrays of its shape, NaN where a node is unphysical
    or beyond the last node of its axis.  A node is physical when every
    closed-form eigenvalue of its unmapped state is at least -TOL_PSD,
    decided by :func:`states._bell_physical` or :func:`states._x_physical`
    from the family's pair of numerators: two sums and two compares over a
    batch instead of four eigenvalue arrays and their minimum.  It
    calls the kernel on about SLAB_NODES / 4 nodes at a time, whole rows
    along ``out``'s first axis, cutting an index array only where it spans
    that axis.  Each thread keeps its last kernel output until its next call
    replaces it, so the heap never empties in bulk and malloc keeps the
    pages of freed temporaries instead of returning them to the OS.
    ``bounds(start, end)`` gives, per box of nodes from index triple
    ``start[..., :]`` to ``end[..., :]``, a range that holds the field at
    every physical node of the box up to the kernels' rounding; a box with no
    physical node gets the empty range (inf, -inf).  Raises DomainError on
    bad input, and when the grid would not fit in memory (see
    :func:`sample_field`), before anything is allocated.
    """
    measure = states._member(MeasureKind, measure, "measure")
    n = states._require_count("resolution", resolution, 8, "resolution must be at least 8")
    r, s = (0.0, 0.0) if slice is None else states._in_range(("r", "s"), slice)
    if (channel is None) != (p is None):
        raise DomainError("a channel pre-map and its probability p must be given together")
    if channel is not None:
        channel = states._member(channels.ChannelKind, channel, "channel")
        (p,) = states._in_range(("channel probability",), (p,), low=0)
    if (r, s) == (0.0, 0.0):
        physical_at = states._bell_physical
        rel_ent = measures.bell_relative_entropy_values
    elif measure is MeasureKind.DISCORD or channel is not None:
        raise DomainError(
            "discord and channel pre-maps are defined on the Bell-diagonal "
            f"family only, (r, s) = (0, 0); got (r, s) = ({r}, {s})"
        )
    else:
        physical_at = functools.partial(states._x_physical, r, s)
        rel_ent = functools.partial(measures.x_relative_entropy_values, r, s)
    states._require_memory(f"resolution {n}", PEAK_PER_GRID_BYTE * 8 * n**3)
    # per field: its kernel, its range over a box, and the coordinates it reads
    l1 = measures.l1_values, measures._l1_range, 2
    kernel, field_range, coords = {
        MeasureKind.L1: l1,
        MeasureKind.TRACE_NORM: l1,
        MeasureKind.RELATIVE_ENTROPY: (
            rel_ent, functools.partial(measures._relative_entropy_range, r, s), 3
        ),
        MeasureKind.DISCORD: (measures.bell_discord_values, measures._discord_range, 3),
    }[measure]

    axis = grid_axis(n)
    axes = (axis, axis, axis)
    if channel is not None:
        # every channel scales each component on its own, so mapping the axis
        # maps every node; the mask stays that of the unmapped state
        axes = channels.correlation_map_values(channel, p, axis, axis, axis)
    # one NaN node past each axis's last: a node beyond the grid reads it and
    # fails the test, as NaN fails every comparison
    unmapped, *axes = (np.append(ax, np.nan) for ax in (axis, *axes))

    # each thread's last kernel output, kept until its next batch replaces it
    held = threading.local()

    def at(out, i, j, k):
        index = [np.minimum(x, n) for x in (i, j, k)]
        rows = max(1, SLAB_NODES // 4 // math.prod(out.shape[1:]))
        for a in range(0, len(out), rows):
            part = out[a : a + rows]
            batch = [x[a : a + rows] if np.ndim(x) == out.ndim and len(x) > 1 else x for x in index]
            # the mask lives until the kernel is done, so the kernel's arrays
            # lie above it in the heap and the held output keeps their pages;
            # the mask is freed before the next batch takes its own
            physical = np.broadcast_to(physical_at(*(unmapped[x] for x in batch)), part.shape)
            part.fill(np.nan)
            held.field = kernel(
                *(
                    np.broadcast_to(ax[x], part.shape)[physical]
                    for ax, x in zip(axes[:coords], batch)
                )
            )
            part[physical] = held.field
            del physical

    def bounds(start, end):
        def box(along):
            return [tuple(ax[x[..., d]] for d, ax in enumerate(along)) for x in (start, end)]

        ends = box((axis,) * 3)
        eigen = measures._eigenvalue_ranges(r, s, *ends)
        # a physical node has every eigenvalue at least -TOL_PSD, and the
        # mask is that of the unmapped state
        empty = functools.reduce(np.logical_or, (top < -TOL_PSD - BOUND_MARGIN for _, top in eigen))
        if channel is not None:
            ends = box(axes)
            if coords == 3:  # the l1 and trace ranges read the ends alone
                eigen = measures._eigenvalue_ranges(r, s, *ends)
        low, high = field_range(*ends, eigen)
        return np.where(empty, np.inf, low), np.where(empty, -np.inf, high)

    return at, bounds


@dataclass
class TriangleMesh:
    """Indexed triangle mesh in correlation coordinates."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = _triples("vertices", self.vertices).astype(float, copy=False)
        triangles = _triples("triangles", self.triangles)
        # a float index must be a whole number, which NaN is not; an
        # infinite one is out of range
        if triangles.dtype.kind == "f" and not (np.trunc(triangles) == triangles).all():
            raise DomainError("triangle indices must be integers")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(self.vertices)):
            raise DomainError("triangle indices out of range")
        self.triangles = triangles.astype(int, copy=False)

    def triangle_areas(self) -> np.ndarray:
        # the corners by coordinate, (3, T) each; the edge vectors are formed
        # in place and their cross product and its length written out by
        # component, which is bitwise the np.cross and np.linalg.norm forms
        a, b, c = (self.vertices.T[:, corner] for corner in self.triangles.T)
        b -= a
        c -= a
        del a
        x = b[1] * c[2] - b[2] * c[1]
        y = b[2] * c[0] - b[0] * c[2]
        z = b[0] * c[1] - b[1] * c[0]
        del b, c
        return np.sqrt(x * x + y * y + z * z) / 2

    def centroids(self) -> np.ndarray:
        # summed a corner at a time, beside one (T, 3) array instead of a
        # (T, 3, 3) one: bitwise the mean over the corners
        a, b, c = self.triangles.T
        total = self.vertices[a]
        total += self.vertices[b]
        total += self.vertices[c]
        total /= 3
        return total


def _triples(name, value) -> np.ndarray:
    """``value``, read by :func:`states._numbers`, as rows of three."""
    a = states._numbers(name, value)
    if a.size % 3:
        raise DomainError(f"{name} must hold triples, got shape {a.shape}")
    return a.reshape(-1, 3)


# The case tables as arrays.  An edge is crossed when its two corners lie on
# opposite sides of the level; each edge starts at a lower grid node and runs
# along one axis.
_CORNER_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1
_EDGE_A, _EDGE_B = np.array(EDGE_CORNERS).T
EDGE_CROSSED = _CORNER_BITS[:, _EDGE_A] != _CORNER_BITS[:, _EDGE_B]
_OFFSET_A, _OFFSET_B = np.array(CORNER_OFFSETS)[[_EDGE_A, _EDGE_B]]
_EDGE_LOWER = np.minimum(_OFFSET_A, _OFFSET_B)
_EDGE_AXIS = np.argmax(_OFFSET_A != _OFFSET_B, axis=1)
# Each case's triangle edge list, each edge given by its rank among the
# case's crossed edges and padded with -1, and the list's length.
_TRI_LENGTHS = np.array([len(edges) for edges in TRI_TABLE])
_TRI_EDGES = np.array([edges + (-1,) * (15 - len(edges)) for edges in TRI_TABLE])
_TRI_RANKS = np.where(
    _TRI_EDGES >= 0,
    np.take_along_axis(np.cumsum(EDGE_CROSSED, axis=1) - 1, _TRI_EDGES, axis=1),
    -1,
).astype(np.int8)
# _corner_codes codes corner (di, dj, dk) as bit 4 di + 2 dj + dk; this maps a
# code to the case index of the tables, whose bit i is corner CORNER_OFFSETS[i].
_CODE_BITS = np.array(CORNER_OFFSETS) @ (4, 2, 1)
_CASE_OF_CODE = (
    ((np.arange(256)[:, None] >> _CODE_BITS) & 1) << np.arange(8)
).sum(axis=1).astype(np.uint8)


def _corner_codes(flag, *args):
    """Per-cube 8-bit codes of the per-node booleans ``flag(*args)`` over
    the last three axes: bit 4 di + 2 dj + dk is the flag at corner (di, dj,
    dk).

    The flags are combined along k, then j, then i, each pass over an array
    one node shorter along its axis; each stage is freed once the next exists,
    so the peak is about two byte arrays of the nodes' size.
    """
    code = flag(*args).view(np.uint8)
    for back, shift in ((0, 1), (1, 2), (2, 4)):
        tail = (np.s_[:],) * back
        upper = np.left_shift(code[(..., np.s_[1:], *tail)], shift)
        upper |= code[(..., np.s_[:-1], *tail)]
        code = upper
    return code


def _box_cases(boxes, origins, level, n):
    """The case pass over a batch of boxes of grid nodes.

    ``boxes`` is ``(N, A + 1, B + 1, C + 1)``: box b holds the nodes of the
    grid of n nodes per axis from node ``origins[b]`` on, NaN where a node
    is masked or beyond the grid, and no two boxes share a cube.  Returns,
    for the boxes' active cubes in cube (index) order of the grid, the case
    index of each; the key of each of their crossed edges, in cube order and
    then edge order, as lower node * 3 + axis with the node's flat index in
    the grid; and each crossed edge's interpolation parameter ``t = (level -
    va) / (vb - va)`` from its lower to its upper node.  A cube is active
    when no corner is NaN and the level separates its corners; a corner is
    below the level when its value is less than it.
    """
    active = _corner_codes(np.isnan, boxes) == 0
    code = _corner_codes(np.less, boxes, level)
    active &= code != 0
    active &= code != 255
    cubes = np.flatnonzero(active)
    box, i, j, k = np.unravel_index(cubes, active.shape)
    origin = np.asarray(origins)[box].T
    # each active cube's lowest node, flat in the boxes and flat in the grid
    local = np.ravel_multi_index((box, i, j, k), boxes.shape)
    node = ((origin[0] + i) * n + origin[1] + j) * n + origin[2] + k
    # the cubes come box by box, and the grid's cube order interleaves them
    order = np.argsort(node, kind="stable")
    cubes, local, node = cubes[order], local[order], node[order]
    case = _CASE_OF_CODE[code.reshape(-1)[cubes]]
    cube_of, edge_of = np.nonzero(EDGE_CROSSED[case])
    axis = _EDGE_AXIS[edge_of]
    _, rows, cols = boxes.shape[1:]
    stride = np.array((rows * cols, cols, 1))
    lower = local[cube_of] + (_EDGE_LOWER @ stride)[edge_of]
    flat = boxes.reshape(-1)
    va = flat[lower]
    t = (level - va) / (flat[lower + stride[axis]] - va)
    key = node[cube_of] + (_EDGE_LOWER @ (n * n, n, 1))[edge_of]
    return case, key * 3 + axis, t


def _over_runs(size, work):
    """The worker schedule of every n^3 pass, over layers along c1: node
    layers, cube layers or layers of blocks.

    ``size`` holds each layer's grid nodes, the sampled or marched ones, and
    the work on a layer is taken to grow with them.  ``os.cpu_count()``
    workers each take one contiguous run of the layers, cut so that the
    runs' total size is about equal.  A run is split into chunks of whole
    layers of about SLAB_NODES nodes: a chunk takes layers while it holds at
    most SLAB_NODES, and at least one.  Each worker with a nonempty run calls
    ``work(i0, i1)`` on its chunks' layer ranges in order: the first run on
    the calling thread, every later one on a ``threading.Thread`` of its
    own, all joined before this returns or raises.  The runs are cut by
    size, not dealt chunk by chunk as workers come free, because a pass of a
    few chunks would not balance across the workers.  Returns the results in
    chunk order; a failing run raises, the first in run order.  Every node
    is computed on its own and the chunks are joined in order, so no output
    depends on the chunks or on the workers.
    """
    workers = os.cpu_count() or 1
    total = np.cumsum(size)
    cuts = np.searchsorted(total, total[-1] * np.arange(1, workers) / workers)
    bounds = [0, *cuts.tolist(), len(size)]
    runs = []
    for start, stop in zip(bounds, bounds[1:]):
        heads, nodes = [], 0
        for i in range(start, stop):
            if not heads or nodes + size[i] > SLAB_NODES:
                heads.append(i)
                nodes = 0
            nodes += size[i]
        if heads:
            runs.append(list(zip(heads, heads[1:] + [stop])))
    results = [None] * len(runs)

    def take(index):
        try:
            results[index] = [work(i0, i1) for i0, i1 in runs[index]]
        except BaseException as exc:
            results[index] = exc

    started = []
    try:
        for index in range(1, len(runs)):
            thread = threading.Thread(target=take, args=(index,))
            thread.start()
            started.append(thread)
        take(0)
    finally:
        for thread in started:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return [chunk for run in results for chunk in run]


def _march(n, size, cases):
    """Marching cubes over a grid of n nodes per axis, given in layers.

    The layers, of ``size`` nodes each, are scheduled by :func:`_over_runs`;
    ``cases(i0, i1)`` gives the :func:`_box_cases` output for the cubes of
    layers ``[i0, i1)``, which come before those of later layers in cube
    order.
    """
    chunks = _over_runs(size, cases)
    case, key, t = (np.concatenate(column) for column in zip(*chunks))
    # each stage's inputs are dropped once used, so the triangle areas are
    # computed beside the mesh alone, not beside the whole build
    del chunks
    vertex, points = _number_vertices(n, key, t)
    del key, t
    mesh = TriangleMesh(points, vertex[_triangle_pairs(case)])
    del case, vertex
    mesh.triangles = mesh.triangles[mesh.triangle_areas() > DEGENERATE_AREA]
    return mesh


def _number_vertices(n, key, t):
    """The vertex of each crossed pair, and each vertex's point.

    Pairs are keyed by lower node and axis as node * 3 + axis, with their
    interpolation parameters ``t``; the distinct keys are numbered by first
    occurrence, and the points come in that order.
    """
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    node, ax = np.divmod(key[first], 3)
    lo = np.stack(np.unravel_index(node, (n, n, n)), axis=1)
    rows = np.arange(len(lo))
    a = lo[rows, ax]
    axis = grid_axis(n)
    points = axis[lo]
    points[rows, ax] = axis[a] + t[first] * (axis[a + 1] - axis[a])
    return rank[inverse], points


def _triangle_pairs(case):
    """Each triangle corner's crossed pair, given the active cubes' cases.

    A cube's crossed pairs are consecutive, so a corner is its cube's first
    pair plus the rank of its edge among the case's crossed edges.
    """
    count = EDGE_CROSSED.sum(axis=1)[case]
    ranks = _TRI_RANKS[case]
    return np.repeat(np.cumsum(count) - count, _TRI_LENGTHS[case]) + ranks[ranks >= 0]


def _check_level(level) -> float:
    value = states._numbers("level", level)
    if value.ndim:
        raise DomainError(f"level must be a number, got shape {value.shape}")
    level = float(value)
    if not level > 0.0:
        raise DomainError(f"level must be positive, got {level}")
    return level


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
    order, minus those of area at most DEGENERATE_AREA.  The case pass
    (:func:`_box_cases`) runs on the workers of :func:`_over_runs` over
    chunks of whole cube layers, n^2 nodes each, each chunk one box.
    Crossed edges are keyed by one flat integer, so the mesh build holds
    arrays the size of the mesh, not of the grid.
    """
    vals = states._numbers("grid", grid).astype(float, copy=False)
    if vals.ndim != 3 or len(set(vals.shape)) != 1:
        raise DomainError(f"grid must be cubic, got shape {vals.shape}")
    n = vals.shape[0]
    if n < 8:
        raise DomainError("grid resolution must be at least 8 per axis")
    level = _check_level(level)

    def cases(i0, i1):
        return _box_cases(vals[None, i0 : i1 + 1], [(i0, 0, 0)], level, n)

    return _march(n, np.full(n - 1, n * n), cases)


def level_surface(
    measure,
    resolution: int,
    level: float,
    slice: tuple[float, float] | None = None,
    channel=None,
    p: float | None = None,
) -> TriangleMesh:
    """The level surface of a sampled field, sampling only where it can lie.

    Returns ``extract_isosurface(sample_field(measure, resolution, slice,
    channel, p), level)`` bit for bit, and raises the same DomainError for
    the same bad input, in the same order; that includes sample_field's
    memory guard, which still estimates the peak as PEAK_PER_GRID_BYTE times
    the 8 n^3 grid bytes.

    The cubes are split into blocks of BLOCK_CUBES per axis.  Interval
    bounds on the closed forms, taken from a box's end coordinates, certify
    a box whose physical nodes all lie below the level, or all at or above
    it, with BOUND_MARGIN to spare, or that holds no physical node.  From
    one box of a power of two blocks per axis over the grid, each halving
    bounds the 8 children of every box left, down to the blocks' eighths,
    whose bounds are tighter, and a block stays when any eighth may hold the
    level (min/max culling: Wilhelms and Van Gelder, ACM TOG 11(3), 1992);
    so the bounds follow the surface, not the grid.  Only the kept blocks
    are sampled, on their closure nodes, and marched by block layers on the
    workers of :func:`_over_runs`, so the n^3 grid is never held.

    Why the bytes cannot change: a block is dropped only when each of its
    cubes lies in a certified box, which holds no active cube, since its
    nodes all lie on one side of the level or are NaN.  Every cube lies in
    one block, and all 8 of its corners are in that block's closure, sampled
    as sample_field samples them, by elementwise kernels.  So every active
    cube gets the same case, keys and ``t``; within a chunk the cubes are
    sorted into cube order, and chunks follow it too, so the vertex and
    triangle order are those of the two-step path.
    """
    at, bounds = _checked_field(measure, resolution, slice, channel, p)
    level = _check_level(level)
    n = int(resolution)

    # the bounds hold a few dozen temporaries per box: SLAB_NODES / 64 per call
    step = max(1, SLAB_NODES // 512)
    size = BLOCK_CUBES << ((n - 2) // BLOCK_CUBES).bit_length()
    origins = np.zeros((1, 3), dtype=int)
    while size > BLOCK_CUBES // 2 and len(origins):
        size //= 2
        kept = []
        for parent in (origins[b : b + step] for b in range(0, len(origins), step)):
            corner = parent[:, None] + size * np.indices((2, 2, 2)).reshape(3, -1).T
            low, high = bounds(np.minimum(corner, n - 1), np.minimum(corner + size, n - 1))
            certified = (high + BOUND_MARGIN < level) | (low - BOUND_MARGIN >= level)
            may = ~certified & (corner < n - 1).all(axis=-1)
            kept.append(parent[may.any(axis=1)] if size < BLOCK_CUBES else corner[may])
        origins = np.concatenate(kept)
    # the blocks come in tree order, and the case pass takes them by layer
    origins = origins[np.argsort(origins[:, 0], kind="stable")]
    per_layer = np.bincount(origins[:, 0] // BLOCK_CUBES, minlength=(n - 2) // BLOCK_CUBES + 1)
    first = np.concatenate(([0], np.cumsum(per_layer)))
    closure = np.arange(BLOCK_CUBES + 1)

    def cases(b0, b1):
        origin = origins[first[b0] : first[b1]]
        boxes = np.empty((len(origin),) + (len(closure),) * 3)
        corner = origin[:, :, None, None, None]
        i = corner[:, 0] + closure[:, None, None]
        j = corner[:, 1] + closure[:, None]
        k = corner[:, 2] + closure
        at(boxes, i, j, k)
        return _box_cases(boxes, origin, level, n)

    return _march(n, per_layer * len(closure) ** 3, cases)


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
    path ``destination`` is written atomically.  Identical meshes and
    metadata produce byte-identical files.  Lines are formatted and written
    ``_textio.BLOCK_ROWS`` at a time, so the text of the whole mesh is never
    held.  A block's lines are assembled as rows of bytes: each distinct
    coordinate of the block is formatted once, by Python's ``"%.9g"``, and
    each index is spelled out digit by digit, so the bytes are those of
    ``"v %.9g %.9g %.9g"`` and ``"f %d %d %d"`` for every line.  A
    ``destination`` that is neither a str nor a path object raises
    DomainError; one that cannot be written raises OSError.
    """
    if not isinstance(destination, (str, os.PathLike)):
        raise DomainError(f"destination must be a path, got {destination!r}")
    with _textio.open_atomic(destination) as out:
        out.write("# constant-level surface mesh\n")
        for key, value in (metadata or {}).items():
            if isinstance(value, float):
                value = repr(float(value))
            elif value is None:
                value = "none"
            out.write(f"# {key}: {value}\n")
        out.write(f"# vertices: {len(mesh.vertices)}\n")
        out.write(f"# triangles: {len(mesh.triangles)}\n")
        for start in range(0, len(mesh.vertices), _textio.BLOCK_ROWS):
            block = mesh.vertices[start : start + _textio.BLOCK_ROWS]
            # each distinct coordinate once, told apart by its bits so that
            # -0.0 and 0.0 stay apart; "%.9g" of a double fits in 16
            # characters, the longest being -1.23456789e-308
            distinct, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
            text = "%16.9g" * len(distinct) % tuple(distinct.view(float).tolist())
            assert len(text) == 16 * len(distinct)
            table = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 16)
            out.write(_lines("v", table[inverse].reshape(len(block), 3, 16)))
        # the 1-based indices in the smallest unsigned type that holds them,
        # where integer division by a scalar is fastest
        width, kind = len(str(len(mesh.vertices))), np.min_scalar_type(len(mesh.vertices))
        for start in range(0, len(mesh.triangles), _textio.BLOCK_ROWS):
            index = (mesh.triangles[start : start + _textio.BLOCK_ROWS] + 1).astype(kind)
            # the digits of each index by position, blank before its first
            digits = np.empty((width,) + index.shape, np.uint8)
            rest = index
            for position in range(width - 1, -1, -1):
                tens = rest // 10
                digits[position] = rest - 10 * tens + ord("0")
                rest = tens
            digits[index < 10 ** np.arange(width - 1, -1, -1)[:, None, None]] = ord(" ")
            out.write(_lines("f", digits.transpose(1, 2, 0)))


# Maps the field separator of _lines to a space.
_SEPARATOR = bytes.maketrans(b"\t", b" ")


def _lines(tag, fields):
    """One text line per row of ``fields``, a ``(rows, 3, width)`` uint8
    array of right-aligned ASCII fields padded with spaces: the tag, then
    each field after one space, then a newline, with the pads dropped."""
    rows, _, width = fields.shape
    line = np.empty((rows, 3 * (width + 1) + 2), np.uint8)
    line[:, 0] = ord(tag)
    line[:, -1] = ord("\n")
    body = line[:, 1:-1].reshape(rows, 3, width + 1)
    # a tab marks each separator while the pads are deleted
    body[:, :, 0] = ord("\t")
    body[:, :, 1:] = fields
    return line.tobytes().translate(_SEPARATOR, b" ").decode("ascii")
