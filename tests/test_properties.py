"""Property tests over random physical Bell-diagonal correlation triples.

A triple is drawn as a random point of the state tetrahedron: four
non-negative weights, normalized, are the state's eigenvalues, and the
correlations follow from them.  The sampled-grid property draws X-state
slices and channel pre-maps instead, the triangle-filter property builds
meshes on random triples, the block-bound property draws boxes of grid
nodes, the level-surface property draws fields and sizes, and the symmetry,
partial-transpose and discord-oracle properties draw a seed for verify's
samplers of physical Bell-diagonal and X states, the OBJ-writer property
draws coordinates, mesh sizes and row blocks, and the physicality property
draws grid nodes and c3 values a few ulps from the PSD boundary.
The draws are derandomized, so the suite is deterministic.
"""

import itertools
import os
import pathlib
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cohgeom import _textio, geometry, measures, states
from cohgeom.channels import ChannelKind, correlation_map_values, default_p_grid
from cohgeom.geometry import (
    BOUND_MARGIN,
    TriangleMesh,
    export_obj,
    extract_isosurface,
    filter_triangles,
    grid_axis,
    level_surface,
    sample_field,
)
from cohgeom.measures import (
    TOL_EQ,
    bell_discord_values,
    bell_relative_entropy_values,
    discord_equals_coherence_values,
    l1_values,
    x_relative_entropy_values,
)
from cohgeom.states import (
    PAULIS,
    TOL_PSD,
    bell_eigenvalues,
    entangled_values,
    hermitian_spectrum,
    x_density,
    x_diagonal,
    x_eigenvalues,
)
from cohgeom.verification import sample_physical_bell, sample_physical_x

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def bell_triples(draw):
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    assume(weights.sum() > 0.0)
    l0, l1, l2, l3 = weights / weights.sum()
    c = np.array([l2 + l3 - l0 - l1, l1 + l3 - l0 - l2, l1 + l2 - l0 - l3])
    return tuple(np.clip(c, -1.0, 1.0))


BELL_VERTICES = [(1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, -1.0)]


def with_vertices(test):
    for vertex in BELL_VERTICES:
        test = example(vertex)(test)
    return example((0.0, 0.0, 0.0))(test)


@SETTINGS
@given(bell_triples())
@with_vertices
def test_transverse_sign_flip_symmetry(params):
    c1, c2, c3 = params
    assert abs(l1_values(c1, c2) - l1_values(-c1, -c2)) <= 1e-15
    for values in (bell_relative_entropy_values, bell_discord_values):
        assert abs(values(c1, c2, c3) - values(-c1, -c2, c3)) <= 1e-15
    mirrored = entangled_values(0.0, 0.0, -c1, -c2, c3)
    assert entangled_values(0.0, 0.0, c1, c2, c3) == mirrored


@SETTINGS
@given(bell_triples())
@with_vertices
def test_channels_keep_states_physical_and_do_not_raise_coherence(params):
    p = default_p_grid(101)
    for kind in ChannelKind:
        mapped = correlation_map_values(kind, p, *params)
        assert np.minimum.reduce(bell_eigenvalues(*mapped)).min() >= -TOL_PSD
        assert np.diff(bell_relative_entropy_values(*mapped)).max() <= 1e-12


@SETTINGS
@given(bell_triples())
@with_vertices
def test_discord_bounded_by_coherence(params):
    discord = bell_discord_values(*params)
    coherence = bell_relative_entropy_values(*params)
    assert discord <= coherence + 1e-12
    # off the predicate the gap closes at its boundary, so no strict inequality
    if discord_equals_coherence_values(*params):
        assert abs(discord - coherence) <= 1e-12


@SETTINGS
@given(bell_triples())
@with_vertices
def test_equality_kernel_matches_scalar_predicate(params):
    # the kernel gives the rule's answer on scalars and on one-entry columns
    c1, c2, c3 = (float(v) for v in params)
    column = discord_equals_coherence_values(*(np.array([v]) for v in params))
    assert column.shape == (1,)
    scalar = discord_equals_coherence_values(c1, c2, c3)
    assert bool(column[0]) is bool(scalar)
    assert bool(scalar) is (abs(c3) >= max(abs(c1), abs(c2)) - TOL_EQ)


def filter_per_centroid(mesh, keep):
    """filter_triangles as a Python loop over the centroids: the oracle."""
    kept = np.array([bool(keep(*c)) for c in mesh.centroids()], dtype=bool)
    used, triangles = np.unique(mesh.triangles[kept].ravel(), return_inverse=True)
    return TriangleMesh(mesh.vertices[used], triangles)


@SETTINGS
@given(
    points=st.lists(bell_triples(), max_size=8),
    corners=st.lists(st.tuples(*[st.integers(0, 99)] * 3), max_size=20),
)
# every triangle of the Bell vertices has its centroid on a tie |c3| = |c1|
@example(points=[], corners=[(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 4)])
@example(points=[], corners=[])
def test_filter_triangles_matches_per_centroid_loop(points, corners):
    # Bell vertices and the origin, then the drawn triples; centroids of
    # physical triples are physical, as the predicate requires
    vertices = np.array(BELL_VERTICES + [(0.0, 0.0, 0.0)] + points)
    triangles = np.array(corners, dtype=int).reshape(-1, 3) % len(vertices)
    mesh = TriangleMesh(vertices, triangles)
    expected = filter_per_centroid(mesh, discord_equals_coherence_values)
    got = filter_triangles(mesh, discord_equals_coherence_values)
    assert np.array_equal(got.vertices, expected.vertices)
    assert np.array_equal(got.triangles, expected.triangles)


@SETTINGS
@given(
    rs=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    kind=st.sampled_from(ChannelKind),
    p=st.floats(0.0, 1.0),
    n=st.sampled_from([8, 9, 20]),
)
# rows, and whole slabs, without a physical node
@example(rs=(0.9, 0.9), kind=ChannelKind.BIT_FLIP, p=0.5, n=20)
@example(rs=(1.0, 0.0), kind=ChannelKind.AMPLITUDE_DAMPING, p=1.0, n=9)
# the slice (0, 0) is the Bell-diagonal family, whatever the sign of zero
@example(rs=(0.0, 0.0), kind=ChannelKind.PHASE_FLIP, p=0.3, n=20)
@example(rs=(0.0, -0.0), kind=ChannelKind.BIT_FLIP, p=0.7, n=9)
def test_sampled_grid_matches_per_node_mask(rs, kind, p, n):
    c = np.meshgrid(*[grid_axis(n)] * 3, indexing="ij")
    physical = np.minimum.reduce(bell_eigenvalues(*c)) >= -TOL_PSD
    if rs == (0.0, 0.0):
        x_field = np.where(physical, bell_relative_entropy_values(*c), np.nan)
    else:
        x_physical = np.minimum.reduce(x_eigenvalues(*rs, *c)) >= -TOL_PSD
        x_field = np.where(x_physical, x_relative_entropy_values(*rs, *c), np.nan)
    mapped = correlation_map_values(kind, p, *c)
    field = np.where(physical, bell_relative_entropy_values(*mapped), np.nan)
    with pytest.MonkeyPatch.context() as patch:
        # 3-layer chunks, a run's last one partial unless 3 divides its length
        patch.setattr(geometry, "SLAB_NODES", 3 * n * n)
        # one sampling worker, then two
        patch.setattr(os, "cpu_count", lambda: 1)
        got_x = sample_field("rel-ent", n, slice=rs)
        patch.setattr(os, "cpu_count", lambda: 2)
        got = sample_field("rel-ent", n, channel=kind, p=p)
    assert np.array_equal(got_x, x_field, equal_nan=True)
    assert np.array_equal(got, field, equal_nan=True)


seeds = st.integers(0, 2**32 - 1)
PAIR_FLIPS = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]


@SETTINGS
@given(seeds)
def test_discord_invariant_under_permutations_and_pair_sign_flips(seed):
    c = sample_physical_bell(100, np.random.default_rng(seed)).T
    base = bell_discord_values(*c)
    for order in itertools.permutations(range(3)):
        for flip in PAIR_FLIPS:
            moved = [sign * c[axis] for sign, axis in zip(flip, order)]
            assert np.abs(bell_discord_values(*moved) - base).max() <= 1e-12


@SETTINGS
@given(seeds)
def test_relative_entropy_c1_c2_swap_and_x_reduction(seed):
    c1, c2, c3 = sample_physical_bell(100, np.random.default_rng(seed)).T
    base = bell_relative_entropy_values(c1, c2, c3)
    assert np.abs(bell_relative_entropy_values(c2, c1, c3) - base).max() <= 1e-12
    assert np.abs(x_relative_entropy_values(0.0, 0.0, c1, c2, c3) - base).max() <= 1e-12


@SETTINGS
@given(seeds)
def test_x_relative_entropy_bloch_symmetries(seed):
    r, s, *c = sample_physical_x(100, np.random.default_rng(seed)).T
    base = x_relative_entropy_values(r, s, *c)
    for moved in ((s, r), (-r, -s)):
        assert np.abs(x_relative_entropy_values(*moved, *c) - base).max() <= 1e-12


def partial_transpose(rho):
    """Transpose of the second qubit of a (..., 4, 4) stack, by index shuffle:
    entry (ab, cd) goes to (ad, cb)."""
    shape = rho.shape
    return rho.reshape(shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(shape)


@SETTINGS
@given(seeds)
def test_entangled_values_match_numeric_partial_transpose(seed):
    # the oracle builds each density matrix, partially transposes it and
    # takes its LAPACK spectrum: no closed form shared with the kernel
    rows = sample_physical_x(2000, np.random.default_rng(seed))
    lowest = hermitian_spectrum(partial_transpose(x_density(rows.T)))[:, -1]
    entangled = entangled_values(*rows.T)
    assert np.array_equal(entangled, lowest < -TOL_PSD)
    assert entangled.any() and not entangled.all()


# A field of every measure: on the Bell-diagonal family with and without a
# channel pre-map, or on one of two X slices, one near the benchmark's.
fields = st.one_of(
    st.tuples(
        st.sampled_from(["l1", "trace", "rel-ent", "discord"]),
        st.none(),
        st.sampled_from([None, *ChannelKind]),
        st.floats(0.0, 1.0),
    ),
    st.tuples(
        st.sampled_from(["l1", "trace", "rel-ent"]),
        st.sampled_from([(0.3, -0.2), (-0.0131, 0.0634)]),
        st.none(),
        st.none(),
    ),
)


@SETTINGS
@given(
    field=fields,
    n=st.integers(8, 200),
    box=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=3, max_size=3),
    seed=seeds,
)
# a box around the vertex (1, 1, 1), which holds no physical state
@example(field=("rel-ent", None, None, None), n=40, box=[(0.9, 1.0)] * 3, seed=0)
# a box over the whole tetrahedron, where each eigenvalue passes 1/e
@example(field=("discord", None, None, None), n=40, box=[(0.0, 1.0)] * 3, seed=0)
def test_block_bounds_hold_the_field(field, n, box, seed):
    # the bounds that level_surface certifies blocks with, against the field
    # at random nodes and the corners of a box of nodes of random size
    measure, rs, kind, p = field
    if kind is None:
        p = None
    at, bounds = geometry._checked_field(measure, n, rs, kind, p)
    starts = np.array([int(u * (n - 1)) for u, _ in box])
    ends = starts + [int(v * (n - 1 - s)) for (_, v), s in zip(box, starts)]
    low, high = bounds(starts, ends)
    rng = np.random.default_rng(seed)
    corners = np.array(list(itertools.product(*zip(starts, ends))))
    nodes = [
        np.concatenate((rng.integers(s, e + 1, 500), corner))
        for s, e, corner in zip(starts, ends, corners.T)
    ]
    values = np.empty(len(nodes[0]))
    at(values, *nodes)
    physical = np.isfinite(values)
    if low > high:
        # certified to hold no physical node
        assert (low, high) == (np.inf, -np.inf)
        assert not physical.any()
    assert (low - BOUND_MARGIN <= values[physical]).all()
    assert (values[physical] <= high + BOUND_MARGIN).all()
    # the terms the bounds are built from, at every node of the box: each
    # eigenvalue and each diagonal entry of the unmapped state, and its
    # x log2 x; the diagonal's ranges are the first that
    # _relative_entropy_range hands to _entropy_range
    rs = rs or (0.0, 0.0)
    axis = grid_axis(n)
    ranges = measures._eigenvalue_ranges(*rs, axis[starts], axis[ends])
    with mock.patch.object(measures, "_entropy_range", wraps=measures._entropy_range) as built:
        measures._relative_entropy_range(*rs, axis[starts], axis[ends], ranges)
    ranges += built.call_args_list[0].args[0]
    lam = x_eigenvalues(*rs, *(axis[x] for x in nodes)) + x_diagonal(*rs, axis[nodes[2]])
    for v, (v_lo, v_hi) in zip(lam, ranges, strict=True):
        assert (v_lo - BOUND_MARGIN <= v).all() and (v <= v_hi + BOUND_MARGIN).all()
        f_lo, f_hi = measures._xlog2x_range(v_lo, v_hi)
        f = measures._xlog2x(v)
        assert (f_lo - BOUND_MARGIN <= f).all() and (f <= f_hi + BOUND_MARGIN).all()


@SETTINGS
@given(field=fields, n=st.integers(8, 48), cpus=st.integers(1, 3), seed=seeds)
def test_level_surface_equals_the_two_step_path(field, n, cpus, seed):
    # the mesh is exact only if every certified box is sound; a level taken
    # from the field's own nodes sits where boxes are marginal
    measure, rs, kind, p = field
    if kind is None:
        p = None
    grid = sample_field(measure, n, slice=rs, channel=kind, p=p)
    values = grid[grid > 0.0]
    assume(values.size)
    level = np.random.default_rng(seed).choice(values)
    expected = extract_isosurface(grid, level)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "cpu_count", lambda: cpus)
        mesh = level_surface(measure, n, level, slice=rs, channel=kind, p=p)
    assert mesh.vertices.tobytes() == expected.vertices.tobytes()
    assert mesh.triangles.tobytes() == expected.triangles.tobytes()


def entropy(spectra):
    """Entropy in bits of each spectrum along the last axis, 0 log 0 = 0."""
    lam = np.clip(spectra, 0.0, None)
    return -np.sum(lam * np.log2(np.where(lam > 0.0, lam, 1.0)), axis=-1)


def measurement_directions(count):
    """``count`` Fibonacci points on the upper unit hemisphere plus the three
    axes; a direction and its opposite give the same measurement."""
    height = (np.arange(count) + 0.5) / count
    angle = np.pi * (3 - np.sqrt(5)) * np.arange(count)
    ring = np.sqrt(1 - height**2)
    points = np.stack([ring * np.cos(angle), ring * np.sin(angle), height], axis=1)
    return np.concatenate([np.eye(3), points])


def discord_by_definition(c, directions):
    """Discord of the Bell-diagonal states with correlation rows ``c`` after
    a projective measurement of qubit B along each direction: the mutual
    information minus the classical correlation it reveals, S(B) - S(AB) +
    sum over outcomes of p S(A | outcome) (Ollivier and Zurek, PRL 88,
    017901; Henderson and Vedral, J. Phys. A 34, 6899).  Density matrices,
    partial traces and LAPACK spectra only, as an ``(N, M)`` array."""
    eye = np.eye(2)
    rho = (np.eye(4) + np.einsum("ni,iab->nab", c, [np.kron(s, s) for s in PAULIS])) / 4
    joint = rho.reshape(-1, 2, 2, 2, 2)
    rho_b = np.einsum("nabac->nbc", joint)
    base = entropy(np.linalg.eigvalsh(rho_b)) - entropy(np.linalg.eigvalsh(rho))
    sigma_n = np.einsum("mi,iab->mab", directions, PAULIS)
    total = base[:, None]
    for sign in (1, -1):
        projector = np.kron(eye, (eye + sign * sigma_n) / 2)
        after = np.einsum("mab,nbc,mcd->nmad", projector, rho, projector)
        rho_a = np.einsum("nmabcb->nmac", after.reshape(after.shape[:2] + (2, 2, 2, 2)))
        weight = np.trace(rho_a, axis1=-2, axis2=-1).real
        safe = np.where(weight > 0.0, weight, 1.0)[..., None, None]
        total = total + weight * entropy(np.linalg.eigvalsh(rho_a / safe))
    return total


@settings(derandomize=True, max_examples=2, deadline=None)
@given(seeds)
def test_closed_form_discord_matches_its_definition(seed):
    # the minimum over measurement directions is the discord: no direction
    # gives less than the closed form, and the best one attains it
    c = sample_physical_bell(100, np.random.default_rng(seed))
    numeric = discord_by_definition(c, measurement_directions(100))
    closed = bell_discord_values(*c.T)
    assert (numeric >= closed[:, None] - 1e-12).all()
    assert np.abs(numeric.min(axis=1) - closed).max() <= 1e-12


def obj_lines_by_percent(mesh):
    """export_obj's v and f lines as Python's % formats them: the oracle."""
    v = "".join("v %.9g %.9g %.9g\n" % tuple(row) for row in mesh.vertices.tolist())
    return v + "".join("f %d %d %d\n" % tuple(row) for row in (mesh.triangles + 1).tolist())


@st.composite
def nine_digit_ties(draw):
    """A double next to a 9-significant-digit rounding tie: the nearest
    double to the decimal m.5 * 10^e, moved up to 2 ulps either way."""
    digits = draw(st.integers(10**8, 10**9 - 1))
    exponent = draw(st.integers(-330, 298))
    tie = float(f"{'-' if draw(st.booleans()) else ''}{digits}5e{exponent}")
    for _ in range(draw(st.integers(0, 2))):
        tie = np.nextafter(tie, draw(st.sampled_from([-np.inf, np.inf])))
    return float(tie)


coordinates = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.23456789e-308,
         float(np.nextafter(1.0, 0.0)), -float(np.nextafter(1.0, 0.0)), 1.0, 1e-4,
         float(np.nextafter(1e-4, 0.0)), 1e300, -1e-300, 1.7976931348623157e308]
    ),
    st.floats(),
    st.floats(-1e-4, 1e-4),
    st.floats(-1.0, 1.0),
    nine_digit_ties(),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    values=st.lists(coordinates, min_size=1, max_size=40),
    # vertex counts on either side of a change in the f lines' digit count
    vertex_count=st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]),
    triangle_count=st.integers(0, 120),
    rows=st.sampled_from([3, 7, 64, _textio.BLOCK_ROWS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_obj_lines_match_percent_formatting(values, vertex_count, triangle_count, rows, seed):
    rng = np.random.default_rng(seed)
    vertices = np.array(values)[rng.integers(0, len(values), (vertex_count, 3))]
    # the first and last vertex are always used, so the widest and narrowest
    # indices both appear
    triangles = rng.integers(0, vertex_count, (triangle_count + 1, 3))
    triangles[-1, :2] = 0, vertex_count - 1
    mesh = TriangleMesh(vertices, triangles)
    with tempfile.TemporaryDirectory() as root, mock.patch.object(_textio, "BLOCK_ROWS", rows):
        path = pathlib.Path(root, "mesh.obj")
        export_obj(mesh, path)
        text = path.read_text()
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    assert body == obj_lines_by_percent(mesh)


def ulps_around(values, steps=3):
    """``values`` and each of them moved 1 to ``steps`` ulps either way."""
    out, up, down = [values], values, values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def crossings(rs, c1, c2, floor):
    """The c3 values at which a numerator of the positivity pair of the
    states (rs, c1, c2, c3), Bell-diagonal when ``rs`` is None, equals
    ``floor``."""
    if rs is None:
        a, b = 1 - c1, 1 + c1
        plus = np.concatenate([(a + c2).ravel(), (b - c2).ravel()])
        minus = np.concatenate([(a - c2).ravel(), (b + c2).ravel()])
        return np.concatenate([floor - plus, minus - floor])
    r, s = rs
    outer = np.sqrt((r + s) ** 2 + (c1 - c2) ** 2).ravel()
    inner = np.sqrt((r - s) ** 2 + (c1 + c2) ** 2).ravel()
    return np.concatenate([outer - 1 + floor, 1 - inner - floor])


@SETTINGS
@given(
    n=st.integers(8, 300),
    # node n stands for the NaN node past each axis's last, as in the sampler
    nodes=st.lists(st.integers(0, 300), min_size=2, max_size=8),
    rs=st.none() | st.tuples(*[st.sampled_from([0.0, 0.9, -0.9]) | st.floats(-1.0, 1.0)] * 2),
)
# c1 = 1 and c2 = 0 make a Bell numerator exactly 0 + c3, so one c3 puts it
# exactly on -4 TOL_PSD, where the smallest eigenvalue is exactly -TOL_PSD
@example(n=9, nodes=[8, 4], rs=None)
def test_physical_test_is_the_eigenvalue_test_bit_for_bit(n, nodes, rs):
    # every positivity decision reads a family's pair of numerators where the
    # eigenvalues take four arrays; c3 is drawn where a numerator crosses 0
    # and -4 TOL_PSD, the edges of the sampler's tests, where a numerator of
    # the partial transpose crosses -TOL_PSD, the edge of the PPT test, and
    # at the grid's own nodes, at +-0.0 and at NaN
    axis = np.append(grid_axis(n), np.nan)
    half = len(nodes) // 2
    c1 = axis[np.minimum(nodes[:half], n)][:, None]
    c2 = axis[np.minimum(nodes[half:], n)]
    floor = -4 * TOL_PSD
    r, s = (0.0, 0.0) if rs is None else rs
    edges = [
        crossings(rs, c1, c2, 0.0),
        crossings(rs, c1, c2, floor),
        crossings((r, s), c1, -c2, -TOL_PSD),
    ]
    c3 = np.concatenate([ulps_around(np.concatenate(edges)), axis, [0.0, -0.0]])
    c1, c2 = c1[..., None], c2[:, None]
    if rs is None:
        lam = bell_eigenvalues(c1, c2, c3)
        pair = states._bell_low(c1, c2, c3)
        physical = states._bell_physical(c1, c2, c3)
    else:
        lam = x_eigenvalues(*rs, c1, c2, c3)
        pair = states._x_low(*rs, c1, c2, c3)
        physical = states._x_physical(*rs, c1, c2, c3)
    smallest = np.minimum.reduce(np.broadcast_arrays(*lam))
    # as values, NaN included; only the sign of a zero may differ
    assert np.array_equal(np.minimum(*pair) / 4, smallest, equal_nan=True)
    assert physical.shape == smallest.shape
    assert np.array_equal(physical, smallest >= -TOL_PSD)
    transposed = np.minimum.reduce(np.broadcast_arrays(*x_eigenvalues(r, s, c1, -c2, c3)))
    assert np.array_equal(entangled_values(r, s, c1, c2, c3), transposed < -TOL_PSD / 4)


@SETTINGS
@given(
    n=st.integers(8, 300),
    rs=st.none() | st.tuples(*[st.sampled_from([0.0, 0.9, -0.9]) | st.floats(-1.0, 1.0)] * 2),
    p=st.floats(0.0, 1.0),
    seed=seeds,
)
@example(n=300, rs=None, p=0.5, seed=0)
@example(n=9, rs=(0.9, -0.9), p=0.0, seed=1)
def test_certification_reads_the_positivity_pair(n, rs, p, seed):
    # a box holds no physical node when a -root range's top, one of the
    # pair's, is below the threshold: exactly as when any of the four tops
    # is, on unmapped boxes and on boxes mapped by each channel; and the
    # bounds give the empty range on exactly those unmapped boxes
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n, (400, 3))
    ends = starts + rng.integers(0, n - starts)
    # single nodes too, where each top is an eigenvalue at a node
    ends[::4] = starts[::4]
    axis = grid_axis(n)
    threshold = -TOL_PSD - BOUND_MARGIN

    def decided(lo, hi):
        eigen = measures._eigenvalue_ranges(*(rs or (0.0, 0.0)), lo, hi)
        by_pair = (eigen[1][1] < threshold) | (eigen[3][1] < threshold)
        by_fold = np.logical_or.reduce([top < threshold for _, top in eigen])
        assert np.array_equal(by_pair, by_fold)
        return by_fold

    empty = decided(axis[starts].T, axis[ends].T)
    low, high = geometry._checked_field("l1", n, rs, None, None)[1](starts, ends)
    assert np.array_equal(empty, (low == np.inf) & (high == -np.inf))
    if rs is None:
        for kind in ChannelKind:
            mapped = correlation_map_values(kind, p, axis, axis, axis)
            decided(*(np.array([m[x] for m, x in zip(mapped, box.T)]) for box in (starts, ends)))


@SETTINGS
@given(
    c=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    rs=st.none() | st.tuples(*[st.sampled_from([0.0, 0.9, -0.9]) | st.floats(-1.0, 1.0)] * 2),
)
@example(c=[1.0, 0.0], rs=None)
def test_require_physical_is_the_eigenvalue_test(c, rs):
    # points within 3 ulps of where a numerator of the pair crosses 0 or
    # -4 TOL_PSD: accepted exactly where every eigenvalue is at least
    # -TOL_PSD and every parameter in range, refused with the smallest
    # eigenvalue otherwise
    c1, c2 = np.array(c)
    edges = np.concatenate([crossings(rs, c1, c2, f) for f in (0.0, -4 * TOL_PSD)])
    for c3 in ulps_around(edges).tolist():
        params = (c1, c2, c3) if rs is None else (*rs, c1, c2, c3)
        check = states.require_physical_bell if rs is None else states.require_physical_x
        lam = bell_eigenvalues(*params) if rs is None else x_eigenvalues(*params)
        smallest = np.minimum.reduce(lam)
        if not -1.0 <= c3 <= 1.0:
            with pytest.raises(states.DomainError, match="c3 must lie in"):
                check(params)
        elif smallest >= -TOL_PSD:
            assert check(params) == params
        else:
            message = re.escape(f"smallest eigenvalue {smallest:.6g}") + "$"
            with pytest.raises(states.DomainError, match=message):
                check(params)
