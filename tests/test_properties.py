"""Property tests over random physical Bell-diagonal correlation triples.

A triple is drawn as a random point of the state tetrahedron: four
non-negative weights, normalized, are the state's eigenvalues, and the
correlations follow from them.  The sampled-grid property draws X-state
slices and channel pre-maps instead.  The draws are derandomized, so the
suite is deterministic.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cohgeom import geometry
from cohgeom.channels import ChannelKind, correlation_map_values, default_p_grid
from cohgeom.geometry import _classify_arrays, grid_axis, sample_field
from cohgeom.measures import (
    bell_discord_values,
    bell_relative_entropy_values,
    discord_equals_coherence,
    l1_values,
    x_relative_entropy_values,
)
from cohgeom.states import TOL_PSD, bell_eigenvalues, x_eigenvalues

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
    assert _classify_arrays(c1, c2, c3) == _classify_arrays(-c1, -c2, c3)


@SETTINGS
@given(bell_triples())
@with_vertices
def test_channels_keep_states_physical_and_do_not_raise_coherence(params):
    p = np.array(default_p_grid(101))
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
    if discord_equals_coherence(params):
        assert abs(discord - coherence) <= 1e-12


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
def test_sampled_grid_matches_per_node_mask(rs, kind, p, n):
    c = np.meshgrid(*[grid_axis(n)] * 3, indexing="ij")
    x_physical = np.minimum.reduce(x_eigenvalues(*rs, *c)) >= -TOL_PSD
    x_field = np.where(x_physical, x_relative_entropy_values(*rs, *c), np.nan)
    physical = np.minimum.reduce(bell_eigenvalues(*c)) >= -TOL_PSD
    mapped = correlation_map_values(kind, p, *c)
    field = np.where(physical, bell_relative_entropy_values(*mapped), np.nan)
    with pytest.MonkeyPatch.context() as patch:
        # 3-row slabs, the last one partial unless 3 divides n
        patch.setattr(geometry, "SLAB_NODES", 3 * n * n)
        got_x = sample_field("rel-ent", n, slice=rs).values
        got = sample_field("rel-ent", n, channel=kind, p=p, threads=2).values
    assert np.array_equal(got_x, x_field, equal_nan=True)
    assert np.array_equal(got, field, equal_nan=True)
