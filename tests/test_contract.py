"""The library's input contract as a property: every checked public name of
``cohgeom.__all__`` returns a value or raises DomainError, whatever number,
non-number or count it is given.

Each name is called with valid arguments, one of them replaced by a drawn
value: NaN, infinities, magnitudes near the largest double, values just
outside each argument's range, bools, strings, bytes, complex numbers, None
and huge counts, each as itself, as a 0-d array and as a 1-d array.  A
matrix argument also takes a 4x4 matrix filled with the value, a grid an 8^3
one.  The ``*_values`` kernels are left out, since their inputs are assumed
physical, and so are ``correlation_map_values``' correlation arguments.
Only ``export_obj``'s path may raise OSError as well.
"""

import contextlib
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cohgeom as cg
from cohgeom.states import DomainError

RHO = cg.bell_density((0.2, 0.1, 0.3))
VERTICES = np.eye(3)
TRIANGLES = [[0, 1, 2]]
MESH = cg.TriangleMesh(VERTICES, TRIANGLES)
GRID = np.zeros((8, 8, 8))


def filled(shape, v):
    """An array of ``shape`` filled with the drawn scalar behind ``v``."""
    return np.full(shape, np.asarray(v).ravel()[0])


# each checked public name: its calls, each of one drawn value
CALLS = {
    "TriangleMesh": [
        lambda v: cg.TriangleMesh(v, TRIANGLES),
        lambda v: cg.TriangleMesh(filled((3, 3), v), TRIANGLES),
        lambda v: cg.TriangleMesh(VERTICES, v),
        lambda v: cg.TriangleMesh(VERTICES, filled((1, 3), v)),
    ],
    "apply_product_channel": [
        lambda v: cg.apply_product_channel(v, "bf", 0.5),
        lambda v: cg.apply_product_channel(filled((4, 4), v), "bf", 0.5),
        lambda v: cg.apply_product_channel(RHO, v, 0.5),
        lambda v: cg.apply_product_channel(RHO, "gad", v),
    ],
    "bell_density": [
        lambda v: cg.bell_density(v),
        lambda v: cg.bell_density((v, 0.0, 0.0)),
    ],
    "correlation_map_values": [
        lambda v: cg.correlation_map_values(v, 0.5, 0.1, 0.2, 0.3),
        lambda v: cg.correlation_map_values("gad", v, 0.1, 0.2, 0.3),
    ],
    "correlations_of": [
        lambda v: cg.correlations_of(v),
        lambda v: cg.correlations_of(filled((4, 4), v)),
    ],
    "default_p_grid": [lambda v: cg.default_p_grid(v)],
    "dynamics_trajectory": [
        lambda v: cg.dynamics_trajectory(v, "bf", [0.0, 1.0]),
        lambda v: cg.dynamics_trajectory((0.1, v, 0.1), "bf", [0.0, 1.0]),
        lambda v: cg.dynamics_trajectory((0.1, 0.1, 0.1), v, [0.0, 1.0]),
        lambda v: cg.dynamics_trajectory((0.1, 0.1, 0.1), "bf", v),
        lambda v: cg.dynamics_trajectory((0.1, 0.1, 0.1), "bf", [0.0, v]),
    ],
    "export_obj": [lambda v: cg.export_obj(MESH, v)],
    "extract_isosurface": [
        lambda v: cg.extract_isosurface(v, 0.5),
        lambda v: cg.extract_isosurface(filled((8, 8, 8), v), 0.5),
        lambda v: cg.extract_isosurface(GRID, v),
    ],
    "filter_triangles": [lambda v: cg.filter_triangles(MESH, lambda *c: v)],
    "grid_axis": [lambda v: cg.grid_axis(v)],
    "hermitian_spectrum": [
        lambda v: cg.hermitian_spectrum(v),
        lambda v: cg.hermitian_spectrum(filled((4, 4), v)),
    ],
    "kraus_ops": [lambda v: cg.kraus_ops(v, 0.5), lambda v: cg.kraus_ops("bf", v)],
    "l1_coherence": [
        lambda v: cg.l1_coherence(v),
        lambda v: cg.l1_coherence(filled((4, 4), v)),
    ],
    "level_surface": [
        lambda v: cg.level_surface(v, 8, 0.5),
        lambda v: cg.level_surface("rel-ent", v, 0.5),
        lambda v: cg.level_surface("rel-ent", 8, v),
        lambda v: cg.level_surface("rel-ent", 8, 0.5, slice=v),
        lambda v: cg.level_surface("rel-ent", 8, 0.5, slice=(0.1, v)),
        lambda v: cg.level_surface("rel-ent", 8, 0.5, channel=v, p=0.5),
        lambda v: cg.level_surface("rel-ent", 8, 0.5, channel="pf", p=v),
    ],
    "relative_entropy_coherence": [
        lambda v: cg.relative_entropy_coherence(v),
        lambda v: cg.relative_entropy_coherence(filled((4, 4), v)),
    ],
    "sample_field": [
        lambda v: cg.sample_field(v, 8),
        lambda v: cg.sample_field("l1", v),
        lambda v: cg.sample_field("l1", 8, slice=v),
        lambda v: cg.sample_field("l1", 8, slice=(v, 0.1)),
        lambda v: cg.sample_field("l1", 8, channel=v, p=0.5),
        lambda v: cg.sample_field("l1", 8, channel="bf", p=v),
    ],
    "surface_stats": [
        lambda v: cg.surface_stats(MESH, v),
        lambda v: cg.surface_stats(MESH, (v, 0.0)),
    ],
    "trace_norm_coherence_x": [
        lambda v: cg.trace_norm_coherence_x(v),
        lambda v: cg.trace_norm_coherence_x(filled((4, 4), v)),
    ],
    "x_density": [
        lambda v: cg.x_density(v),
        lambda v: cg.x_density((v, 0.0, 0.1, 0.0, 0.0)),
    ],
}

UNCHECKED = {
    "ChannelKind",
    "DomainError",
    "MeasureKind",
    "TOL_PSD",
    "bell_discord_values",
    "bell_relative_entropy_values",
    "discord_equals_coherence_values",
    "entangled_values",
    "x_relative_entropy_values",
}

SCALARS = [
    np.nan,
    np.inf,
    -np.inf,
    1e308,
    -1e308,
    5e307,
    # just outside [-1, 1], [0, 1] and (0, inf), and counts below each minimum
    np.nextafter(1.0, 2.0),
    np.nextafter(-1.0, -2.0),
    -5e-324,
    -0.0,
    1,
    7,
    True,
    False,
    "0.5",
    "x",
    "",
    b"0.5",
    1j,
    0.5 + 0j,
    None,
    10**12,
    10**30,
]


def test_every_checked_public_name_is_called():
    assert set(CALLS) == set(cg.__all__) - UNCHECKED


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    value=st.sampled_from(SCALARS),
    shape=st.sampled_from(["scalar", "0-d", "1-d"]),
)
def test_a_value_or_domain_error(value, shape):
    v = {"scalar": value, "0-d": np.array(value), "1-d": np.array([value, value])}[shape]
    with tempfile.TemporaryDirectory() as root, contextlib.chdir(root):
        for name, calls in CALLS.items():
            for call in calls:
                try:
                    call(v)
                except DomainError:
                    pass
                except OSError:
                    if name != "export_obj":
                        raise
