"""Coherence geometry toolkit for two-qubit Bell-diagonal and X states.

Distance-based coherence measures and quantum discord, decoherence under the
standard flip and amplitude-damping channels, and constant-coherence level
surfaces over the state tetrahedron exported as triangle meshes.
"""

from .channels import (
    ChannelKind,
    apply_product_channel,
    correlation_map_values,
    default_p_grid,
    dynamics_trajectory,
    kraus_ops,
)
from .measures import (
    MeasureKind,
    bell_discord_values,
    bell_relative_entropy_values,
    discord_equals_coherence_values,
    l1_coherence,
    relative_entropy_coherence,
    trace_norm_coherence_x,
    x_relative_entropy_values,
)
from .states import (
    DomainError,
    TOL_PSD,
    bell_density,
    correlations_of,
    entangled_values,
    hermitian_spectrum,
    x_density,
)

__version__ = "0.1.0"

__all__ = [
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

# The surface layer, and the thread pool and marching-cubes tables it brings,
# is imported on first use of one of its names (PEP 562), so the measures,
# channels and `verify` do not pay for it: every name of __all__ that the
# imports above did not bind is geometry's.


def __getattr__(name):
    if name in __all__:
        from . import geometry

        return getattr(geometry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
