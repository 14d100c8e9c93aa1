"""Coherence geometry toolkit for two-qubit Bell-diagonal and X states.

Distance-based coherence measures and quantum discord, decoherence under the
standard flip and amplitude-damping channels, and constant-coherence level
surfaces over the state tetrahedron exported as triangle meshes.
"""

from .channels import (
    ChannelKind,
    apply_product_channel,
    bell_param_map,
    correlation_map_values,
    default_p_grid,
    dynamics_trajectory,
    kraus_ops,
)
from .geometry import (
    RegionTag,
    ScalarGrid,
    TriangleMesh,
    classify_point,
    export_obj,
    extract_isosurface,
    filter_triangles,
    grid_axis,
    sample_field,
    surface_stats,
)
from .measures import (
    MeasureKind,
    TOL_EQ,
    bell_relative_entropy,
    discord_bell,
    discord_equals_coherence,
    l1_coherence,
    relative_entropy_coherence,
    trace_norm_coherence_x,
    x_relative_entropy,
)
from .states import (
    BellParams,
    DomainError,
    TOL_PSD,
    XParams,
    bell_density,
    bell_spectrum,
    correlations_of,
    hermitian_spectrum,
    is_physical_bell,
    is_physical_x,
    von_neumann_entropy,
    x_density,
    x_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BellParams",
    "ChannelKind",
    "DomainError",
    "MeasureKind",
    "RegionTag",
    "ScalarGrid",
    "TOL_EQ",
    "TOL_PSD",
    "TriangleMesh",
    "XParams",
    "apply_product_channel",
    "bell_density",
    "bell_param_map",
    "bell_relative_entropy",
    "bell_spectrum",
    "classify_point",
    "correlation_map_values",
    "correlations_of",
    "default_p_grid",
    "discord_bell",
    "discord_equals_coherence",
    "dynamics_trajectory",
    "export_obj",
    "extract_isosurface",
    "filter_triangles",
    "grid_axis",
    "hermitian_spectrum",
    "is_physical_bell",
    "is_physical_x",
    "kraus_ops",
    "l1_coherence",
    "relative_entropy_coherence",
    "sample_field",
    "surface_stats",
    "trace_norm_coherence_x",
    "von_neumann_entropy",
    "x_density",
    "x_relative_entropy",
    "x_spectrum",
]
