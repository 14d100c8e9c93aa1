"""Coherence geometry toolkit for two-qubit Bell-diagonal and X states.

Distance-based coherence measures and quantum discord, decoherence under the
standard flip and amplitude-damping channels, and constant-coherence level
surfaces over the state tetrahedron exported as triangle meshes.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.  A module is imported
# on the first read of one of its names (PEP 562), so `import cohgeom` loads
# neither numpy nor the surface layer with its marching-cubes tables, and
# the CLI can settle numpy's thread count before numpy loads.
_HOMES = {
    "channels": (
        "ChannelKind",
        "apply_product_channel",
        "correlation_map_values",
        "default_p_grid",
        "dynamics_trajectory",
        "kraus_ops",
    ),
    "geometry": (
        "TriangleMesh",
        "export_obj",
        "extract_isosurface",
        "filter_triangles",
        "grid_axis",
        "level_surface",
        "sample_field",
        "surface_stats",
    ),
    "measures": (
        "MeasureKind",
        "bell_discord_values",
        "bell_relative_entropy_values",
        "discord_equals_coherence_values",
        "l1_coherence",
        "relative_entropy_coherence",
        "trace_norm_coherence_x",
        "x_relative_entropy_values",
    ),
    "states": (
        "DomainError",
        "TOL_PSD",
        "bell_density",
        "correlations_of",
        "entangled_values",
        "hermitian_spectrum",
        "x_density",
    ),
}

__all__ = sorted(name for names in _HOMES.values() for name in names)


def __getattr__(name):
    for module, names in _HOMES.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
