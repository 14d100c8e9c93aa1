"""Output checks for benchmark jobs.

Every check reads only what a job wrote and the library's public closed
forms, and none depends on vertex or triangle order, so an extractor that
numbers its vertices differently still passes.  Each function returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

STATS_KEYS = (
    "total_area",
    "entangled_area_fraction",
    "vertex_count",
    "triangle_count",
    "measure",
    "level",
    "resolution",
    "r",
    "s",
)

SUITE_NAMES = (
    "bell_spectrum_vs_jacobi",
    "x_spectrum_vs_jacobi",
    "bell_closed_vs_jacobi",
    "x_closed_vs_jacobi",
    "channel_map_vs_kraus",
    "kraus_completeness",
    "discord_predicate_grid",
    "trajectory_monotonicity",
)

# Entangled area fraction of the rel-ent surface at n = 64, by level, as the
# acceptance suite pins them; compared at rel 1e-6 (abs 1e-9).
FRACTION_GOLDENS = {
    0.001: 0.0,
    0.2: 0.38444416586796365,
    0.5: 0.829833900684229,
    0.9: 1.0,
}

# OBJ coordinates carry 9 significant digits, which moves an eigenvalue by
# less than 1e-9.
PHYSICAL_TOL = 1e-8

# Bound on |field(v) - level| at OBJ vertices, in units of the grid spacing
# 2 / (n - 1).  Linear interpolation of the entropic fields errs by O(spacing)
# next to the tetrahedron faces, where the entropy has a log singularity; the
# seed commit measured at most 0.17 spacings for n = 32 to 256 over every
# measure, channel and X slice the workloads use.
RESIDUAL_PER_SPACING = 0.25

# l1 is linear along every grid edge (its kinks |c1| = |c2| only cross edges
# at nodes), so only the OBJ rounding remains.
L1_RESIDUAL = 1e-8


def read_obj(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (V, 3) and 1-indexed faces (F, 3) of an OBJ; ValueError if malformed."""
    verts, faces = [], []
    for line in data.decode("ascii").splitlines():
        if not line or line.startswith("#"):
            continue
        tag, *fields = line.split()
        if tag == "v" and len(fields) == 3:
            verts.append([float(x) for x in fields])
        elif tag == "f" and len(fields) == 3:
            faces.append([int(x) for x in fields])
        else:
            raise ValueError(f"malformed OBJ line {line[:60]!r}")
    return np.array(verts, dtype=float).reshape(-1, 3), np.array(faces, dtype=int).reshape(-1, 3)


def min_eigenvalue(c1, c2, c3, rs=None):
    """Smallest eigenvalue of the Bell-diagonal (or X, at Bloch (r, s)) state."""
    if rs is None:
        return np.minimum.reduce(
            [
                (1 - c1 - c2 - c3) / 4,
                (1 - c1 + c2 + c3) / 4,
                (1 + c1 - c2 + c3) / 4,
                (1 + c1 + c2 - c3) / 4,
            ]
        )
    r, s = rs
    outer = np.sqrt((r + s) ** 2 + (c1 - c2) ** 2)
    inner = np.sqrt((r - s) ** 2 + (c1 + c2) ** 2)
    return np.minimum((1 + c3 - outer) / 4, (1 - c3 - inner) / 4)


def field_values(measure, c1, c2, c3, channel=None, p=None, rs=None):
    """The sampled field at correlation triples, from the public closed forms."""
    from cohgeom import channels, measures

    if channel is not None:
        c1, c2, c3 = channels.correlation_map_values(channel, p, c1, c2, c3)
    if measure == "l1":
        return measures.l1_values(c1, c2)
    if measure == "discord":
        return measures.bell_discord_values(c1, c2, c3)
    if rs is not None:
        return measures.x_relative_entropy_values(rs[0], rs[1], c1, c2, c3)
    return measures.bell_relative_entropy_values(c1, c2, c3)


def check_surface(obj: bytes, stats: bytes, job) -> list[str]:
    """Stats keys and counts, face indices, vertex physicality and level residual."""
    try:
        doc = json.loads(stats)
    except ValueError as exc:
        return [f"stats JSON unreadable: {exc}"]
    if not isinstance(doc, dict):
        return ["stats JSON is not an object"]
    problems = [f"stats JSON lacks {key!r}" for key in STATS_KEYS if key not in doc]
    try:
        verts, faces = read_obj(obj)
    except ValueError as exc:
        return problems + [str(exc)]
    if doc.get("vertex_count") != len(verts):
        problems.append(f"vertex_count {doc.get('vertex_count')} but OBJ has {len(verts)} v lines")
    if doc.get("triangle_count") != len(faces):
        problems.append(
            f"triangle_count {doc.get('triangle_count')} but OBJ has {len(faces)} f lines"
        )
    if faces.size and (faces.min() < 1 or faces.max() > len(verts)):
        problems.append(f"face index outside 1..{len(verts)}")
    if not len(verts):
        return problems
    c1, c2, c3 = verts.T
    lam = min_eigenvalue(c1, c2, c3, job.rs)
    if not lam.min() >= -PHYSICAL_TOL:
        problems.append(f"unphysical vertex: smallest eigenvalue {lam.min():.3e}")
    residual = np.abs(field_values(job.measure, c1, c2, c3, job.channel, job.p, job.rs) - job.level)
    bound = L1_RESIDUAL if job.measure == "l1" else RESIDUAL_PER_SPACING * 2 / (job.n - 1)
    if not residual.max() <= bound:
        problems.append(f"|field - level| reaches {residual.max():.3e} > {bound:.3e}")
    return problems


def check_verify(stdout: bytes) -> list[str]:
    """`verify` lists every suite and ends with its all-passed line."""
    lines = stdout.decode("ascii", "replace").splitlines()
    firsts = {line.split()[0] for line in lines if line.split()}
    problems = [f"suite {name} missing" for name in SUITE_NAMES if name not in firsts]
    if not lines or lines[-1].strip() != "all suites passed":
        problems.append("verify did not end with 'all suites passed'")
    return problems


def check_goldens() -> list[str]:
    """The acceptance suite's entangled-fraction goldens, through the library."""
    import cohgeom

    grid = cohgeom.sample_field("rel-ent", 64)
    problems = []
    for level, golden in FRACTION_GOLDENS.items():
        mesh = cohgeom.extract_isosurface(grid, level)
        fraction = cohgeom.surface_stats(mesh)["entangled_area_fraction"]
        if not math.isclose(fraction, golden, rel_tol=1e-6, abs_tol=1e-9):
            problems.append(f"entangled fraction at level {level}: {fraction!r} != {golden!r}")
    return problems
