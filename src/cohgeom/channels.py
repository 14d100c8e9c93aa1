"""Single-qubit decoherence channels applied to both qubits of a two-qubit state.

Four channels are provided: bit flip, phase flip, bit-phase flip, and
generalized amplitude damping with the mixing probability fixed at 1/2 (the
value that keeps Bell-diagonal states Bell-diagonal), damping strength p.
Each channel exists in two independent forms: the Kraus operator set applied
as a product channel, and the closed-form map acting directly on the
correlation triple.  They are cross-checked against each other by the
verification suites.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import measures
from .states import (
    BellParams,
    DomainError,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TOL_PSD,
    bell_eigenvalues,
    hermitian_spectrum,
    require_physical_bell,
    _as_bell,
    _check_stack,
)


class ChannelKind(enum.Enum):
    """The four decoherence channels."""

    BIT_FLIP = "bf"
    PHASE_FLIP = "pf"
    BIT_PHASE_FLIP = "bpf"
    AMPLITUDE_DAMPING = "gad"


def _coerce_kind(kind) -> ChannelKind:
    if isinstance(kind, ChannelKind):
        return kind
    try:
        return ChannelKind(str(kind).lower())
    except ValueError:
        names = ", ".join(k.value for k in ChannelKind)
        raise DomainError(f"unknown channel {kind!r}; expected one of {names}") from None


def _check_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0 or math.isnan(p):
        raise DomainError(f"channel probability must lie in [0, 1], got {p}")
    return p


def kraus_ops(kind, p: float) -> list[np.ndarray]:
    """Kraus operators of a single-qubit channel at decoherence probability p.

    The flip channels return {sqrt(1 - p/2) I, sqrt(p/2) sigma}; amplitude
    damping returns four operators with the mixing probability fixed at 1/2.
    The completeness relation sum(E^dag E) = I holds for every p in [0, 1].
    """
    kind = _coerce_kind(kind)
    p = _check_probability(p)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        half = math.sqrt(0.5)
        damp = math.sqrt(1.0 - p)
        jump = math.sqrt(p)
        return [
            half * np.array([[1.0, 0.0], [0.0, damp]], dtype=complex),
            half * np.array([[0.0, jump], [0.0, 0.0]], dtype=complex),
            half * np.array([[damp, 0.0], [0.0, 1.0]], dtype=complex),
            half * np.array([[0.0, 0.0], [jump, 0.0]], dtype=complex),
        ]
    flip = {
        ChannelKind.BIT_FLIP: PAULI_X,
        ChannelKind.PHASE_FLIP: PAULI_Z,
        ChannelKind.BIT_PHASE_FLIP: PAULI_Y,
    }[kind]
    return [
        math.sqrt(1.0 - p / 2.0) * IDENTITY_2,
        math.sqrt(p / 2.0) * flip,
    ]


def apply_product_channel(m, kind, p: float) -> np.ndarray:
    """Apply the channel independently to both qubits of a density matrix.

    Computes sum over (i, j) of (E_i (x) E_j) m (E_i (x) E_j)^dag for one
    matrix or a ``(..., 4, 4)`` stack.  Every input must be a physical density
    matrix; the outputs then are as well.
    """
    a = _check_stack(m)
    if np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0) > 1e-10:
        raise DomainError("density matrix is not Hermitian within tolerance")
    if (np.abs(np.trace(a, axis1=-2, axis2=-1).real - 1.0) > 1e-10).any():
        raise DomainError("density matrix trace differs from 1")
    lam_min = hermitian_spectrum(a)[..., -1].min(initial=np.inf)
    if lam_min < -TOL_PSD:
        raise DomainError(
            f"state not positive semidefinite: smallest eigenvalue {lam_min:.6g}"
        )
    ops = kraus_ops(kind, p)
    pairs = np.array([np.kron(e1, e2) for e1 in ops for e2 in ops])
    return np.einsum("kab,...bc,kdc->...ad", pairs, a, pairs.conj(), optimize=True)


def correlation_map_values(kind, p: float, c1, c2, c3):
    """Closed-form action of the product channel on correlation components.

    Elementwise over scalars or arrays (including p); no physicality checks.
    The flip channels shrink the two non-preserved components by (1-p)^2,
    amplitude damping shrinks c1 and c2 by (1-p) and c3 by (1-p)^2.
    """
    kind = _coerce_kind(kind)
    parr = np.asarray(p, dtype=float)
    if parr.size == 0 or np.isnan(parr).any() or parr.min() < 0.0 or parr.max() > 1.0:
        raise DomainError("channel probability must lie in [0, 1]")
    p = float(parr) if parr.ndim == 0 else parr
    shrink = (1.0 - p) ** 2
    if kind is ChannelKind.BIT_FLIP:
        return c1, c2 * shrink, c3 * shrink
    if kind is ChannelKind.PHASE_FLIP:
        return c1 * shrink, c2 * shrink, c3
    if kind is ChannelKind.BIT_PHASE_FLIP:
        return c1 * shrink, c2, c3 * shrink
    return c1 * (1.0 - p), c2 * (1.0 - p), c3 * shrink


def bell_param_map(kind, p: float, params) -> BellParams:
    """Closed-form action of the product channel on a correlation triple.

    Components are range-checked but physicality is the caller's concern:
    the formulas are linear and apply to any triple.  Physical inputs always
    map to physical outputs (the maps contract the state tetrahedron).
    """
    c1, c2, c3 = _as_bell(params)
    return BellParams(*correlation_map_values(kind, p, c1, c2, c3))


def dynamics_trajectory(params, kind, p_grid) -> list[tuple[float, float]]:
    """Relative entropy of coherence of the evolved state along a p grid.

    Each point maps the initial correlations through :func:`bell_param_map`
    (the maps are one-shot in p, not iterated) and evaluates the closed-form
    coherence of the result.  Returns (p, coherence) pairs in grid order.
    """
    initial = require_physical_bell(params)
    grid = [_check_probability(p) for p in p_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("p grid must be strictly increasing")
    out = []
    for p in grid:
        mapped = bell_param_map(kind, p, initial)
        # physical initial states cannot leave the physical set under these maps
        assert min(bell_eigenvalues(*mapped)) >= -TOL_PSD
        out.append((p, float(measures.bell_relative_entropy_values(*mapped))))
    return out


def default_p_grid(steps: int = 101) -> list[float]:
    """Uniform grid of decoherence probabilities covering [0, 1]."""
    if steps < 2:
        raise DomainError("p grid needs at least two points")
    return [i / (steps - 1) for i in range(steps)]
