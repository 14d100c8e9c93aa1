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
    DomainError,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    require_physical_bell,
    _bell_physical,
    _in_range,
    _member,
    _require_broadcast,
    _require_count,
    _require_density,
    _require_memory,
)


class ChannelKind(enum.Enum):
    """The four decoherence channels."""

    BIT_FLIP = "bf"
    PHASE_FLIP = "pf"
    BIT_PHASE_FLIP = "bpf"
    AMPLITUDE_DAMPING = "gad"


# The power of (1 - p) by which each channel shrinks (c1, c2, c3).
_SHRINK = {
    ChannelKind.BIT_FLIP: (0, 2, 2),
    ChannelKind.PHASE_FLIP: (2, 2, 0),
    ChannelKind.BIT_PHASE_FLIP: (2, 0, 2),
    ChannelKind.AMPLITUDE_DAMPING: (1, 1, 2),
}


def kraus_ops(kind, p) -> np.ndarray:
    """Kraus operators of a single-qubit channel at decoherence probability p.

    Returns one complex array of shape ``np.shape(p) + (k, 2, 2)``: the flip
    channels give k = 2 operators {sqrt(1 - p/2) I, sqrt(p/2) sigma};
    amplitude damping gives k = 4 with the mixing probability fixed at 1/2.
    The completeness relation sum(E^dag E) = I holds for every p in [0, 1].
    """
    kind = _member(ChannelKind, kind, "channel")
    p = np.asarray(_in_range(("channel probability",), (p,), columns=True, low=0)[0])
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        half = math.sqrt(0.5)
        ops = np.zeros(p.shape + (4, 2, 2), dtype=complex)
        ops[..., 0, 0, 0] = ops[..., 2, 1, 1] = half
        ops[..., 0, 1, 1] = ops[..., 2, 0, 0] = half * np.sqrt(1.0 - p)
        ops[..., 1, 0, 1] = ops[..., 3, 1, 0] = half * np.sqrt(p)
        return ops
    flip = {
        ChannelKind.BIT_FLIP: PAULI_X,
        ChannelKind.PHASE_FLIP: PAULI_Z,
        ChannelKind.BIT_PHASE_FLIP: PAULI_Y,
    }[kind]
    weights = np.sqrt(np.stack([1.0 - p / 2.0, p / 2.0], axis=-1))
    return weights[..., None, None] * np.array([IDENTITY_2, flip])


def apply_product_channel(m, kind, p) -> np.ndarray:
    """Apply the channel independently to both qubits of a density matrix.

    Computes sum over (i, j) of (E_i (x) E_j) m (E_i (x) E_j)^dag for one
    matrix or a ``(..., 4, 4)`` stack, through the per-qubit superoperator
    sum_i E_i[a, x] conj(E_i[b, y]).  ``p`` may be an array; it broadcasts
    against the stack shape, so ``p[:, None]`` on an ``(N, 4, 4)`` stack gives
    ``(P, N, 4, 4)``, and shapes that do not broadcast raise DomainError.
    Every input must be a physical density matrix; the outputs then are as
    well.
    """
    a, _ = _require_density(m)
    ops = kraus_ops(kind, p)
    _require_broadcast(("p", "stack"), (ops[..., 0, 0, 0], a[..., 0, 0]))
    sup = np.einsum("...iax,...iby->...abxy", ops, ops.conj())
    qubits = a.reshape(a.shape[:-2] + (2, 2, 2, 2))
    out = np.einsum("...abxy,...cdzw,...xzyw->...acbd", sup, sup, qubits, optimize=True)
    return out.reshape(out.shape[:-4] + (4, 4))


def correlation_map_values(kind, p, c1, c2, c3):
    """Closed-form action of the product channel on correlation components.

    Elementwise over scalars or arrays (including p); no physicality checks.
    Component i is multiplied by (1 - p) to the power ``_SHRINK[kind][i]``:
    the flip channels shrink the two non-preserved components by (1-p)^2,
    amplitude damping shrinks c1 and c2 by (1-p) and c3 by (1-p)^2.
    """
    powers = _SHRINK[_member(ChannelKind, kind, "channel")]
    (p,) = _in_range(("channel probability",), (p,), columns=True, low=0)
    return tuple(
        c if e == 0 else c * (1.0 - p) ** e for c, e in zip((c1, c2, c3), powers)
    )


def dynamics_trajectory(params, kind, p_grid) -> np.ndarray:
    """Relative entropy of coherence of the evolved state along a p grid.

    The initial correlations are mapped through :func:`correlation_map_values`
    at every grid point at once (the maps are one-shot in p, not iterated) and
    the closed-form coherence is evaluated on the result.  ``p_grid`` is a
    strictly increasing one-dimensional grid in [0, 1].  Returns one
    coherence per grid point, in grid order.
    """
    initial = require_physical_bell(params)
    (grid,) = _in_range(("channel probability",), (p_grid,), columns=True, low=0)
    if np.ndim(grid) != 1:
        raise DomainError(f"p grid must be one-dimensional, got shape {np.shape(grid)}")
    if (np.diff(grid) <= 0.0).any():
        raise DomainError("p grid must be strictly increasing")
    mapped = correlation_map_values(kind, grid, *initial)
    # physical initial states cannot leave the physical set under these maps
    assert _bell_physical(*mapped).all()
    return measures.bell_relative_entropy_values(*mapped)


def default_p_grid(steps: int) -> np.ndarray:
    """Uniform grid of ``steps`` decoherence probabilities covering [0, 1];
    ``steps`` is an integer of at least 2.  Refuses a count whose two
    arrays, the integer range and the grid, exceed physical memory."""
    steps = _require_count("steps", steps, 2, "p grid needs at least two points")
    _require_memory(f"{steps} steps", 16 * steps)
    return np.arange(steps) / (steps - 1)
