"""Two-qubit states with Bell-diagonal and X-shaped density matrices.

Builds 4x4 density matrices in the computational basis |00>, |01>, |10>, |11>
from correlation parameters and provides their closed-form spectra.  It also
houses the numeric oracle that anchors every entropy computation in the
package: batched LAPACK ``eigvalsh`` spectra of ``(..., 4, 4)`` stacks, which
share no code with the closed forms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Numerical slack below zero allowed for eigenvalues when deciding whether a
# state is positive semidefinite.
TOL_PSD = 1e-12

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

# sigma_i (x) sigma_i, used to read correlations off a density matrix.
_PAULI_PAIRS = np.array([np.kron(p, p) for p in PAULIS])


class DomainError(ValueError):
    """Raised when an input is outside the operation's domain."""


class BellParams(NamedTuple):
    """Correlation triple (c1, c2, c3) of a Bell-diagonal two-qubit state."""

    c1: float
    c2: float
    c3: float


class XParams(NamedTuple):
    """Parameters (r, s, c1, c2, c3) of an X state with z-aligned Bloch vectors.

    Reduces to ``BellParams(c1, c2, c3)`` when r = s = 0.
    """

    r: float
    s: float
    c1: float
    c2: float
    c3: float


def _in_range(names, values) -> tuple[float, ...]:
    """``values`` as floats, each named by ``names`` and checked to lie in
    [-1, 1]; NaN fails the check too."""
    values = tuple(float(v) for v in values)
    for name, value in zip(names, values, strict=True):
        if not -1.0 <= value <= 1.0:
            raise DomainError(f"{name} must lie in [-1, 1], got {value}")
    return values


def _member(kind, value, what: str):
    """``value`` as a member of the enum ``kind``: a member itself, or its
    value in any letter case; ``what`` names the kind in the error."""
    if isinstance(value, kind):
        return value
    try:
        return kind(str(value).lower())
    except ValueError:
        names = ", ".join(k.value for k in kind)
        raise DomainError(f"unknown {what} {value!r}; expected one of {names}") from None


def _x_matrix(r, s, c1, c2, c3) -> np.ndarray:
    """X-state density matrices, shape ``broadcast(r, s, c1, c2, c3) + (4, 4)``."""
    r, s, c1, c2, c3 = np.broadcast_arrays(r, s, c1, c2, c3)
    rho = np.zeros(r.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = (1 + r + s + c3) / 4
    rho[..., 1, 1] = (1 + r - s - c3) / 4
    rho[..., 2, 2] = (1 - r + s - c3) / 4
    rho[..., 3, 3] = (1 - r - s + c3) / 4
    rho[..., 0, 3] = rho[..., 3, 0] = (c1 - c2) / 4
    rho[..., 1, 2] = rho[..., 2, 1] = (c1 + c2) / 4
    return rho


def bell_density(params) -> np.ndarray:
    """Density matrix of the Bell-diagonal state with correlations (c1, c2, c3).

    The matrix has diagonal (1 +- c3)/4, anti-diagonal corners (c1 - c2)/4 and
    inner anti-diagonal (c1 + c2)/4; it is Hermitian with unit trace for any
    parameters in range.  Positivity is a separate question, decided by
    :func:`bell_eigenvalues`.
    """
    return _x_matrix(0.0, 0.0, *_in_range(BellParams._fields, params))


def x_density(params) -> np.ndarray:
    """Density matrix of the X state (r, s, c1, c2, c3).

    With r = s = 0 the construction is identical, entry for entry, to
    :func:`bell_density`.
    """
    return _x_matrix(*_in_range(XParams._fields, params))


def bell_eigenvalues(c1, c2, c3):
    """Closed-form eigenvalues of a Bell-diagonal state, unsorted.

    Accepts scalars or broadcastable arrays; returns a 4-tuple in the fixed
    order used throughout the package.
    """
    return (
        (1 - c1 - c2 - c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 - c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
    )


def x_eigenvalues(r, s, c1, c2, c3):
    """Closed-form eigenvalues of an X state, unsorted.

    The outer 2x2 block (|00>, |11>) contributes
    (1 + c3 +- sqrt((r+s)^2 + (c1-c2)^2))/4 and the inner block (|01>, |10>)
    contributes (1 - c3 +- sqrt((r-s)^2 + (c1+c2)^2))/4.  Accepts scalars or
    broadcastable arrays.
    """
    outer = np.sqrt((r + s) ** 2 + (c1 - c2) ** 2)
    inner = np.sqrt((r - s) ** 2 + (c1 + c2) ** 2)
    return (
        (1 + c3 + outer) / 4,
        (1 + c3 - outer) / 4,
        (1 - c3 + inner) / 4,
        (1 - c3 - inner) / 4,
    )


def _require_psd(lam) -> None:
    """Raise unless the smallest of the eigenvalues ``lam`` is >= -TOL_PSD."""
    smallest = min(lam)
    if smallest < -TOL_PSD:
        raise DomainError(
            f"state not positive semidefinite: smallest eigenvalue {smallest:.6g}"
        )


def require_physical_bell(params) -> BellParams:
    """Range-check and positivity-check Bell parameters, raising on failure."""
    p = BellParams(*_in_range(BellParams._fields, params))
    _require_psd(bell_eigenvalues(*p))
    return p


def require_physical_x(params) -> XParams:
    """Range-check and positivity-check X-state parameters, raising on failure."""
    q = XParams(*_in_range(XParams._fields, params))
    _require_psd(x_eigenvalues(*q))
    return q


def _check_stack(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (4, 4):
        raise DomainError(f"expected (..., 4, 4) matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    return a


def _check_4x4(m) -> np.ndarray:
    a = _check_stack(m)
    if a.shape != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got shape {a.shape}")
    return a


def hermitian_spectrum(m) -> np.ndarray:
    """Eigenvalues of a 4x4 Hermitian matrix or a ``(..., 4, 4)`` stack, descending.

    One batched LAPACK ``eigvalsh`` call over the whole stack.  It is the
    numeric oracle against which every closed-form spectrum in this package
    is cross-checked, so it shares no code with :func:`bell_eigenvalues` or
    :func:`x_eigenvalues`.

    Raises
    ------
    DomainError
        If any entry is not finite, or any matrix is not Hermitian within
        1e-10.
    """
    a = _check_stack(m)
    if np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0) > 1e-10:
        raise DomainError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh((a + a.conj().swapaxes(-1, -2)) / 2)[..., ::-1]


def _require_density(m) -> tuple[np.ndarray, np.ndarray]:
    """Validate Hermiticity, unit trace and positivity of a matrix or a
    ``(..., 4, 4)`` stack; return (m, spectrum)."""
    a = _check_stack(m)
    if np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0) > 1e-12:
        raise DomainError("density matrix is not Hermitian within 1e-12")
    trace = np.trace(a, axis1=-2, axis2=-1)
    if (np.abs(trace.real - 1.0) > 1e-12).any() or (np.abs(trace.imag) > 1e-12).any():
        raise DomainError("density matrix trace differs from 1 by more than 1e-12")
    spectrum = hermitian_spectrum(a)
    lam_min = spectrum[..., -1].min(initial=np.inf)
    if lam_min < -TOL_PSD:
        raise DomainError(
            f"state not positive semidefinite: smallest eigenvalue {lam_min:.6g}"
        )
    return a, spectrum


def von_neumann_entropy(spectrum):
    """Entropy -sum(lam * log2 lam) in bits over the last axis, 0 log 0 = 0.

    Eigenvalues in [-TOL_PSD, 0) are clamped to zero; anything more negative
    is rejected.  A 1-D spectrum gives a scalar, a stack of spectra an array.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.size and lam.min() < -TOL_PSD:
        raise DomainError(
            f"negative eigenvalue {lam.min():.6g} below -{TOL_PSD} in spectrum"
        )
    return -np.sum(lam * np.log2(np.where(lam > 0.0, lam, 1.0)), axis=-1)


def correlations_of(m) -> BellParams:
    """Correlation triple Tr(m sigma_i (x) sigma_i) of a density matrix.

    Round-trips ``bell_density``; for a general state it returns the triple of
    the state's Bell-diagonal projection.  A ``(..., 4, 4)`` stack gives a
    triple of arrays.
    """
    a = _check_stack(m)
    values = np.einsum("...ab,kba->k...", a, _PAULI_PAIRS).real
    return BellParams(*values)
