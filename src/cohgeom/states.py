"""Two-qubit states with Bell-diagonal and X-shaped density matrices.

Builds 4x4 density matrices in the computational basis |00>, |01>, |10>, |11>
from correlation parameters and provides their closed-form spectra.  It also
houses the numeric oracle that anchors every entropy computation in the
package: batched LAPACK ``eigvalsh`` spectra of ``(..., 4, 4)`` stacks, which
share no code with the closed forms.
"""

from __future__ import annotations

import os

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


# Parameter names of a Bell-diagonal state, the correlation triple, and of an
# X state with z-aligned Bloch components r and s.
BELL_FIELDS = ("c1", "c2", "c3")
X_FIELDS = ("r", "s") + BELL_FIELDS


def _numbers(name: str, value, complex_ok: bool = False) -> np.ndarray:
    """``value`` as an array, unconverted, when it holds numbers: Python or
    numpy ints, uints and floats, and with ``complex_ok`` complex ones too.
    Anything else raises DomainError naming ``name``: strings, numeric ones
    included, bytes, bools, None, object arrays, ragged nestings, and complex
    numbers unless allowed.  A Python int too large for numpy's integers is
    read as a float."""
    try:
        a = np.asarray(value)
        if a.dtype.kind == "O" and all(type(v) is int for v in a.flat):
            a = a.astype(float)
    except (TypeError, ValueError, OverflowError):
        a = np.asarray(None)
    if a.dtype.kind not in ("iufc" if complex_ok else "iuf"):
        kinds = "int, float or complex" if complex_ok else "int or float"
        raise DomainError(f"{name} must be a number ({kinds}) or an array of them, got {value!r}")
    return a


def _in_range(names, values, columns=False, low=-1) -> tuple:
    """``values``, one per name in ``names``, as floats (or, with ``columns``,
    float arrays), each read by :func:`_numbers` and checked to lie in [low,
    1]; NaN fails the check too."""
    try:
        values = tuple(values)
    except TypeError:
        values = (values,)
    if len(values) != len(names):
        raise DomainError(
            f"expected {len(names)} values ({', '.join(names)}), got {len(values)}"
        )
    values = tuple(_numbers(n, v).astype(float, copy=False) for n, v in zip(names, values))
    if not columns and any(v.ndim for v in values):
        raise DomainError(f"expected one number each for {', '.join(names)}")
    for name, value in zip(names, values):
        bad = value[~((low <= value) & (value <= 1.0))]
        if bad.size:
            raise DomainError(f"{name} must lie in [{low}, 1], got {bad[0]}")
    return tuple(float(v) if v.ndim == 0 else v for v in values)


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


def _require_memory(what: str, peak: float) -> None:
    """Raise unless an estimated ``peak`` of bytes fits in physical memory;
    ``what`` names the input that sets it.  Called before allocating."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if peak > memory:
        raise DomainError(
            f"{what} needs about {peak / 2**30:.3g} GiB, more than the "
            f"{memory / 2**30:.3g} GiB of physical memory"
        )


def _require_count(what: str, value, minimum: int, too_small: str) -> int:
    """``value``, a count such as a resolution, as an int.  Raises DomainError
    unless it is an int or numpy integer, not a bool, and at least
    ``minimum``; ``too_small`` is the message for a smaller one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(too_small)
    return int(value)


def bell_density(params) -> np.ndarray:
    """Density matrix of the Bell-diagonal state with correlations (c1, c2, c3).

    The matrix has diagonal (1 +- c3)/4, anti-diagonal corners (c1 - c2)/4 and
    inner anti-diagonal (c1 + c2)/4; it is Hermitian with unit trace for any
    parameters in range.  Positivity is a separate question, decided by
    :func:`bell_eigenvalues`.  Columns give a stack, as for :func:`x_density`.
    """
    return x_density((0.0, 0.0, *_in_range(BELL_FIELDS, params, columns=True)))


def x_density(params) -> np.ndarray:
    """Density matrix of the X state (r, s, c1, c2, c3).

    Each parameter may be an array; they broadcast against each other and
    give a stack of shape ``broadcast(r, s, c1, c2, c3) + (4, 4)``.  With
    r = s = 0 the construction is identical, entry for entry, to
    :func:`bell_density`.
    """
    r, s, c1, c2, c3 = np.broadcast_arrays(*_in_range(X_FIELDS, params, columns=True))
    rho = np.zeros(r.shape + (4, 4), dtype=complex)
    rho[..., range(4), range(4)] = np.stack(x_diagonal(r, s, c3), axis=-1)
    rho[..., 0, 3] = rho[..., 3, 0] = (c1 - c2) / 4
    rho[..., 1, 2] = rho[..., 2, 1] = (c1 + c2) / 4
    return rho


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


def x_diagonal(r, s, c3):
    """Closed-form diagonal of an X state, over scalars or broadcastable arrays."""
    return (
        (1 + r + s + c3) / 4,
        (1 + r - s - c3) / 4,
        (1 - r + s - c3) / 4,
        (1 - r - s + c3) / 4,
    )


def _x_roots(r, s, c1, c2):
    """The outer and inner square roots of :func:`x_eigenvalues`."""
    return np.sqrt((r + s) ** 2 + (c1 - c2) ** 2), np.sqrt((r - s) ** 2 + (c1 + c2) ** 2)


def x_eigenvalues(r, s, c1, c2, c3):
    """Closed-form eigenvalues of an X state, unsorted.

    The outer 2x2 block (|00>, |11>) contributes
    (1 + c3 +- sqrt((r+s)^2 + (c1-c2)^2))/4 and the inner block (|01>, |10>)
    contributes (1 - c3 +- sqrt((r-s)^2 + (c1+c2)^2))/4.  Accepts scalars or
    broadcastable arrays.
    """
    outer, inner = _x_roots(r, s, c1, c2)
    return (
        (1 + c3 + outer) / 4,
        (1 + c3 - outer) / 4,
        (1 - c3 + inner) / 4,
        (1 - c3 - inner) / 4,
    )


def _bell_low(c1, c2, c3):
    """A Bell-diagonal state's positivity pair, yielded one at a time: two
    numerators whose smaller, divided by 4, is the smallest of
    :func:`bell_eigenvalues` as a value, NaN included, for any c3 but +-inf.

    Why: with ``a = 1 - c1`` and ``b = 1 + c1`` the eigenvalues round as
    ``fl(fl(a + c2) + c3) / 4``, ``fl(fl(b - c2) + c3) / 4`` and the same
    with ``a - c2``, ``b + c2`` and ``- c3``.  For c3 finite or NaN, ``x ->
    fl(x +- c3)`` and ``fl(x / 4)`` are monotone and keep NaN, so each
    commutes with ``np.minimum``; only a zero's sign can differ.  The minimum
    runs on the arrays without c3, the smaller ones on a grid.
    """
    a, b = 1 - c1, 1 + c1
    yield np.minimum(a + c2, b - c2) + c3
    yield np.minimum(a - c2, b + c2) - c3


def _x_low(r, s, c1, c2, c3):
    """An X state's positivity pair (see :func:`_bell_low`): each block's
    ``- root`` numerator, as ``fl(A + root) >= fl(A - root)`` for a root >= 0."""
    outer, inner = _x_roots(r, s, c1, c2)
    yield 1 + c3 - outer
    yield 1 - c3 - inner


def _physical(pair):
    """Where a positivity pair's smallest eigenvalue is >= -TOL_PSD, bit for
    bit, as dividing by 4 is exact there; each numerator is freed once compared."""
    return (next(pair) >= -4 * TOL_PSD) & (next(pair) >= -4 * TOL_PSD)


def _bell_physical(c1, c2, c3):
    """The sampler's mask for Bell-diagonal states."""
    return _physical(_bell_low(c1, c2, c3))


def _x_physical(r, s, c1, c2, c3):
    """The sampler's mask for X states."""
    return _physical(_x_low(r, s, c1, c2, c3))


def _require_psd(smallest) -> None:
    """Raise unless the smallest eigenvalue ``smallest`` is >= -TOL_PSD."""
    if smallest < -TOL_PSD:
        raise DomainError(f"state not positive semidefinite: smallest eigenvalue {smallest:.6g}")


def entangled_values(r, s, c1, c2, c3):
    """Vectorized PPT test: True where the X state (r, s, c1, c2, c3) is entangled.

    A two-qubit state is separable exactly when its partial transpose is
    positive semidefinite (Peres, PRL 77, 1413; Horodecki et al., PLA 223,
    1).  Transposing the second qubit flips the sign of sigma_y alone, so the
    partial transpose is the X state (r, s, c1, -c2, c3), whose positivity
    pair decides: entangled where its smallest eigenvalue is below -TOL_PSD
    / 4, which with r = s = 0 is the octahedron |c1| + |c2| + |c3| > 1 +
    TOL_PSD.  NaN counts as separable.  Inputs are assumed physical.
    """
    return np.minimum(*_x_low(r, s, c1, -np.asarray(c2), c3)) < -TOL_PSD


def require_physical_bell(params) -> tuple[float, float, float]:
    """Range-check and positivity-check Bell parameters, raising on failure;
    returns (c1, c2, c3) as floats."""
    p = _in_range(BELL_FIELDS, params)
    _require_psd(np.minimum(*_bell_low(*p)) / 4)
    return p


def require_physical_x(params) -> tuple[float, float, float, float, float]:
    """Range-check and positivity-check X-state parameters, raising on
    failure; returns (r, s, c1, c2, c3) as floats."""
    q = _in_range(X_FIELDS, params)
    _require_psd(np.minimum(*_x_low(*q)) / 4)
    return q


# Entry bound: a 4x4 matrix's sums and eigenvalues are at most 16 times it.
MAX_ENTRY = np.finfo(float).max / 32


def _check_stack(m) -> np.ndarray:
    a = _numbers("matrix", m, complex_ok=True).astype(complex, copy=False)
    if a.shape[-2:] != (4, 4):
        raise DomainError(f"expected (..., 4, 4) matrices, got shape {a.shape}")
    # NaN and inf fail the bound too
    if not np.abs(a).max(initial=0.0) <= MAX_ENTRY:
        if not np.isfinite(a).all():
            raise DomainError("matrix entries must be finite")
        raise DomainError(f"matrix entries too large: a magnitude exceeds {MAX_ENTRY:.3g}")
    return a


def _spectrum(a, tolerance: float, message: str) -> np.ndarray:
    """Eigenvalues of a stack ``a`` checked, and so bounded, by
    :func:`_check_stack`, descending: one Hermiticity check within
    ``tolerance`` (DomainError ``message`` if it fails) and one batched LAPACK
    ``eigvalsh`` call on the symmetrized stack, both from the same adjoint."""
    adjoint = a.conj().swapaxes(-1, -2)
    if np.abs(a - adjoint).max(initial=0.0) > tolerance:
        raise DomainError(message)
    return np.linalg.eigvalsh((a + adjoint) / 2)[..., ::-1]


def hermitian_spectrum(m) -> np.ndarray:
    """Eigenvalues of a 4x4 Hermitian matrix or a ``(..., 4, 4)`` stack, descending.

    One batched LAPACK ``eigvalsh`` call over the whole stack.  It is the
    numeric oracle against which every closed-form spectrum in this package
    is cross-checked, so it shares no code with :func:`bell_eigenvalues` or
    :func:`x_eigenvalues`.

    Raises
    ------
    DomainError
        If any entry is not finite or exceeds MAX_ENTRY in magnitude, or any
        matrix is not Hermitian within 1e-10.
    """
    return _spectrum(_check_stack(m), 1e-10, "matrix is not Hermitian within tolerance")


def _require_density(m) -> tuple[np.ndarray, np.ndarray]:
    """Validate Hermiticity, unit trace and positivity of a matrix or a
    ``(..., 4, 4)`` stack; return (m, spectrum).  The spectrum is
    :func:`hermitian_spectrum`'s, from the stack checked once."""
    a = _check_stack(m)
    spectrum = _spectrum(a, 1e-12, "density matrix is not Hermitian within 1e-12")
    trace = np.trace(a, axis1=-2, axis2=-1)
    if (np.abs(trace.real - 1.0) > 1e-12).any() or (np.abs(trace.imag) > 1e-12).any():
        raise DomainError("density matrix trace differs from 1 by more than 1e-12")
    _require_psd(spectrum[..., -1].min(initial=np.inf))
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


def correlations_of(m) -> tuple:
    """Correlation triple Tr(m sigma_i (x) sigma_i) of a density matrix.

    Round-trips ``bell_density``; for a general state it returns the triple of
    the state's Bell-diagonal projection.  A ``(..., 4, 4)`` stack gives a
    triple of arrays.
    """
    a = _check_stack(m)
    values = np.einsum("...ab,kba->k...", a, _PAULI_PAIRS).real
    return tuple(values)
