"""Coherence and discord quantifiers for Bell-diagonal and X states.

All entropic quantities are in bits (base-2 logarithms), which puts the four
pure Bell states exactly at coherence 1.  Each closed form here has an
independent counterpart that goes through the generic
entropy-of-diagonal-minus-entropy route with LAPACK ``eigvalsh`` spectra; the
two paths are cross-checked by the verification suites.
"""

from __future__ import annotations

import enum

import numpy as np

from .states import (
    DomainError,
    bell_eigenvalues,
    require_physical_bell,
    require_physical_x,
    von_neumann_entropy,
    x_eigenvalues,
    _check_stack,
    _require_density,
)

# Two parameter sets whose measures differ by less than this are treated as
# equal by the discord/coherence equality predicate.  Entropy evaluations
# carry ~1e-12 noise that logs near zero eigenvalues amplify.
TOL_EQ = 1e-9

# Entries of a 4x4 matrix off both the diagonal and the anti-diagonal.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


class MeasureKind(enum.Enum):
    """Dispatch tag for the scalar fields the package can sample."""

    L1 = "l1"
    TRACE_NORM = "trace"
    RELATIVE_ENTROPY = "rel-ent"
    DISCORD = "discord"


def _xlog2x(v):
    """Elementwise v*log2(v) with 0 log 0 = 0; negative dust counts as 0."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    pos = v > 0.0
    np.log2(v, out=out, where=pos)
    # without where= the zeros at NaN inputs would turn into NaN
    return np.multiply(out, v, out=out, where=pos)


def l1_values(c1, c2):
    """Vectorized l1 coherence of Bell-diagonal / X states: it depends only on
    (c1, c2) and equals (|c1 - c2| + |c1 + c2|) / 2."""
    return (np.abs(np.asarray(c1) - c2) + np.abs(np.asarray(c1) + c2)) / 2


def bell_relative_entropy_values(c1, c2, c3):
    """Vectorized closed-form relative entropy of coherence, Bell-diagonal case.

    Inputs are assumed physical.  The dephased-state entropy is accumulated
    in the same term order as the eigenvalue entropy so that diagonal states
    (c1 = c2 = 0) come out exactly 0.
    """
    lam = bell_eigenvalues(c1, c2, c3)
    s_rho = -sum(_xlog2x(v) for v in lam)
    low = _xlog2x((1 - np.asarray(c3)) / 4)
    high = _xlog2x((1 + np.asarray(c3)) / 4)
    s_diag = -(low + high + high + low)
    return np.maximum(s_diag - s_rho, 0.0)


def x_relative_entropy_values(r, s, c1, c2, c3):
    """Vectorized closed-form relative entropy of coherence for X states.

    The eigenvalue block pairing is (r + s, c1 - c2) with 1 + c3 for the outer
    block and (r - s, c1 + c2) with 1 - c3 for the inner block.  Inputs are
    assumed physical; stray negatives from rounding at the boundary are
    treated as zero by the entropy terms.
    """
    lam = x_eigenvalues(r, s, c1, c2, c3)
    diag = (
        (1 + np.asarray(r) + s + c3) / 4,
        (1 + np.asarray(r) - s - c3) / 4,
        (1 - np.asarray(r) + s - c3) / 4,
        (1 - np.asarray(r) - s + c3) / 4,
    )
    s_rho = -sum(_xlog2x(v) for v in lam)
    s_diag = -sum(_xlog2x(v) for v in diag)
    return np.maximum(s_diag - s_rho, 0.0)


def bell_discord_values(c1, c2, c3):
    """Vectorized quantum discord of Bell-diagonal states.

    Uses the closed form built from the state's eigenvalues and
    c = max(|c1|, |c2|, |c3|); inputs are assumed physical.
    """
    lam = bell_eigenvalues(c1, c2, c3)
    c = np.maximum(np.maximum(np.abs(c1), np.abs(c2)), np.abs(c3))
    spectral = sum(_xlog2x(v) for v in lam)
    # (1+c)/2 log2(1+c) + (1-c)/2 log2(1-c) rewritten through x log2 x (which
    # handles c = 1 by the 0 log 0 convention) equals both terms below plus 1.
    return np.maximum(
        spectral + 1.0 - _xlog2x((1 + c) / 2) - _xlog2x((1 - c) / 2), 0.0
    )


def l1_coherence(m):
    """Sum of the magnitudes of the off-diagonal entries of a density matrix.

    A ``(..., 4, 4)`` stack gives one value per matrix.
    """
    a = np.abs(_check_stack(m))
    return a.sum(axis=(-2, -1)) - np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1)


def trace_norm_coherence_x(m):
    """Trace-norm coherence of an X-shaped density matrix or a ``(..., 4, 4)``
    stack of them.

    For X states this coincides with the l1 coherence, which is the only case
    in which the identity is asserted, so inputs with an entry of magnitude
    1e-12 or more off the diagonal and anti-diagonal are rejected.
    """
    if not np.abs(_check_stack(m)[..., _OFF_X]).max(initial=0.0) < 1e-12:
        raise DomainError("trace-norm coherence shortcut requires an X-shaped matrix")
    return l1_coherence(m)


def relative_entropy_coherence(m):
    """Entropy of the dephased state minus entropy of the state, in bits.

    This is the generic route: the state entropy comes from the LAPACK
    spectrum, independent of the closed forms in
    :func:`bell_relative_entropy` and :func:`x_relative_entropy`.  A
    ``(..., 4, 4)`` stack gives an array of coherences.
    """
    a, spectrum = _require_density(m)
    diag = np.diagonal(a, axis1=-2, axis2=-1).real
    s_diag = von_neumann_entropy(np.clip(diag, 0.0, None))
    return np.maximum(s_diag - von_neumann_entropy(spectrum), 0.0)


def bell_relative_entropy(params) -> float:
    """Closed-form relative entropy of coherence of a Bell-diagonal state."""
    p = require_physical_bell(params)
    return float(bell_relative_entropy_values(p.c1, p.c2, p.c3))


def x_relative_entropy(params) -> float:
    """Closed-form relative entropy of coherence of an X state."""
    q = require_physical_x(params)
    return float(x_relative_entropy_values(*q))


def discord_bell(params) -> float:
    """Quantum discord of a Bell-diagonal state, in bits."""
    p = require_physical_bell(params)
    return float(bell_discord_values(p.c1, p.c2, p.c3))


def discord_equals_coherence_values(c1, c2, c3):
    """Vectorized predicate: where discord equals relative entropy of coherence.

    The two quantities differ only through the largest correlation magnitude:
    they coincide exactly when |c3| attains max(|c1|, |c2|, |c3|).  The
    condition is symmetric under c3 -> -c3, which the numerical equality test
    confirms on dense grids (and which the paired level surfaces on both sides
    of the c3 = 0 plane reflect).  Inputs are assumed physical.
    """
    return np.abs(c3) >= np.maximum(np.abs(c1), np.abs(c2)) - TOL_EQ


def discord_equals_coherence(params) -> bool:
    """:func:`discord_equals_coherence_values` for one physical triple."""
    return bool(discord_equals_coherence_values(*require_physical_bell(params)))
