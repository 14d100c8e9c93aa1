"""Coherence and discord quantifiers for Bell-diagonal and X states.

All entropic quantities are in bits (base-2 logarithms), which puts the four
pure Bell states exactly at coherence 1.  Each closed form here has an
independent counterpart that goes through the generic
entropy-of-diagonal-minus-entropy route with LAPACK ``eigvalsh`` spectra; the
two paths are cross-checked by the verification suites.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .states import (
    DomainError,
    bell_eigenvalues,
    von_neumann_entropy,
    x_diagonal,
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
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log2(v, out=np.empty_like(v))
        out *= v
    # NaN fails v > 0 as well, so it comes out 0 like zero and negatives
    out[~(v > 0.0)] = 0.0
    return out


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
    # the eigenvalues are freed once summed, before the dephased terms exist
    s_rho = -sum(_xlog2x(v) for v in bell_eigenvalues(c1, c2, c3))
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
    # the eigenvalues are freed once summed, before the dephased terms exist
    s_rho = -sum(_xlog2x(v) for v in x_eigenvalues(r, s, c1, c2, c3))
    s_diag = -sum(_xlog2x(v) for v in x_diagonal(r, s, c3))
    return np.maximum(s_diag - s_rho, 0.0)


def bell_discord_values(c1, c2, c3):
    """Vectorized quantum discord of Bell-diagonal states.

    Uses the closed form built from the state's eigenvalues and
    c = max(|c1|, |c2|, |c3|); inputs are assumed physical.
    """
    # the eigenvalues are freed once summed, before c and its terms exist
    spectral = sum(_xlog2x(v) for v in bell_eigenvalues(c1, c2, c3))
    c = np.maximum(np.maximum(np.abs(c1), np.abs(c2)), np.abs(c3))
    # (1+c)/2 log2(1+c) + (1-c)/2 log2(1-c) rewritten through x log2 x (which
    # handles c = 1 by the 0 log 0 convention) equals both terms below plus 1.
    return np.maximum(
        spectral + 1.0 - _xlog2x((1 + c) / 2) - _xlog2x((1 - c) / 2), 0.0
    )


# Interval bounds of the closed forms over boxes lo <= (c1, c2, c3) <= hi,
# elementwise over broadcastable box ends: each returns (low, high) with every
# value of the kernel on the box in [low, high], up to rounding.  Each term is
# bounded on its own, so the bounds are sound but not tight.


def _abs_range(lo, hi):
    """Range of |x| over [lo, hi]."""
    return np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)


def _xlog2x_range(lo, hi):
    """Range of :func:`_xlog2x` over [lo, hi]: 0 up to v = 0, then convex
    with its minimum -log2(e)/e at v = 1/e."""
    a, b = _xlog2x(lo), _xlog2x(hi)
    inside = (lo < 1 / np.e) & (1 / np.e < hi)
    return np.where(inside, -np.log2(np.e) / np.e, np.minimum(a, b)), np.maximum(a, b)


def _entropy_range(ranges):
    """Range of -sum(v log2 v) over the value ranges ``ranges``."""
    terms = [_xlog2x_range(*v) for v in ranges]
    return -sum(high for _, high in terms), -sum(low for low, _ in terms)


def _eigenvalue_ranges(r, s, lo, hi):
    """Ranges of the closed-form eigenvalues of the X states (r, s, c1, c2,
    c3), in the order of :func:`x_eigenvalues`; with r = s = 0 they are the
    Bell-diagonal ones of :func:`bell_eigenvalues` in another order.

    Each is (1 + z +- sqrt(a^2 + d^2))/4 with z = c3 and d = c1 - c2, or
    z = -c3 and d = c1 + c2, so it is monotone in z and in |d|.
    """
    (l1, l2, l3), (h1, h2, h3) = lo, hi
    ranges = []
    for a, z, d in (
        (r + s, (l3, h3), (l1 - h2, h1 - l2)),
        (r - s, (-h3, -l3), (l1 + l2, h1 + h2)),
    ):
        root_lo, root_hi = (np.sqrt(a * a + x * x) for x in _abs_range(*d))
        ranges += [
            ((1 + z[0] + root_lo) / 4, (1 + z[1] + root_hi) / 4),
            ((1 + z[0] - root_hi) / 4, (1 + z[1] - root_lo) / 4),
        ]
    return ranges


def _max_abs_range(lo, hi):
    """Range of the largest magnitude of the coordinates with ranges
    ``zip(lo, hi)``."""
    low, high = zip(*map(_abs_range, lo, hi))
    return functools.reduce(np.maximum, low), functools.reduce(np.maximum, high)


def _l1_range(lo, hi, _):
    """Range of :func:`l1_values`, which is max(|c1|, |c2|)."""
    return _max_abs_range(lo[:2], hi[:2])


def _relative_entropy_range(r, s, lo, hi, eigen):
    """Range of :func:`x_relative_entropy_values` on the slice (r, s), and of
    :func:`bell_relative_entropy_values` with r = s = 0, given the box's
    eigenvalue ranges ``eigen`` from :func:`_eigenvalue_ranges`."""
    # each diagonal entry is monotone in c3, so its values at the box's two
    # c3 ends span its range
    ends = zip(x_diagonal(r, s, lo[2]), x_diagonal(r, s, hi[2]))
    s_diag = _entropy_range([(np.minimum(a, b), np.maximum(a, b)) for a, b in ends])
    s_rho = _entropy_range(eigen)
    return np.maximum(s_diag[0] - s_rho[1], 0.0), np.maximum(s_diag[1] - s_rho[0], 0.0)


def _discord_range(lo, hi, eigen):
    """Range of :func:`bell_discord_values`, given the box's ``eigen``."""
    entropy = _entropy_range(eigen)
    c_lo, c_hi = _max_abs_range(lo, hi)
    g = _entropy_range([((1 + c_lo) / 2, (1 + c_hi) / 2), ((1 - c_hi) / 2, (1 - c_lo) / 2)])
    # discord is 1 - S(rho) + S(g) with S(g) = -sum over (1 +- c)/2
    return (
        np.maximum(1.0 - entropy[1] + g[0], 0.0),
        np.maximum(1.0 - entropy[0] + g[1], 0.0),
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
    :func:`bell_relative_entropy_values` and
    :func:`x_relative_entropy_values`.  A ``(..., 4, 4)`` stack gives an
    array of coherences.
    """
    a, spectrum = _require_density(m)
    diag = np.diagonal(a, axis1=-2, axis2=-1).real
    s_diag = von_neumann_entropy(np.clip(diag, 0.0, None))
    return np.maximum(s_diag - von_neumann_entropy(spectrum), 0.0)


def discord_equals_coherence_values(c1, c2, c3):
    """Vectorized predicate: where discord equals relative entropy of coherence.

    The two quantities differ only through the largest correlation magnitude:
    they coincide exactly when |c3| attains max(|c1|, |c2|, |c3|).  The
    condition is symmetric under c3 -> -c3, which the numerical equality test
    confirms on dense grids (and which the paired level surfaces on both sides
    of the c3 = 0 plane reflect).  Inputs are assumed physical.
    """
    return np.abs(c3) >= np.maximum(np.abs(c1), np.abs(c2)) - TOL_EQ
