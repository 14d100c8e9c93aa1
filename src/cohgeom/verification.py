"""Cross-check suites pitting closed forms against their independent oracles.

Each suite reduces to a single worst-case deviation compared against a fixed
tolerance: closed-form spectra and entropies against LAPACK ``eigvalsh``
spectra, the correlation-triple channel maps against explicit Kraus
application, Kraus completeness, the discord/coherence equality predicate
against the numerical equality test, and coherence monotonicity along channel
trajectories.  The sampled suites evaluate all their states as one
``(N, 4, 4)`` stack, and the channel suites take the probability grid as one
more array axis: per channel kind, one Kraus application giving a
``(P, N, 4, 4)`` stack and one completeness sum over ``(P, k, 2, 2)``
operators.  The ``_vs_jacobi`` suite names predate the LAPACK oracle and are
kept because the ``verify`` output pins them.  The CLI
``verify`` subcommand runs all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, measures, states
from .states import BELL_FIELDS, X_FIELDS

DEFAULT_SEED = 1234

_KINDS = np.array([kind.value for kind in channels.ChannelKind])


@dataclass(frozen=True)
class SuiteResult:
    """A suite's worst deviation against its tolerance.

    ``worst`` holds (name, value) pairs of the state at that deviation, such
    as the correlation triple and, for the channel suites, the channel kind
    and p.  A FAIL line prints them, so the failure can be replayed.
    """

    name: str
    deviation: float
    tolerance: float
    worst: tuple = ()

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{self.name:<28} max_dev={self.deviation:.3e}  "
            f"tol={self.tolerance:.0e}  {status}"
        )
        if not self.passed and self.worst:
            line += "  at " + " ".join(f"{key}={value}" for key, value in self.worst)
        return line


def _worst(dev, names, columns) -> tuple:
    """The state at the first maximum of ``dev``: each column, broadcast
    against ``dev``, read there and paired with its name."""
    dev = np.asarray(dev)
    at = np.unravel_index(np.argmax(dev), dev.shape)
    return tuple(
        (name, np.broadcast_to(column, dev.shape)[at].item())
        for name, column in zip(names, columns)
    )


def _sample_physical(eigenvalues, width, oversample, count, rng) -> np.ndarray:
    """Uniform samples from [-1, 1]^width where every eigenvalue is >= 0,
    drawn in batches of ``oversample * count`` candidates; (count, width)."""
    out = np.empty((0, width))
    while len(out) < count:
        cand = rng.uniform(-1.0, 1.0, size=(oversample * count, width))
        lam_min = np.minimum.reduce(eigenvalues(*cand.T))
        out = np.concatenate([out, cand[lam_min >= 0.0]])
    return out[:count]


def sample_physical_bell(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the physical Bell-diagonal tetrahedron, (count, 3)."""
    return _sample_physical(states.bell_eigenvalues, 3, 4, count, rng)


def sample_physical_x(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the physical X-state parameter set, (count, 5)."""
    return _sample_physical(states.x_eigenvalues, 5, 8, count, rng)


def _descending(eigenvalues) -> np.ndarray:
    """Stack a tuple of eigenvalue arrays into (N, 4) rows sorted descending."""
    return np.sort(np.stack(eigenvalues, axis=-1), axis=-1)[:, ::-1]


def bell_spectrum_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form Bell-diagonal spectra against LAPACK spectra."""
    rows = sample_physical_bell(samples, rng)
    closed = _descending(states.bell_eigenvalues(*rows.T))
    numeric = states.hermitian_spectrum(states.bell_density(rows.T))
    dev = np.abs(closed - numeric).max(axis=1)
    worst = _worst(dev, BELL_FIELDS, rows.T)
    return SuiteResult("bell_spectrum_vs_jacobi", float(dev.max()), 1e-12, worst)


def x_spectrum_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form X-state spectra against LAPACK spectra."""
    rows = sample_physical_x(samples, rng)
    closed = _descending(states.x_eigenvalues(*rows.T))
    numeric = states.hermitian_spectrum(states.x_density(rows.T))
    dev = np.abs(closed - numeric).max(axis=1)
    worst = _worst(dev, X_FIELDS, rows.T)
    return SuiteResult("x_spectrum_vs_jacobi", float(dev.max()), 1e-12, worst)


def bell_closed_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form Bell coherence against the generic entropy-difference route."""
    rows = sample_physical_bell(samples, rng)
    closed = measures.bell_relative_entropy_values(*rows.T)
    generic = measures.relative_entropy_coherence(states.bell_density(rows.T))
    dev = np.abs(closed - generic)
    worst = _worst(dev, BELL_FIELDS, rows.T)
    return SuiteResult("bell_closed_vs_jacobi", float(dev.max()), 1e-10, worst)


def x_closed_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form X coherence against the generic entropy-difference route."""
    rows = sample_physical_x(samples, rng)
    closed = measures.x_relative_entropy_values(*rows.T)
    generic = measures.relative_entropy_coherence(states.x_density(rows.T))
    dev = np.abs(closed - generic)
    worst = _worst(dev, X_FIELDS, rows.T)
    return SuiteResult("x_closed_vs_jacobi", float(dev.max()), 1e-10, worst)


def channel_map_vs_kraus(state_count: int, rng: np.random.Generator) -> SuiteResult:
    """Correlation-triple maps against explicit product-channel application."""
    triples = sample_physical_bell(state_count, rng)
    rho = states.bell_density(triples.T)
    probs = np.linspace(0.0, 1.0, 101)[:, None]
    dev = []
    for kind in channels.ChannelKind:
        mapped = np.broadcast_arrays(
            *channels.correlation_map_values(kind, probs, *triples.T)
        )
        direct = states.correlations_of(channels.apply_product_channel(rho, kind, probs))
        dev.append(np.abs(np.subtract(mapped, direct)).max(axis=0))
    worst = _worst(dev, ("kind", "p") + BELL_FIELDS, (_KINDS[:, None, None], probs, *triples.T))
    return SuiteResult("channel_map_vs_kraus", float(np.max(dev)), 1e-12, worst)


def kraus_completeness() -> SuiteResult:
    """sum(E^dag E) = I for every channel across a probability grid."""
    probs = np.linspace(0.0, 1.0, 101)
    dev = []
    for kind in channels.ChannelKind:
        ops = channels.kraus_ops(kind, probs)
        total = np.einsum("...kba,...kbc->...ac", ops.conj(), ops)
        dev.append(np.abs(total - np.eye(2)).max(axis=(-2, -1)))
    worst = _worst(dev, ("kind", "p"), (_KINDS[:, None], probs))
    return SuiteResult("kraus_completeness", float(np.max(dev)), 1e-12, worst)


def discord_predicate_consistency() -> SuiteResult:
    """Equality predicate against |discord - coherence| <= tol on a dense grid.

    The deviation is the number of physical grid points where the two
    disagree, so the tolerance is zero.  The grid has 41 points per axis.
    """
    axis = np.linspace(-1.0, 1.0, 41)
    c1, c2, c3 = np.meshgrid(axis, axis, axis, indexing="ij")
    physical = np.minimum.reduce(states.bell_eigenvalues(c1, c2, c3)) >= -states.TOL_PSD
    numeric_eq = (
        np.abs(
            measures.bell_discord_values(c1, c2, c3)
            - measures.bell_relative_entropy_values(c1, c2, c3)
        )
        <= measures.TOL_EQ
    )
    predicate = measures.discord_equals_coherence_values(c1, c2, c3)
    mismatch = physical & (numeric_eq != predicate)
    return SuiteResult(
        "discord_predicate_grid",
        float(np.count_nonzero(mismatch)),
        0.0,
        _worst(mismatch, BELL_FIELDS, (c1, c2, c3)),
    )


def trajectory_monotonicity(state_count: int, rng: np.random.Generator) -> SuiteResult:
    """Coherence along every channel trajectory must not increase with p."""
    probs = np.linspace(0.0, 1.0, 101)
    c1, c2, c3 = sample_physical_bell(state_count, rng).T[:, :, None]
    rise = []
    for kind in channels.ChannelKind:
        mapped = channels.correlation_map_values(kind, probs, c1, c2, c3)
        rise.append(np.diff(measures.bell_relative_entropy_values(*mapped), axis=-1))
    # a rise from p to the next grid point is reported at p
    columns = (_KINDS[:, None, None], probs[:-1], c1, c2, c3)
    worst = _worst(rise, ("kind", "p") + BELL_FIELDS, columns)
    deviation = float(np.max(rise, initial=0.0))
    return SuiteResult("trajectory_monotonicity", deviation, 1e-9, worst)


def run_all(samples: int) -> list[SuiteResult]:
    """Run every suite, sampling from DEFAULT_SEED; returns results in order."""
    if samples < 1:
        raise states.DomainError("samples must be positive")
    rng = np.random.default_rng(DEFAULT_SEED)
    return [
        bell_spectrum_vs_jacobi(samples, rng),
        x_spectrum_vs_jacobi(samples, rng),
        bell_closed_vs_jacobi(samples, rng),
        x_closed_vs_jacobi(samples, rng),
        channel_map_vs_kraus(max(1, samples // 100), rng),
        kraus_completeness(),
        discord_predicate_consistency(),
        trajectory_monotonicity(max(4, samples // 10), rng),
    ]
