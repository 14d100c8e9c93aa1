"""Cross-check suites pitting closed forms against their independent oracles.

Each suite reduces to a single worst-case deviation compared against a fixed
tolerance: closed-form spectra and entropies against LAPACK ``eigvalsh``
spectra, the correlation-triple channel maps against explicit Kraus
application, Kraus completeness, the discord/coherence equality predicate
against the numerical equality test, and coherence monotonicity along channel
trajectories.  A sampled suite checks the rows that each chunk of the
rejection sampler's candidates accepts, as they come: whole for the spectra
and coherence, BATCH_ROWS // 64 states at a time for the channel maps, with
the probability grid as one more axis, and BATCH_ROWS // 8 for the
trajectories; the grid suite takes a few c1 layers at a time.  No array grows
with the sample count.  A sampled suite lays its deviations out state-major,
in the order the states are drawn, so each batch is the next block of its
whole deviation array in C order; a suite reports the first drawn state at the
worst deviation and, for the channel suites, then the first kind and p.  The
``_vs_jacobi`` names predate the LAPACK oracle and stay because the ``verify``
output pins them; the CLI ``verify`` subcommand runs every suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, measures, states
from .states import BELL_FIELDS, X_FIELDS

DEFAULT_SEED = 1234

# Sets every suite's batches.  The sampler draws and tests oversample *
# BATCH_ROWS candidates at a time, and a sampled suite checks the rows each
# chunk accepts: about 683 of a Bell chunk of 2,048 (acceptance 1/3), 336 of
# an X chunk of 4,096 (0.082).  Child peak RSS of `verify --samples 3000`
# read 37.0, 37.2-37.3, 38.6-38.7 and 40.3-40.4 MiB at 256, 512, 1024 and
# 2048, and `run_all(3000)` took 57, 45, 39 and 43 ms (best of 12, in one
# process); above 512 the channel suite's stacks reach OpenBLAS's slow mode.
BATCH_ROWS = 512

_KINDS = np.array([kind.value for kind in channels.ChannelKind])

# a family's positivity pair, row width and candidates per wanted row
_BELL = (states._bell_low, 3, 4)
_X = (states._x_low, 5, 8)


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


class _RunningWorst:
    """The first maximum, as ``np.argmax`` finds it, of a deviation array
    given in consecutive blocks of its C order, each with columns that
    broadcast against it: a block's first maximum replaces the kept one when
    it is larger, or NaN where the kept one is not."""

    def __init__(self, names):
        self.names = names
        self.top, self.at = None, ()

    def add(self, dev, columns) -> None:
        at = np.unravel_index(np.argmax(dev), dev.shape)
        if self.top is None or np.argmax([self.top, dev[at]]):
            self.top = dev[at]
            self.at = tuple(
                (name, np.broadcast_to(column, dev.shape)[at].item())
                for name, column in zip(self.names, columns)
            )


def _batches(count: int, size: int):
    """(start, stop) of consecutive slices of at most ``size`` of ``count``."""
    return ((i, min(i + size, count)) for i in range(0, count, size))


def _sample_physical(low, width, oversample, count, rng):
    """Uniform samples from [-1, 1]^width where every eigenvalue is >= 0, by
    the family's positivity pair ``low``, yielded as the rows each chunk of
    candidates accepts, in the order they are drawn.  Candidates come in
    rounds of ``oversample * count``, each drawn and tested ``oversample *
    BATCH_ROWS`` at a time.  A round is drawn to its end even once ``count``
    rows are kept, so once the generator is exhausted, the rows and the
    generator's state are those of drawing each round whole."""
    kept = 0
    while kept < count:
        for i0, i1 in _batches(oversample * count, oversample * BATCH_ROWS):
            cand = rng.uniform(-1.0, 1.0, size=(i1 - i0, width))
            if kept < count:
                good = cand[np.minimum(*low(*cand.T)) / 4 >= 0.0][: count - kept]
                if len(good):
                    yield good
                    kept += len(good)


def _rows(family, count, rng) -> np.ndarray:
    return np.concatenate([np.empty((0, family[1])), *_sample_physical(*family, count, rng)])


def sample_physical_bell(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the physical Bell-diagonal tetrahedron, (count, 3)."""
    return _rows(_BELL, count, rng)


def sample_physical_x(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the physical X-state parameter set, (count, 5)."""
    return _rows(_X, count, rng)


def _over_rows(name, tolerance, family, samples, rng, names, deviation) -> SuiteResult:
    """A sampled suite: ``deviation`` maps the columns of each batch of the
    ``samples`` rows of ``family`` to one deviation per row; the result holds
    the largest and the first row that reaches it."""
    worst = _RunningWorst(names)
    for rows in _sample_physical(*family, samples, rng):
        worst.add(deviation(rows.T), rows.T)
    return SuiteResult(name, float(worst.top), tolerance, worst.at)


def _spectrum_gap(eigenvalues, density):
    """Per state, the largest gap between closed-form and LAPACK spectra."""

    def gap(columns):
        closed = np.sort(np.stack(eigenvalues(*columns), axis=-1), axis=-1)[:, ::-1]
        return np.abs(closed - states.hermitian_spectrum(density(columns))).max(axis=1)

    return gap


def _coherence_gap(closed, density):
    """Per state, the gap between closed-form coherence and the generic
    entropy-difference route."""
    return lambda columns: np.abs(
        closed(*columns) - measures.relative_entropy_coherence(density(columns))
    )


def bell_spectrum_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form Bell-diagonal spectra against LAPACK spectra."""
    gap = _spectrum_gap(states.bell_eigenvalues, states.bell_density)
    return _over_rows("bell_spectrum_vs_jacobi", 1e-12, _BELL, samples, rng, BELL_FIELDS, gap)


def x_spectrum_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form X-state spectra against LAPACK spectra."""
    gap = _spectrum_gap(states.x_eigenvalues, states.x_density)
    return _over_rows("x_spectrum_vs_jacobi", 1e-12, _X, samples, rng, X_FIELDS, gap)


def bell_closed_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form Bell coherence against the generic entropy-difference route."""
    gap = _coherence_gap(measures.bell_relative_entropy_values, states.bell_density)
    return _over_rows("bell_closed_vs_jacobi", 1e-10, _BELL, samples, rng, BELL_FIELDS, gap)


def x_closed_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form X coherence against the generic entropy-difference route."""
    gap = _coherence_gap(measures.x_relative_entropy_values, states.x_density)
    return _over_rows("x_closed_vs_jacobi", 1e-10, _X, samples, rng, X_FIELDS, gap)


def channel_map_vs_kraus(state_count: int, rng: np.random.Generator) -> SuiteResult:
    """Correlation-triple maps against explicit product-channel application.

    The density stacks are built BATCH_ROWS // 64 states at a time, 101
    probabilities each.  At 16 states the contraction handed OpenBLAS a
    complex GEMM that it ran on two threads, and in some fresh processes the
    suite then took 128-134 ms instead of 11-19 ms; at 8 that did not show in
    16 fresh processes.  The batch size changes no bit of the deviations.
    The deviations are laid out (state, kind, p), so the worst is the first
    drawn state at the largest, then its first kind and p.
    """
    probs = np.linspace(0.0, 1.0, 101)[:, None]
    worst = _RunningWorst(("kind", "p") + BELL_FIELDS)
    for rows in _sample_physical(*_BELL, state_count, rng):
        for i0, i1 in _batches(len(rows), BATCH_ROWS // 64):
            part = rows[i0:i1].T
            rho, dev = states.bell_density(part), []
            for kind in channels.ChannelKind:
                mapped = np.broadcast_arrays(*channels.correlation_map_values(kind, probs, *part))
                direct = states.correlations_of(channels.apply_product_channel(rho, kind, probs))
                dev.append(np.abs(np.subtract(mapped, direct)).max(axis=0).T)
            columns = (_KINDS[:, None], probs[:, 0], *part[..., None, None])
            worst.add(np.stack(dev, axis=1), columns)
    return SuiteResult("channel_map_vs_kraus", float(worst.top), 1e-12, worst.at)


def kraus_completeness() -> SuiteResult:
    """sum(E^dag E) = I for every channel across a probability grid."""
    probs = np.linspace(0.0, 1.0, 101)
    dev = []
    for kind in channels.ChannelKind:
        ops = channels.kraus_ops(kind, probs)
        total = np.einsum("...kba,...kbc->...ac", ops.conj(), ops)
        dev.append(np.abs(total - np.eye(2)).max(axis=(-2, -1)))
    worst = _RunningWorst(("kind", "p"))
    worst.add(np.array(dev), (_KINDS[:, None], probs))
    return SuiteResult("kraus_completeness", float(worst.top), 1e-12, worst.at)


def discord_predicate_consistency() -> SuiteResult:
    """Equality predicate against |discord - coherence| <= tol on a dense grid.

    The deviation is the number of physical grid points where the two
    disagree, so the tolerance is zero.  The grid has 41 points per axis and
    is evaluated a few c1 layers at a time, each step about as many nodes as
    a batch of BATCH_ROWS density matrices has entries.
    """
    axis = np.linspace(-1.0, 1.0, 41)
    worst, mismatches = _RunningWorst(BELL_FIELDS), 0
    for i0, i1 in _batches(len(axis), max(1, 16 * BATCH_ROWS // len(axis) ** 2)):
        c1, c2, c3 = np.meshgrid(axis[i0:i1], axis, axis, indexing="ij")
        physical = states._bell_physical(c1, c2, c3)
        # only a physical node can mismatch, so only those are evaluated
        c = c1[physical], c2[physical], c3[physical]
        numeric_eq = (
            np.abs(measures.bell_discord_values(*c) - measures.bell_relative_entropy_values(*c))
            <= measures.TOL_EQ
        )
        mismatch = np.zeros_like(physical)
        mismatch[physical] = numeric_eq != measures.discord_equals_coherence_values(*c)
        mismatches += np.count_nonzero(mismatch)
        worst.add(mismatch, (c1, c2, c3))
    return SuiteResult("discord_predicate_grid", float(mismatches), 0.0, worst.at)


def trajectory_monotonicity(state_count: int, rng: np.random.Generator) -> SuiteResult:
    """Coherence along every channel trajectory must not increase with p.

    Trajectories are evaluated BATCH_ROWS // 8 states at a time, 101 grid
    points each, for every kind, and their rises laid out (state, kind, p):
    the worst is the first drawn state at the largest, then its kind and p.
    """
    probs = np.linspace(0.0, 1.0, 101)
    worst = _RunningWorst(("kind", "p") + BELL_FIELDS)
    for rows in _sample_physical(*_BELL, state_count, rng):
        for i0, i1 in _batches(len(rows), BATCH_ROWS // 8):
            c1, c2, c3 = rows[i0:i1].T[..., None, None]
            rise = []
            for kind in channels.ChannelKind:
                mapped = channels.correlation_map_values(kind, probs, c1, c2, c3)
                rise.append(np.diff(measures.bell_relative_entropy_values(*mapped), axis=-1))
            # a rise from p to the next grid point is reported at p
            worst.add(np.concatenate(rise, axis=1), (_KINDS[:, None], probs[:-1], c1, c2, c3))
    deviation = float(np.maximum(worst.top, 0.0))
    return SuiteResult("trajectory_monotonicity", deviation, 1e-9, worst.at)


def run_all(samples: int) -> list[SuiteResult]:
    """Run every suite, sampling from DEFAULT_SEED; returns results in order.
    ``samples`` is a positive integer; the suites check their states in
    fixed-size batches, so no array grows with it."""
    samples = states._require_count("samples", samples, 1, "samples must be positive")
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
