"""Cross-check suites pitting closed forms against their independent oracles.

Each suite reduces to a single worst-case deviation compared against a fixed
tolerance: closed-form spectra and entropies against LAPACK ``eigvalsh``
spectra, the correlation-triple channel maps against explicit Kraus
application, Kraus completeness, the discord/coherence equality predicate
against the numerical equality test, and coherence monotonicity along channel
trajectories.  Every suite works on batches of a fixed size, so its arrays do
not grow with the sample count: the sampled suites build ``(B, 4, 4)`` stacks
of BATCH_ROWS states, the channel suite builds ``(P, B, 4, 4)`` stacks of
BATCH_ROWS // 64 states, with the probability grid as one more axis, and the
grid and trajectory suites take a few layers or states at a time.  What
grows is the sampled rows, kept as one array, and the channel suite's (kind,
p, state) deviations.  A suite reports the first state, in the C order of its
whole deviation array, at which the worst deviation occurs, whatever the
batches.  The ``_vs_jacobi`` suite names predate the LAPACK oracle and are
kept because the ``verify`` output pins them.  The CLI ``verify`` subcommand
runs all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels, measures, states
from .states import BELL_FIELDS, X_FIELDS

DEFAULT_SEED = 1234

# Peak bytes of a `verify` run per sample, from child peak RSS: 41.3, 48.8
# and 98.1 MiB at 10^5, 3 10^5 and 10^6 samples, 66-74 bytes per added
# sample (37.5 MiB at 3,000).  The rows of one sampled suite take 24 (Bell)
# or 40 (X) bytes per sample, and malloc keeps the freed Bell rows' pages
# while the X rows are live.
PEAK_BYTES_PER_SAMPLE = 75

# States a sampled suite evaluates at once, and accepted rows a rejection
# chunk yields on average.  Child peak RSS of `verify --samples 3000` read
# 38.4, 39.3, 41.5 and 41.6 MiB at 256, 512, 1024 and 2048, and `run_all(3000)`
# took 54, 44, 43 and 45 ms (best of 12, alternating in one process).
BATCH_ROWS = 512

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


class _RunningWorst:
    """The first maximum of deviations that arrive a batch at a time, in the
    C order of the whole array they are parts of.  A batch replaces the worst
    state only on a strictly greater maximum (or a first NaN), so ties keep
    the earliest state, as ``np.argmax`` over the whole array would."""

    def __init__(self, names):
        self.names = names
        self.top = None
        self.at = ()

    def add(self, dev, columns) -> None:
        top = dev.max()
        if self.top is None or np.argmax([self.top, top]) == 1:
            self.top, self.at = top, _worst(dev, self.names, columns)


def _batches(count: int, size: int):
    """(start, stop) of consecutive slices of at most ``size`` of ``count``."""
    return ((i, min(i + size, count)) for i in range(0, count, size))


def _sample_physical(eigenvalues, width, oversample, count, rng) -> np.ndarray:
    """Uniform samples from [-1, 1]^width where every eigenvalue is >= 0;
    (count, width).  Candidates come in rounds of ``oversample * count``,
    each drawn and tested ``oversample * BATCH_ROWS`` at a time, and accepted
    rows are kept in order.  A round is drawn to its end even once ``count``
    rows are kept, so the rows and the generator's state after the call are
    those of drawing each round whole."""
    out = np.empty((count, width))
    kept = 0
    while kept < count:
        for i0, i1 in _batches(oversample * count, oversample * BATCH_ROWS):
            cand = rng.uniform(-1.0, 1.0, size=(i1 - i0, width))
            if kept < count:
                good = cand[np.minimum.reduce(eigenvalues(*cand.T)) >= 0.0]
                good = good[: count - kept]
                out[kept : kept + len(good)] = good
                kept += len(good)
    return out


def sample_physical_bell(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the physical Bell-diagonal tetrahedron, (count, 3)."""
    return _sample_physical(states.bell_eigenvalues, 3, 4, count, rng)


def sample_physical_x(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the physical X-state parameter set, (count, 5)."""
    return _sample_physical(states.x_eigenvalues, 5, 8, count, rng)


def _descending(eigenvalues) -> np.ndarray:
    """Stack a tuple of eigenvalue arrays into (N, 4) rows sorted descending."""
    return np.sort(np.stack(eigenvalues, axis=-1), axis=-1)[:, ::-1]


def _over_rows(name, tolerance, rows, names, deviation) -> SuiteResult:
    """A sampled suite: ``deviation`` maps the columns of BATCH_ROWS rows at
    a time to one deviation per row; the result holds the largest and the
    first row that reaches it."""
    worst = _RunningWorst(names)
    for i0, i1 in _batches(len(rows), BATCH_ROWS):
        columns = rows[i0:i1].T
        worst.add(deviation(columns), columns)
    return SuiteResult(name, float(worst.top), tolerance, worst.at)


def _spectrum_gap(eigenvalues, density):
    """Per state, the largest gap between closed-form and LAPACK spectra."""

    def gap(columns):
        closed = _descending(eigenvalues(*columns))
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
    rows = sample_physical_bell(samples, rng)
    gap = _spectrum_gap(states.bell_eigenvalues, states.bell_density)
    return _over_rows("bell_spectrum_vs_jacobi", 1e-12, rows, BELL_FIELDS, gap)


def x_spectrum_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form X-state spectra against LAPACK spectra."""
    rows = sample_physical_x(samples, rng)
    gap = _spectrum_gap(states.x_eigenvalues, states.x_density)
    return _over_rows("x_spectrum_vs_jacobi", 1e-12, rows, X_FIELDS, gap)


def bell_closed_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form Bell coherence against the generic entropy-difference route."""
    rows = sample_physical_bell(samples, rng)
    gap = _coherence_gap(measures.bell_relative_entropy_values, states.bell_density)
    return _over_rows("bell_closed_vs_jacobi", 1e-10, rows, BELL_FIELDS, gap)


def x_closed_vs_jacobi(samples: int, rng: np.random.Generator) -> SuiteResult:
    """Closed-form X coherence against the generic entropy-difference route."""
    rows = sample_physical_x(samples, rng)
    gap = _coherence_gap(measures.x_relative_entropy_values, states.x_density)
    return _over_rows("x_closed_vs_jacobi", 1e-10, rows, X_FIELDS, gap)


def channel_map_vs_kraus(state_count: int, rng: np.random.Generator) -> SuiteResult:
    """Correlation-triple maps against explicit product-channel application.

    The density stacks are built BATCH_ROWS // 64 states at a time, 101
    probabilities each.  At 16 states the contraction handed OpenBLAS a
    complex GEMM that it ran on two threads, and in some fresh processes the
    suite then took 128-134 ms instead of 11-19 ms; at 8 that did not show in
    16 fresh processes.  The batch size changes no bit of the deviations.
    The worst state is the first maximum in (kind, p, state) order, which
    batches over states do not visit in turn, so the (kind, p, state)
    deviations are kept whole: 8 bytes per kind, p and state.
    """
    triples = sample_physical_bell(state_count, rng)
    probs = np.linspace(0.0, 1.0, 101)[:, None]
    dev = np.empty((len(_KINDS), len(probs), state_count))
    for i0, i1 in _batches(state_count, BATCH_ROWS // 64):
        part = triples[i0:i1].T
        rho = states.bell_density(part)
        for k, kind in enumerate(channels.ChannelKind):
            mapped = np.broadcast_arrays(*channels.correlation_map_values(kind, probs, *part))
            direct = states.correlations_of(channels.apply_product_channel(rho, kind, probs))
            dev[k, :, i0:i1] = np.abs(np.subtract(mapped, direct)).max(axis=0)
    worst = _worst(dev, ("kind", "p") + BELL_FIELDS, (_KINDS[:, None, None], probs, *triples.T))
    return SuiteResult("channel_map_vs_kraus", float(dev.max()), 1e-12, worst)


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
    disagree, so the tolerance is zero.  The grid has 41 points per axis and
    is evaluated a few c1 layers at a time, each step about as many nodes as
    a batch of BATCH_ROWS density matrices has entries.
    """
    axis = np.linspace(-1.0, 1.0, 41)
    worst, mismatches = _RunningWorst(BELL_FIELDS), 0
    for i0, i1 in _batches(len(axis), max(1, 16 * BATCH_ROWS // len(axis) ** 2)):
        c1, c2, c3 = np.meshgrid(axis[i0:i1], axis, axis, indexing="ij")
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
        mismatches += np.count_nonzero(mismatch)
        worst.add(mismatch, (c1, c2, c3))
    return SuiteResult("discord_predicate_grid", float(mismatches), 0.0, worst.at)


def trajectory_monotonicity(state_count: int, rng: np.random.Generator) -> SuiteResult:
    """Coherence along every channel trajectory must not increase with p.

    Trajectories are evaluated BATCH_ROWS // 8 states at a time, 101 grid
    points each, kind by kind, which visits the rises in (kind, state, p)
    order.
    """
    probs = np.linspace(0.0, 1.0, 101)
    rows = sample_physical_bell(state_count, rng)
    worst = _RunningWorst(("kind", "p") + BELL_FIELDS)
    for kind in channels.ChannelKind:
        for i0, i1 in _batches(state_count, BATCH_ROWS // 8):
            c1, c2, c3 = rows[i0:i1].T[:, :, None]
            mapped = channels.correlation_map_values(kind, probs, c1, c2, c3)
            rise = np.diff(measures.bell_relative_entropy_values(*mapped), axis=-1)
            # a rise from p to the next grid point is reported at p
            worst.add(rise, (kind.value, probs[:-1], c1, c2, c3))
    deviation = float(np.maximum(worst.top, 0.0))
    return SuiteResult("trajectory_monotonicity", deviation, 1e-9, worst.at)


def run_all(samples: int) -> list[SuiteResult]:
    """Run every suite, sampling from DEFAULT_SEED; returns results in order.
    ``samples`` is a positive integer.  Refuses a count whose
    PEAK_BYTES_PER_SAMPLE estimate exceeds physical memory before sampling."""
    samples = states._require_count("samples", samples, 1, "samples must be positive")
    states._require_memory(f"{samples} samples", PEAK_BYTES_PER_SAMPLE * samples)
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
