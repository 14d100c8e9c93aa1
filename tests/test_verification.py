import hashlib
import tracemalloc

import numpy as np
import pytest

from cohgeom import channels, measures, states, verification
from cohgeom.states import (
    BELL_FIELDS,
    X_FIELDS,
    DomainError,
    TOL_PSD,
    bell_density,
    bell_eigenvalues,
    x_density,
    x_eigenvalues,
)
from cohgeom.verification import (
    SuiteResult,
    bell_closed_vs_jacobi,
    bell_spectrum_vs_jacobi,
    channel_map_vs_kraus,
    discord_predicate_consistency,
    kraus_completeness,
    run_all,
    sample_physical_bell,
    sample_physical_x,
    trajectory_monotonicity,
    x_closed_vs_jacobi,
    x_spectrum_vs_jacobi,
)


class TestSampling:
    def test_bell_samples_physical(self):
        rng = np.random.default_rng(0)
        rows = sample_physical_bell(200, rng)
        assert rows.shape == (200, 3)
        assert np.abs(rows).max() <= 1.0
        assert np.minimum.reduce(bell_eigenvalues(*rows.T)).min() >= -TOL_PSD

    def test_x_samples_physical(self):
        rng = np.random.default_rng(0)
        rows = sample_physical_x(200, rng)
        assert rows.shape == (200, 5)
        assert np.abs(rows).max() <= 1.0
        assert np.minimum.reduce(x_eigenvalues(*rows.T)).min() >= -TOL_PSD

    def test_draws_follow_the_rejection_batches(self, monkeypatch):
        # verify's output depends on these exact draws: rounds of 4 count
        # (Bell) or 8 count (X) candidates, accepted rows kept in order, and
        # every round drawn to its end.  The second case draws in chunks of
        # 2 oversample rows, so each round of 4 * 7 or 8 * 7 candidates spans
        # four chunks, and its seed needs two rounds for both samplers.
        for seed, batch_rows, rounds in ((2, None, None), (7, 2, 2)):
            if batch_rows:
                monkeypatch.setattr(verification, "BATCH_ROWS", batch_rows, raising=False)
            for sample, eigenvalues, width, batch in (
                (sample_physical_bell, bell_eigenvalues, 3, 4),
                (sample_physical_x, x_eigenvalues, 5, 8),
            ):
                rng = np.random.default_rng(seed)
                kept = np.empty((0, width))
                drawn = 0
                while len(kept) < 7:
                    cand = rng.uniform(-1.0, 1.0, size=(batch * 7, width))
                    lam_min = np.minimum.reduce(eigenvalues(*cand.T))
                    kept = np.concatenate([kept, cand[lam_min >= 0.0]])
                    drawn += 1
                assert rounds in (None, drawn)
                other = np.random.default_rng(seed)
                assert np.array_equal(sample(7, other), kept[:7])
                assert other.random() == rng.random()

    def test_deterministic_for_fixed_seed(self):
        a = sample_physical_bell(50, np.random.default_rng(5))
        b = sample_physical_bell(50, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestSuites:
    def test_run_all_passes(self):
        results = run_all(samples=300)
        assert len(results) == 8
        for result in results:
            assert result.passed, result.line()

    def test_result_line_format(self):
        worst = (("kind", "pf"), ("p", 0.25), ("c1", 0.1))
        line = SuiteResult("demo", 1.5e-13, 1e-10, worst).line()
        assert "demo" in line and "max_dev=" in line and line.endswith("PASS")
        line = SuiteResult("demo", 1.0, 1e-10, worst).line()
        assert line.endswith("FAIL  at kind=pf p=0.25 c1=0.1")
        assert SuiteResult("demo", 1.0, 1e-10).line().endswith("FAIL")

    def test_negative_control_detects_corruption(self, monkeypatch):
        for suite, kernel, to_matrix in (
            (bell_closed_vs_jacobi, "bell_relative_entropy_values", bell_density),
            (x_closed_vs_jacobi, "x_relative_entropy_values", x_density),
        ):
            rng = np.random.default_rng(3)
            closed = getattr(measures, kernel)

            # corrupt one state in three, so the worst state is a specific one
            def corrupted(*c):
                return closed(*c) + 1e-6 * (np.arange(len(c[0])) % 3 == 1)

            monkeypatch.setattr(measures, kernel, corrupted)
            result = suite(50, rng)
            assert not result.passed
            # the FAIL line names a state that reproduces the deviation
            _, at = result.line().split("  at ")
            state = [float(item.split("=")[1]) for item in at.split()]
            values = [np.array([0.0, v]) for v in state]
            generic = measures.relative_entropy_coherence(to_matrix(state))
            assert abs(corrupted(*values)[1] - generic) == result.deviation > result.tolerance

    def test_channel_suite_failure_names_kind_and_p(self, monkeypatch):
        kernel = measures.bell_relative_entropy_values
        monkeypatch.setattr(
            measures,
            "bell_relative_entropy_values",
            lambda c1, c2, c3: kernel(c1, c2, c3) + np.asarray(c3 < 0.3),
        )
        result = trajectory_monotonicity(20, np.random.default_rng(9))
        assert not result.passed
        names = [name for name, _ in result.worst]
        assert names == ["kind", "p", "c1", "c2", "c3"]
        assert " kind=" in result.line() and " p=" in result.line()

    def test_predicate_grid_has_no_mismatches(self):
        result = discord_predicate_consistency()
        assert result.deviation == 0.0

    def test_predicate_grid_checks_the_library_predicate(self, monkeypatch):
        # strict and without the tolerance: wrong exactly at the ties |c3| = |c1|
        def strict(c1, c2, c3):
            return np.abs(c3) > np.maximum(np.abs(c1), np.abs(c2))

        monkeypatch.setattr(measures, "discord_equals_coherence_values", strict)
        result = discord_predicate_consistency()
        assert not result.passed
        _, at = result.line().split("  at ")
        names, values = zip(*(item.split("=") for item in at.split()))
        assert names == ("c1", "c2", "c3")
        c1, c2, c3 = map(float, values)
        assert {c1, c2, c3} <= set(np.linspace(-1.0, 1.0, 41))
        assert abs(c3) == max(abs(c1), abs(c2))
        assert measures.bell_discord_values(c1, c2, c3) == pytest.approx(
            measures.bell_relative_entropy_values(c1, c2, c3), abs=measures.TOL_EQ
        )

    def test_completeness(self):
        assert kraus_completeness().passed

    def test_monotonicity(self):
        assert trajectory_monotonicity(20, np.random.default_rng(9)).passed

    # sha256 of the run_all lines joined by newlines, which is verify's
    # stdout: at the benchmark's 3,000 samples and the CLI's default 10,000
    LINE_DIGESTS = {
        3000: "059f7363986f166542045b5bda8aa5517accb9a90209fc3cffbd91a2e3adfcaf",
        10000: "a0ce5ab94915a32d5e80ea5674869d4b8233db0763a34baef944b924e5dfaba3",
    }

    @pytest.mark.parametrize("samples", sorted(LINE_DIGESTS))
    def test_lines_are_pinned(self, samples):
        lines = "\n".join(result.line() for result in run_all(samples))
        assert hashlib.sha256(lines.encode()).hexdigest() == self.LINE_DIGESTS[samples]

    @pytest.mark.parametrize(
        "seed, suite, sample, names, module, name, gap",
        [
            (
                0, bell_spectrum_vs_jacobi, sample_physical_bell, BELL_FIELDS,
                states, "hermitian_spectrum",
                lambda rows: np.abs(
                    np.sort(np.stack(bell_eigenvalues(*rows.T), axis=-1))[:, ::-1]
                    - states.hermitian_spectrum(bell_density(rows.T))
                ).max(axis=1),
            ),
            (
                3, x_spectrum_vs_jacobi, sample_physical_x, X_FIELDS,
                states, "hermitian_spectrum",
                lambda rows: np.abs(
                    np.sort(np.stack(x_eigenvalues(*rows.T), axis=-1))[:, ::-1]
                    - states.hermitian_spectrum(x_density(rows.T))
                ).max(axis=1),
            ),
            (
                0, bell_closed_vs_jacobi, sample_physical_bell, BELL_FIELDS,
                measures, "bell_relative_entropy_values",
                lambda rows: np.abs(
                    measures.bell_relative_entropy_values(*rows.T)
                    - measures.relative_entropy_coherence(bell_density(rows.T))
                ),
            ),
            (
                0, x_closed_vs_jacobi, sample_physical_x, X_FIELDS,
                measures, "x_relative_entropy_values",
                lambda rows: np.abs(
                    measures.x_relative_entropy_values(*rows.T)
                    - measures.relative_entropy_coherence(x_density(rows.T))
                ),
            ),
        ],
        ids=["bell_spectrum", "x_spectrum", "bell_closed", "x_closed"],
    )
    def test_tied_deviations_report_the_first_state(
        self, monkeypatch, seed, suite, sample, names, module, name, gap
    ):
        # one side of the comparison moved by the same 1e-6 for every state:
        # the deviations then tie at ulp multiples of 1e-6, here on rows
        # hundreds apart, and the FAIL line must name the first of them, as
        # the deviation over all rows at once gives it
        shifted = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: shifted(*args) + 1e-6)
        rows = sample(3000, np.random.default_rng(seed))
        dev = gap(rows)
        tied = np.flatnonzero(dev == dev.max())
        assert len(tied) > 1 and tied[-1] - tied[0] > 512
        result = suite(3000, np.random.default_rng(seed))
        assert result.deviation == dev.max()
        assert result.worst == tuple(zip(names, rows[tied[0]]))

    def test_tied_channel_deviations_report_the_first_state(self, monkeypatch):
        # the first maximum in (kind, p, state) order, over 30 states
        mapped = channels.correlation_map_values
        monkeypatch.setattr(
            channels, "correlation_map_values",
            lambda *args: tuple(c + 1e-6 for c in mapped(*args)),
        )
        triples = sample_physical_bell(30, np.random.default_rng(3))
        probs = np.linspace(0.0, 1.0, 101)[:, None]
        rho = bell_density(triples.T)
        dev = np.array([
            np.abs(np.subtract(
                np.broadcast_arrays(*channels.correlation_map_values(kind, probs, *triples.T)),
                states.correlations_of(channels.apply_product_channel(rho, kind, probs)),
            )).max(axis=0)
            for kind in channels.ChannelKind
        ])
        tied = np.argwhere(dev == dev.max())
        assert len(tied) > 1 and len(set(tied[:, 2])) > 1
        k, p, i = tied[0]
        result = channel_map_vs_kraus(30, np.random.default_rng(3))
        assert result.deviation == dev.max()
        kind = list(channels.ChannelKind)[k].value
        assert result.worst == (("kind", kind), ("p", probs[p, 0]), *zip(BELL_FIELDS, triples[i]))

    @pytest.mark.parametrize("tied", [False, True])
    def test_channel_batch_changes_no_bit(self, monkeypatch, tied):
        # BATCH_ROWS // 64 states per density stack: 1, 3, 8 (the default),
        # 16 and all 30 give the same deviation and worst state, bitwise,
        # with the maximum reached once or tied across states
        if tied:
            mapped = channels.correlation_map_values
            monkeypatch.setattr(
                channels, "correlation_map_values",
                lambda *args: tuple(c + 1e-6 for c in mapped(*args)),
            )
        results = set()
        for batch in (1, 3, 8, 16, 32):
            monkeypatch.setattr(verification, "BATCH_ROWS", 64 * batch)
            result = channel_map_vs_kraus(30, np.random.default_rng(3))
            results.add((result.deviation.hex(), repr(result.worst)))
        assert len(results) == 1

    def test_trajectory_worst_is_first_in_kind_state_p_order(self, monkeypatch):
        # coherence patched to count |c1| < 0.5 and |c3| < 0.5, so the only
        # rises are 1, where a shrinking c1 or c3 crosses 0.5: bit flip
        # shrinks c3 and keeps c1, phase flip shrinks c1 and keeps c3.  Row 0
        # rises only under phase flip, row 100, batches later, only under bit
        # flip, the first kind: (kind, state, p) order reports row 100.  The
        # sampler is replaced by one that yields the rows 64 at a time.
        rows = np.zeros((130, 3))
        rows[0, 0] = rows[100, 2] = 0.8
        monkeypatch.setattr(
            verification, "_sample_physical",
            lambda *args: ((i, rows[i : i + 64]) for i in range(0, len(rows), 64)),
        )
        monkeypatch.setattr(
            measures, "bell_relative_entropy_values",
            lambda c1, c2, c3: (np.abs(c1) < 0.5) * 1.0 + (np.abs(c3) < 0.5),
        )
        result = trajectory_monotonicity(130, None)
        assert result.deviation == 1.0
        kind = next(iter(channels.ChannelKind)).value
        assert result.worst[0] == ("kind", kind)
        assert result.worst[2:] == tuple(zip(BELL_FIELDS, rows[100]))

    def test_running_worst_is_the_first_maximum_of_the_whole_array(self):
        # blocks along the last axis of a (3, 4, 12) array, given in reverse:
        # the kept entry is np.argmax's over the whole array, on ties and NaN
        rng = np.random.default_rng(5)
        for nan_at in (None, (2, 1, 3), (0, 3, 11)):
            dev = rng.integers(0, 3, (3, 4, 12)).astype(float)
            if nan_at:
                dev[nan_at] = dev[2, 3, 0] = np.nan
            flat = np.arange(dev.size).reshape(dev.shape)
            worst = verification._RunningWorst(("index",))
            for i0 in (8, 4, 0):
                worst.add(dev[:, :, i0 : i0 + 4], (flat[:, :, i0 : i0 + 4],), (0, 0, i0))
            assert worst.at == (("index", int(np.argmax(dev))),)
            assert np.array_equal(worst.top, dev.flat[np.argmax(dev)], equal_nan=True)

    def test_traced_peak_does_not_grow_with_the_batches(self):
        # the samples are checked in batches as they are drawn, and every
        # stack and spectrum is a batch of fixed size, so nothing grows with
        # the sample count: the peak rose 136-142 KB from 3,000 to 30,000
        # samples (the channel and trajectory suites' first candidate chunks
        # reach full size), and 977-990 KB when the samples were kept whole
        def traced_peak(samples):
            tracemalloc.start()
            try:
                run_all(samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(3000), traced_peak(30000)
        assert large <= small + 256 * 1024

    def test_rejects_bad_sample_count(self):
        with pytest.raises(DomainError):
            run_all(samples=0)

    @pytest.mark.parametrize("samples", [2.5, 300.0, "300", True, None])
    def test_samples_must_be_an_integer(self, samples):
        # 2.5 used to fail with a TypeError deep in the samplers
        with pytest.raises(DomainError, match="samples must be an integer"):
            run_all(samples)

    def test_sample_count_is_not_charged_memory(self, small_memory):
        # no array grows with the count, so 1 MiB of physical memory takes
        # more samples than 75 bytes each would allow
        assert len(run_all(14_000)) == 8
