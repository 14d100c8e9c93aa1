import numpy as np
import pytest

from cohgeom import measures
from cohgeom.states import (
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
    discord_predicate_consistency,
    kraus_completeness,
    run_all,
    sample_physical_bell,
    sample_physical_x,
    trajectory_monotonicity,
    x_closed_vs_jacobi,
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

    def test_draws_follow_the_rejection_batches(self):
        # verify's output depends on these exact draws: batches of 4 count
        # (Bell) or 8 count (X) candidates, accepted rows kept in order
        for sample, eigenvalues, width, batch in (
            (sample_physical_bell, bell_eigenvalues, 3, 4),
            (sample_physical_x, x_eigenvalues, 5, 8),
        ):
            rng = np.random.default_rng(2)
            kept = np.empty((0, width))
            while len(kept) < 7:
                cand = rng.uniform(-1.0, 1.0, size=(batch * 7, width))
                lam_min = np.minimum.reduce(eigenvalues(*cand.T))
                kept = np.concatenate([kept, cand[lam_min >= 0.0]])
            other = np.random.default_rng(2)
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

    def test_rejects_bad_sample_count(self):
        with pytest.raises(DomainError):
            run_all(samples=0)
