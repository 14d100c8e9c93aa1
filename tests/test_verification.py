import numpy as np
import pytest

from cohgeom import measures
from cohgeom.states import DomainError, is_physical_bell, is_physical_x
from cohgeom.verification import (
    SuiteResult,
    bell_closed_vs_jacobi,
    discord_predicate_consistency,
    kraus_completeness,
    run_all,
    sample_physical_bell,
    sample_physical_x,
    trajectory_monotonicity,
)


class TestSampling:
    def test_bell_samples_physical(self):
        rng = np.random.default_rng(0)
        rows = sample_physical_bell(200, rng)
        assert rows.shape == (200, 3)
        assert all(is_physical_bell(row) for row in rows)

    def test_x_samples_physical(self):
        rng = np.random.default_rng(0)
        rows = sample_physical_x(200, rng)
        assert rows.shape == (200, 5)
        assert all(is_physical_x(row) for row in rows)

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
        line = SuiteResult("demo", 1.5e-13, 1e-10).line()
        assert "demo" in line and "max_dev=" in line and "PASS" in line
        assert "FAIL" in SuiteResult("demo", 1.0, 1e-10).line()

    def test_negative_control_detects_corruption(self):
        rng = np.random.default_rng(3)
        corrupted = lambda *c: measures.bell_relative_entropy_values(*c) + 1e-6
        result = bell_closed_vs_jacobi(50, rng, closed_form=corrupted)
        assert not result.passed

    def test_predicate_grid_has_no_mismatches(self):
        result = discord_predicate_consistency(21)
        assert result.deviation == 0.0

    def test_completeness(self):
        assert kraus_completeness().passed

    def test_monotonicity(self):
        assert trajectory_monotonicity(20, np.random.default_rng(9)).passed

    def test_rejects_bad_sample_count(self):
        with pytest.raises(DomainError):
            run_all(samples=0)
