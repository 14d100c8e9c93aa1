import numpy as np
import pytest

from cohgeom import measures
from cohgeom.states import (
    DomainError,
    bell_density,
    is_physical_bell,
    is_physical_x,
    x_density,
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
        worst = (("kind", "pf"), ("p", 0.25), ("c1", 0.1))
        line = SuiteResult("demo", 1.5e-13, 1e-10, worst).line()
        assert "demo" in line and "max_dev=" in line and line.endswith("PASS")
        line = SuiteResult("demo", 1.0, 1e-10, worst).line()
        assert line.endswith("FAIL  at kind=pf p=0.25 c1=0.1")
        assert SuiteResult("demo", 1.0, 1e-10).line().endswith("FAIL")

    def test_negative_control_detects_corruption(self):
        for suite, closed, to_matrix in (
            (bell_closed_vs_jacobi, measures.bell_relative_entropy_values, bell_density),
            (x_closed_vs_jacobi, measures.x_relative_entropy_values, x_density),
        ):
            rng = np.random.default_rng(3)
            # corrupt one state in three, so the worst state is a specific one
            def corrupted(*c):
                return closed(*c) + 1e-6 * (np.arange(len(c[0])) % 3 == 1)

            result = suite(50, rng, closed_form=corrupted)
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
        result = discord_predicate_consistency(21)
        assert result.deviation == 0.0

    def test_completeness(self):
        assert kraus_completeness().passed

    def test_monotonicity(self):
        assert trajectory_monotonicity(20, np.random.default_rng(9)).passed

    def test_rejects_bad_sample_count(self):
        with pytest.raises(DomainError):
            run_all(samples=0)
