import numpy as np
import pytest

from cohgeom import measures
from cohgeom.measures import (
    MeasureKind,
    bell_discord_values,
    bell_relative_entropy_values,
    discord_equals_coherence_values,
    l1_coherence,
    relative_entropy_coherence,
    trace_norm_coherence_x,
    x_relative_entropy_values,
)
from cohgeom.states import DomainError, bell_density, require_physical_bell, x_density
from cohgeom.verification import sample_physical_bell, sample_physical_x

# fixed reference: coherence of the state with correlations (0.5, 0, 0),
# computed independently as 2 - entropy of (0.375, 0.375, 0.125, 0.125)
COHERENCE_HALF_AXIS = 0.18872187554086706


class TestXlog2x:
    @staticmethod
    def gather(v):
        # the gather-and-scatter form that _xlog2x replaced, kept as its reference
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        pos = v > 0.0
        out[pos] = v[pos] * np.log2(v[pos])
        return out

    def test_special_values(self):
        v = np.array([np.nan, -0.0, 0.0, -1e-17, -1.0, 5e-324, np.inf, -np.inf, 1.0, 0.5])
        got = measures._xlog2x(v)
        assert got.tobytes() == self.gather(v).tobytes()
        assert np.array_equal(got[:6], [0.0] * 5 + [5e-324 * -1074.0])
        assert not np.signbit(got[1])
        assert got[6] == np.inf and got[8] == 0.0 and got[9] == -0.5

    def test_bitwise_equal_to_gather_form(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(-0.25, 1.0, 10**6)
        v[rng.random(v.size) < 0.01] = np.nan
        v[rng.random(v.size) < 0.01] = 0.0
        assert measures._xlog2x(v).tobytes() == self.gather(v).tobytes()
        for scalar in (0.3, 0.0, -0.0, np.nan):
            assert measures._xlog2x(scalar).tobytes() == self.gather(scalar).tobytes()

    @staticmethod
    def masked(v):
        # the masked-ufunc form that _xlog2x replaced
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        pos = v > 0.0
        np.log2(v, out=out, where=pos)
        return np.multiply(out, v, out=out, where=pos)

    def test_bitwise_equal_to_masked_form(self):
        special = [0.0, -0.0, 5e-324, -5e-324, -1e-13, np.nan, 0.25, 1.0]
        v = np.concatenate([special, np.random.default_rng(13).random(10**5)])
        assert np.array_equal(
            measures._xlog2x(v).view(np.int64), self.masked(v).view(np.int64)
        )

    def test_python_float_gives_a_0d_array(self):
        for scalar in (0.25, 0.0, -0.0, -1e-13, float("nan")):
            got, expected = measures._xlog2x(scalar), self.masked(scalar)
            assert type(got) is type(expected) is np.ndarray
            assert got.shape == () and got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()


class TestL1Coherence:
    def test_diagonal_state(self):
        assert l1_coherence(bell_density((0, 0, 0.7))) == 0.0

    def test_bell_vertex(self):
        assert l1_coherence(bell_density((1, -1, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_generic_value(self):
        # (|c1 - c2| + |c1 + c2|) / 2 = (0.2 + 0.8) / 2
        assert l1_coherence(bell_density((0.5, 0.3, 0))) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_on_random_states(self):
        rng = np.random.default_rng(41)
        for row in sample_physical_bell(300, rng):
            expected = (abs(row[0] - row[1]) + abs(row[0] + row[1])) / 2
            assert l1_coherence(bell_density(row)) == pytest.approx(expected, abs=1e-12)


class TestTraceNormCoherence:
    def test_equals_l1_for_bell(self):
        rho = bell_density((0.5, 0.3, 0))
        assert trace_norm_coherence_x(rho) == l1_coherence(rho)

    def test_zero_on_diagonal(self):
        assert trace_norm_coherence_x(bell_density((0, 0, 0.2))) == 0.0

    def test_equals_l1_for_x_states(self):
        rho = x_density((0.5, 0.5, 0.4, 0.2, 0.1))
        assert trace_norm_coherence_x(rho) == l1_coherence(rho)

    def test_rejects_non_x_shape(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = rho[1, 0] = 0.05
        with pytest.raises(DomainError):
            trace_norm_coherence_x(rho)


class TestRelativeEntropyCoherence:
    def test_diagonal_state_is_zero(self):
        assert relative_entropy_coherence(bell_density((0, 0, 0.5))) == 0.0
        assert bell_relative_entropy_values(0, 0, 0.5) == 0.0

    def test_bell_vertex_is_one(self):
        assert relative_entropy_coherence(bell_density((1, -1, 1))) == pytest.approx(
            1.0, abs=1e-12
        )
        assert bell_relative_entropy_values(1, -1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_half_axis_value(self):
        assert bell_relative_entropy_values(0.5, 0, 0) == pytest.approx(
            COHERENCE_HALF_AXIS, abs=1e-12
        )
        assert relative_entropy_coherence(bell_density((0.5, 0, 0))) == pytest.approx(
            COHERENCE_HALF_AXIS, abs=1e-12
        )

    def test_closed_vs_generic_bell(self):
        rng = np.random.default_rng(43)
        rows = sample_physical_bell(300, rng)
        assert bell_relative_entropy_values(*rows.T) == pytest.approx(
            relative_entropy_coherence(bell_density(rows.T)), abs=1e-10
        )

    def test_closed_vs_generic_x(self):
        rng = np.random.default_rng(47)
        rows = sample_physical_x(300, rng)
        assert x_relative_entropy_values(*rows.T) == pytest.approx(
            relative_entropy_coherence(x_density(rows.T)), abs=1e-10
        )

    def test_rejects_unphysical(self):
        # the kernels assume physical input; the one gate refuses the rest
        with pytest.raises(DomainError):
            require_physical_bell((0.9, 0.9, 0))
        with pytest.raises(DomainError):
            relative_entropy_coherence(bell_density((0.9, 0.9, 0)))

    def test_sign_symmetries(self):
        rng = np.random.default_rng(53)
        transforms = [(-1, -1, 1), (-1, 1, -1), (1, -1, -1)]
        for row in sample_physical_bell(200, rng):
            base_r = bell_relative_entropy_values(*row)
            base_l = l1_coherence(bell_density(row))
            for f in transforms:
                flipped = tuple(v * s for v, s in zip(row, f))
                assert bell_relative_entropy_values(*flipped) == pytest.approx(
                    base_r, abs=1e-12
                )
                assert l1_coherence(bell_density(flipped)) == pytest.approx(
                    base_l, abs=1e-12
                )

    def test_zero_iff_no_transverse_correlations(self):
        for c3 in np.linspace(-1, 1, 21):
            assert bell_relative_entropy_values(0, 0, c3) == 0.0
            assert l1_coherence(bell_density((0, 0, c3))) == 0.0
        rng = np.random.default_rng(59)
        for row in sample_physical_bell(300, rng):
            if max(abs(row[0]), abs(row[1])) > 0.01:
                assert l1_coherence(bell_density(row)) > 0.0
                assert bell_relative_entropy_values(*row) > 0.0


class TestDiscord:
    def test_classically_correlated_axis(self):
        assert bell_discord_values(0, 0, 0.9) == pytest.approx(0.0, abs=1e-12)

    def test_product_state(self):
        assert bell_discord_values(0, 0, 0) == pytest.approx(0.0, abs=1e-12)

    def test_equals_coherence_when_c3_dominates(self):
        assert bell_discord_values(0.1, 0.1, 0.5) == pytest.approx(
            bell_relative_entropy_values(0.1, 0.1, 0.5), abs=1e-9
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(61)
        assert (bell_discord_values(*sample_physical_bell(300, rng).T) >= 0.0).all()

    def test_rejects_unphysical(self):
        with pytest.raises(DomainError):
            require_physical_bell((0.9, 0.9, 0))


class TestDiscordEqualsCoherence:
    def test_true_when_c3_dominates(self):
        assert discord_equals_coherence_values(0.1, 0.1, 0.5)

    def test_true_at_origin(self):
        assert discord_equals_coherence_values(0, 0, 0)

    def test_symmetric_in_c3_sign(self):
        # the equality region is mirrored below the c3 = 0 plane: both
        # quantities depend on c3 only through |c3|
        params = (-0.5, -0.5, -0.5)
        gap = bell_discord_values(*params) - bell_relative_entropy_values(*params)
        assert abs(gap) < 1e-12
        assert discord_equals_coherence_values(*params)
        assert discord_equals_coherence_values(0.1, 0.1, -0.5)

    def test_false_when_transverse_dominates(self):
        params = (0.5, 0.1, 0.1)
        assert not discord_equals_coherence_values(*params)
        gap = bell_discord_values(*params) - bell_relative_entropy_values(*params)
        assert abs(gap) > 1e-9

    def test_matches_numerical_equality(self):
        rng = np.random.default_rng(67)
        c = sample_physical_bell(500, rng).T
        numeric = (
            np.abs(bell_discord_values(*c) - bell_relative_entropy_values(*c))
            <= measures.TOL_EQ
        )
        assert np.array_equal(discord_equals_coherence_values(*c), numeric)


class TestMeasureKind:
    def test_cli_values(self):
        assert {k.value for k in MeasureKind} == {"l1", "trace", "rel-ent", "discord"}
