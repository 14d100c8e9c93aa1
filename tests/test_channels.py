import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohgeom.channels import (
    ChannelKind,
    apply_product_channel,
    correlation_map_values,
    default_p_grid,
    dynamics_trajectory,
    kraus_ops,
)
from cohgeom.states import (
    DomainError,
    PAULI_Y,
    PAULI_Z,
    bell_density,
    correlations_of,
    hermitian_spectrum,
)
from cohgeom.measures import bell_relative_entropy_values
from cohgeom.verification import sample_physical_bell

COHERENCE_HALF_AXIS = 0.18872187554086706


def completeness_defect(ops):
    total = sum(e.conj().T @ e for e in ops)
    return np.abs(total - np.eye(2)).max()


class TestKrausOps:
    def test_bit_flip_at_zero_is_identity_channel(self):
        ops = kraus_ops("bf", 0.0)
        assert len(ops) == 2
        assert_allclose(ops[0], np.eye(2))
        assert_allclose(ops[1], np.zeros((2, 2)))

    def test_phase_flip_operators(self):
        p = 0.3
        ops = kraus_ops(ChannelKind.PHASE_FLIP, p)
        assert_allclose(ops[0], np.sqrt(1 - p / 2) * np.eye(2))
        assert_allclose(ops[1], np.sqrt(p / 2) * PAULI_Z)

    def test_bit_phase_flip_uses_y(self):
        ops = kraus_ops("bpf", 0.5)
        assert_allclose(ops[1], 0.5 * PAULI_Y)

    def test_amplitude_damping_operators(self):
        p = 0.4
        ops = kraus_ops("gad", p)
        assert len(ops) == 4
        h = np.sqrt(0.5)
        assert_allclose(ops[0], h * np.diag([1, np.sqrt(1 - p)]))
        assert_allclose(ops[1], h * np.array([[0, np.sqrt(p)], [0, 0]]))
        assert_allclose(ops[2], h * np.diag([np.sqrt(1 - p), 1]))
        assert_allclose(ops[3], h * np.array([[0, 0], [np.sqrt(p), 0]]))

    def test_completeness_over_grid(self):
        # an array of p gives one operator set per p, equal to the scalar calls
        probs = default_p_grid(101)
        for kind in ChannelKind:
            stacked = kraus_ops(kind, probs)
            assert stacked.shape == (101, len(kraus_ops(kind, 0.5)), 2, 2)
            for p, ops in zip(probs, stacked):
                assert np.array_equal(ops, kraus_ops(kind, float(p)))
                assert completeness_defect(ops) <= 1e-12

    def test_rejects_out_of_range_probability(self):
        for bad in (-0.1, 1.1, float("nan"), np.array([0.2, 1.1, 0.7])):
            with pytest.raises(DomainError, match=r"got (-0\.1|1\.1|nan)"):
                kraus_ops("bf", bad)

    def test_rejects_unknown_channel(self):
        with pytest.raises(DomainError):
            kraus_ops("depolarizing", 0.5)


class TestApplyProductChannel:
    def test_identity_at_zero(self):
        rho = bell_density((0.3, -0.2, 0.4))
        for kind in ("bf", "pf", "bpf"):
            assert np.abs(apply_product_channel(rho, kind, 0.0) - rho).max() <= 1e-14

    def test_bit_flip_shrinks_c2_c3(self):
        # reference triple from the correlation-map table; it lies outside the
        # physical set, so the channel sum is applied operator by operator
        rho = bell_density((0.6, 0.4, 0.2))
        ops = kraus_ops("bf", 0.5)
        out = sum(
            np.kron(a, b) @ rho @ np.kron(a, b).conj().T for a in ops for b in ops
        )
        assert_allclose(correlations_of(out), (0.6, 0.1, 0.05), atol=1e-12)

    def test_probability_axis_matches_kron_sum(self):
        # p[:, None] against an (N, 4, 4) stack gives (P, N, 4, 4): each entry
        # is the operator-by-operator Kraus sum at that p
        rows = sample_physical_bell(5, np.random.default_rng(7))
        rhos = np.array([bell_density(row) for row in rows])
        probs = default_p_grid(11)
        for kind in ChannelKind:
            out = apply_product_channel(rhos, kind, probs[:, None])
            assert out.shape == (11, 5, 4, 4)
            for p, evolved in zip(probs, out):
                ops = kraus_ops(kind, float(p))
                for rho, got in zip(rhos, evolved):
                    expected = sum(
                        np.kron(a, b) @ rho @ np.kron(a, b).conj().T
                        for a in ops
                        for b in ops
                    )
                    assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_probabilities_that_do_not_broadcast_rejected(self):
        # refused by shape before the einsum raises ValueError
        rhos = np.array([bell_density((0.2, 0.1, 0.3))] * 3)
        with pytest.raises(DomainError, match=r"p \(2,\), stack \(3,\)"):
            apply_product_channel(rhos, "bf", [0.1, 0.2])
        assert apply_product_channel(rhos, "bf", [[0.1], [0.2]]).shape == (2, 3, 4, 4)

    def test_matches_map_on_physical_state(self):
        rho = bell_density((0.2, 0.1, 0.3))
        out = apply_product_channel(rho, "bf", 0.5)
        mapped = correlation_map_values("bf", 0.5, 0.2, 0.1, 0.3)
        assert_allclose(correlations_of(out), mapped, atol=1e-12)

    def test_phase_flip_kills_transverse_at_one(self):
        rho = bell_density((0.5, -0.3, 0.2))
        out = apply_product_channel(rho, "pf", 1.0)
        assert_allclose(out, bell_density((0, 0, 0.2)), atol=1e-12)

    def test_output_is_physical(self):
        rng = np.random.default_rng(71)
        for row in sample_physical_bell(30, rng):
            rho = bell_density(row)
            for kind in ChannelKind:
                for p in (0.0, 0.25, 0.7, 1.0):
                    out = apply_product_channel(rho, kind, p)
                    assert np.abs(out - out.conj().T).max() <= 1e-12
                    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
                    assert hermitian_spectrum(out)[-1] >= -1e-12

    def test_rejects_unphysical_input(self):
        with pytest.raises(DomainError):
            apply_product_channel(bell_density((0.9, 0.9, 0)), "bf", 0.5)

    def test_rejects_non_density(self):
        with pytest.raises(DomainError):
            apply_product_channel(np.eye(4), "bf", 0.5)


class TestBellParamMap:
    def test_amplitude_damping_row(self):
        assert_allclose(
            correlation_map_values("gad", 0.5, 0.8, 0.4, 0.4), (0.4, 0.2, 0.1), atol=1e-15
        )

    def test_bit_phase_flip_at_one_keeps_c2(self):
        assert_allclose(correlation_map_values("bpf", 1.0, 0.3, -0.2, 0.4), (0, -0.2, 0))

    def test_phase_flip_at_zero_is_identity(self):
        p = (0.3, -0.2, 0.4)
        assert correlation_map_values("pf", 0.0, *p) == p

    def test_matches_kraus_application(self):
        rng = np.random.default_rng(73)
        worst = 0.0
        for row in sample_physical_bell(20, rng):
            rho = bell_density(row)
            for kind in ChannelKind:
                for p in np.linspace(0, 1, 11):
                    mapped = correlation_map_values(kind, p, *row)
                    direct = correlations_of(apply_product_channel(rho, kind, p))
                    worst = max(worst, max(abs(a - b) for a, b in zip(mapped, direct)))
        assert worst <= 1e-12

    def test_vectorized_map_matches_scalar(self):
        probs = np.linspace(0, 1, 11)
        for kind in ChannelKind:
            c1, c2, c3 = (
                np.broadcast_to(v, probs.shape)
                for v in correlation_map_values(kind, probs, -0.1, 0.4, 0.4)
            )
            for i, p in enumerate(probs):
                scalar = correlation_map_values(kind, float(p), -0.1, 0.4, 0.4)
                assert (c1[i], c2[i], c3[i]) == scalar

    def test_accepts_any_in_range_triple(self):
        # the formulas are linear: triples outside the physical set map fine
        assert_allclose(
            correlation_map_values("bf", 0.5, 0.6, 0.4, 0.2), (0.6, 0.1, 0.05), atol=1e-15
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            correlation_map_values("bf", 1.5, 0.1, 0.1, 0.1)
        # the map itself takes any triple; the trajectory range-checks it
        with pytest.raises(DomainError):
            dynamics_trajectory((1.2, 0, 0), "bf", [0.0, 0.5])


class TestDynamicsTrajectory:
    def test_phase_flip_endpoint_zero(self):
        traj = dynamics_trajectory((-0.1, 0.4, 0.4), "pf", default_p_grid(101))
        assert traj[-1] == 0.0

    def test_amplitude_damping_endpoint_zero(self):
        traj = dynamics_trajectory((-0.1, 0.4, 0.4), "gad", default_p_grid(101))
        assert traj[-1] == 0.0

    def test_bit_flip_endpoint_keeps_c1_coherence(self):
        traj = dynamics_trajectory((-0.5, 0.1, 0.1), "bf", default_p_grid(101))
        assert traj[-1] == pytest.approx(COHERENCE_HALF_AXIS, abs=1e-12)
        assert traj[-1] == pytest.approx(
            bell_relative_entropy_values(-0.5, 0, 0), abs=1e-12
        )

    def test_nonincreasing(self):
        rng = np.random.default_rng(79)
        grid = default_p_grid(51)
        for row in sample_physical_bell(25, rng):
            for kind in ChannelKind:
                values = dynamics_trajectory(row, kind, grid)
                assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_rejects_bad_grid(self):
        with pytest.raises(DomainError):
            dynamics_trajectory((0, 0, 0.5), "bf", [0.0, 0.5, 0.5, 1.0])
        with pytest.raises(DomainError):
            dynamics_trajectory((0, 0, 0.5), "bf", [0.0, 1.2])

    def test_rejects_columns(self):
        with pytest.raises(DomainError, match="one number each"):
            dynamics_trajectory((np.array([0.1, 0.2]), 0, 0), "bf", default_p_grid(3))

    @pytest.mark.parametrize("grid", [0.5, [[0.0, 0.5]]])
    def test_rejects_a_grid_that_is_not_one_dimensional(self, grid):
        # a scalar grid reached np.diff, which raised ValueError
        with pytest.raises(DomainError, match="one-dimensional"):
            dynamics_trajectory((0.1, 0.1, 0.1), "bf", grid)

    def test_default_grid(self):
        grid = default_p_grid(101)
        assert len(grid) == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0
        with pytest.raises(DomainError):
            default_p_grid(1)

    @pytest.mark.parametrize("steps", [2.5, 3.0, "3", True, None])
    def test_steps_must_be_an_integer(self, steps):
        # int() made 2.5 the grid [0, 0.667, 1.333], past p = 1
        with pytest.raises(DomainError, match="steps must be an integer"):
            default_p_grid(steps)

    def test_takes_numpy_integers(self):
        assert np.array_equal(default_p_grid(np.int64(11)), default_p_grid(11))

    def test_steps_beyond_memory_rejected(self, small_memory):
        fits = small_memory // 16
        assert len(default_p_grid(fits)) == fits
        with pytest.raises(DomainError, match=f"{fits + 1} steps needs .* physical memory"):
            default_p_grid(fits + 1)


@pytest.mark.parametrize("p", ["a", "0.5", True, 0.5j, None])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: kraus_ops("bf", p),
        lambda p: correlation_map_values("bf", p, 0.1, 0.2, 0.3),
        lambda p: apply_product_channel(bell_density((0.1, 0.2, 0.3)), "bf", p),
        lambda p: dynamics_trajectory((0.1, 0.1, 0.1), "bf", [p, p]),
    ],
    ids=["kraus", "map", "apply", "dynamics"],
)
def test_probability_is_read_by_the_number_rule(call, p):
    # a string raised ValueError from float(), complex TypeError, and "0.5"
    # and True were read as numbers
    with pytest.raises(DomainError, match="channel probability must be a number"):
        call(p)
