import numpy as np
import pytest
from numpy.testing import assert_allclose

from cohgeom import measures, states
from cohgeom.channels import apply_product_channel
from cohgeom.states import (
    DomainError,
    bell_density,
    bell_eigenvalues,
    correlations_of,
    entangled_values,
    hermitian_spectrum,
    require_physical_bell,
    require_physical_x,
    von_neumann_entropy,
    x_density,
    x_eigenvalues,
)
from cohgeom.verification import sample_physical_bell, sample_physical_x


def bell_sorted(params):
    """Closed-form Bell-diagonal eigenvalues, descending."""
    return np.sort(bell_eigenvalues(*params))[::-1]


def x_sorted(params):
    """Closed-form X-state eigenvalues, descending."""
    return np.sort(x_eigenvalues(*params))[::-1]


def bell_entangled(c1, c2, c3):
    return bool(entangled_values(0.0, 0.0, c1, c2, c3))


class TestPauliBasis:
    def test_hermitian_unitary_traceless(self):
        for sigma in states.PAULIS:
            assert_allclose(sigma, sigma.conj().T)
            assert_allclose(sigma @ sigma.conj().T, np.eye(2), atol=1e-15)
            assert abs(np.trace(sigma)) == 0.0


class TestBellDensity:
    def test_maximally_mixed(self):
        assert_allclose(bell_density((0, 0, 0)), np.eye(4) / 4)

    def test_pure_bell_state(self):
        rho = bell_density((1, -1, 1))
        expected = np.zeros((4, 4))
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 0.5
        assert_allclose(rho, expected)
        # purity: a rank-one projector squares to itself
        assert_allclose(rho @ rho, rho, atol=1e-15)

    def test_generic_entries(self):
        rho = bell_density((0.6, 0.4, 0.2))
        assert_allclose(np.diag(rho).real, [0.3, 0.2, 0.2, 0.3])
        assert rho[0, 3] == pytest.approx(0.05)
        assert rho[1, 2] == pytest.approx(0.25)
        assert_allclose(rho, rho.conj().T)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            bell_density((1.5, 0, 0))


class TestXDensity:
    def test_reduces_to_bell_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.uniform(-1, 1, 3)
            assert np.array_equal(x_density((0.0, 0.0, *c)), bell_density(c))

    def test_diagonal_case(self):
        assert_allclose(x_density((0.5, 0.5, 0, 0, 0)), np.diag([0.5, 0.25, 0.25, 0.0]))

    def test_generic_entries(self):
        # direct substitution: diagonal (1.6, 0.6, 0.6, 1.2)/4, trace 1
        rho = x_density((0.1, 0.1, 0.3, 0.2, 0.4))
        assert_allclose(np.diag(rho).real, [0.4, 0.15, 0.15, 0.3])
        assert rho[0, 3] == pytest.approx(0.025)
        assert rho[1, 2] == pytest.approx(0.125)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            x_density((0, -1.2, 0, 0, 0))

    def test_columns_give_a_stack(self):
        rows = sample_physical_x(7, np.random.default_rng(31))
        stack = x_density(rows.T)
        assert stack.shape == (7, 4, 4)
        for row, rho in zip(rows, stack):
            assert np.array_equal(rho, x_density(row))
        # scalars broadcast against columns, and Bell columns match X columns
        c = rows[:, 2:].T
        assert np.array_equal(bell_density(c), x_density((0.0, 0.0, *c)))
        assert x_density((0.1, 0.2, c[0], 0.0, 0.0)).shape == (7, 4, 4)

    def test_out_of_range_column_entry_rejected(self):
        with pytest.raises(DomainError, match=r"c3 must lie in \[-1, 1\], got 1.5"):
            x_density((0.0, 0.0, 0.0, 0.0, np.array([0.5, 1.5, np.nan])))

    def test_columns_that_do_not_broadcast_rejected(self):
        # refused by name and shape before numpy's broadcast raises ValueError
        with pytest.raises(DomainError, match=r"r \(2,\), s \(\), c1 \(3,\)"):
            x_density(([0.1, 0.2], 0, [0.1, 0.2, 0.3], 0, 0))
        with pytest.raises(DomainError, match=r"c1 \(2,\), c2 \(3,\), c3 \(\)$"):
            bell_density(([0.1, 0.2], [0.1, 0.2, 0.3], 0))


class TestInputGate:
    @pytest.mark.parametrize(
        "gate, params, fields",
        [
            (bell_density, (0.1, 0.2), "c1, c2, c3"),
            (require_physical_bell, (0.1, 0.2, 0.3, 0.4), "c1, c2, c3"),
            (x_density, (0.1, 0.2, 0.3), "r, s, c1, c2, c3"),
            (require_physical_x, (), "r, s, c1, c2, c3"),
        ],
    )
    def test_wrong_length_names_the_fields(self, gate, params, fields):
        n = len(fields.split(", "))
        expected = f"expected {n} values ({fields}), got {len(params)}"
        with pytest.raises(DomainError) as info:
            gate(params)
        assert str(info.value) == expected

    @pytest.mark.parametrize(
        "gate, params, fields",
        [
            (require_physical_bell, (np.array([0.1, 0.2]), 0, 0), "c1, c2, c3"),
            (require_physical_x, (0, 0, 0.1, 0, np.array([0.2])), "r, s, c1, c2, c3"),
        ],
    )
    def test_physical_gates_refuse_columns(self, gate, params, fields):
        with pytest.raises(DomainError, match=f"expected one number each for {fields}$"):
            gate(params)

    def test_physical_gates_return_plain_float_tuples(self):
        for got in (
            require_physical_bell((0.1, 0, np.float64(0.2))),
            require_physical_x(np.array([0.1, 0.0, 0.2, 0.3, 0.4])),
        ):
            assert type(got) is tuple
            assert all(type(v) is float for v in got)


class TestNumberReader:
    # one rule reads every real argument: int, uint and float values and
    # arrays of them pass, anything else raises DomainError naming it
    @pytest.mark.parametrize(
        "value",
        ["0.5", "x", b"0.5", True, np.bool_(False), 1j, None, [0.5, None], [[0.1], [0.1, 0.2]]],
    )
    def test_non_numbers_rejected_by_name(self, value):
        with pytest.raises(DomainError, match="c2 must be a number"):
            bell_density((0.1, value, 0.1))
        with pytest.raises(DomainError, match="s must be a number"):
            states._in_range(("r", "s"), (0.1, value))

    @pytest.mark.parametrize(
        "value",
        [0, np.int8(0), np.uint64(0), np.float32(0.0), 0.0, [0.0, 0.5], np.zeros(2, np.uint8)],
    )
    def test_numbers_pass(self, value):
        got = bell_density((0.1, value, 0.1))
        assert np.array_equal(got, bell_density((0.1, np.asarray(value, dtype=float), 0.1)))

    def test_a_huge_python_int_is_read_as_a_float(self):
        with pytest.raises(DomainError, match=r"c1 must lie in \[-1, 1\], got 1e\+30"):
            bell_density((10**30, 0, 0))

    @pytest.mark.parametrize("value", [0.1, np.array(0.1), None, "ab"])
    def test_a_scalar_where_a_pair_is_wanted_rejected(self, value):
        with pytest.raises(DomainError):
            states._in_range(("r", "s"), value)

    @pytest.mark.parametrize("value", [np.full((4, 4), "1"), np.full((4, 4), True), None, "x"])
    def test_matrices_take_numbers_only(self, value):
        with pytest.raises(DomainError, match="matrix must be a number"):
            hermitian_spectrum(value)

    def test_matrices_take_complex_entries(self):
        rho = bell_density((0.2, 0.1, 0.3))
        assert np.array_equal(hermitian_spectrum(rho.real.tolist()), hermitian_spectrum(rho))


class TestBellEntanglement:
    # points are classified by entangled_values; the points it has no class
    # for, unphysical ones, are refused by the input gate before it
    def test_origin_separable(self):
        assert not bell_entangled(0.0, 0.0, 0.0)

    def test_bell_vertex_entangled(self):
        assert bell_entangled(1.0, -1.0, 1.0)

    def test_unphysical_invalid(self):
        # smallest eigenvalue (1 - c1 - c2 - c3)/4 = -0.2
        with pytest.raises(DomainError, match="not positive semidefinite"):
            require_physical_bell((0.9, 0.9, 0))

    def test_octahedron_boundary(self):
        assert not bell_entangled(0.5, -0.25, 0.25)
        assert bell_entangled(0.6, -0.5, 0.5)
        # on the boundary the partial transpose has a zero eigenvalue, which
        # decimal inputs round to about -1e-17: still separable
        for point in ((-0.2, 0.0, 0.8), (-0.4, 0.2, 0.4), (0.3, 0.3, -0.4)):
            assert not bell_entangled(*point)
            assert bell_entangled(*(1.001 * np.array(point)))
        # as before the PPT test: entangled when |c1| + |c2| + |c3| > 1 + TOL_PSD
        # (the partial transpose eigenvalue here is -5e-13)
        assert bell_entangled(0.5, -0.5, 2e-12)
        assert not bell_entangled(0.5, -0.5, 0.5e-12)
        # beyond a face of the tetrahedron, accepted only by the positivity
        # tolerance: the partial transpose is positive, so separable
        require_physical_bell((0.5, 0.5, 3e-12))
        assert not bell_entangled(0.5, 0.5, 3e-12)

    def test_nan_invalid(self):
        with pytest.raises(DomainError, match="c1 must lie in"):
            require_physical_bell((np.nan, 0, 0))

    def test_classes_equal_the_stacked_minimum(self):
        # entangled_values reads the partial transpose's positivity pair; the
        # minimum over the (4, T) eigenvalue stack gives the same classes, on drawn X
        # states and on Bell points on either side of the octahedron's
        # |c1| + |c2| + |c3| = 1 + TOL_PSD
        rng = np.random.default_rng(34)
        r, s, c1, c2, c3 = sample_physical_x(4000, rng).T
        signs = rng.choice([-1.0, 1.0], size=(3, 4000))
        weights = rng.dirichlet(np.ones(3), size=4000).T
        nudge = 1.0 + rng.integers(-1, 4, size=4000) * states.TOL_PSD
        faces = signs * weights * nudge
        for x in ((r, s, c1, c2, c3), (0.0, 0.0, *faces)):
            stacked = np.minimum.reduce(np.stack(x_eigenvalues(*x[:3], -x[3], x[4])))
            expected = stacked < -states.TOL_PSD / 4
            assert 0 < expected.sum() < expected.size
            assert np.array_equal(entangled_values(*x), expected)


class TestBellSpectrum:
    def test_maximally_mixed(self):
        assert_allclose(bell_sorted((0, 0, 0)), [0.25] * 4)

    def test_pure_bell_state(self):
        assert_allclose(bell_sorted((1, -1, 1)), [1, 0, 0, 0], atol=1e-15)

    def test_single_axis(self):
        assert_allclose(bell_sorted((0.5, 0, 0)), [0.375, 0.375, 0.125, 0.125])

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(11)
        for row in sample_physical_bell(500, rng):
            assert_allclose(
                bell_sorted(row),
                hermitian_spectrum(bell_density(row)),
                atol=1e-12,
            )

    def test_sign_flip_pairs_permute_spectrum(self):
        rng = np.random.default_rng(13)
        flips = [(-1, -1, 1), (-1, 1, -1), (1, -1, -1)]
        for row in sample_physical_bell(200, rng):
            base = np.sort(bell_sorted(row))
            for f in flips:
                flipped = tuple(v * s for v, s in zip(row, f))
                assert_allclose(np.sort(bell_sorted(flipped)), base, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(17)
        for row in sample_physical_bell(200, rng):
            assert bell_sorted(row).sum() == pytest.approx(1.0, abs=1e-10)


class TestXSpectrum:
    def test_reduces_to_bell(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            c = rng.uniform(-1, 1, 3)
            assert_allclose(x_sorted((0, 0, *c)), bell_sorted(c), atol=1e-15)

    def test_diagonal_case(self):
        assert_allclose(x_sorted((0.5, 0.5, 0, 0, 0)), [0.5, 0.25, 0.25, 0.0])

    def test_matches_numeric_oracle(self):
        q = (0.2, 0.1, 0.4, 0.3, 0.5)
        assert_allclose(x_sorted(q), hermitian_spectrum(x_density(q)), atol=1e-12)
        rng = np.random.default_rng(23)
        for row in sample_physical_x(500, rng):
            assert_allclose(
                x_sorted(row), hermitian_spectrum(x_density(row)), atol=1e-12
            )

    def test_sums_to_one(self):
        rng = np.random.default_rng(29)
        for row in sample_physical_x(200, rng):
            assert x_sorted(row).sum() == pytest.approx(1.0, abs=1e-10)


class TestHermitianSpectrum:
    def test_identity_quarter(self):
        assert_allclose(hermitian_spectrum(np.eye(4) / 4), [0.25] * 4)

    def test_already_diagonal(self):
        assert_allclose(
            hermitian_spectrum(np.diag([0.2, 0.5, 0.0, 0.3])), [0.5, 0.3, 0.2, 0.0]
        )

    def test_bell_closed_form_cross_check(self):
        assert_allclose(
            hermitian_spectrum(bell_density((0.3, -0.2, 0.7))),
            bell_sorted((0.3, -0.2, 0.7)),
            atol=1e-12,
        )

    def test_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(DomainError):
            hermitian_spectrum(bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            hermitian_spectrum(np.eye(3))


class TestRequireDensity:
    def test_one_spectrum_and_the_checks_in_order(self, monkeypatch):
        columns = np.array([[0.3, 0.1], [-0.2, 0.4], [0.5, 0.0]])
        rho = bell_density(columns)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a)
        )
        _, spectrum = states._require_density(rho)
        assert calls == [(2, 4, 4)]
        assert spectrum.tobytes() == hermitian_spectrum(rho).tobytes()
        # Hermitian within hermitian_spectrum's 1e-10 but not a density's 1e-12
        skew = rho.copy()
        skew[1, 0, 3] += 1e-11
        hermitian_spectrum(skew)
        with pytest.raises(DomainError, match="not Hermitian within 1e-12"):
            states._require_density(skew)
        # with the trace off as well, the Hermiticity check still comes first
        skew[1, 0, 0] += 0.5
        with pytest.raises(DomainError, match="not Hermitian within 1e-12"):
            states._require_density(skew)
        with pytest.raises(DomainError, match="trace differs"):
            states._require_density(1.5 * rho)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
@pytest.mark.parametrize(
    "reads",
    [
        hermitian_spectrum,
        measures.relative_entropy_coherence,
        measures.l1_coherence,
        lambda m: apply_product_channel(m, "bf", 0.5),
    ],
    ids=["spectrum", "rel-ent", "l1", "channel"],
)
def test_non_finite_matrices_rejected(reads, entry):
    with pytest.raises(DomainError, match="finite"):
        reads(np.full((4, 4), entry))


@pytest.mark.parametrize(
    "reads", [hermitian_spectrum, measures.relative_entropy_coherence], ids=["spectrum", "rel-ent"]
)
def test_matrices_whose_symmetrized_form_overflows_rejected(reads):
    # finite entries whose (a + a^H) / 2 overflows to inf, which LAPACK
    # refused with LinAlgError
    with pytest.raises(DomainError, match="too large"):
        reads(np.full((4, 4), 1e308))


@pytest.mark.parametrize(
    "reads",
    [hermitian_spectrum, measures.l1_coherence, correlations_of],
    ids=["spectrum", "l1", "correlations"],
)
def test_matrices_beyond_the_entry_bound_rejected(reads):
    # the symmetrized stack of 5e307 is finite, and its spectrum was
    # [inf, 5.4e290, -6.2e275, -2.8e292]; the l1 sum was inf
    with pytest.raises(DomainError, match="too large"):
        reads(np.full((4, 4), 5e307))
    with pytest.raises(DomainError, match="too large"):
        reads(np.full((4, 4), np.nextafter(states.MAX_ENTRY, np.inf)))
    reads(np.full((4, 4), states.MAX_ENTRY))


class TestVonNeumannEntropy:
    def test_pure(self):
        assert von_neumann_entropy([1, 0, 0, 0]) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy([0.25] * 4) == pytest.approx(2.0)

    def test_rank_two(self):
        assert von_neumann_entropy([0.5, 0.5, 0, 0]) == pytest.approx(1.0)

    def test_clamps_negative_dust(self):
        assert von_neumann_entropy([1.0, -1e-13, 0, 0]) == 0.0

    def test_rejects_genuinely_negative(self):
        with pytest.raises(DomainError):
            von_neumann_entropy([1.1, -0.1, 0, 0])


class TestCorrelations:
    def test_round_trip(self):
        got = correlations_of(bell_density((0.6, 0.4, 0.2)))
        assert_allclose(got, (0.6, 0.4, 0.2), atol=1e-12)

    def test_maximally_mixed(self):
        assert_allclose(correlations_of(np.eye(4) / 4), (0, 0, 0), atol=1e-15)

    def test_random_round_trips(self):
        rng = np.random.default_rng(37)
        for row in sample_physical_bell(200, rng):
            assert_allclose(correlations_of(bell_density(row)), row, atol=1e-12)


class TestStackedOracle:
    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(41)
        g = rng.normal(size=(2, 5, 4, 4)) + 1j * rng.normal(size=(2, 5, 4, 4))
        rho = g @ g.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
        singles = rho.reshape(-1, 4, 4)

        def check(stacked, fn):
            expected = np.array([fn(m) for m in singles])
            got = np.asarray(stacked).reshape(expected.shape)
            assert_allclose(got, expected, rtol=0, atol=1e-15)

        check(hermitian_spectrum(rho), hermitian_spectrum)
        check(
            measures.relative_entropy_coherence(rho),
            measures.relative_entropy_coherence,
        )
        check(
            apply_product_channel(rho, "gad", 0.3),
            lambda m: apply_product_channel(m, "gad", 0.3),
        )
        check(np.stack(correlations_of(rho), axis=-1), correlations_of)
        check(measures.l1_coherence(rho), measures.l1_coherence)

        non_hermitian = rho.copy()
        non_hermitian[1, 3, 0, 1] += 0.1
        unphysical = rho.copy()
        unphysical[0, 2] = bell_density((0.9, 0.9, 0))
        for bad in (non_hermitian, unphysical):
            with pytest.raises(DomainError):
                measures.relative_entropy_coherence(bad)
            with pytest.raises(DomainError):
                apply_product_channel(bad, "bf", 0.5)
        with pytest.raises(DomainError):
            hermitian_spectrum(non_hermitian)

        # the X-state measures give one value per stack entry, each the
        # per-matrix value
        bell_stack = np.array(
            [bell_density((0.1, 0.2, 0.3)), bell_density((0.5, -0.3, 0.1))]
        )
        for fn in (measures.l1_coherence, measures.trace_norm_coherence_x):
            assert fn(bell_stack).tolist() == [fn(m) for m in bell_stack]
