import math

import numpy as np
import pytest

from modesim.states import (
    DensityMatrix,
    bell_state,
    density_of,
    expectation,
    product_state,
    purity,
    superpose,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
MIXED = DensityMatrix(np.eye(2) / 2)


def marginal(rho, keep):
    """The reduced state of the kept rail ("c" or "t") of a two-rail state."""
    subscripts = "ijkj->ik" if keep == "c" else "ijil->jl"
    return DensityMatrix(np.einsum(subscripts, rho.matrix.reshape(2, 2, 2, 2)))


def random_density(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return DensityMatrix(rho / np.trace(rho))


class TestSuperpose:
    def test_basis_state(self):
        state = superpose(1.0, 0.0)
        assert np.allclose(state.coefficients, [1.0, 0.0])
        assert state.coefficients.shape == (2,)

    def test_equal_superposition(self):
        state = superpose(1.0, 1.0)
        assert np.allclose(state.coefficients, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_three_four_five_normalization(self):
        state = superpose(3.0, 4.0j)
        assert np.allclose(state.coefficients, [0.6, 0.8j], atol=1e-15)

    def test_null_state_rejected(self):
        with pytest.raises(ValueError, match="null state"):
            superpose(0.0, 0.0)


class TestDensityOf:
    def test_basis_projector(self):
        rho = density_of(superpose(1.0, 0.0))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_equal_superposition_all_halves(self):
        rho = density_of(superpose(1.0, 1.0))
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_phased_superposition_off_diagonal(self):
        # by-hand outer product: rho01 = e^{-i pi/4} (e^{i pi/4})* / 2 = e^{-i pi/2}/2
        theta = math.pi / 4.0
        rho = density_of(superpose(np.exp(-1j * theta), np.exp(1j * theta)))
        assert abs(rho.matrix[0, 1] - 0.5 * np.exp(-2j * theta)) < 1e-15
        assert abs(rho.matrix[0, 1] - 0.5 * np.exp(-1j * math.pi / 2.0)) < 1e-15

    def test_pure_state_purity_is_one(self, rng):
        for _ in range(20):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            rho = density_of(superpose(*c))
            assert abs(purity(rho) - 1.0) < 1e-12


class TestBellAndProduct:
    def test_phi_plus_coefficients(self):
        state = bell_state("phi", "+")
        assert np.allclose(state.coefficients, [INV_SQRT2, 0, 0, INV_SQRT2])

    def test_psi_minus_coefficients(self):
        state = bell_state("psi", "-")
        assert np.allclose(state.coefficients, [0, INV_SQRT2, -INV_SQRT2, 0])

    def test_bell_marginal_maximally_mixed(self):
        rho = density_of(bell_state("phi", "+"))
        for rail in ("c", "t"):
            reduced = marginal(rho, rail)
            assert np.allclose(reduced.matrix, 0.5 * np.eye(2), atol=1e-15)

    def test_product_state_coefficients(self):
        assert np.allclose(product_state().coefficients, [0.5, 0.5, 0.5, 0.5])

    def test_product_state_is_pure(self):
        assert abs(purity(density_of(product_state())) - 1.0) < 1e-12

    def test_product_marginal_is_rank_one(self):
        reduced = marginal(density_of(product_state()), "c")
        expected = 0.5 * np.ones((2, 2))
        assert np.allclose(reduced.matrix, expected, atol=1e-15)
        assert abs(purity(reduced) - 1.0) < 1e-12

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            bell_state("chi", "+")


class TestTensorPartialTrace:
    """Kronecker products of rails and the marginal helper that undoes them."""

    def test_round_trip_hundred_random_pairs(self, rng):
        for _ in range(100):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            joint = DensityMatrix(np.kron(a.matrix, b.matrix))
            assert np.abs(marginal(joint, "c").matrix - a.matrix).max() < 1e-12
            assert np.abs(marginal(joint, "t").matrix - b.matrix).max() < 1e-12

    def test_dimension_mismatch(self):
        four = np.eye(4) / 4
        with pytest.raises(ValueError, match="2x2 or 4x4"):
            DensityMatrix(np.kron(four, four))


class TestExpectation:
    def test_identity_gives_one(self, rng):
        for dim in (2, 4):
            rho = random_density(rng, dim)
            assert abs(expectation(rho, np.eye(dim)) - 1.0) < 1e-12

    def test_diagonal_operator(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        value = expectation(rho, np.diag([3.5, -1.25]))
        assert abs(value - 3.5) < 1e-15

    def test_hermitian_expectation_is_real(self, rng):
        for _ in range(50):
            rho = random_density(rng, 2)
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            herm = raw + raw.conj().T
            assert abs(expectation(rho, herm).imag) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(MIXED, np.eye(4))


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(bad)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([1.0, 1.0]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_matrices_are_immutable(self):
        rho = MIXED
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestPurity:
    def test_mixed_state_half(self):
        assert abs(purity(MIXED) - 0.5) < 1e-15

    def test_validated_after_operations(self, rng):
        # every constructor output revalidates Hermiticity/trace/positivity
        for _ in range(20):
            joint = DensityMatrix(np.kron(random_density(rng, 2).matrix, random_density(rng, 2).matrix))
            reduced = marginal(joint, "t")
            assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
