import math

import numpy as np
import pytest

from modesim.analyzer import (analyzer_projectors, intensity_difference_evolved,
                              intensity_split_operator)
from modesim.decoherence import EvolutionParams
from modesim.states import DensityMatrix, density_of, superpose
from modesim.stochastic import RateConstants


def closed_form_difference(c0, c1, dbeta, gamma, kappa, length, theta):
    """The published intensity-difference law, written out directly."""
    term = (c0 * np.conj(c1) * np.exp(1j * (dbeta + kappa) * length)
            * np.exp(2j * theta))
    return math.exp(-gamma * length) * float((term + np.conj(term)).real)


def phase_op(theta):
    """Oracle: the phase-controller unitary P(theta) = diag(e^{+i theta}, e^{-i theta})."""
    return np.diag([np.exp(1j * theta), np.exp(-1j * theta)]).astype(np.complex128)


def splitter_states():
    """Oracle: the symmetric and antisymmetric branch states (|+>, |->)."""
    return superpose(1.0, 1.0), superpose(1.0, -1.0)


def projectors_oracle(theta):
    """Oracle: (I+, I-) of one angle, written out as 2x2 arrays."""
    off = np.exp(-2j * theta)
    plus = 0.5 * np.array([[1.0, off], [np.conj(off), 1.0]], dtype=np.complex128)
    minus = 0.5 * np.array([[1.0, -off], [-np.conj(off), 1.0]], dtype=np.complex128)
    return plus, minus


def branch_intensities(rho, theta):
    """Branch intensities (Tr rho I+, Tr rho I-) from the analyzer projectors."""
    return tuple(float(np.trace(rho.matrix @ op).real) for op in analyzer_projectors(theta))


class TestPhaseOp:
    def test_zero_angle_is_identity(self):
        assert np.allclose(phase_op(0.0), np.eye(2))

    def test_pi_is_global_minus_one(self):
        assert np.allclose(phase_op(math.pi), -np.eye(2), atol=1e-15)

    def test_group_property(self, rng):
        for _ in range(20):
            t1, t2 = rng.uniform(-4, 4, size=2)
            assert np.allclose(phase_op(t1) @ phase_op(t2), phase_op(t1 + t2), atol=1e-14)

    def test_unitary(self, rng):
        for theta in rng.uniform(-4, 4, size=10):
            op = phase_op(theta)
            assert np.allclose(op @ op.conj().T, np.eye(2), atol=1e-15)


class TestSplitterStates:
    def test_orthogonal(self):
        plus, minus = splitter_states()
        assert abs(np.vdot(plus.coefficients, minus.coefficients)) < 1e-15

    def test_te0_overlap(self):
        plus, _ = splitter_states()
        assert abs(plus.coefficients[0] - 1 / math.sqrt(2)) < 1e-15

    def test_completeness(self):
        plus, minus = splitter_states()
        total = (np.outer(plus.coefficients, plus.coefficients.conj())
                 + np.outer(minus.coefficients, minus.coefficients.conj()))
        assert np.allclose(total, np.eye(2), atol=1e-15)


class TestProjectors:
    def test_reduce_to_branch_projectors_at_zero(self):
        plus_op, minus_op = analyzer_projectors(0.0)
        plus, minus = splitter_states()
        assert np.allclose(plus_op, np.outer(plus.coefficients, plus.coefficients.conj()))
        assert np.allclose(minus_op, np.outer(minus.coefficients, minus.coefficients.conj()))

    def test_orthogonal_projectors(self, rng):
        for theta in rng.uniform(-4, 4, size=20):
            plus_op, minus_op = analyzer_projectors(theta)
            assert np.abs(plus_op @ minus_op).max() < 1e-15

    def test_projector_algebra_hundred_angles(self, rng):
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
            plus_op, minus_op = analyzer_projectors(theta)
            for op in (plus_op, minus_op):
                assert np.abs(op @ op - op).max() < 1e-12
                assert np.abs(op - op.conj().T).max() < 1e-12
            assert np.abs(plus_op + minus_op - np.eye(2)).max() < 1e-12

    def test_covariance_with_phase_op(self, rng):
        plus, minus = splitter_states()
        proj_plus = np.outer(plus.coefficients, plus.coefficients.conj())
        proj_minus = np.outer(minus.coefficients, minus.coefficients.conj())
        for theta in rng.uniform(-4, 4, size=100):
            control = phase_op(theta)
            expect_plus = control.conj().T @ proj_plus @ control
            expect_minus = control.conj().T @ proj_minus @ control
            plus_op, minus_op = analyzer_projectors(theta)
            assert np.abs(plus_op - expect_plus).max() < 1e-12
            assert np.abs(minus_op - expect_minus).max() < 1e-12

    def test_quarter_angle_entries(self):
        # the controller convention makes the (0,1) entry e^{-2 i theta}
        plus_op, _ = analyzer_projectors(math.pi / 4)
        assert abs(plus_op[0, 1] - 0.5 * (-1j)) < 1e-15
        assert abs(plus_op[1, 0] - 0.5 * (+1j)) < 1e-15


class TestIntensities:
    def test_phased_input_cos_sin_split(self, rng):
        for theta in rng.uniform(-2, 2, size=25):
            state = superpose(np.exp(-1j * theta), np.exp(1j * theta))
            plus, minus = branch_intensities(density_of(state), 0.0)
            assert abs(plus - math.cos(theta) ** 2) < 1e-12
            assert abs(minus - math.sin(theta) ** 2) < 1e-12

    def test_incoherent_mixture_always_half(self, rng):
        mixed = DensityMatrix(np.eye(2) / 2)
        for theta in rng.uniform(-4, 4, size=25):
            plus, minus = branch_intensities(mixed, theta)
            assert abs(plus - 0.5) < 1e-12
            assert abs(minus - 0.5) < 1e-12

    def test_basis_state_splits_evenly(self, rng):
        rho = density_of(superpose(1.0, 0.0))
        for theta in rng.uniform(-4, 4, size=10):
            plus, minus = branch_intensities(rho, theta)
            assert abs(plus - 0.5) < 1e-12 and abs(minus - 0.5) < 1e-12

    def test_nonnegative_and_sum_one_random_states(self, rng):
        for _ in range(1000):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = DensityMatrix((raw @ raw.conj().T) / np.trace(raw @ raw.conj().T))
            plus, minus = branch_intensities(rho, float(rng.uniform(-4, 4)))
            assert plus >= -1e-12 and minus >= -1e-12
            assert abs(plus + minus - 1.0) < 1e-12


class TestIntensityDifferenceEvolved:
    def test_equal_superposition_cosine_law(self, rng):
        inv = 1 / math.sqrt(2)
        for _ in range(100):
            dbeta = float(rng.uniform(-10, 10))
            gamma = float(rng.uniform(0, 2))
            kappa = float(rng.uniform(-1, 1))
            length = float(rng.uniform(0, 3))
            theta = float(rng.uniform(0, math.pi))
            params = EvolutionParams(dbeta, RateConstants(gamma, kappa), length)
            value = intensity_difference_evolved(inv, inv, params, theta)
            law = math.exp(-gamma * length) * math.cos(2 * theta + (dbeta + kappa) * length)
            assert abs(value - law) < 1e-12

    def test_general_closed_form(self, rng):
        for _ in range(100):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            c0, c1 = raw / np.linalg.norm(raw)
            dbeta = float(rng.uniform(-10, 10))
            gamma = float(rng.uniform(0, 2))
            kappa = float(rng.uniform(-1, 1))
            length = float(rng.uniform(0, 3))
            theta = float(rng.uniform(0, math.pi))
            params = EvolutionParams(dbeta, RateConstants(gamma, kappa), length)
            value = intensity_difference_evolved(c0, c1, params, theta)
            assert abs(value - closed_form_difference(c0, c1, dbeta, gamma, kappa,
                                                      length, theta)) < 1e-12

    def test_full_decoherence_kills_contrast(self, rng):
        inv = 1 / math.sqrt(2)
        params = EvolutionParams(5.0, RateConstants(40.0, 0.0), 1.0)
        for theta in rng.uniform(0, math.pi, size=10):
            assert abs(intensity_difference_evolved(inv, inv, params, theta)) < 1e-12

    def test_coherent_plus_input_at_zero(self):
        inv = 1 / math.sqrt(2)
        params = EvolutionParams(5.0, RateConstants(0.3, 0.1), 0.0)
        assert abs(intensity_difference_evolved(inv, inv, params, 0.0) - 1.0) < 1e-12

    def test_unnormalized_input_rejected(self):
        params = EvolutionParams(5.0, RateConstants(0.3, 0.1), 1.0)
        with pytest.raises(ValueError, match="normalized|satisfy"):
            intensity_difference_evolved(1.0, 1.0, params, 0.0)


def test_split_operator_is_difference():
    theta = 0.7
    plus_op, minus_op = analyzer_projectors(theta)
    assert np.allclose(intensity_split_operator(theta), plus_op - minus_op)


def test_split_operator_stack_matches_each_angle():
    # the (n, 2, 2) stack holds each angle's plus - minus bit for bit, signed zeros too
    thetas = np.concatenate([[0.0, math.pi / 4, math.pi / 2, math.pi / 8, 3 * math.pi / 4],
                             np.nextafter(math.pi, 0.0) - np.arange(5) * 1e-16,
                             np.random.default_rng(13).uniform(0.0, math.pi, 990)])
    pairs = [projectors_oracle(float(t)) for t in thetas]
    stack = intensity_split_operator(thetas)
    assert stack.shape == (len(thetas), 2, 2)
    assert np.array_equal(stack.view(np.int64), np.stack([p - m for p, m in pairs]).view(np.int64))
    plus, minus = analyzer_projectors(thetas)
    assert np.array_equal(plus, np.stack([p for p, _ in pairs]))
    assert np.array_equal(minus, np.stack([m for _, m in pairs]))
    for theta, (p, m) in zip(thetas[:20], pairs):
        scalar = analyzer_projectors(float(theta))
        assert np.array_equal(scalar[0], p) and np.array_equal(scalar[1], m)
