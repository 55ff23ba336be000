import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modesim.analyzer import intensity_split_operator
from modesim.correlation import (
    ChshAngles,
    DelayPair,
    chsh_B,
    chsh_scan,
    correlation_E,
    delay_covariance,
    export_bell_csv,
    export_chsh_csv,
    rail_embed,
)
from modesim.decoherence import EvolutionParams, two_rail_evolve
from modesim.states import DensityMatrix, bell_state, density_of, maximally_mixed, product_state, tensor
from modesim.stochastic import RateConstants
from modesim.waveguide import group_delay

PHI_PLUS = density_of(bell_state("phi", "+"))
PRODUCT = density_of(product_state())
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
CANONICAL = ChshAngles(math.pi / 8, -math.pi / 8, 0.0, math.pi / 4)
PAULI_XY = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]))


def density_matrices(dim):
    """Random dim x dim density matrices G G^H / tr(G G^H), G complex Gaussian-like."""
    parts = st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * dim, max_size=2 * dim * dim)

    def build(values):
        flat = np.array(values[:dim * dim]) + 1j * np.array(values[dim * dim:])
        g = flat.reshape(dim, dim)
        m = g @ g.conj().T
        m = (m + m.conj().T) / 2.0
        return DensityMatrix(m / np.trace(m).real)

    return parts.filter(lambda v: np.linalg.norm(v) > 0.1).map(build)


def planar_chsh_optimum(rho):
    """2 sqrt(s1^2 + s2^2), s the singular values of the xy block of the correlation tensor.

    The analyzer observable cos(2 theta) X + sin(2 theta) Y lies in the xy plane,
    so this is the planar Horodecki bound: the exact CHSH optimum over all angles.
    """
    block = np.array([[np.trace(rho.matrix @ np.kron(a, b)).real for b in PAULI_XY]
                      for a in PAULI_XY])
    s = np.linalg.svd(block, compute_uv=False)
    return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


class TestRailEmbed:
    def test_identity_embeds_to_identity(self):
        assert np.allclose(rail_embed(np.eye(2), "c"), np.eye(4))
        assert np.allclose(rail_embed(np.eye(2), "t"), np.eye(4))

    def test_rails_commute(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            left = rail_embed(a, "c") @ rail_embed(b, "t")
            right = rail_embed(b, "t") @ rail_embed(a, "c")
            assert np.abs(left - right).max() < 1e-12

    def test_split_operator_embedding_is_ladder_form(self, rng):
        # the embedded intensity difference has exactly the two-rail ladder
        # structure: off * |TE0><TE1| (x) I plus its conjugate, nothing else
        for theta in rng.uniform(-3, 3, size=10):
            embedded = rail_embed(intensity_split_operator(theta), "c")
            off = np.exp(-2j * theta)
            ladder = np.zeros((4, 4), dtype=complex)
            ladder[0, 2] = ladder[1, 3] = off
            ladder[2, 0] = ladder[3, 1] = np.conj(off)
            assert np.abs(embedded - ladder).max() < 1e-14

    def test_bad_rail_rejected(self):
        with pytest.raises(ValueError):
            rail_embed(np.eye(2), "x")


class TestCorrelationE:
    def test_entangled_cosine_of_sum(self, rng):
        for _ in range(50):
            t1, t2 = rng.uniform(0, math.pi, size=2)
            value = correlation_E(PHI_PLUS, t1, t2)
            assert abs(value - math.cos(2 * t1 + 2 * t2)) < 1e-12

    def test_product_factorizes(self, rng):
        for _ in range(50):
            t1, t2 = rng.uniform(0, math.pi, size=2)
            value = correlation_E(PRODUCT, t1, t2)
            assert abs(value - math.cos(2 * t1) * math.cos(2 * t2)) < 1e-12

    def test_decohered_entangled_law(self, rng):
        # substituting the decohered two-rail matrix into the correlation
        # gives exp(-2 gamma L) cos[2 t1 + 2 t2 + 2 (dbeta + kappa) L]
        for _ in range(30):
            dbeta = float(rng.uniform(-5, 5))
            gamma = float(rng.uniform(0, 1.5))
            kappa = float(rng.uniform(-0.5, 0.5))
            length = float(rng.uniform(0, 2))
            params = EvolutionParams(dbeta, RateConstants(gamma, kappa), length)
            rho = two_rail_evolve("phi_plus", params, "closed_form")
            t1, t2 = rng.uniform(0, math.pi, size=2)
            law = math.exp(-2 * gamma * length) * math.cos(
                2 * t1 + 2 * t2 + 2 * (dbeta + kappa) * length)
            assert abs(correlation_E(rho, t1, t2) - law) < 1e-12

    def test_bounded_by_one(self, rng):
        for rho in (PHI_PLUS, PRODUCT, maximally_mixed(2)):
            for _ in range(50):
                t1, t2 = rng.uniform(-4, 4, size=2)
                assert abs(correlation_E(rho, t1, t2)) <= 1.0 + 1e-12

    def test_rotation_invariance_of_entangled_state(self, rng):
        base = correlation_E(PHI_PLUS, 0.3, 0.4)
        for delta in rng.uniform(-math.pi, math.pi, size=100):
            shifted = correlation_E(PHI_PLUS, 0.3 + delta, 0.4 - delta)
            assert abs(shifted - base) < 1e-12


class TestChsh:
    def test_canonical_angles_reach_tsirelson(self):
        assert abs(chsh_B(PHI_PLUS, CANONICAL) - TWO_SQRT_TWO) < 1e-12

    def test_product_state_at_canonical_angles(self):
        # direct evaluation of cos(2 t1) cos(2 t2) combinations
        def product_E(t1, t2):
            return math.cos(2 * t1) * math.cos(2 * t2)

        expected = abs(
            product_E(CANONICAL.theta1, CANONICAL.theta2)
            - product_E(CANONICAL.theta1, CANONICAL.theta2p)
            + product_E(CANONICAL.theta1p, CANONICAL.theta2p)
            + product_E(CANONICAL.theta1p, CANONICAL.theta2)
        )
        value = chsh_B(PRODUCT, CANONICAL)
        assert abs(value - expected) < 1e-12
        assert abs(value - math.sqrt(2.0)) < 1e-12
        assert value <= 2.0

    def test_fully_decohered_entangled_state_vanishes(self):
        params = EvolutionParams(3.0, RateConstants(50.0, 0.0), 1.0)
        rho = two_rail_evolve("phi_plus", params, "closed_form")
        assert chsh_B(rho, CANONICAL) < 1e-12

    def test_scan_entangled_approaches_supremum(self):
        best, angles = chsh_scan(PHI_PLUS, 32)
        assert best >= 2.76
        assert best <= TWO_SQRT_TWO + 1e-9
        assert abs(chsh_B(PHI_PLUS, angles) - best) < 1e-12

    def test_scan_product_never_violates(self):
        best, _ = chsh_scan(PRODUCT, 32)
        assert best <= 2.0 + 1e-9

    def test_scan_maximally_mixed_is_zero(self):
        best, _ = chsh_scan(maximally_mixed(2), 16)
        assert best < 1e-12

    def test_scan_grid_requirement(self):
        with pytest.raises(ValueError):
            chsh_scan(PHI_PLUS, 4)

    def test_scan_is_deterministic(self):
        first = chsh_scan(PHI_PLUS, 16)
        second = chsh_scan(PHI_PLUS, 16)
        assert first == second


class TestChshProperties:
    @given(density_matrices(4), st.floats(0.0, math.pi), st.floats(0.0, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_correlation_bounded_by_one(self, rho, theta1, theta2):
        assert abs(correlation_E(rho, theta1, theta2)) <= 1.0 + 1e-12

    @given(density_matrices(2), density_matrices(2), st.sampled_from([8, 12, 16]))
    @settings(max_examples=25, deadline=None)
    def test_separable_states_never_violate(self, a, b, grid_n):
        best, _ = chsh_scan(tensor(a, b), grid_n)
        assert best <= 2.0 + 1e-12

    @given(density_matrices(4), st.sampled_from([8, 12, 16]))
    @settings(max_examples=25, deadline=None)
    def test_scan_never_exceeds_planar_optimum(self, rho, grid_n):
        best, _ = chsh_scan(rho, grid_n)
        assert best <= planar_chsh_optimum(rho) + 1e-12

    @pytest.mark.parametrize("family,sign", [("phi", "+"), ("phi", "-"), ("psi", "+"), ("psi", "-")])
    def test_bell_states_reach_planar_optimum(self, family, sign):
        rho = density_of(bell_state(family, sign))
        best, _ = chsh_scan(rho, 16)
        assert abs(best - planar_chsh_optimum(rho)) < 1e-12


class TestDelayCovariance:
    def test_entangled_quarter_square(self, rng):
        # tolerance scales with tau^2: the covariance subtracts two numbers
        # of that size, so 1e-12 of it is the honest exactness scale
        for _ in range(20):
            tau0, tau1 = rng.uniform(1e-12, 1e-8, size=2)
            params = EvolutionParams(4.0, RateConstants(0.5, 0.1), float(rng.uniform(0, 2)))
            rho = two_rail_evolve("phi_plus", params, "closed_form")
            value = delay_covariance(rho, DelayPair(tau0, tau1))
            expected = 0.25 * (tau1 - tau0) ** 2
            assert abs(value - expected) <= 1e-12 * (tau0 ** 2 + tau1 ** 2)

    def test_entangled_quarter_square_dimensionless(self):
        # in normalized delay units the identity holds at 1e-12 absolute
        params = EvolutionParams(4.0, RateConstants(0.5, 0.1), 1.0)
        rho = two_rail_evolve("phi_plus", params, "closed_form")
        value = delay_covariance(rho, DelayPair(1.0, 2.0))
        assert abs(value - 0.25) < 1e-12

    def test_product_zero(self, rng):
        for _ in range(20):
            tau0, tau1 = rng.uniform(1e-12, 1e-8, size=2)
            params = EvolutionParams(4.0, RateConstants(0.5, 0.1), float(rng.uniform(0, 2)))
            rho = two_rail_evolve("product", params, "closed_form")
            value = delay_covariance(rho, DelayPair(tau0, tau1))
            assert abs(value) <= 1e-12 * (tau0 ** 2 + tau1 ** 2)

    def test_degenerate_delays_give_zero(self, rng):
        params = EvolutionParams(4.0, RateConstants(0.5, 0.1), 1.0)
        rho = two_rail_evolve("phi_plus", params, "closed_form")
        assert delay_covariance(rho, DelayPair(3e-9, 3e-9)) == 0.0

    def test_quadratic_growth_with_physical_delays(self, default_slab):
        # tau is proportional to L by construction, so the entangled-state
        # covariance grows exactly quadratically with propagation distance
        params = EvolutionParams(4.0, RateConstants(0.02, 0.0), 1.0)
        rho = two_rail_evolve("phi_plus", params, "closed_form")

        def covariance(length):
            pair = DelayPair(group_delay(default_slab, 0, length),
                             group_delay(default_slab, 1, length))
            return delay_covariance(rho, pair)

        ratio = covariance(2.0) / covariance(1.0)
        assert abs(ratio - 4.0) < 1e-9


def test_export_bell_csv(tmp_path):
    thetas = np.linspace(0, math.pi, 5, endpoint=False)
    target = tmp_path / "bell.csv"
    export_bell_csv(PHI_PLUS, thetas, thetas, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "theta1,theta2,E"
    assert len(lines) == 1 + 25


def test_export_chsh_csv(tmp_path):
    best, angles = chsh_scan(PHI_PLUS, 16)
    target = tmp_path / "chsh.csv"
    export_chsh_csv([(best, angles)], target)
    lines = target.read_text().splitlines()
    assert lines[0] == "theta1,theta1p,theta2,theta2p,B"
    values = [float(v) for v in lines[1].split(",")]
    assert abs(values[4] - TWO_SQRT_TWO) < 1e-9
