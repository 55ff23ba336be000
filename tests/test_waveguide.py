import math

import numpy as np
import pytest
from scipy.constants import speed_of_light
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from modesim.waveguide import (
    GuidedMode,
    ParabolicSpec,
    SlabSpec,
    delta_beta,
    dispersion_residual,
    export_mode_csv,
    group_delay,
    mode_overlap,
    parabolic_modes,
    solve_slab_te_modes,
)


# --- independent shooting-method oracle ------------------------------------
#
# Integrates psi'' = (beta^2 - k^2 n(x)^2) psi across the core and finds beta
# where the symmetry condition at x = 0 holds (psi'(0) = 0 for even modes,
# psi(0) = 0 for odd modes).  The start at the core edge is the exact
# decaying cladding solution (psi, psi') = (1, sigma); the core crossing is
# pure numerical integration, so the route never touches the transcendental
# dispersion relation used by the solver.

def shooting_mismatch(beta, spec, even):
    k = 2.0 * math.pi / spec.wavelength
    half = spec.core_width / 2.0
    decay = math.sqrt(max(beta ** 2 - (k * spec.n_clad) ** 2, 0.0))

    def rhs(x, y):
        return [y[1], (beta ** 2 - (k * spec.n_core) ** 2) * y[0]]

    sol = solve_ivp(rhs, (-half, 0.0), [1.0, decay], rtol=1e-12, atol=1e-14)
    psi, dpsi = sol.y[0, -1], sol.y[1, -1]
    scale = math.hypot(psi, dpsi / k)
    return (dpsi / k if even else psi) / scale


def shooting_beta(spec, mode_index):
    k = 2.0 * math.pi / spec.wavelength
    lo, hi = k * spec.n_clad * (1 + 1e-9), k * spec.n_core * (1 - 1e-9)
    even = mode_index % 2 == 0
    grid = np.linspace(lo, hi, 240)
    values = [shooting_mismatch(b, spec, even) for b in grid]
    roots = []
    for i in range(len(grid) - 1):
        if values[i] == 0.0 or (values[i] > 0) != (values[i + 1] > 0):
            roots.append(brentq(shooting_mismatch, grid[i], grid[i + 1],
                                args=(spec, even), xtol=1e-6, rtol=1e-14))
    roots.sort(reverse=True)  # descending beta, like the solver
    rank = mode_index // 2
    return roots[rank]


class TestSlabSolver:
    def test_exactly_two_modes_for_default_spec(self, default_slab):
        # V = (k w / 2) sqrt(n_core^2 - n_clad^2) ~ 2.80 sits between pi/2 and pi
        assert 0.5 * math.pi < default_slab.v_number < math.pi
        modes = solve_slab_te_modes(default_slab)
        assert len(modes) == 2

    def test_beta_ordering_and_bracket(self, default_slab):
        modes = solve_slab_te_modes(default_slab)
        k = default_slab.k
        betas = [m.beta for m in modes]
        assert betas == sorted(betas, reverse=True)
        for mode in modes:
            assert k * default_slab.n_clad < mode.beta < k * default_slab.n_core

    def test_dispersion_residual_below_tolerance(self, default_slab):
        for mode in solve_slab_te_modes(default_slab):
            assert abs(dispersion_residual(default_slab, mode.beta, mode.index)) < 1e-12

    def test_beta_against_shooting_oracle(self, default_slab):
        modes = solve_slab_te_modes(default_slab)
        for mode in modes:
            oracle = shooting_beta(default_slab, mode.index)
            assert abs(mode.beta - oracle) / mode.beta < 1e-8

    def test_profiles_normalized(self, default_slab):
        for mode in solve_slab_te_modes(default_slab):
            dx = mode.grid[1]
            norm = np.trapezoid(np.abs(mode.profile) ** 2, dx=dx)
            assert abs(norm - 1.0) < 1e-9

    def test_sign_changes_match_mode_index(self, default_slab):
        half = default_slab.core_width / 2.0
        for mode in solve_slab_te_modes(default_slab):
            core = mode.profile[np.abs(mode.x) <= half]
            signs = np.sign(core[np.abs(core) > 1e-9])
            changes = int(np.sum(signs[1:] != signs[:-1]))
            assert changes == mode.index

    def test_orthonormal_pairs(self, default_slab):
        modes = solve_slab_te_modes(default_slab)
        for i, a in enumerate(modes):
            for j, b in enumerate(modes):
                target = 1.0 if i == j else 0.0
                assert abs(mode_overlap(a, b) - target) < 1e-6

    def test_vanishing_contrast_returns_empty(self):
        spec = SlabSpec(8e-6, 1.49 + 1e-15, 1.49, 1.55e-6)
        assert solve_slab_te_modes(spec) == []

    @pytest.mark.parametrize("kwargs", [dict(span_factor=0.0), dict(span_factor=-6.0),
                                        dict(points=1), dict(points=0)])
    def test_degenerate_default_grid_rejected(self, default_slab, kwargs):
        # span_factor=0 once gave inf profiles; points=1 a ZeroDivisionError
        with pytest.raises(ValueError, match="span_factor > 0 and points >= 2"):
            solve_slab_te_modes(default_slab, **kwargs)

    def test_halving_wavelength_doubles_v(self, default_slab):
        doubled = SlabSpec(default_slab.core_width, default_slab.n_core,
                           default_slab.n_clad, default_slab.wavelength / 2.0)
        modes = solve_slab_te_modes(doubled)
        assert len(modes) > 2
        assert delta_beta(doubled) == modes[1].beta - modes[0].beta


class TestModeOverlap:
    def test_self_overlap(self, default_slab):
        mode = solve_slab_te_modes(default_slab)[0]
        assert abs(mode_overlap(mode, mode) - 1.0) < 1e-9

    def test_shifted_copy_overlap_small(self, default_slab):
        # trapezoid integration of TE0 against its copy displaced by one core
        # width gives 0.1576 for the default guide (the cores touch; the
        # residual overlap is all evanescent tail), well below unity
        mode = solve_slab_te_modes(default_slab)[0]
        x_min, dx, count = mode.grid
        shift = int(round(default_slab.core_width / dx))
        shifted_profile = np.roll(mode.profile, shift)
        shifted_profile[:shift] = 0.0  # displaced, not wrapped
        shifted = GuidedMode(index=0, beta=mode.beta, profile=shifted_profile,
                             grid=mode.grid)
        overlap = abs(mode_overlap(mode, shifted))
        assert overlap < 0.2
        assert abs(overlap - 0.15760) < 5e-4

    def test_grid_mismatch_rejected(self, default_slab):
        mode = solve_slab_te_modes(default_slab)[0]
        other = solve_slab_te_modes(default_slab, points=1024)[0]
        with pytest.raises(ValueError, match="grid"):
            mode_overlap(mode, other)


class TestParabolic:
    def spec(self):
        # ground-state width ~ 6 um at 1.55 um wavelength
        return ParabolicSpec(n0=1.5, gradient=4.0e8, wavelength=1.55e-6)

    def test_ground_state_gaussian_no_sign_changes(self):
        mode = parabolic_modes(self.spec(), 1)[0]
        body = mode.profile[np.abs(mode.profile) > 1e-9 * np.abs(mode.profile).max()]
        assert np.all(body > 0) or np.all(body < 0)

    def test_eigenvalue_spacing_constant(self):
        spec = self.spec()
        modes = parabolic_modes(spec, 5)
        k = spec.k
        omegas = [(spec.n0 ** 2 - (m.beta / k) ** 2) / 2.0 for m in modes]
        spacings = np.diff(omegas)
        assert np.allclose(spacings, spacings[0], rtol=1e-9)

    def test_orthogonality(self):
        modes = parabolic_modes(self.spec(), 4)
        assert abs(mode_overlap(modes[0], modes[1])) < 1e-10
        for i, a in enumerate(modes):
            for j, b in enumerate(modes):
                assert abs(mode_overlap(a, b) - (1.0 if i == j else 0.0)) < 1e-8

    def test_unguided_mode_rejected(self):
        weak = ParabolicSpec(n0=1.5, gradient=4.0e8, wavelength=1.55e-6)
        # eigenvalue (n + 1/2) sqrt(g)/k exceeds n0^2/2 for large n
        limit = int(weak.n0 ** 2 / 2.0 * weak.k / math.sqrt(weak.gradient))
        with pytest.raises(ValueError, match="not guided"):
            parabolic_modes(weak, limit + 2)


class TestGroupDelay:
    def test_zero_length(self, default_slab):
        assert group_delay(default_slab, 0, 0.0) == 0.0

    def test_homogeneous_limit(self):
        # vanishing contrast, wide core: tau -> L n / c for dispersionless n
        spec = SlabSpec(40e-6, 1.5, 1.4999, 1.55e-6)
        tau = group_delay(spec, 0, 1.0)
        assert abs(tau * speed_of_light / 1.0 - 1.5) < 2e-4

    def test_against_richardson_oracle(self, default_slab):
        # Richardson extrapolation of the central difference kills the
        # leading O(dk^2) error; the plain difference must agree closely.
        length = 1.0

        def tau_diff(dk_rel):
            return (group_delay(default_slab, 1, length, dk_rel)
                    - group_delay(default_slab, 0, length, dk_rel))

        coarse = tau_diff(2e-4)
        fine = tau_diff(1e-4)
        oracle = (4.0 * fine - coarse) / 3.0
        assert abs(tau_diff(1e-4) - oracle) / abs(oracle) < 1e-6

    def test_second_order_convergence_signature(self, default_slab):
        taus = [group_delay(default_slab, 1, 1.0, dk_rel) for dk_rel in (4e-3, 2e-3, 1e-3)]
        first_change = abs(taus[0] - taus[1])
        second_change = abs(taus[1] - taus[2])
        ratio = first_change / second_change
        assert 3.2 < ratio < 4.8

    def test_near_cutoff_error(self, default_slab):
        # mode 2 does not exist for the default guide at any nearby k
        with pytest.raises(ValueError, match="reduce dk_rel"):
            group_delay(default_slab, 2, 1.0)


class TestDeltaBeta:
    def test_sign_convention(self, default_slab):
        assert delta_beta(default_slab) < 0.0

    def test_against_shooting_oracle(self, default_slab):
        oracle = shooting_beta(default_slab, 1) - shooting_beta(default_slab, 0)
        value = delta_beta(default_slab)
        assert abs(value - oracle) / abs(oracle) < 1e-6

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            SlabSpec(8e-6, 1.49, 1.49, 1.55e-6)

    def test_single_mode_guide_rejected(self):
        narrow = SlabSpec(3e-6, 1.50, 1.49, 1.55e-6)
        assert len(solve_slab_te_modes(narrow)) == 1
        with pytest.raises(ValueError, match="2 guided modes"):
            delta_beta(narrow)


def test_export_mode_csv(tmp_path, default_slab):
    mode = solve_slab_te_modes(default_slab)[0]
    target = tmp_path / "mode0.csv"
    export_mode_csv(mode, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "x_m,re,im"
    assert len(lines) == 1 + mode.grid[2]
    x0, re0, im0 = (float(v) for v in lines[1].split(","))
    assert x0 == mode.grid[0]
    assert im0 == 0.0
