"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one PASS line with its measured runtime (visible with
pytest -s or in captured output).  Monte Carlo criteria use fixed seeds, so
the whole gate is deterministic.
"""
import math
import time

import numpy as np
import pytest

from modesim.analyzer import intensity_difference_evolved, intensity_split_operator
from modesim.bpm import (
    Grid,
    PhaseSection,
    YSplitterGeometry,
    branch_powers,
    build_geometry,
    decompose,
    field_from_modes,
    fig2_experiment,
    propagate,
    straight_slab_map,
)
from modesim.correlation import ChshAngles, DelayPair, chsh_B, chsh_scan, correlation_E, delay_covariance
from modesim.decoherence import (
    EvolutionParams,
    analytic_single_rail,
    ensemble_scan,
    fit_decay_rate,
    two_rail_evolve,
)
from modesim.states import bell_state, density_of, expectation, product_state, purity, superpose
from modesim.stochastic import PerturbationModel, RateConstants, rates, sample_path
from modesim.waveguide import SlabSpec, group_delay, solve_slab_te_modes

from conftest import snapshot_march

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
PHI_PLUS = density_of(bell_state("phi", "+"))
PRODUCT = density_of(product_state())
DEFAULT_SLAB = SlabSpec(8e-6, 1.50, 1.49, 1.55e-6)
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def report(number: int, runtime: float, limit: float, detail: str) -> None:
    assert runtime < limit, f"criterion {number} exceeded its {limit:.0f}s budget ({runtime:.1f}s)"
    print(f"ACCEPTANCE {number:2d} PASS ({runtime:6.2f}s < {limit:.0f}s): {detail}")


def test_criterion_01_bell_state_correlation():
    start = time.perf_counter()
    thetas = np.linspace(0.0, math.pi, 10, endpoint=False)
    worst = 0.0
    for t1 in thetas:
        for t2 in thetas:
            value = correlation_E(PHI_PLUS, float(t1), float(t2))
            worst = max(worst, abs(value - math.cos(2 * t1 + 2 * t2)))
    assert worst < 1e-12
    report(1, time.perf_counter() - start, 1.0,
           f"E(phi+) = cos(2t1+2t2) on a 100-point grid, max |err| = {worst:.2e}")


def test_criterion_02_chsh_maximum():
    start = time.perf_counter()
    angles = ChshAngles(math.pi / 8, -math.pi / 8, 0.0, math.pi / 4)
    value = chsh_B(PHI_PLUS, angles)
    error = abs(value - TWO_SQRT_TWO)
    assert error < 1e-12
    report(2, time.perf_counter() - start, 1.0,
           f"|B| at the canonical angles = 2 sqrt(2) to {error:.2e}")


def test_criterion_03_product_state_classical_bound():
    start = time.perf_counter()
    best, _ = chsh_scan(PRODUCT, grid_n=32)
    assert best <= 2.0 + 1e-9
    report(3, time.perf_counter() - start, 30.0,
           f"product-state scan (32^4 grid) max |B| = {best:.9f} <= 2")


def test_criterion_04_decoherence_purity_law():
    start = time.perf_counter()
    gamma = 0.04
    equal = density_of(superpose(1.0, 1.0))
    worst = 0.0
    for length in np.linspace(0.0, 60.0, 20):
        params = EvolutionParams(2.0e4, RateConstants(gamma, 0.067), float(length))
        value = purity(analytic_single_rail(equal, params))
        worst = max(worst, abs(value - (0.5 + 0.5 * math.exp(-2 * gamma * length))))
    assert worst < 1e-12
    deep = purity(analytic_single_rail(equal, EvolutionParams(2.0e4, RateConstants(gamma, 0.0), 1e4)))
    assert abs(deep - 0.5) < 1e-12
    report(4, time.perf_counter() - start, 1.0,
           f"purity = 1/2 + exp(-2 gamma L)/2 across 20 lengths (max err {worst:.2e}), "
           f"limit {deep:.12f}")


def test_criterion_05_monte_carlo_validates_closed_form():
    start = time.perf_counter()
    model = PerturbationModel(sigma=0.05, corr_length=100e-6, k_ab=500.0)
    delta_beta = 2.0 / model.corr_length  # D dbeta / 2 = 1
    rate_consts = rates(model, delta_beta)
    equal = density_of(superpose(1.0, 1.0))
    scan = ensemble_scan(equal, model, delta_beta, length_max=0.8192,
                         n_lengths=20, n_realizations=1000, base_seed=9000)
    fitted = fit_decay_rate(scan)
    rel_err = abs(fitted - rate_consts.gamma) / rate_consts.gamma
    assert rel_err < 0.10
    mid = len(scan.lengths) // 2
    sigmas = np.abs(scan.mean[mid] - scan.analytic[mid]) / np.maximum(scan.stderr[mid], 1e-300)
    assert float(sigmas.max()) < 3.0
    report(5, time.perf_counter() - start, 60.0,
           f"1000-realization fit gamma = {fitted:.4e} vs {rate_consts.gamma:.4e} "
           f"({rel_err * 100:.1f}% err); entrywise max {float(sigmas.max()):.2f} SE at mid length")


def test_criterion_06_intensity_difference_law():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        dbeta = float(rng.uniform(-10, 10))
        gamma = float(rng.uniform(0, 2))
        kappa = float(rng.uniform(-1, 1))
        length = float(rng.uniform(0, 3))
        theta = float(rng.uniform(0, math.pi))
        params = EvolutionParams(dbeta, RateConstants(gamma, kappa), length)
        trace_route = intensity_difference_evolved(INV_SQRT2, INV_SQRT2, params, theta)
        law = math.exp(-gamma * length) * math.cos(2 * theta + (dbeta + kappa) * length)
        worst = max(worst, abs(trace_route - law))
        # the same number through the raw expectation, independently assembled
        evolved = analytic_single_rail(density_of(superpose(1.0, 1.0)), params)
        direct = float(expectation(evolved, intensity_split_operator(theta)).real)
        worst = max(worst, abs(direct - law))
    assert worst < 1e-12
    report(6, time.perf_counter() - start, 1.0,
           f"exp(-gamma L) cos[2 theta + (dbeta + kappa) L] vs trace formula, "
           f"100 draws, max |err| = {worst:.2e}")


def test_criterion_07_group_delay_correlations():
    start = time.perf_counter()
    params = EvolutionParams(2.0e4, RateConstants(0.04, 0.067), 1.0)
    entangled = two_rail_evolve("phi_plus", params)
    separable = two_rail_evolve("product", params)
    # dimensionless delays check the identities at 1e-12 absolute
    pair = DelayPair(0.25, 1.75)
    assert abs(delay_covariance(entangled, pair) - 0.25 * (1.75 - 0.25) ** 2) < 1e-12
    assert abs(delay_covariance(separable, pair)) < 1e-12
    # physical delays from the mode solver: tolerance on the tau^2 scale
    tau_pair = DelayPair(group_delay(DEFAULT_SLAB, 0, 1.0), group_delay(DEFAULT_SLAB, 1, 1.0))
    expected = 0.25 * (tau_pair.tau1 - tau_pair.tau0) ** 2
    scale = tau_pair.tau0 ** 2 + tau_pair.tau1 ** 2
    assert abs(delay_covariance(entangled, tau_pair) - expected) < 1e-12 * scale
    assert abs(delay_covariance(separable, tau_pair)) < 1e-12 * scale

    def covariance_at(length):
        pair_l = DelayPair(group_delay(DEFAULT_SLAB, 0, length),
                           group_delay(DEFAULT_SLAB, 1, length))
        return delay_covariance(entangled, pair_l)

    ratio = covariance_at(2.0) / covariance_at(1.0)
    assert abs(ratio - 4.0) < 1e-9
    report(7, time.perf_counter() - start, 1.0,
           f"entangled covariance = (tau1-tau0)^2/4, product = 0; "
           f"covariance(2L)/covariance(L) = {ratio:.12f}")


def test_criterion_08_bpm_physical_fidelity():
    start = time.perf_counter()
    window, nx = 96e-6, 2048
    grid = Grid(-window / 2, window / (nx - 1), nx, 0.5e-6, 2001)  # 1 mm
    modes = solve_slab_te_modes(DEFAULT_SLAB, grid=grid.waveguide_grid())

    # power drift over 1 mm of straight guide
    ri_neutral = straight_slab_map(grid, DEFAULT_SLAB)
    launch = field_from_modes([modes[0]], [1.0], grid)
    final, _ = propagate(launch, ri_neutral, grid, DEFAULT_SLAB.wavelength, snapshot_every=200)
    drift = abs(final.power / launch.power - 1.0)
    assert drift < 1e-6

    # phase accumulation against the solver's beta0 (reference index set to
    # the mode's effective index, where the paraxial march is phase exact)
    n_eff = modes[0].beta / DEFAULT_SLAB.k
    ri_phase = straight_slab_map(grid, DEFAULT_SLAB, reference_n0=n_eff)
    snaps = snapshot_march(launch, ri_phase, grid, DEFAULT_SLAB.wavelength, snapshot_every=10)
    final, intensity = propagate(launch, ri_phase, grid, DEFAULT_SLAB.wavelength, snapshot_every=10)
    assert np.array_equal(final.values, snaps[-1].values)
    assert np.array_equal(intensity, np.square(np.abs([s.values for s in snaps])))
    phases = np.unwrap([np.angle(decompose(s, [modes[0]], grid)[0][0]) for s in snaps])
    accumulated = DEFAULT_SLAB.k * n_eff * snaps[-1].z + (phases[-1] - phases[0])
    phase_err = abs(accumulated - modes[0].beta * snaps[-1].z)
    assert phase_err < 1e-3

    # published index bumps {0, 1e-4, 2.1e-4} with a 1 mm phase section:
    # three distinct branch ratios, monotone in the accumulated phase
    def splitter(stem_um, phase_len_um):
        return YSplitterGeometry(
            stem_length=stem_um * 1e-6, branch_half_angle=math.radians(0.4),
            branch_separation_final=24e-6, core_width=4e-6,
            phase_section=PhaseSection(0.0, phase_len_um * 1e-6, z_start=50e-6))

    def sweep_grid(geometry):
        z_total = geometry.separation_end_z() + 250e-6
        return Grid(-32e-6, 64e-6 / 1023, 1024, 1e-6, int(math.ceil(z_total / 1e-6)) + 1)

    caption_geom = splitter(1130.0, 1000.0)
    caption = fig2_experiment([0.0, 1.0e-4, 2.1e-4], DEFAULT_SLAB, caption_geom,
                              sweep_grid(caption_geom))
    rights = [row.power_right for row in caption]
    assert len({round(r, 6) for r in rights}) == 3
    order = sorted(range(3), key=lambda i: caption[i].theta)
    sequence = [rights[i] for i in order]
    monotone = all(a < b for a, b in zip(sequence, sequence[1:])) or all(
        a > b for a, b in zip(sequence, sequence[1:]))
    assert monotone

    # fine sweep over a 3 mm phase section fits the cos^2 law
    fine_geom = splitter(3405.0, 3000.0)
    fine = fig2_experiment(np.linspace(0.0, 1.6e-3, 13), DEFAULT_SLAB, fine_geom,
                           sweep_grid(fine_geom))
    powers = np.array([row.power_right for row in fine])
    thetas = np.array([row.theta for row in fine])
    design = np.column_stack([np.ones_like(thetas), np.cos(2 * thetas), np.sin(2 * thetas)])
    coef, *_ = np.linalg.lstsq(design, powers, rcond=None)
    fitted = design @ coef
    correlation = float(np.corrcoef(powers, fitted)[0, 1])
    contrast = float((powers.max() - powers.min()) / (powers.max() + powers.min()))
    assert correlation >= 0.99
    assert contrast >= 0.95
    report(8, time.perf_counter() - start, 120.0,
           f"drift {drift:.1e}, phase err {phase_err:.1e} rad, caption ratios "
           f"{[round(r, 4) for r in sequence]}, cos^2 fit r = {correlation:.5f}, "
           f"contrast = {contrast:.3f}")


def test_criterion_09_sampler_autocovariance():
    start = time.perf_counter()
    model = PerturbationModel(sigma=0.01, corr_length=50e-6, k_ab=100.0)
    dz = model.corr_length / 8.0
    count = 25600
    lag_d = round(model.corr_length / dz)
    sums = {0: 0.0, lag_d: 0.0, 2 * lag_d: 0.0}
    n_paths = 2000
    for i in range(n_paths):
        values = sample_path(model, dz, count, seed=90_000 + i)
        for lag in sums:
            if lag == 0:
                sums[lag] += float(np.mean(values * values))
            else:
                sums[lag] += float(np.mean(values[lag:] * values[:-lag]))
    details = []
    for lag, total in sums.items():
        estimate = total / n_paths
        target = model.sigma ** 2 * math.exp(-((lag * dz / model.corr_length) ** 2))
        rel = abs(estimate - target) / target
        assert rel < 0.10, f"lag {lag}: {rel:.3f}"
        details.append(f"u={lag * dz / model.corr_length:.0f}D: {rel * 100:.1f}%")
    report(9, time.perf_counter() - start, 30.0,
           "autocovariance vs sigma^2 exp(-(u/D)^2): " + ", ".join(details))


def test_criterion_10_decohered_chsh():
    start = time.perf_counter()
    gamma, kappa, dbeta, length = 0.075, 0.03, 2.5, 1.0
    params = EvolutionParams(dbeta, RateConstants(gamma, kappa), length)
    rho = two_rail_evolve("phi_plus", params)
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(200):
        t1, t2 = rng.uniform(0, math.pi, size=2)
        law = math.exp(-2 * gamma * length) * math.cos(
            2 * t1 + 2 * t2 + 2 * (dbeta + kappa) * length)
        worst = max(worst, abs(correlation_E(rho, float(t1), float(t2)) - law))
    assert worst < 1e-12
    best, _ = chsh_scan(rho, grid_n=32)
    ceiling = TWO_SQRT_TWO * math.exp(-2 * gamma * length)
    floor = 2.76 * math.exp(-2 * gamma * length)  # grid resolution at n = 32
    assert best <= ceiling + 1e-9
    assert best >= floor
    report(10, time.perf_counter() - start, 30.0,
           f"decohered E law max |err| = {worst:.2e}; scan max {best:.6f} in "
           f"[{floor:.6f}, {ceiling:.6f}]")
