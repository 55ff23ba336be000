import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import speed_of_light
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from modesim import bpm, cli, waveguide
from modesim.bpm import Grid, PhaseSection, YSplitterGeometry
from modesim.decoherence import EvolutionParams
from modesim.states import DensityMatrix, PureState
from modesim.stochastic import PerturbationModel, RateConstants
from modesim.waveguide import (
    GuidedMode,
    SlabSpec,
    delta_beta,
    export_mode_csv,
    group_delay,
    solve_slab_te_modes,
)


# --- oracles on the solver's output ----------------------------------------

def dispersion_residual(spec, beta, mode_index):
    """Slab dispersion residual at beta: u sin u - v cos u (even m), u cos u + v sin u (odd m)."""
    half = spec.core_width / 2.0
    u = half * math.sqrt(max((spec.k * spec.n_core) ** 2 - beta ** 2, 0.0))
    v = math.sqrt(max(spec.v_number ** 2 - u ** 2, 0.0))
    if mode_index % 2 == 0:
        return u * math.sin(u) - v * math.cos(u)
    return u * math.cos(u) + v * math.sin(u)


def mode_overlap(a, b):
    """Trapezoid overlap integral <a|b> on the shared grid."""
    if a.grid != b.grid:
        raise ValueError("modes live on different grids")
    return complex(np.trapezoid(np.conj(a.profile) * b.profile, dx=a.grid[1]))


# --- the earlier beta route, kept as an oracle -------------------------------
#
# delta_beta and the group delay's slope once read beta from a full
# solve_slab_te_modes call on an 8-point placeholder grid, which bisected one
# branch at a time.  Its branch bisection and beta loop are kept here bit for
# bit: the array dispersion solve must reproduce them.

def branch_residual(m, u, v_number):
    v = np.sqrt(np.maximum(v_number ** 2 - u ** 2, 0.0))
    if m % 2 == 0:
        return u * np.sin(u) - v * np.cos(u)
    return u * np.cos(u) + v * np.sin(u)


def solve_branch(m, v_number):
    """The root u of branch m, or None if it lies within rounding of the cut-off u = V."""
    lo = m * math.pi / 2.0
    hi = min((m + 1) * math.pi / 2.0, v_number)
    lo += 1e-14 * max(1.0, lo)
    hi -= 1e-14 * max(1.0, hi)
    f_lo = float(branch_residual(m, np.array(lo), v_number))
    f_hi = float(branch_residual(m, np.array(hi), v_number))
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        if v_number <= (m + 1) * math.pi / 2.0:  # the top branch: its root is past hi = V (1 - 1e-14)
            return None
        raise RuntimeError(f"dispersion branch {m} lost its bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = float(branch_residual(m, np.array(mid), v_number))
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def placeholder_modes(spec):
    """(m, u, v, beta) of each guided mode as the full solve computed it, by descending beta."""
    v_number = spec.v_number
    if v_number < waveguide.MIN_NORMALIZED_FREQUENCY:
        return []
    half = spec.core_width / 2.0
    modes, m = [], 0
    while m * math.pi / 2.0 < v_number:
        u = solve_branch(m, v_number)
        if u is None:  # a root within rounding of u = V: the mode is at its cut-off
            break
        kappa = u / half
        beta = math.sqrt((spec.k * spec.n_core) ** 2 - kappa ** 2)
        if spec.k * spec.n_clad < beta < spec.k * spec.n_core:
            modes.append((m, u, math.sqrt(max(v_number ** 2 - u ** 2, 0.0)), beta))
        m += 1
    return modes


def placeholder_betas(spec):
    """beta of each guided mode as the full solve computed it, by descending beta."""
    return [beta for _, _, _, beta in placeholder_modes(spec)]


def placeholder_delta_beta(spec):
    betas = placeholder_betas(spec)
    if len(betas) < 2:
        raise ValueError("need at least 2 guided modes")
    return betas[1] - betas[0]


def placeholder_group_delay(spec, mode_index, length, dk_rel=1e-4):
    betas = []
    for sign in (+1.0, -1.0):
        k_pert = spec.k * (1.0 + sign * dk_rel)
        pert = placeholder_betas(SlabSpec(spec.core_width, spec.n_core, spec.n_clad,
                                          2.0 * math.pi / k_pert))
        if mode_index >= len(pert):
            raise ValueError("near cutoff")
        betas.append(pert[mode_index])
    return length / speed_of_light * ((betas[0] - betas[1]) / (2.0 * spec.k * dk_rel))


def outcome(function, *args):
    """function(*args), or ValueError if it raises one."""
    try:
        return function(*args)
    except ValueError:
        return ValueError


@st.composite
def slabs(draw):
    """A weakly guiding, dual-mode, multi-mode or near cut-off slab: V drawn first, the core width
    solved from it."""
    n_clad = draw(st.floats(1.0, 3.5))
    n_core = n_clad * (1.0 + draw(st.floats(1e-4, 0.3)))
    wavelength = draw(st.floats(0.4e-6, 2.0e-6))
    kind = draw(st.sampled_from(["weak", "dual", "multi", "cutoff"]))
    if kind == "weak":  # one mode; below u = 0.5 the bracket-width stop ends its bisection
        v_number = draw(st.floats(1e-6, 1.0))
    elif kind == "dual":
        v_number = draw(st.floats(math.pi / 2 * 1.001, math.pi * 0.999))
    elif kind == "multi":
        v_number = draw(st.floats(math.pi, 30.0))
    else:  # within 1e-4 of mode m's cut-off, where k (1 +- 1e-4) may lose or gain the mode
        v_number = draw(st.integers(1, 12)) * math.pi / 2 * (1.0 + draw(st.floats(-1e-4, 1e-4)))
    k = 2.0 * math.pi / wavelength
    core_width = 2.0 * v_number / (k * math.sqrt(n_core ** 2 - n_clad ** 2))
    return SlabSpec(core_width, n_core, n_clad, wavelength)


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
        # span_factor=0 once gave inf profiles; points=1 a ZeroDivisionError.  Such a grid
        # reaches no cladding, or steps over the core
        with pytest.raises(ValueError, match="core exceeds grid|points across the core"):
            waveguide.default_grid(default_slab.core_width, **kwargs)

    def test_default_grid_must_hold_the_core(self, default_slab):
        # span_factor=1e-300 once gave profiles whose norm underflowed to 0 (exit 3 in modes)
        with pytest.raises(ValueError, match="core exceeds grid"):
            waveguide.default_grid(default_slab.core_width, span_factor=1.0)
        x_min, _, _ = waveguide.default_grid(default_slab.core_width, span_factor=1.05)
        assert x_min == -1.05 * default_slab.core_width / 2.0

    def test_default_grid_must_resolve_the_core(self, default_slab):
        # span_factor=1e6 at 64 points once returned two modes whose profiles were all NaN
        with pytest.raises(ValueError, match="fewer than 16 points across the core"):
            waveguide.default_grid(default_slab.core_width, span_factor=1e6, points=64)
        # 2048 intervals over 128 core widths: 16 points across the core, the least allowed
        grid = waveguide.default_grid(default_slab.core_width, span_factor=128, points=2049)
        modes = solve_slab_te_modes(default_slab, grid=grid)
        assert len(modes) == 2
        assert all(np.isfinite(mode.profile).all() for mode in modes)

    @pytest.mark.parametrize("core_width", [8e-6, 1e-7, 3.3e-5])
    def test_exact_core_sampling_passes_whatever_dx_rounds_to(self, core_width):
        # check_core_sampling compares dx, not the integers default_grid once compared: exactly
        # 16 steps across the core, and a window of exactly 1.05 core widths, still pass
        for span_factor in range(2, 130):
            waveguide.default_grid(core_width, span_factor, 16 * span_factor + 1)
            with pytest.raises(ValueError, match="fewer than 16 points across the core"):
                waveguide.default_grid(core_width, span_factor, 16 * span_factor)
        for points in (18, 64, 97, 1000, 2048, 4097):
            waveguide.default_grid(core_width, 1.05, points)
            with pytest.raises(ValueError, match="core exceeds grid"):
                waveguide.default_grid(core_width, 1.05 * (1 - 1e-9), points)

    @settings(max_examples=40, deadline=None)
    @given(spec=slabs())
    # V = pi/2 (1 + 1e-12): mode 1's root lies within rounding of its cut-off, where the solve
    # once raised "dispersion branch 1 lost its bracket"; now mode 1 is not guided
    @example(spec=SlabSpec(0.2666666666669334 * 1e-6, 1.25, 1.0, 0.4 * 1e-6))
    def test_cached_dispersion_matches_placeholder_route(self, spec):
        # bit for bit: every beta, delta_beta, and each mode's group delay (or its error)
        betas = placeholder_betas(spec)
        assert [beta for _, _, _, beta in waveguide._dispersion(spec, math.inf)] == betas
        assert [mode.beta for mode in solve_slab_te_modes(spec)] == betas
        assert outcome(delta_beta, spec) == outcome(placeholder_delta_beta, spec)
        for index in {0, 1, max(len(betas) - 1, 0), len(betas)}:  # the last mode: nearest cut-off
            assert (outcome(group_delay, spec, index, 0.7)
                    == outcome(placeholder_group_delay, spec, index, 0.7))

    @settings(max_examples=40, deadline=None)
    @given(spec=slabs())
    @example(spec=SlabSpec(200e-6, 1.5, 1.49, 1.55e-6))  # V = 70, 45 modes
    @example(spec=SlabSpec(0.02, 1.5, 1.49, 1.55e-6))  # V = 7009, 4463 modes
    def test_prefix_solve_matches_per_branch_oracle(self, spec):
        # the array bisection of the first count branches gives each (m, u, v, beta) of the
        # one-branch-at-a-time route bit for bit, whether it solves 1, 2 or every branch
        modes = placeholder_modes(spec)
        for count in (1, 2, len(modes), math.inf):
            assert list(waveguide._dispersion(spec, count)) == modes[:min(count, len(modes))]
        if modes:  # one branch alone, not the two _dispersion solves at least
            assert list(waveguide._solved(spec, 1)) == modes[:1]

    def test_fig2_defaults_solve_each_slab_once(self, tmp_path, monkeypatch):
        # the benchmark's splitter config: its 3 slabs (base and two bumps) once took 6 solver
        # calls and 12 branch bisections; now each slab takes one array bisection of its two
        # branches, a miss of the solve's cache.  The march does not touch the solver, so it is
        # stubbed
        calls, original = [], waveguide.solve_slab_te_modes

        def solve(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (waveguide, bpm, cli):
            monkeypatch.setattr(module, "solve_slab_te_modes", solve)
        monkeypatch.setattr(bpm, "propagate", lambda field, *args, **kwargs: (field, None))
        waveguide._solved.cache_clear()
        config = cli.parse_config_text("experiment=fig2\n")
        assert cli.validate(config) == []
        cli.run(config, tmp_path / "out", quiet=True)
        assert len(calls) == 1
        assert waveguide._solved.cache_info().misses == 3

    def test_contrast_below_beta_resolution_raises(self):
        # n_core - n_clad is 4 ulps of 1.5 and V = 100: beta rounds onto k n_clad or k n_core
        # below the top branch.  Such modes were once skipped, which renumbered the rest: modes
        # wrote mode19.csv as its first mode, and delays gave tau0 == tau1
        spec = SlabSpec(955808943e-6, 1.5, 1.4999999999999991, 1.55e-6)
        assert 99 < spec.v_number < 101
        grid = waveguide.default_grid(spec.core_width)
        for call in (lambda: delta_beta(spec), lambda: group_delay(spec, 0, 1.0),
                     lambda: solve_slab_te_modes(spec, grid=grid)):
            with pytest.raises(ValueError, match="below float64's resolution of beta"):
                call()

    def test_mode_at_cutoff_is_not_guided(self):
        # the @example slab above: V = pi/2 (1 + 1e-12) carries TE0 alone
        spec = SlabSpec(0.2666666666669334 * 1e-6, 1.25, 1.0, 0.4 * 1e-6)
        assert [mode.index for mode in solve_slab_te_modes(spec)] == [0]
        with pytest.raises(ValueError, match="need at least 2 guided modes, found 1"):
            delta_beta(spec)

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
        coarser = waveguide.default_grid(default_slab.core_width, points=1024)
        other = solve_slab_te_modes(default_slab, grid=coarser)[0]
        with pytest.raises(ValueError, match="grid"):
            mode_overlap(mode, other)


class TestGroupDelay:
    def test_speed_of_light_is_scipys(self):
        # the module keeps the SI literal, so importing it does not load scipy
        assert waveguide.SPEED_OF_LIGHT == speed_of_light

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

    def test_negative_mode_index_rejected(self, default_slab):
        # mode -1 once read the last of zero solved modes: an IndexError
        with pytest.raises(ValueError, match="mode_index >= 0, got 0.0001 and -1"):
            group_delay(default_slab, -1, 1.0)

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


@pytest.mark.parametrize("build,bound", [
    (lambda nan: SlabSpec(nan, 1.5, 1.49, 1.55e-6), "must be positive"),
    (lambda nan: SlabSpec(8e-6, 1.5, 1.49, nan), "must be positive"),
    (lambda nan: PerturbationModel(nan, 100e-6, 500.0), "sigma must be nonnegative"),
    (lambda nan: PerturbationModel(0.05, nan, 500.0), "corr_length must be positive"),
    (lambda nan: PureState([nan, 0.0]), "not normalized"),
    (lambda nan: DensityMatrix([[nan, 0.0], [0.0, 0.0]]), "not Hermitian"),
    (lambda nan: PhaseSection(1e-4, nan), "must be nonnegative"),
    (lambda nan: PhaseSection(1e-4, 1e-3, z_start=nan), "must be nonnegative"),
    (lambda nan: YSplitterGeometry(nan, 0.007, 24e-6, 4e-6), "lengths must be positive"),
    (lambda nan: YSplitterGeometry(1e-3, 0.007, 24e-6, nan), "lengths must be positive"),
    (lambda nan: YSplitterGeometry(1e-3, 0.007, nan, 4e-6), "final separation"),
    (lambda nan: Grid(-32e-6, nan, 2048, 1e-6, 100), "dx and dz must be positive"),
    (lambda nan: Grid(-32e-6, 3e-8, 2048, nan, 100), "dx and dz must be positive"),
    (lambda nan: EvolutionParams(2e4, RateConstants(0.0, 0.0), nan), "length must be nonnegative"),
    (lambda nan: GuidedMode(0, 6e6, [0.5, nan], (0.0, 1e-6, 2)), "must be finite"),
    (lambda nan: GuidedMode(0, nan, [0.5, 0.5], (0.0, 1e-6, 2)), "must be finite"),
], ids=["slab_core_width", "slab_wavelength", "model_sigma", "model_corr_length", "pure_state",
        "density_matrix", "phase_length", "phase_start", "splitter_stem", "splitter_core",
        "splitter_separation", "grid_dx", "grid_dz", "evolution_length", "mode_profile",
        "mode_beta"])
def test_every_domain_dataclass_refuses_nan(build, bound):
    # each bound once read `x <= 0`, which NaN passes; the object was built, or failed later
    # with another message
    with pytest.raises(ValueError, match=bound):
        build(math.nan)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("build", [
    lambda: SlabSpec(INF, 1.5, 1.49, 1.55e-6),
    lambda: SlabSpec(8e-6, 1.5, 1.49, INF),
    lambda: PhaseSection(NAN, 1e-3),
    lambda: PhaseSection(INF, 1e-3),
    lambda: PhaseSection(1e-4, INF),
    lambda: PhaseSection(1e-4, 1e-3, z_start=INF),
    lambda: Grid(NAN, 3e-8, 2048, 1e-6, 100),
    lambda: Grid(-INF, 3e-8, 2048, 1e-6, 100),
    lambda: Grid(-32e-6, INF, 2048, 1e-6, 100),
    lambda: Grid(-32e-6, 3e-8, 2048, INF, 100),
    lambda: PerturbationModel(INF, 100e-6, 500.0),
    lambda: PerturbationModel(0.05, INF, 500.0),
    lambda: PerturbationModel(0.05, 100e-6, NAN),
    lambda: PerturbationModel(0.05, 100e-6, INF),
    lambda: PerturbationModel(0.05, 100e-6, complex(500.0, INF)),
    lambda: YSplitterGeometry(INF, 0.007, 24e-6, 4e-6),
    lambda: YSplitterGeometry(1e-3, 0.007, INF, 4e-6),
    lambda: bpm.RIMap(np.zeros((2, 5)), 1.5, INF),
    lambda: bpm.RIMap(np.zeros((2, 5)), INF, 1.5),
], ids=["slab_core_width_inf", "slab_wavelength_inf", "phase_delta_n_nan", "phase_delta_n_inf",
        "phase_length_inf", "phase_start_inf", "grid_x_min_nan", "grid_x_min_inf", "grid_dx_inf",
        "grid_dz_inf", "model_sigma_inf", "model_corr_length_inf", "model_k_ab_nan",
        "model_k_ab_inf", "model_k_ab_complex_inf", "splitter_stem_inf", "splitter_separation_inf",
        "map_reference_inf", "map_cladding_inf"])
def test_every_domain_dataclass_refuses_non_finite(build):
    # each of these once built, and failed later (or wrote inf) in whatever consumed it
    with pytest.raises(ValueError, match="must be finite"):
        build()
