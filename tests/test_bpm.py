import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import modesim
from modesim import bpm
from modesim._errors import NumericalError
from modesim.bpm import (
    Field,
    Grid,
    PhaseSection,
    RIMap,
    YSplitterGeometry,
    branch_powers,
    build_geometry,
    decompose,
    export_field_csv,
    export_raster,
    field_from_modes,
    fig2_experiment,
    propagate,
    straight_slab_map,
)
from modesim.waveguide import SlabSpec, check_core_sampling, solve_slab_te_modes

from conftest import snapshot_march, snapshot_steps

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def straight_grid(nz=801, nx=1024, window=80e-6, dz=0.5e-6):
    return Grid(-window / 2, window / (nx - 1), nx, dz, nz)


def raster_rows(keys, grid, n_clad):
    """The full-width row of each key: bpm._raster's rows over the keys' core window, cladding
    around it."""
    raster = bpm._raster(grid, n_clad, lambda n: n)
    start, window = raster(np.asarray(keys, dtype=np.float64), np.arange(len(keys)))
    rows = np.full((len(keys), grid.nx), n_clad)
    rows[:, start:start + window.shape[1]] = window
    return rows


def full_map(ri_map, grid):
    """The (nz, nx) index map that ri_map stores as one row key per z step."""
    return raster_rows(ri_map.keys, grid, ri_map.n_clad)


def uniform_map(grid, index):
    """Homogeneous-medium index map (free diffraction), referenced to its own index."""
    return RIMap(np.zeros((grid.nz, 5)), index, index)


def reference_propagate(field, ri_map, grid, wavelength, snapshot_every=1):
    """The march as one solve_banded call per step on the materialized map:
    the oracle that propagate's kept factorizations must match bit for bit."""
    k = 2.0 * math.pi / wavelength
    n0 = ri_map.reference_n0
    n = full_map(ri_map, grid)
    off_diag = -1.0 / (2.0 * k * n0 * grid.dx ** 2)
    laplacian_diag = 1.0 / (k * n0 * grid.dx ** 2)
    damping = bpm._absorber(grid)
    half_step = 0.5j * grid.dz
    values = field.values.astype(np.complex128)
    snapshots = [values.copy()]
    banded = np.zeros((3, grid.nx), dtype=np.complex128)
    rhs = np.empty(grid.nx, dtype=np.complex128)
    for j in range(grid.nz - 1):
        n_mid = 0.5 * (n[j] + n[j + 1])
        potential = (k / (2.0 * n0)) * (n0 * n0 - n_mid * n_mid)
        diag = laplacian_diag + potential - 1j * damping
        rhs[:] = (1.0 - half_step * diag) * values
        rhs[:-1] -= half_step * off_diag * values[1:]
        rhs[1:] -= half_step * off_diag * values[:-1]
        banded[0, 1:] = half_step * off_diag
        banded[1, :] = 1.0 + half_step * diag
        banded[2, :-1] = half_step * off_diag
        values = solve_banded((1, 1), banded, rhs)
        step = j + 1
        if step % snapshot_every == 0 or step == grid.nz - 1:
            snapshots.append(values.copy())
    return snapshots


def step_loop_propagate(field, ri_map, grid, wavelength, snapshot_every=1):
    """propagate's earlier step loop, kept as the oracle of the allocation-free one:
    the step matrix's complex diagonal built per run, a right-hand side from fresh
    temporaries, and the exact _power at every step for the stability guard."""
    from scipy.linalg.lapack import zgtsv, zgttrf, zgttrs

    k = 2.0 * math.pi / wavelength
    n0 = ri_map.reference_n0
    off_diag = -1.0 / (2.0 * k * n0 * grid.dx ** 2)
    laplacian_diag = 1.0 / (k * n0 * grid.dx ** 2)
    damping = 1j * bpm._absorber(grid)
    half_step = 0.5j * grid.dz
    coupling = half_step * off_diag
    lower = np.full(grid.nx - 1, coupling)
    values = field.values.astype(np.complex128)
    power_prev = bpm._power(values, grid.dx)
    snapshots = [Field(values.copy(), 0.0, power_prev)]
    rows = full_map(ri_map, grid)
    before, after = ri_map.keys[:-1], ri_map.keys[1:]
    changes = (before[1:] != before[:-1]) | (after[1:] != after[:-1])
    starts = np.flatnonzero(np.r_[True, changes.any(axis=1)])
    for start, stop in zip(starts.tolist(), starts[1:].tolist() + [grid.nz - 1]):
        n_mid = 0.5 * (rows[start] + rows[start + 1])
        potential = (k / (2.0 * n0)) * (n0 * n0 - n_mid * n_mid)
        scaled = half_step * (laplacian_diag + potential - damping)
        rhs_diag = 1.0 - scaled
        if stop - start > 1:
            *factors, info = zgttrf(lower, 1.0 + scaled, lower)
            assert info == 0
        for j in range(start, stop):
            rhs = rhs_diag * values
            rhs[:-1] -= coupling * values[1:]
            rhs[1:] -= coupling * values[:-1]
            if stop - start > 1:
                values, _ = zgttrs(*factors, rhs, overwrite_b=1)
            else:
                *_, values, info = zgtsv(lower, 1.0 + scaled, lower, rhs, overwrite_d=1, overwrite_b=1)
                assert info == 0
            power = bpm._power(values, grid.dx)
            if not math.isfinite(power) or power > power_prev * (1.0 + bpm.INSTABILITY_GROWTH):
                raise NumericalError(f"propagation unstable at z={grid.dz * (j + 1):g} m")
            power_prev = power
            step = j + 1
            if step % snapshot_every == 0 or step == grid.nz - 1:
                snapshots.append(Field(values.copy(), grid.dz * step, power))
    return snapshots


def unstable_at(march, *args):
    """The z (as printed) at which a march's stability guard aborts."""
    with pytest.raises(NumericalError, match="unstable") as caught:
        march(*args)
    return re.search(r"at z=(\S+) m", str(caught.value)).group(1)


def small_splitter(default_slab, delta_n=4e-4, nx=512):
    """A short Y-splitter with a phase section (121 runs), its grid and the |+> launch."""
    geometry = YSplitterGeometry(60e-6, math.radians(1.0), 8e-6, 4e-6,
                                 phase_section=PhaseSection(delta_n, 30e-6, z_start=10e-6))
    grid = Grid(-24e-6, 48e-6 / (nx - 1), nx, 1e-6, int(geometry.separation_end_z() / 1e-6) + 21)
    modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
    launch = field_from_modes(modes[:2], [INV_SQRT2, INV_SQRT2], grid)
    return build_geometry(geometry, grid, default_slab), grid, launch


def step_pairs(ri_map):
    """The (key before, key after) pair of each step, equal where numpy's != finds them equal."""
    keys = list(map(tuple, ri_map.keys.tolist()))
    return list(zip(keys[:-1], keys[1:]))


def count_lapack_calls(monkeypatch, *names):
    """Calls of each named LAPACK routine; propagate takes them from bpm._flapack()."""
    calls = dict.fromkeys(names, 0)

    def spy(name, original):
        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counting

    for name in names:
        monkeypatch.setattr(bpm._flapack(), name, spy(name, getattr(bpm._flapack(), name)))
    return calls


# In a fresh interpreter, loads scipy's LAPACK extension through bpm._flapack and
# scipy.linalg.lapack in the order the argument names ("loader" or "lapack" first);
# prints whether both give the same routines and module, as JSON.
_LOAD_ORDER = """
import json, sys
from modesim import bpm
if sys.argv[1] == "loader":
    flapack, package = bpm._flapack(), "scipy.linalg" in sys.modules
import scipy.linalg.lapack
if sys.argv[1] == "lapack":
    flapack, package = bpm._flapack(), "scipy.linalg" in sys.modules
print(json.dumps({
    "same": [getattr(scipy.linalg.lapack, name) is getattr(flapack, name)
             for name in ("zgtsv", "zgttrf", "zgttrs")],
    "cached": bpm._flapack() is flapack is sys.modules["scipy.linalg._flapack"],
    "package_loaded_first": package,
    "solve": scipy.linalg.solve([[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0]).tolist(),
}))
"""


def default_geometry(stem_um=400.0, delta_n=0.0, phase_len_um=200.0):
    return YSplitterGeometry(
        stem_length=stem_um * 1e-6,
        branch_half_angle=math.radians(0.4),
        branch_separation_final=24e-6,
        core_width=4e-6,
        phase_section=PhaseSection(delta_n, phase_len_um * 1e-6, z_start=50e-6),
    )


def coverage(x, dx, intervals):
    """Fraction of each cell [x - dx/2, x + dx/2] covered by the intervals, merged where
    they touch: the full-width rasterization that bpm._raster must match bit for bit."""
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    fraction = np.zeros_like(x)
    left = x - dx / 2.0
    right = x + dx / 2.0
    for lo, hi in merged:
        fraction += np.clip(np.minimum(right, hi) - np.maximum(left, lo), 0.0, dx) / dx
    return np.clip(fraction, 0.0, 1.0)


def reference_raster(geometry, grid, base):
    """The row of each z step of build_geometry's map, as one coverage call per step, its core
    value and intervals found by a loop over z."""
    stem_half = base.core_width / 2.0
    contrast = base.n_core - base.n_clad
    branch_half = geometry.core_width / 2.0
    phase = geometry.phase_section
    slope = math.tan(geometry.branch_half_angle)
    rows = np.empty((grid.nz, grid.nx))
    for j, z_j in enumerate(grid.z):
        value = contrast
        if z_j < geometry.stem_length:
            if phase.z_start <= z_j < phase.z_start + phase.length:
                value = contrast + phase.delta_n
            intervals = ((-stem_half, stem_half),)
        else:
            travel = min((z_j - geometry.stem_length) * slope,
                         (geometry.branch_separation_final - geometry.core_width) / 2.0)
            center = branch_half + travel
            intervals = ((-center - branch_half, -center + branch_half),
                         (center - branch_half, center + branch_half))
        rows[j] = base.n_clad + value * coverage(grid.x, grid.dx, intervals)
    return rows


@st.composite
def splitters(draw):
    """A splitter geometry on a grid that holds it, and the base slab.

    Lengths are drawn in cells and steps: zero angles, cores that touch at the junction
    (a stem ending on a step), gaps under one cell, phase sections ending on step
    boundaries, odd nx and grids not centred on x = 0."""
    dx, dz = draw(st.floats(0.1, 1.0)) * 1e-6, draw(st.sampled_from([0.3e-6, 0.5e-6, 1e-6]))
    nz = draw(st.integers(2, 160))
    stem_steps = draw(st.one_of(st.integers(1, nz - 1).map(float), st.floats(0.01, nz - 1)))
    core = draw(st.floats(0.3, 12.0)) * dx
    separation = core + draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 30.0))) * dx
    stem_length = stem_steps * dz
    travel, run = (separation - core) / 2.0, dz * (nz - 1) - stem_length
    least = math.degrees(math.atan2(travel, run)) * (1 + 1e-9)  # separated by the grid's end
    if least >= 1.99:  # too short a grid for these branches: they stay side by side
        separation, least = core, 0.0
    angle = draw(st.one_of(st.just(0.0), st.just(least), st.floats(least, 1.99)))
    stem = draw(st.floats(0.5, 40.0)) * dx
    margin = 1.05 * (separation / 2.0 + core / 2.0)
    x_min = -margin - draw(st.floats(0.0, 20.0)) * dx
    nx = max(draw(st.integers(64, 200)), math.ceil((margin - x_min) / dx) + 2)
    phase_start = draw(st.integers(0, max(0, int(stem_steps) - 1)))
    phase_steps = draw(st.integers(0, int(stem_steps) - phase_start))
    assume(phase_start * dz + phase_steps * dz <= stem_length)
    # a cladding index far below the contrast keeps each coverage bit in its row
    n_clad, contrast = draw(st.sampled_from([1.45, 1e-9])), draw(st.floats(1e-3, 1.0))
    bump = draw(st.floats(-contrast / 2, contrast))
    base = SlabSpec(stem, n_clad + contrast, n_clad, 1.55e-6)
    geometry = YSplitterGeometry(stem_length, math.radians(angle), separation, core,
                                 PhaseSection(bump, phase_steps * dz, z_start=phase_start * dz))
    return geometry, Grid(x_min, dx, nx, dz, nz), base


class TestGeometry:
    def test_zero_angle_is_translation_invariant(self, default_slab):
        grid = straight_grid(nz=101)
        geometry = YSplitterGeometry(stem_length=10e-6, branch_half_angle=0.0,
                                     branch_separation_final=4e-6, core_width=4e-6)
        ri_map = build_geometry(geometry, grid, default_slab)
        assert np.abs(full_map(ri_map, grid) - full_map(ri_map, grid)[0]).max() < 1e-15

    def test_zero_delta_n_matches_no_phase_section(self, default_slab):
        grid = straight_grid(nz=2101, dz=1e-6)
        with_section = build_geometry(default_geometry(delta_n=0.0), grid, default_slab)
        without = build_geometry(YSplitterGeometry(400e-6, math.radians(0.4), 24e-6, 4e-6), grid, default_slab)
        assert np.abs(full_map(with_section, grid) - full_map(without, grid)).max() < 1e-15

    def test_raster_area_matches_analytic(self, default_slab):
        # area-weighted rasterization integrates to the analytic core area
        # to within one row of core cells
        grid = straight_grid(nz=2100, dz=1e-6)
        geometry = default_geometry()
        assert geometry.separation_end_z() < grid.z_max
        ri_map = build_geometry(geometry, grid, default_slab)
        contrast = default_slab.n_core - default_slab.n_clad
        raster = full_map(ri_map, grid)
        raster_area = float(np.sum(raster - default_slab.n_clad) / contrast) * grid.dx * grid.dz
        analytic = (geometry.stem_length * default_slab.core_width
                    + (grid.nz * grid.dz - geometry.stem_length) * 2 * geometry.core_width)
        cell_row = default_slab.core_width * grid.dz
        assert abs(raster_area - analytic) < cell_row

    @given(splitters())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_coverage_oracle(self, case):
        # the row of every z step bit for bit
        geometry, grid, base = case
        ri_map = build_geometry(geometry, grid, base)
        assert (ri_map.n_clad, ri_map.reference_n0) == (base.n_clad, base.n_core)
        rows, expected = full_map(ri_map, grid), reference_raster(geometry, grid, base)
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
        half = base.core_width / 2.0
        straight = full_map(straight_slab_map(grid, base), grid)
        expected = base.n_clad + (base.n_core - base.n_clad) * coverage(grid.x, grid.dx, [(-half, half)])
        assert straight.tobytes() == np.tile(expected, (grid.nz, 1)).tobytes()

    def test_geometry_exceeding_grid_rejected(self, default_slab):
        grid = straight_grid(nz=101)  # 50 um of z, far too short
        with pytest.raises(ValueError, match="exceeds grid"):
            build_geometry(default_geometry(), grid, default_slab)

    def test_geometry_exceeding_window_rejected(self, default_slab):
        narrow = Grid(-10e-6, 20e-6 / 1023, 1024, 1e-6, 2001)
        with pytest.raises(ValueError, match="exceeds grid"):
            build_geometry(default_geometry(), narrow, default_slab)

    def test_phase_section_outside_stem_rejected(self):
        # the geometry rejects itself, so a config check needs no raster
        with pytest.raises(ValueError, match="phase section"):
            YSplitterGeometry(100e-6, math.radians(0.4), 24e-6, 4e-6,
                              phase_section=PhaseSection(1e-4, 200e-6, z_start=50e-6))


class TestPropagation:
    def test_straight_guide_power_and_overlap(self, default_slab):
        grid = straight_grid(nz=2001)  # 1 mm at dz = 0.5 um
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        ri_map = straight_slab_map(grid, default_slab)
        check_core_sampling(default_slab.core_width, grid.waveguide_grid())
        launch = field_from_modes([modes[0]], [1.0], grid)
        final, _ = propagate(launch, ri_map, grid, default_slab.wavelength, snapshot_every=200)
        assert abs(final.power / launch.power - 1.0) < 1e-6
        coeffs, residual = decompose(final, modes, grid)
        assert abs(coeffs[0]) >= 0.999
        assert residual < 1e-6

    def test_phase_accumulation_matches_solver(self, default_slab):
        # reference index = the launched mode's effective index makes the
        # paraxial march reproduce exp(-i beta0 L) exactly in the continuum
        grid = straight_grid(nz=2001)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        n_eff = modes[0].beta / default_slab.k
        ri_map = straight_slab_map(grid, default_slab, reference_n0=n_eff)
        launch = field_from_modes([modes[0]], [1.0], grid)
        snaps = snapshot_march(launch, ri_map, grid, default_slab.wavelength, snapshot_every=10)
        final, intensity = propagate(launch, ri_map, grid, default_slab.wavelength, snapshot_every=10)
        assert np.array_equal(final.values, snaps[-1].values)
        assert np.array_equal(intensity, np.square(np.abs([s.values for s in snaps])))
        phases = np.unwrap([np.angle(decompose(s, [modes[0]], grid)[0][0]) for s in snaps])
        accumulated = default_slab.k * n_eff * snaps[-1].z + (phases[-1] - phases[0])
        assert abs(accumulated - modes[0].beta * snaps[-1].z) < 1e-3

    def test_free_space_gaussian_diffraction(self):
        # analytic Fresnel widths: w(z) = w0 sqrt(1 + (z/zR)^2)
        wavelength = 1.55e-6
        waist = 6e-6
        k_medium = 2 * math.pi / wavelength  # n = 1
        rayleigh = k_medium * waist ** 2 / 2.0
        grid = Grid(-60e-6, 120e-6 / 2047, 2048, 0.25e-6, int(2 * rayleigh / 0.25e-6) + 1)
        ri_map = uniform_map(grid, 1.0)
        values = np.exp(-(grid.x / waist) ** 2).astype(complex)
        launch = Field(values, 0.0, float(np.sum(np.abs(values) ** 2) * grid.dx))
        _, raster = propagate(launch, ri_map, grid, wavelength, snapshot_every=200)

        def width(intensity):
            center = np.sum(grid.x * intensity) / np.sum(intensity)
            return 2.0 * math.sqrt(np.sum((grid.x - center) ** 2 * intensity)
                                   / np.sum(intensity))

        steps = snapshot_steps(grid.nz, 200)
        assert len(raster) == len(steps)
        for row, step in zip(raster, steps):
            expected = waist * math.sqrt(1.0 + (grid.dz * step / rayleigh) ** 2)
            assert abs(width(row) - expected) / expected < 0.01

    def test_dual_mode_beat_length(self, default_slab):
        grid = straight_grid(nz=2001)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        launch = field_from_modes(modes[:2], [INV_SQRT2, INV_SQRT2], grid)
        ri_map = straight_slab_map(grid, default_slab)
        snaps = snapshot_march(launch, ri_map, grid, default_slab.wavelength, snapshot_every=5)
        final, intensity = propagate(launch, ri_map, grid, default_slab.wavelength, snapshot_every=5)
        assert np.array_equal(final.values, snaps[-1].values)
        assert np.array_equal(intensity, np.square(np.abs([s.values for s in snaps])))
        lefts = np.array([branch_powers(s, grid)[0] for s in snaps])
        zs = np.array([s.z for s in snaps])
        osc = lefts - lefts.mean()
        spectrum = np.abs(np.fft.rfft(osc * np.hanning(len(osc))))
        freqs = np.fft.rfftfreq(len(osc), d=zs[1] - zs[0])
        peak = int(np.argmax(spectrum[1:])) + 1
        y0, y1, y2 = spectrum[peak - 1], spectrum[peak], spectrum[peak + 1]
        refined = freqs[peak] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (freqs[1] - freqs[0])
        measured = 1.0 / refined
        expected = 2.0 * math.pi / abs(modes[1].beta - modes[0].beta)
        assert abs(measured - expected) / expected < 0.01

    def test_instability_guard_trips_on_gain(self, default_slab, monkeypatch):
        # a negative absorber is gain; a wide field reaching the boundary
        # layer grows and the power monitor must abort, at the step where the
        # exact per-step _power of the step-loop oracle aborts
        monkeypatch.setattr(bpm, "DEFAULT_ABSORBER_STRENGTH", -1e5)
        grid = straight_grid(nz=101)
        ri_map = uniform_map(grid, default_slab.n_clad)
        values = np.ones(grid.nx, dtype=complex)
        launch = Field(values, 0.0, float(np.sum(np.abs(values) ** 2) * grid.dx))
        args = (launch, ri_map, grid, default_slab.wavelength)
        assert unstable_at(propagate, *args) == unstable_at(step_loop_propagate, *args)

    def test_paraxial_step_limit_enforced(self, default_slab):
        grid = Grid(-40e-6, 80e-6 / 1023, 1024, 40e-6, 100)
        ri_map = straight_slab_map(grid, default_slab)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        with pytest.raises(ValueError, match="paraxial"):
            propagate(field_from_modes([modes[0]], [1.0], grid), ri_map, grid, default_slab.wavelength)

    def test_transverse_resolution_enforced(self, default_slab):
        grid = Grid(-200e-6, 400e-6 / 127, 128, 0.5e-6, 100)
        with pytest.raises(ValueError, match="points across the core"):
            check_core_sampling(default_slab.core_width, grid.waveguide_grid())
        # the splitter experiment checks its branch cores before it marches
        geometry = default_geometry()
        coarse = Grid(-32e-6, 64e-6 / 127, 128, 1e-6, int(geometry.separation_end_z() / 1e-6) + 2)
        with pytest.raises(ValueError, match="points across the core"):
            fig2_experiment([0.0], default_slab, geometry, coarse)

    def test_splitter_checks_its_stem_sampling(self, monkeypatch):
        # a 2 um dual-mode stem at nx=300 has about 9 steps across it, its 4 um branches 19:
        # the splitter experiment once marched it, where the CLI refuses the same config
        stem = SlabSpec(2e-6, 1.6, 1.49, 1.55e-6)
        geometry = default_geometry(stem_um=1130.0, phase_len_um=1000.0)
        nz = int(math.ceil((geometry.separation_end_z() + 250e-6) / 0.5e-6)) + 1
        grid = Grid(-32e-6, 64e-6 / 299, 300, 0.5e-6, nz)
        monkeypatch.setattr(bpm, "propagate", None)  # refused before any march
        with pytest.raises(ValueError, match="points across the core"):
            fig2_experiment([0.0], stem, geometry, grid)

    def test_splitter_checks_every_bump_step_limit_before_marching(self, default_slab, monkeypatch):
        # at dz = 7 um the bump 0.02 breaks the paraxial step limit (3.9 um) that the bump 0 keeps
        # (7.75 um): the experiment once marched the first bump, then refused the second
        geometry = default_geometry(stem_um=400.0)
        grid = Grid(-32e-6, 64e-6 / 511, 512, 7e-6, int(geometry.separation_end_z() / 7e-6) + 2)
        monkeypatch.setattr(bpm, "propagate", None)  # refused before any march
        with pytest.raises(ValueError, match="paraxial accuracy limit"):
            fig2_experiment([0.0, 0.02], default_slab, geometry, grid)

    def test_splitter_builds_each_bump_map_once(self, default_slab, monkeypatch):
        # the experiment once built every bump's map twice: first only to read its step limit
        geometry = default_geometry(stem_um=400.0)
        grid = Grid(-32e-6, 64e-6 / 511, 512, 1e-6, int(geometry.separation_end_z() / 1e-6) + 2)
        built = []
        monkeypatch.setattr(bpm, "build_geometry", lambda *args: built.append(args) or build_geometry(*args))
        monkeypatch.setattr(bpm, "propagate", lambda launch, *args, **kwargs: (launch, None))
        assert len(fig2_experiment([0.0, 1.0e-4, 2.1e-4], default_slab, geometry, grid)) == 3
        assert len(built) == 3

    def test_launch_of_more_modes_than_the_guide_carries_rejected(self, default_slab):
        # the second coefficient was once dropped without a word
        grid = straight_grid(nz=2)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid(), count=1)
        with pytest.raises(ValueError, match="a launch of 2 modes"):
            field_from_modes(modes, [INV_SQRT2, INV_SQRT2], grid)


@st.composite
def row_keys(draw):
    """Row keys (value, lo1, hi1, lo2, hi2), lo1 <= hi1 and lo1 <= lo2 <= hi2, with positive
    bounds over a cladding index, on a grid whose window they may overhang, miss or split."""
    dx = draw(st.floats(0.1, 1.0)) * 1e-6
    grid = Grid(-draw(st.floats(0.0, 200.0)) * dx, dx, draw(st.integers(64, 160)), 1e-6, 2)
    n_clad = draw(st.sampled_from([1.0, 1.45, 3.5]))
    cells = st.floats(-20.0, 220.0)
    keys = []
    for _ in range(draw(st.integers(1, 8))):
        lo1, lo2 = sorted((draw(cells), draw(cells)))
        hi1, hi2 = lo1 + draw(st.floats(0.0, 30.0)), lo2 + draw(st.floats(0.0, 30.0))
        offset = np.array([lo1, hi1, lo2, hi2]) * dx + grid.x_min
        keys.append([draw(st.floats(-0.9 * n_clad, 1.0)), *offset])
    return np.array(keys), grid, n_clad


class TestRIMap:
    # _raster merges a key's intervals on the assumption lo1 <= lo2: the cores listed right first
    # once rasterized only one core (5 core cells instead of 10), and a reversed core none
    @pytest.mark.parametrize("keys", [
        np.zeros((1, 2, 5)),
        np.array([[0.0] * 5, [-1.0, 0.0, 1e-6, 0.0, 1e-6]]),
        np.full((1, 5), np.nan),
        np.zeros(5),
        np.zeros((2, 4)),
        np.empty((0, 5)),
        np.array([[0.01, 4e-6, 6e-6, -6e-6, -4e-6]]),
        np.array([[0.0] * 5, [0.01, 1e-6, -1e-6, 2e-6, 3e-6]]),
        np.array([[0.01, -3e-6, -2e-6, 1e-6, -1e-6]]),
    ], ids=["keys_3d", "row_nonpositive", "row_nan", "rows_1d", "keys_4_wide", "keys_empty",
            "cores_swapped", "first_core_reversed", "second_core_reversed"])
    def test_invalid_map_rejected(self, keys):
        with pytest.raises(ValueError):
            RIMap(keys, 1.0, 1.0)

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(ValueError, match="reference_n0"):
            RIMap(np.zeros((2, 5)), 1.0, 0.0)

    def test_materialized_view(self):
        # a key over the whole window raises every cell; the map holds the keys it is given
        # as a read-only view, and leaves the caller's array writeable
        grid = straight_grid(nz=4, nx=64)
        keys = np.array([[0.01, -1.0, 1.0, -1.0, 1.0], [0.0] * 5, [0.0] * 5, [0.01, -1.0, 1.0, -1.0, 1.0]])
        ri_map = RIMap(keys, 1.49, 1.5)
        assert np.array_equal(full_map(ri_map, grid), np.full((4, 64), 1.49) + [[0.01], [0], [0], [0.01]])
        assert np.shares_memory(ri_map.keys, keys)
        assert not ri_map.keys.flags.writeable and keys.flags.writeable

    @given(row_keys(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bounds_enclose_every_rasterized_cell(self, case, data):
        keys, grid, n_clad = case
        low, high = RIMap(keys, n_clad, 1.5).bounds
        rows = raster_rows(keys, grid, n_clad)
        assert low <= rows.min() and rows.max() <= high
        assert (low, high) == (n_clad + min(0.0, keys[:, 0].min()), n_clad + max(0.0, keys[:, 0].max()))
        broken = keys.copy()
        broken.flat[data.draw(st.integers(0, broken.size - 1))] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            RIMap(broken, n_clad, 1.5)


# row keys on a 16 um window: the stem, the stem bumped, the branches, then the cladding and the
# stem split at x = 0, each twice with a zero of either sign
RUN_KEYS = [
    (0.01, -2e-6, 2e-6, -2e-6, 2e-6),
    (0.012, -2e-6, 2e-6, -2e-6, 2e-6),
    (0.01, -5e-6, -1e-6, 1e-6, 5e-6),
    (0.0, -1e-6, 1e-6, -1e-6, 1e-6),
    (-0.0, -1e-6, 1e-6, -1e-6, 1e-6),
    (0.01, -2e-6, 0.0, 0.0, 2e-6),
    (0.01, -2e-6, -0.0, -0.0, 2e-6),
]


class TestKeptFactorization:
    @staticmethod
    def _case(name, default_slab):
        if name.startswith("splitter"):  # at nx = 2048 its 121 runs span 4 blocks of 32
            ri_map, grid, launch = small_splitter(default_slab, nx=2048 if name == "splitter_wide" else 512)
            return ri_map, grid, launch, default_slab.wavelength
        if name == "straight":
            grid = straight_grid(nz=201, nx=512)
            modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
            launch = field_from_modes(modes[:2], [INV_SQRT2, INV_SQRT2], grid)
            return straight_slab_map(grid, default_slab), grid, launch, default_slab.wavelength
        grid = Grid(-60e-6, 120e-6 / 511, 512, 0.5e-6, 201)
        values = np.exp(-(grid.x / 6e-6) ** 2).astype(complex)
        launch = Field(values, 0.0, float(np.sum(np.abs(values) ** 2) * grid.dx))
        return uniform_map(grid, 1.0), grid, launch, 1.55e-6

    @pytest.mark.parametrize("name", ["straight", "splitter", "free", "splitter_wide"])
    def test_snapshots_match_solve_banded_march(self, name, default_slab):
        ri_map, grid, launch, wavelength = self._case(name, default_slab)
        expected = reference_propagate(launch, ri_map, grid, wavelength, snapshot_every=7)
        self._assert_matches_reference(launch, ri_map, grid, wavelength, 7, expected)

    def test_straight_guide_factors_once(self, default_slab, monkeypatch):
        ri_map, grid, launch, wavelength = self._case("straight", default_slab)
        calls = count_lapack_calls(monkeypatch, "zgttrf", "zgtsv")
        propagate(launch, ri_map, grid, wavelength)
        assert calls == {"zgttrf": 1, "zgtsv": 0}

    def test_splitter_factors_once_per_row_pair_change(self, default_slab, monkeypatch):
        # a run of steps between one row pair is factored once (zgttrf) when it is
        # longer than a step, and eliminated and solved in one zgtsv call when it is not
        ri_map, grid, launch, wavelength = self._case("splitter", default_slab)
        pairs = step_pairs(ri_map)
        changes = 1 + sum(a != b for a, b in zip(pairs, pairs[1:]))
        runs = [len(list(steps)) for _, steps in itertools.groupby(pairs)]
        calls = count_lapack_calls(monkeypatch, "zgttrf", "zgtsv")
        propagate(launch, ri_map, grid, wavelength)
        assert calls["zgttrf"] == sum(length > 1 for length in runs) > 0
        assert calls["zgtsv"] == sum(length == 1 for length in runs) > 0
        assert calls["zgttrf"] + calls["zgtsv"] == changes == 121 < grid.nz - 1

    def test_singular_factorization_raises(self, default_slab, monkeypatch):
        ri_map, grid, launch, wavelength = self._case("straight", default_slab)
        original = bpm._flapack().zgttrf
        monkeypatch.setattr(bpm._flapack(), "zgttrf", lambda *args: (*original(*args)[:-1], 5))
        with pytest.raises(NumericalError, match="singular step matrix"):
            propagate(launch, ri_map, grid, wavelength)

    def test_singular_one_step_solve_raises(self, default_slab, monkeypatch):
        ri_map, grid, launch, wavelength = self._case("splitter", default_slab)
        original = bpm._flapack().zgtsv
        monkeypatch.setattr(bpm._flapack(), "zgtsv",
                            lambda *args, **kwargs: (*original(*args, **kwargs)[:-1], 3))
        with pytest.raises(NumericalError, match="singular step matrix at z=.* m \\(info=3\\)"):
            propagate(launch, ri_map, grid, wavelength)

    @pytest.mark.parametrize("every", [1, 3, "nz"])
    def test_snapshots_match_step_loop_oracle(self, every, default_slab):
        # the splitter's runs mix one-step (zgtsv) and multi-step (zgttrf + zgttrs) runs
        ri_map, grid, launch = small_splitter(default_slab)
        self._assert_matches_step_loop(launch, ri_map, grid, default_slab.wavelength,
                                       grid.nz if every == "nz" else every)

    @pytest.mark.parametrize("runs_per_block", [1, 4])
    def test_runs_across_blocks_match_oracles(self, runs_per_block, default_slab, monkeypatch):
        # the splitter's 121 runs in blocks of 1 or 4: each block rasterizes the rows of its
        # runs, bit for bit as one raster of all
        ri_map, grid, launch = small_splitter(default_slab)
        expected = reference_propagate(launch, ri_map, grid, default_slab.wavelength, snapshot_every=5)
        monkeypatch.setattr(bpm, "BLOCK_CELLS", runs_per_block * grid.nx)
        self._assert_matches_reference(launch, ri_map, grid, default_slab.wavelength, 5, expected)
        self._assert_matches_step_loop(launch, ri_map, grid, default_slab.wavelength, 5)

    @given(st.lists(st.tuples(st.integers(0, len(RUN_KEYS) - 1), st.integers(1, 4)), min_size=1, max_size=12),
           st.integers(1, 3), st.integers(1, 3))
    @example([(0, 3), (1, 2), (0, 3)], 1, 1)  # stem, bump, stem: a key comes back after a gap
    @example([(3, 2), (4, 2), (5, 1), (6, 2), (5, 1)], 1, 2)  # keys equal but for the sign of a zero
    @example([(0, 3), (2, 1)], 2, 1)  # a one-step run at the last step
    @settings(max_examples=100, deadline=None)
    def test_runs_of_step_keys_match_step_loop_oracle(self, segments, runs_per_block, every):
        # runs drawn as (key, steps) segments from a small set of keys, marched in blocks of 1 to 3
        # runs, so that runs span blocks
        keys = np.array([RUN_KEYS[key] for key, steps in segments for _ in range(steps)])
        assume(len(keys) >= 2)
        grid = Grid(-8e-6, 16e-6 / 63, 64, 1e-6, len(keys))
        values = np.exp(-(grid.x / 3e-6) ** 2).astype(complex)
        launch = Field(values, 0.0, bpm._power(values, grid.dx))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bpm, "BLOCK_CELLS", runs_per_block * grid.nx)
            self._assert_matches_step_loop(launch, RIMap(keys, 1.49, 1.5), grid, 1.55e-6, every)

    @given(splitters(), st.integers(1, 3), st.sampled_from([1, 4, "nz"]))
    @settings(max_examples=100, deadline=None)
    def test_splitter_blocks_match_step_loop_oracle(self, case, runs_per_block, every):
        # blocks of 1 to 3 runs: each block's core window moves, the cells it leaves are reset to
        # the cladding's diagonal, and blocks split the phase section's edges, where the value changes
        geometry, grid, base = case
        ri_map = build_geometry(geometry, grid, base)
        contrast = max(ri_map.bounds[1] - ri_map.reference_n0, ri_map.reference_n0 - ri_map.bounds[0])
        wavelength = max(base.wavelength, 25.0 * grid.dz * contrast)  # within the step limit
        values = np.exp(-(grid.x / base.core_width) ** 2).astype(complex)
        launch = Field(values, 0.0, bpm._power(values, grid.dx))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bpm, "BLOCK_CELLS", runs_per_block * grid.nx)
            every = grid.nz if every == "nz" else every
            self._assert_matches_step_loop(launch, ri_map, grid, wavelength, every)

    def test_lossless_straight_guide_matches_step_loop_oracle(self, default_slab, monkeypatch):
        monkeypatch.setattr(bpm, "DEFAULT_ABSORBER_STRENGTH", 0.0)
        ri_map, grid, launch, wavelength = self._case("straight", default_slab)
        self._assert_matches_step_loop(launch, ri_map, grid, wavelength, 5)

    @staticmethod
    def _assert_matches_reference(launch, ri_map, grid, wavelength, every, expected):
        # the solve_banded oracle's values at each snapshot step: propagate's final field and
        # raster rows, and the field of the chained march at each step
        snaps = snapshot_march(launch, ri_map, grid, wavelength, snapshot_every=every)
        assert len(snaps) == len(expected)
        for snap, values in zip(snaps, expected):
            assert np.array_equal(snap.values, values)
        final, intensity = propagate(launch, ri_map, grid, wavelength, snapshot_every=every)
        assert np.array_equal(final.values, expected[-1])
        assert np.array_equal(intensity, np.square(np.abs(expected)))

    @staticmethod
    def _assert_matches_step_loop(launch, ri_map, grid, wavelength, every):
        expected = step_loop_propagate(launch, ri_map, grid, wavelength, snapshot_every=every)
        snaps = snapshot_march(launch, ri_map, grid, wavelength, snapshot_every=every)
        assert len(snaps) == len(expected) > 1
        for snap, oracle in zip(snaps, expected):
            assert np.array_equal(snap.values, oracle.values)
            assert (snap.z, snap.power) == (oracle.z, oracle.power)
            assert snap.power == bpm._power(snap.values, grid.dx)
        final, intensity = propagate(launch, ri_map, grid, wavelength, snapshot_every=every)
        assert np.array_equal(final.values, expected[-1].values)
        assert (final.z, final.power) == (expected[-1].z, expected[-1].power)
        assert np.array_equal(intensity, np.square(np.abs([oracle.values for oracle in expected])))

    def test_nan_from_one_step_solve_raises_at_that_step(self, default_slab, monkeypatch):
        ri_map, grid, launch, wavelength = self._case("splitter", default_slab)
        pairs = step_pairs(ri_map)
        first = 0  # the first step of the first one-step run
        for _, steps in itertools.groupby(pairs):
            length = len(list(steps))
            if length == 1:
                break
            first += length
        original = bpm._flapack().zgtsv

        def nan_solve(*args, **kwargs):
            *rest, values, info = original(*args, **kwargs)
            values[len(values) // 2] = np.nan
            return (*rest, values, info)

        monkeypatch.setattr(bpm._flapack(), "zgtsv", nan_solve)
        assert unstable_at(propagate, launch, ri_map, grid, wavelength) == f"{grid.dz * (first + 1):g}"

    @pytest.mark.parametrize("first", ["loader", "lapack"])
    def test_loader_gives_scipy_linalg_lapacks_routines(self, first):
        # the march's zgtsv, zgttrf and zgttrs are the very objects scipy.linalg.lapack
        # exports, whichever is loaded first, and the loader leaves scipy.linalg usable
        src = str(Path(modesim.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", _LOAD_ORDER, first],
                                env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout)
        assert loaded["same"] == [True, True, True]
        assert loaded["cached"] is True
        assert loaded["package_loaded_first"] is (first == "lapack")
        assert loaded["solve"] == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_bpm_run_default_map_and_march_memory(self, default_slab):
        # bpm-run defaults: 1000 um at dz = 0.5 um across a 96 um window of 2048 points
        nz = int(math.ceil(1000e-6 / 0.5e-6)) + 1
        grid = Grid(-48e-6, 96e-6 / 2047, 2048, 0.5e-6, nz)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        launch = field_from_modes(modes[:2], [INV_SQRT2, INV_SQRT2], grid)
        tracemalloc.start()
        try:
            ri_map = straight_slab_map(grid, default_slab)
            _, intensity = propagate(launch, ri_map, grid, default_slab.wavelength, snapshot_every=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ri_map.keys.shape == (nz, 5) and ri_map.keys.strides[0] == 0  # one key, broadcast
        assert intensity.shape == (127, grid.nx)
        assert peak < 16e6


class TestDecompose:
    def test_single_mode_identity(self, default_slab):
        grid = straight_grid(nz=101)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        coeffs, residual = decompose(field_from_modes([modes[0]], [1.0], grid), modes, grid)
        assert abs(coeffs[0] - 1.0) < 1e-6
        assert abs(coeffs[1]) < 1e-6
        assert abs(residual) < 1e-6

    def test_equal_superposition_coefficients(self, default_slab):
        grid = straight_grid(nz=101)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        launch = field_from_modes(modes[:2], [INV_SQRT2, INV_SQRT2], grid)
        coeffs, _ = decompose(launch, modes, grid)
        assert abs(coeffs[0] - INV_SQRT2) < 1e-6
        assert abs(coeffs[1] - INV_SQRT2) < 1e-6


class TestBranchPowers:
    def test_symmetric_field_splits_evenly(self, default_slab):
        grid = straight_grid(nz=101)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        left, right = branch_powers(field_from_modes([modes[0]], [1.0], grid), grid)
        assert abs(left - 0.5) < 1e-9
        assert abs(right - 0.5) < 1e-9

    def test_antisymmetric_field_splits_evenly_with_null(self, default_slab):
        # odd point count puts a sample exactly on the symmetry axis
        grid = Grid(-40e-6, 80e-6 / 1024, 1025, 0.5e-6, 101)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        field = field_from_modes([modes[1]], [1.0], grid)
        left, right = branch_powers(field, grid)
        assert abs(left - 0.5) < 1e-9
        center = int(np.argmin(np.abs(grid.x)))
        assert abs(field.values[center]) < 1e-9 * np.abs(field.values).max()

    def test_splitter_reciprocity(self, default_slab):
        # |+> concentrates in one branch, |-> in the other; the stem length
        # is an integer number of beat lengths from the junction optimum so
        # the symmetric input arrives as the symmetric combination
        geometry = default_geometry(stem_um=212.6, phase_len_um=100.0)
        z_total = geometry.separation_end_z() + 200e-6
        grid = Grid(-32e-6, 64e-6 / 1023, 1024, 1e-6, int(z_total / 1e-6) + 1)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        ri_map = build_geometry(geometry, grid, default_slab)
        outcomes = {}
        for name, coeffs in (("plus", [INV_SQRT2, INV_SQRT2]),
                             ("minus", [INV_SQRT2, -INV_SQRT2])):
            launch = field_from_modes(modes[:2], coeffs, grid)
            final, _ = propagate(launch, ri_map, grid, default_slab.wavelength,
                                 snapshot_every=grid.nz)
            # adiabatic transition: radiation loss below 5 percent
            assert final.power / launch.power > 0.95
            outcomes[name] = branch_powers(final, grid)
        assert max(outcomes["plus"]) > 0.95
        assert max(outcomes["minus"]) > 0.95
        # opposite branches
        assert (outcomes["plus"][0] > outcomes["plus"][1]) != (
            outcomes["minus"][0] > outcomes["minus"][1])


def test_grid_convergence_of_branch_powers(default_slab):
    # halving dx and dz together changes the final branch powers by < 0.5%
    geometry = YSplitterGeometry(
        stem_length=3405e-6, branch_half_angle=math.radians(0.4),
        branch_separation_final=24e-6, core_width=4e-6,
        phase_section=PhaseSection(8e-4, 3000e-6, z_start=50e-6))
    z_total = geometry.separation_end_z() + 250e-6
    results = []
    for nx, dz in ((2048, 1e-6), (4095, 0.5e-6)):
        grid = Grid(-32e-6, 64e-6 / (nx - 1), nx, dz, int(math.ceil(z_total / dz)) + 1)
        modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
        launch = field_from_modes(modes[:2], [INV_SQRT2, INV_SQRT2], grid)
        ri_map = build_geometry(geometry, grid, default_slab)
        final, _ = propagate(launch, ri_map, grid, default_slab.wavelength,
                             snapshot_every=grid.nz)
        results.append(branch_powers(final, grid))
    print("\nconvergence table (dx, dz halved):")
    for (nx, dz), (left, right) in zip(((2048, 1e-6), (4095, 0.5e-6)), results):
        print(f"  nx={nx:5d} dz={dz * 1e6:.2f}um: p_left={left:.6f} p_right={right:.6f}")
    change = abs(results[1][1] - results[0][1]) / results[0][1]
    print(f"  relative change in p_right: {change * 100:.3f}%")
    assert change < 0.005


def test_fig2_rows_monotone(default_slab):
    # compact variant of the interference experiment: three index bumps give
    # three distinct branch ratios ordered with the accumulated phase
    geometry = default_geometry(stem_um=400.0, phase_len_um=300.0)
    z_total = geometry.separation_end_z() + 200e-6
    grid = Grid(-32e-6, 64e-6 / 1023, 1024, 1e-6, int(z_total / 1e-6) + 1)
    rows = fig2_experiment([0.0, 3e-4, 6e-4], default_slab, geometry, grid)
    rights = [row.power_right for row in rows]
    thetas = [row.theta for row in rows]
    assert len(set(round(r, 6) for r in rights)) == 3
    ordered = sorted(range(3), key=lambda i: thetas[i])
    sequence = [rights[i] for i in ordered]
    assert all(a < b for a, b in zip(sequence, sequence[1:])) or all(
        a > b for a, b in zip(sequence, sequence[1:]))


def taper_march_peak(default_slab, angle_deg, nz):
    """Traced peak of one march through a Y-splitter whose taper ends inside nz steps of 1 um."""
    geometry = YSplitterGeometry(100e-6, math.radians(angle_deg), 24e-6, 4e-6)
    grid = Grid(-32e-6, 64e-6 / 1023, 1024, 1e-6, nz)
    modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
    launch = field_from_modes(modes[:2], [INV_SQRT2, INV_SQRT2], grid)
    ri_map = build_geometry(geometry, grid, default_slab)
    tracemalloc.start()
    try:
        propagate(launch, ri_map, grid, default_slab.wavelength, snapshot_every=grid.nz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(np.unique(ri_map.keys, axis=0)), peak


class TestFigTwoSharedRaster:
    def test_map_memory_at_benchmark_size(self, default_slab):
        # fig2 at the benchmark's bpm_splitter size: 2814 z steps of 2048 points.
        # Each bump's march holds its 2814 step keys and builds its step-matrix diagonals a block
        # of at most 2^16 cells at a time: 3.3 MB traced, where the rows array of the 1437
        # distinct rows alone took 23.5 MB.  scipy.linalg is imported at the top of this module,
        # so its import is not counted.
        geometry = YSplitterGeometry(1130e-6, math.radians(0.4), 24e-6, 4e-6,
                                     phase_section=PhaseSection(0.0, 1000e-6, z_start=50e-6))
        nz = int(math.ceil((geometry.separation_end_z() + 250e-6) / 1e-6)) + 1
        grid = Grid(-32e-6, 64e-6 / 2047, 2048, 1e-6, nz)
        assert grid.nz == 2814
        tracemalloc.start()
        try:
            rows = fig2_experiment([0.0, 1.0e-4, 2.1e-4], default_slab, geometry, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 3
        assert peak <= 7e6

    def test_march_memory_does_not_grow_with_the_taper(self, default_slab):
        # a taper at a quarter of the angle takes four times the distinct rows over the same
        # grid (479 and 1911 rows of 1024 cells); the march holds a block of them at a time,
        # so only its table of runs, about 17 B a run, grows with them
        nz = int(YSplitterGeometry(100e-6, math.radians(0.3), 24e-6, 4e-6).separation_end_z() / 1e-6) + 50
        few, few_peak = taper_march_peak(default_slab, 1.2, nz)
        many, many_peak = taper_march_peak(default_slab, 0.3, nz)
        assert many > 3.9 * few
        assert many_peak < few_peak + 0.1e6


def test_export_field_csv(tmp_path, default_slab):
    grid = straight_grid(nz=101)
    modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
    field = field_from_modes([modes[0]], [1.0], grid)
    target = tmp_path / "field.csv"
    export_field_csv(field, grid, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "x_m,re,im,intensity"
    assert len(lines) == 1 + grid.nx


def test_export_raster_round_trip(tmp_path, default_slab):
    grid = straight_grid(nz=41, nx=64, window=80e-6)
    ri_map = straight_slab_map(grid, default_slab)
    modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid())
    launch = field_from_modes([modes[0]], [1.0], grid)
    _, intensity = propagate(launch, ri_map, grid, default_slab.wavelength, snapshot_every=10)
    target = tmp_path / "raster.bin"
    export_raster(intensity, grid, 10, target)
    blob = target.read_bytes()
    nx, nz, dx, dz = struct.unpack_from("<qqdd", blob)
    assert (nx, nz) == (grid.nx, len(intensity)) == (64, 5)
    assert (dx, dz) == (grid.dx, 10 * grid.dz)
    data = np.frombuffer(blob, dtype="<f8", offset=32).reshape(nz, nx)
    assert np.array_equal(data, intensity)
    assert np.allclose(data[0], np.abs(launch.values) ** 2)


@pytest.mark.parametrize("every,rows,dz_steps",
                         [(1, 41, 1), (7, 7, 7), (40, 2, 40), (41, 2, 40), (10 ** 18, 2, 40)])
def test_export_raster_header_spacing(tmp_path, default_slab, every, rows, dz_steps):
    # the header's dz is the stride times the grid step, at most the march's 40 steps: the z
    # spacing of the rows after the launch
    grid = straight_grid(nz=41, nx=64, window=80e-6)
    modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid(), count=1)
    launch = field_from_modes(modes, [1.0], grid)
    _, intensity = propagate(launch, straight_slab_map(grid, default_slab), grid,
                             default_slab.wavelength, snapshot_every=every)
    export_raster(intensity, grid, every, tmp_path / "raster.bin")
    nx, nz, dx, dz = struct.unpack_from("<qqdd", (tmp_path / "raster.bin").read_bytes())
    assert (nx, nz, dz) == (grid.nx, rows, grid.dz * dz_steps)


def test_export_raster_writes_the_file_in_one_call(tmp_path, monkeypatch, default_slab):
    # a benchmark counts the raster's bytes as the file's size after each write_bytes call, so
    # the header and rows go out in one call, never row by row
    grid = straight_grid(nz=41, nx=64, window=80e-6)
    modes = solve_slab_te_modes(default_slab, grid=grid.waveguide_grid(), count=1)
    _, intensity = propagate(field_from_modes(modes, [1.0], grid), straight_slab_map(grid, default_slab),
                             grid, default_slab.wavelength, snapshot_every=3)
    sizes, original = [], bpm.write_bytes

    def counting(path, *parts):
        original(path, *parts)
        sizes.append(os.path.getsize(path))

    monkeypatch.setattr(bpm, "write_bytes", counting)
    target = tmp_path / "raster.bin"
    export_raster(intensity, grid, 3, target)
    assert sizes == [target.stat().st_size] == [32 + 8 * grid.nx * len(intensity)]


def test_export_raster_refuses_overflowing_intensity(tmp_path):
    # a finite field's |u|^2 may overflow to inf (|1e200|^2); a NaN is refused as well
    grid = straight_grid(nz=41, nx=64, window=80e-6)
    for bad in (math.inf, math.nan):
        intensity = np.ones((2, grid.nx))
        intensity[1, 7] = bad
        with pytest.raises(NumericalError, match="raster"):
            export_raster(intensity, grid, 40, tmp_path / "raster.bin")
        assert list(tmp_path.iterdir()) == []
