"""Finite-difference beam propagation in one transverse dimension.

Marches the reduced field u(x, z) of the paraxial wave equation

    i du/dz = -(1 / (2 k n0)) d2u/dx2 + (k / (2 n0)) (n0^2 - n(x,z)^2) u

with a Crank-Nicolson step (a Cayley transform of the tridiagonal operator,
exactly norm-conserving for lossless maps).  The physical field carries the
extra plane-wave factor exp(-i k n0 z); a guided mode of exact propagation
constant beta therefore accumulates total phase

    (k^2 n0^2 + beta^2) / (2 k n0) * z,

which equals beta z exactly when the reference index n0 is the mode's
effective index beta/k.  Mode-dependent phase error of order
(k n0 - beta)^2 / (2 k n0) per unit length is the intrinsic paraxial cost.

A complex absorber (imaginary potential, quadratic ramp over the outer 10%
of the window on each side) removes radiation before it can wrap around.

An index map stores one row key (core value and core intervals) per z step.
The march takes its steps in runs between the same pair of consecutive
keys: it LU-factors a run's tridiagonal step matrix once (LAPACK ?gttrf) and
solves each step with ?gttrs, or solves a one-step run with ?gtsv.  A block
of runs builds its step matrices' diagonals as it reaches them, and only over
its core window, the cells between its outermost core edges: the diagonal of a
wholly covered core cell is computed once per core value and copied, and the
area-weighted diagonal is computed only at the cells near a core edge, or where
a run's two rows differ.  The diagonal buffers keep the cladding's value
outside the window from block to block, and the solvers copy them rather than
overwrite them.  Every diagonal is bit-identical to one built from both rows of
its run, each area-weighted over every cell.  The solvers come from scipy's
LAPACK extension alone (_flapack), loaded on the first march, not with this
module.  The march fills an intensity raster as it goes.

build_geometry lays out a symmetric Y-splitter: a dual-mode stem, a
phase section where the core index is raised by delta_n, and two
single-mode branches separating linearly to a final spacing.  Launching the
equal superposition (TE0 + TE1)/sqrt(2) reproduces the branch-intensity
interference law of the ideal analyzer, with the accumulated differential
phase 2*theta controlled by delta_n.  The fig2 experiment runs check_march
over every bump before the first march, then builds the map of each delta_n
just before it marches it.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import struct
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._errors import NumericalError, check_finite
from ._io import write_bytes, write_csv
from .waveguide import SlabSpec, check_core_sampling, delta_beta, solve_slab_te_modes

__all__ = [
    "Grid",
    "RIMap",
    "Field",
    "PhaseSection",
    "YSplitterGeometry",
    "FigTwoRow",
    "straight_slab_map",
    "check_march",
    "build_geometry",
    "field_from_modes",
    "propagate",
    "decompose",
    "branch_powers",
    "fig2_experiment",
    "export_field_csv",
    "export_raster",
    "DEFAULT_ABSORBER_FRACTION",
    "DEFAULT_ABSORBER_STRENGTH",
]

DEFAULT_ABSORBER_FRACTION = 0.10
DEFAULT_ABSORBER_STRENGTH = 2.0e5  # 1/m, peak imaginary potential
#: paraxial step heuristic: dz <= SAFETY * wavelength / (2 max|n - n0|)
PARAXIAL_DZ_SAFETY = 0.1
#: per-step relative power growth beyond this aborts the march.
INSTABILITY_GROWTH = 1e-6
#: cells of a block of rows, rasterized or marched at once: it bounds the temporaries of both
BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class Grid:
    """Uniform transverse/longitudinal discretization."""

    x_min: float
    dx: float
    nx: int
    dz: float
    nz: int

    def __post_init__(self):
        if not (self.dx > 0 and self.dz > 0):
            raise ValueError("dx and dz must be positive")
        if self.nx < 64:
            raise ValueError("nx must be at least 64")
        if self.nz < 2:
            raise ValueError("nz must be at least 2")
        check_finite(self, "x_min", "dx", "dz")

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx)

    @property
    def z(self) -> np.ndarray:
        return self.dz * np.arange(self.nz)

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * (self.nx - 1)

    @property
    def z_max(self) -> float:
        return self.dz * (self.nz - 1)

    def waveguide_grid(self) -> tuple[float, float, int]:
        return (self.x_min, self.dx, self.nx)


@dataclass(frozen=True, eq=False)
class RIMap:
    """Refractive-index landscape n(x_i, z_j): the row of keys[j] rasterized over cladding n_clad
    (see _raster), plus the reference index.

    A key is (value, lo1, hi1, lo2, hi2), one per z step: the core index n_clad + value over the
    intervals [lo1, hi1] and [lo2, hi2] in x (m), lo1 <= hi1, lo2 <= hi2 and lo1 <= lo2.  The map
    holds a read-only view of the keys it is given, not a copy.  A rasterized cell is n_clad +
    value * coverage with coverage in [0, 1], so it lies within bounds = (n_clad + min(0, value),
    n_clad + max(0, value)).
    """

    keys: np.ndarray
    n_clad: float
    reference_n0: float

    def __post_init__(self):
        keys = np.asarray(self.keys, dtype=np.float64).view()
        if keys.ndim != 2 or keys.shape[1] != 5 or not len(keys):
            raise ValueError("index map needs one row key (value, lo1, hi1, lo2, hi2) per z step")
        check_finite(self, "n_clad", "reference_n0")
        if np.isnan(keys).any():
            raise ValueError("row keys must not be NaN")
        values, lo1, hi1, lo2, hi2 = keys.T
        if not ((lo1 <= hi1) & (lo2 <= hi2) & (lo1 <= lo2)).all():
            raise ValueError("row key intervals need lo1 <= hi1, lo2 <= hi2 and lo1 <= lo2")
        object.__setattr__(self, "bounds", _bounds(self.n_clad, float(values.min()), float(values.max())))
        if not (self.bounds[0] > 0 and self.reference_n0 > 0):
            raise ValueError("refractive index (every row and reference_n0) must be positive")
        keys.setflags(write=False)
        object.__setattr__(self, "keys", keys)


def _bounds(n_clad: float, least: float, greatest: float) -> tuple[float, float]:
    """The least and greatest n_clad + value * coverage, coverage in [0, 1], value in [least, greatest]."""
    return n_clad + min(0.0, least), n_clad + max(0.0, greatest)


@dataclass(frozen=True, eq=False)
class Field:
    """Complex transverse field at one z position, with its power."""

    values: np.ndarray
    z: float
    power: float

    def __post_init__(self):
        values = np.array(self.values, dtype=np.complex128)
        if not np.all(np.isfinite(values.view(np.float64))):
            raise ValueError("field contains non-finite samples")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PhaseSection:
    """Core-index bump delta_n over [z_start, z_start + length] in the stem."""

    delta_n: float
    length: float
    z_start: float = 0.0

    def __post_init__(self):
        if not (self.length >= 0 and self.z_start >= 0):
            raise ValueError("phase-section extents must be nonnegative")
        check_finite(self, "delta_n", "length", "z_start")


@dataclass(frozen=True)
class YSplitterGeometry:
    """Symmetric Y-splitter layout.

    The stem (width from the base slab spec) runs to stem_length; there two
    branch cores of width core_width start side by side and separate at
    branch_half_angle each until their centers are branch_separation_final
    apart.  With core_width = stem_width / 2 and zero angle the map reduces
    to the straight stem.  The default phase section has zero length: no bump.
    """

    stem_length: float
    branch_half_angle: float
    branch_separation_final: float
    core_width: float
    phase_section: PhaseSection = PhaseSection(0.0, 0.0)

    def __post_init__(self):
        if not (self.stem_length > 0 and self.core_width > 0):
            raise ValueError("lengths must be positive")
        if not (0.0 <= self.branch_half_angle < math.radians(2.0)):
            raise ValueError("branch_half_angle must lie in [0, 2 deg) for paraxial validity")
        if not self.branch_separation_final >= self.core_width:
            raise ValueError("final separation must be at least one branch width")
        if self.phase_section.z_start + self.phase_section.length > self.stem_length:
            raise ValueError("phase section must sit inside the stem")
        check_finite(self, "stem_length", "branch_half_angle", "branch_separation_final", "core_width")

    def separation_end_z(self) -> float:
        """z where the branch centers reach their final separation."""
        if self.branch_half_angle == 0.0:
            return self.stem_length
        travel = (self.branch_separation_final - self.core_width) / 2.0
        return self.stem_length + travel / math.tan(self.branch_half_angle)


def straight_slab_map(grid: Grid, spec: SlabSpec, reference_n0: float | None = None) -> RIMap:
    """z-invariant slab profile of the given spec on the grid: one key, broadcast to every step."""
    half = spec.core_width / 2.0
    key = np.array([spec.n_core - spec.n_clad, -half, half, -half, half])
    return RIMap(np.broadcast_to(key, (grid.nz, 5)), spec.n_clad,
                 spec.n_core if reference_n0 is None else reference_n0)


def _check_geometry_fits(geometry: YSplitterGeometry, grid: Grid) -> None:
    """Raise ValueError unless the grid holds the branches' full separation in z and their outer
    edges in x, as check_core_sampling holds a core; the raster takes cores of any width."""
    sep_end = geometry.separation_end_z()
    if sep_end > grid.z_max:
        raise ValueError(f"geometry exceeds grid: branches separate until z={sep_end:g} m "
                         f"but the grid ends at {grid.z_max:g} m")
    check_core_sampling(geometry.branch_separation_final + geometry.core_width, grid.waveguide_grid(), 0)


def build_geometry(geometry: YSplitterGeometry, grid: Grid, base: SlabSpec) -> RIMap:
    """Lay out a Y-splitter on the grid: its map, reference index base.n_core.

    Core cells take n_core (plus delta_n inside the phase section); edge cells are area weighted
    so the raster integrates to the analytic core area and the discrete mode constants are free
    of staircase bias.  A z step's key is (core value, lo1, hi1, lo2, hi2): the stem core twice,
    or the branch cores, computed for every step at once; no row is rasterized here.
    """
    _check_geometry_fits(geometry, grid)
    z, contrast, stem_half = grid.z, base.n_core - base.n_clad, base.core_width / 2.0
    half = geometry.core_width / 2.0
    center = half + np.minimum((z - geometry.stem_length) * math.tan(geometry.branch_half_angle),
                               (geometry.branch_separation_final - geometry.core_width) / 2.0)
    keys = np.stack([np.full(grid.nz, contrast), -center - half, -center + half,
                     center - half, center + half], axis=1)
    keys[z < geometry.stem_length, 1:] = (-stem_half, stem_half, -stem_half, stem_half)
    phase = geometry.phase_section  # it ends inside the stem
    keys[(phase.z_start <= z) & (z < phase.z_start + phase.length), 0] = contrast + phase.delta_n
    return RIMap(keys, base.n_clad, base.n_core)


def _raster(grid: Grid, n_clad: float, f):
    """Rasterizer of row keys (value, lo1, hi1, lo2, hi2), lo1 <= lo2, whose row is n_clad + value *
    coverage, the fraction of each cell [left, right] inside the intervals, merged where they touch.

    raster(keys, pair) returns the first cell of the keys' core window, from the leftmost core edge
    to the rightmost, and f((row[i] + row[pair[i]]) / 2) over it for each i < len(pair); each cell
    outside it is f(n_clad).  A whole cell's overlap clip(min(right, hi) - max(left, lo), 0, dx) / dx
    is full = clip(right - left, 0, dx) / dx, so row i copies its whole cells from f(n_clad + value *
    full), kept per core value.  Rows of one value differ only between their matching interval ends,
    and (x + x) / 2 = x: so only those cells, or all of both cores where the values differ, take the
    overlap summed over both intervals, which gives any cell its row's value.
    """
    left, right = grid.x - grid.dx / 2.0, grid.x + grid.dx / 2.0
    full = np.clip(right - left, 0.0, grid.dx) / grid.dx
    cladding = f(np.float64(n_clad))
    by_value = {}  # core value -> f of its whole cells, for at most BLOCK_CELLS cells of values

    def raster(keys: np.ndarray, pair: np.ndarray) -> tuple[int, np.ndarray]:
        n, values, ends = len(pair), keys[:, 0], keys[:, [1, 3, 2, 4]]  # lo1, lo2, hi1, hi2
        joined = ends[:, 1] <= ends[:, 2]  # merged into the first: the second empty, at its end
        np.maximum(ends[:, 2], ends[:, 3], out=ends[:, 2], where=joined)
        np.copyto(ends[:, 1::2], ends[:, 2, None], where=joined[:, None])
        # a cell is whole from the first with left >= lo to the last with right <= hi; each end's
        # cells [first, last) hold the others, and any of zero width (right == left)
        after, before = np.searchsorted(left, ends), np.searchsorted(right, ends, "right")
        first, last = np.minimum(after, before), np.maximum(after, before)
        start = int(first[:, 0].min())
        rows = np.full((n, int(last.max()) - start), cladding)
        for row, value, cut, end in zip(rows, values.tolist(), after[:, :2].tolist(), before[:, 2:].tolist()):
            whole = by_value.get(value)
            if whole is None:
                if len(by_value) * grid.nx >= BLOCK_CELLS:
                    by_value.clear()
                whole = by_value[value] = f(n_clad + value * full)
            for a, b in zip(cut, end):
                row[a - start:b - start] = whole[a:b]
        # the cells between a pair's matching ends, or from its first end to its last
        first, last = np.minimum(first[:n], first[pair]), np.maximum(last[:n], last[pair])
        np.copyto(last[:, 0], last.max(axis=1), where=values[:n] != values[pair])
        counts = (last - first).ravel()
        owner = np.repeat(np.arange(n), counts.reshape(n, 4).sum(axis=1))
        cells = np.arange(len(owner)) + np.repeat(first.ravel() - (np.cumsum(counts) - counts), counts)
        twins = np.stack([owner, pair[owner]])
        overlap = np.clip(np.minimum(right[cells, None], ends[twins, 2:])
                          - np.maximum(left[cells, None], ends[twins, :2]), 0.0, grid.dx) / grid.dx
        index = n_clad + values[twins] * np.clip(overlap[..., 0] + overlap[..., 1], 0.0, 1.0)
        rows[owner, cells - start] = f((index[0] + index[1]) * 0.5)
        return start, rows

    return raster


def _power(values: np.ndarray, dx: float) -> float:
    return float(np.sum(np.abs(values) ** 2) * dx)


def field_from_modes(modes, coefficients, grid: Grid) -> Field:
    """Launch field sum_i c_i psi_i(x) at z = 0."""
    if len(coefficients) > len(modes):
        raise ValueError(f"a launch of {len(coefficients)} modes, but the guide carries {len(modes)}")
    values = np.zeros(grid.nx, dtype=np.complex128)
    for mode, coeff in zip(modes, coefficients):
        if mode.grid != grid.waveguide_grid():
            raise ValueError("mode grid does not match the propagation grid")
        values += complex(coeff) * mode.profile.astype(np.complex128)
    return Field(values, 0.0, _power(values, grid.dx))


def _check_paraxial_dz(dz: float, wavelength: float, bounds: tuple[float, float], n0: float) -> None:
    """Raise ValueError if dz exceeds the paraxial step limit SAFETY * wavelength / (2 contrast),
    with contrast max|n - n0| over the indices n within bounds."""
    contrast = max(bounds[1] - n0, n0 - bounds[0])
    if contrast > 0:
        dz_limit = PARAXIAL_DZ_SAFETY * wavelength / (2.0 * contrast)
        if dz > dz_limit * (1 + 1e-12):
            raise ValueError(f"dz={dz:g} exceeds the paraxial accuracy limit {dz_limit:g}")


def check_march(base: SlabSpec, grid: Grid, geometry: YSplitterGeometry | None = None,
                delta_ns=()) -> None:
    """Raise ValueError unless the grid suits a march of base's straight slab, or of the splitter
    geometry with each phase-section bump delta_n: dz within the paraxial step limit of every map
    the march builds (core values n_core - n_clad and that plus each delta_n), then the slab's (or
    the stem's) core sampled, then the splitter inside the grid and its branch core sampled."""
    value = base.n_core - base.n_clad  # as straight_slab_map and build_geometry set it
    values = [value, *(value + float(dn) for dn in delta_ns)]
    _check_paraxial_dz(grid.dz, base.wavelength, _bounds(base.n_clad, min(values), max(values)), base.n_core)
    check_core_sampling(base.core_width, grid.waveguide_grid())
    if geometry is not None:
        _check_geometry_fits(geometry, grid)
        check_core_sampling(geometry.core_width, grid.waveguide_grid())


def _absorber(grid: Grid) -> np.ndarray:
    width = DEFAULT_ABSORBER_FRACTION * (grid.x_max - grid.x_min)
    x = grid.x
    left = np.clip((grid.x_min + width - x) / width, 0.0, 1.0)
    right = np.clip((x - (grid.x_max - width)) / width, 0.0, 1.0)
    return DEFAULT_ABSORBER_STRENGTH * (left ** 2 + right ** 2)


def _flapack():
    """scipy.linalg._flapack, the f2py extension whose zgtsv, zgttrf and zgttrs
    scipy.linalg.lapack exports: found in scipy's linalg directory and loaded (24
    modules) without running scipy/linalg/__init__.py (about 330), and kept in
    sys.modules, where later calls and a later import of scipy.linalg find it."""
    import scipy

    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(path, "linalg") for path in scipy.__path__])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _check_nonsingular(info: int, z: float) -> None:
    if info != 0:
        raise NumericalError(f"singular step matrix at z={z:g} m (info={info})")


def propagate(field: Field, ri_map: RIMap, grid: Grid, wavelength: float,
              snapshot_every: int = 1) -> tuple[Field, np.ndarray]:
    """Crank-Nicolson march of the reduced field through the index map.

    Returns the last step's field, its power the exact _power, and the
    intensity raster: (nz - 2) // snapshot_every + 2 float64 rows |u|^2 of nx,
    at the launch, every `snapshot_every` steps and the last step, each filled
    as the march reaches it.  Power is tracked each step; relative growth
    above 1e-6 per step (or a non-finite power) aborts with diagnostics before
    the step's row is recorded, and a lossless straight guide conserves power
    to rounding.  A step allocates nothing, and the monitor is one dot product.
    The runs are taken in blocks of at most BLOCK_CELLS cells: a block builds
    the step matrices' diagonals of all its runs at once, over its core window
    (see _raster), in buffers that hold the cladding's diagonal elsewhere.
    """
    keys = ri_map.keys
    if len(keys) != grid.nz:
        raise ValueError("index map length does not match grid")
    if field.values.shape != (grid.nx,):
        raise ValueError("field length does not match grid")
    if snapshot_every < 1:
        raise ValueError("snapshot_every must be at least 1")
    flapack = _flapack()  # its first call loads scipy's LAPACK extension, about 0.02 s
    zgtsv, zgttrf, zgttrs = flapack.zgtsv, flapack.zgttrf, flapack.zgttrs

    k = 2.0 * math.pi / wavelength
    n0 = ri_map.reference_n0
    _check_paraxial_dz(grid.dz, wavelength, ri_map.bounds, n0)

    off_diag = -1.0 / (2.0 * k * n0 * grid.dx ** 2)
    laplacian_diag = 1.0 / (k * n0 * grid.dx ** 2)
    coupling = 0.5j * grid.dz * off_diag
    lower = np.full(grid.nx - 1, coupling)

    def diagonal(n_mid):  # dz/2 times the laplacian and the potential k / (2 n0) (n0^2 - n_mid^2)
        return ((n0 * n0 - n_mid * n_mid) * (k / (2.0 * n0)) + laplacian_diag) * (0.5 * grid.dz)

    # a run is a stretch of steps between the same pair of keys, so with one step matrix.  A run of
    # two or more steps has one row on both sides; a one-step run's second row is the next run's
    # first, or the last step's.  edges holds each run's first step, then the last step
    differs = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
    edges = np.r_[np.flatnonzero(differs[:-1] | differs[1:]), grid.nz - 1]
    per_block = min(len(edges) - 1, max(1, BLOCK_CELLS // grid.nx))
    raster = _raster(grid, ri_map.n_clad, diagonal)
    # (1 + i dz/2 A) u' = (1 - i dz/2 A) u: real diagonal parts 1 +/- (dz/2) absorber in every run,
    # and imaginary parts 0 +/- diagonal, the cladding's outside the block's core window [start, stop)
    cladding = diagonal(ri_map.n_clad)
    half_absorber = 0.5 * grid.dz * _absorber(grid)
    diags, rhs_diags = np.empty((2, per_block, grid.nx), dtype=np.complex128)
    np.add(1.0, half_absorber, out=diags.real)
    np.subtract(1.0, half_absorber, out=rhs_diags.real)
    diags.imag, rhs_diags.imag = 0.0 + cladding, 0.0 - cladding
    start = stop = 0

    values = np.array(field.values, dtype=np.complex128)
    rhs, coupled = np.empty_like(values), np.empty_like(values)
    power_prev = _power(values, grid.dx)
    intensity = np.empty(((grid.nz - 2) // snapshot_every + 2, grid.nx))

    def record(row, values):  # |u|^2 into the row; export_raster refuses any that overflows
        with np.errstate(over="ignore"):
            np.square(np.abs(values, out=row), out=row)

    for first in range(0, len(edges) - 1, per_block):
        runs = edges[first:first + per_block + 1]  # n runs, and the step after the last
        n = len(runs) - 1
        # n_mid is the mean of a run's rows: a one-step run's second row is the next key's
        window, run_diags = raster(keys[runs], np.arange(n) + (np.diff(runs) == 1))
        for low, high in ((start, min(stop, window)), (max(start, window + run_diags.shape[1]), stop)):
            diags.imag[:, low:high], rhs_diags.imag[:, low:high] = 0.0 + cladding, 0.0 - cladding
        start, stop = window, window + run_diags.shape[1]
        np.add(0.0, run_diags, out=diags.imag[:n, start:stop])  # 0 + x and 0 - x: the zeros of 1 +/- i x
        np.subtract(0.0, run_diags, out=rhs_diags.imag[:n, start:stop])
        for begin, end, diag, rhs_diag in zip(runs[:-1].tolist(), runs[1:].tolist(), diags, rhs_diags):
            if end - begin > 1:
                *factors, info = zgttrf(lower, diag, lower)
                _check_nonsingular(info, grid.dz * begin)
            for j in range(begin, end):
                if j % snapshot_every == 0:  # the field at step j: the launch, or one of a finite power
                    record(intensity[j // snapshot_every], values)
                np.multiply(rhs_diag, values, out=rhs)
                np.multiply(coupling, values, out=coupled)
                rhs[:-1] -= coupled[1:]
                rhs[1:] -= coupled[:-1]
                if end - begin > 1:
                    solved, _ = zgttrs(*factors, rhs, overwrite_b=1)
                else:  # f2py copies the diagonals it is not told to overwrite, so each is kept
                    *_, solved, info = zgtsv(lower, diag, lower, rhs, overwrite_b=1)
                    _check_nonsingular(info, grid.dz * j)
                values, rhs = solved, values
                power = np.vdot(values, values).real * grid.dx
                if not math.isfinite(power) or power > power_prev * (1.0 + INSTABILITY_GROWTH):
                    raise NumericalError(
                        f"propagation unstable at z={grid.dz * (j + 1):g} m: power "
                        f"{power_prev:g} -> {power:g}"
                    )
                power_prev = power
    record(intensity[-1], values)
    return Field(values, grid.z_max, _power(values, grid.dx)), intensity


def decompose(field: Field, modes, grid: Grid) -> tuple[np.ndarray, float]:
    """Mode coefficients <psi_n|field> and the residual (radiated) power."""
    coefficients = np.empty(len(modes), dtype=np.complex128)
    for i, mode in enumerate(modes):
        if mode.grid != grid.waveguide_grid():
            raise ValueError("mode grid does not match the propagation grid")
        coefficients[i] = np.trapezoid(np.conj(mode.profile) * field.values, dx=grid.dx)
    residual = _power(field.values, grid.dx) - float(np.sum(np.abs(coefficients) ** 2))
    return coefficients, residual


def branch_powers(field: Field, grid: Grid) -> tuple[float, float]:
    """Normalized power (x < 0, x >= 0) of a field snapshot."""
    x = grid.x
    intensity = np.abs(field.values) ** 2
    left = float(np.sum(intensity[x < 0.0]) * grid.dx)
    right = float(np.sum(intensity[x >= 0.0]) * grid.dx)
    total = left + right
    if total <= 0:
        raise ValueError("field carries no power")
    return left / total, right / total


@dataclass(frozen=True)
class FigTwoRow:
    """One phase-controller setting of the splitter interference experiment."""

    delta_n: float
    power_left: float
    power_right: float
    theta: float


def fig2_experiment(delta_n_list, base: SlabSpec, geometry: YSplitterGeometry,
                    grid: Grid) -> list[FigTwoRow]:
    """Branch powers of the splitter versus phase-section index bump.

    For each delta_n the equal superposition (TE0 + TE1)/sqrt(2) is launched
    into the stem, picks up differential phase in the phase section, and is
    split; the row records the final branch powers and the solver-predicted
    controller angle theta.
    """
    check_march(base, grid, geometry, delta_n_list)  # before the solve
    modes = solve_slab_te_modes(base, grid=grid.waveguide_grid(), count=2)
    launch = field_from_modes(modes, [1 / math.sqrt(2.0), 1 / math.sqrt(2.0)], grid)
    # 2 theta = ([beta1 - beta0](n_core + delta_n) - [beta1 - beta0](n_core)) length: the solves refuse,
    # before any march, a bump in the section that leaves the guide single-mode
    length = geometry.phase_section.length
    thetas = [(delta_beta(replace(base, n_core=base.n_core + float(delta_n))) - delta_beta(base))
              * length / 2.0 if length else 0.0 for delta_n in delta_n_list]
    rows = []
    for delta_n, theta in zip(delta_n_list, thetas):
        bump = replace(geometry, phase_section=replace(geometry.phase_section, delta_n=float(delta_n)))
        final, _ = propagate(launch, build_geometry(bump, grid, base), grid, base.wavelength,
                             snapshot_every=grid.nz)
        left, right = branch_powers(final, grid)
        rows.append(FigTwoRow(float(delta_n), left, right, theta))
    return rows


def export_field_csv(field: Field, grid: Grid, destination) -> None:
    """Write a field snapshot as CSV with columns (x_m, re, im, intensity)."""
    rows = zip(
        grid.x.tolist(),
        field.values.real.tolist(),
        field.values.imag.tolist(),
        (np.abs(field.values) ** 2).tolist(),
    )
    write_csv(destination, ("x_m", "re", "im", "intensity"), rows)


def export_raster(intensity: np.ndarray, grid: Grid, snapshot_every: int, destination) -> None:
    """Write propagate's intensity raster: header (int64 nx, int64 nz, float64 dx, float64 dz),
    then nz rows of nx row-major float64 intensity values.  nz here is the number of rows and dz
    their z spacing, the snapshot stride (at most the march's nz - 1 steps) times the grid step."""
    if not math.isfinite(intensity.max()):  # intensities are >= 0: the max is inf or NaN if any is
        raise NumericalError("raster intensity overflows float64")
    header = struct.pack("<qqdd", grid.nx, len(intensity), grid.dx,
                         grid.dz * min(snapshot_every, grid.nz - 1))
    write_bytes(destination, header, np.ascontiguousarray(intensity, dtype="<f8"))
