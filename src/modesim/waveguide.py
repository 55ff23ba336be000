"""Guided transverse eigenmodes of symmetric slab guides.

Slab TE modes
-------------
For a symmetric slab of core half-width a, core index n_co and cladding
index n_cl at vacuum wavenumber k, a guided TE mode has transverse
wavenumber kappa = u/a in the core and decay sigma = v/a in the cladding
with u^2 + v^2 = V^2, V = k a sqrt(n_co^2 - n_cl^2).  The dispersion
relation splits into one branch per mode index m on u in
(m pi/2, min((m+1) pi/2, V)):

    even m:  u sin u - v cos u = 0      (equivalent to u tan u = v)
    odd  m:  u cos u + v sin u = 0      (equivalent to -u cot u = v)

Both residual forms are continuous with opposite signs at the branch ends, so
bisection brackets every root.  The branches a caller reads (two for
delta_beta, m + 1 for mode m's group delay, all for the profiles) are bisected
together as arrays, and cached per slab.  Each bracket is shrunk by 1e-14
relative at each end, and a root outside it is NaN.  One rule refuses a beta =
sqrt((k n_co)^2 - kappa^2) that is NaN or not strictly inside (k n_cl, k n_co):
on the top branch, whose bracket ends at u = V, the mode is at its cut-off and
not guided; below it, ValueError, as the index contrast is below float64's
resolution of beta.  Group delays take a central difference of beta(k);
material dispersion is ignored.

Mode profiles are sampled from the solve on a uniform grid (default 2048
points spanning 6x the core width; at least 1.05 core widths, with at least 16
points across the core) and normalized so that the trapezoid integral of
|psi|^2 is exactly 1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._errors import check_finite
from ._io import write_csv

__all__ = [
    "SlabSpec",
    "GuidedMode",
    "solve_slab_te_modes",
    "group_delay",
    "delta_beta",
    "export_mode_csv",
    "default_grid",
    "check_core_sampling",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_SPAN_FACTOR",
]

DEFAULT_GRID_POINTS = 2048
DEFAULT_SPAN_FACTOR = 6.0
#: a sampled core needs at least this many grid steps across it.
MIN_POINTS_ACROSS_CORE = 16
#: a sampled window must reach this many core half-widths from the core's center.
CORE_MARGIN = 1.05
#: below this normalized frequency the guiding is unresolvable in float64.
MIN_NORMALIZED_FREQUENCY = 1e-6
#: m/s, exact by the SI definition; equals scipy.constants.speed_of_light.
SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class SlabSpec:
    """Symmetric slab waveguide: core width, core/cladding indices, wavelength."""

    core_width: float
    n_core: float
    n_clad: float
    wavelength: float

    def __post_init__(self):
        if not (self.n_core > self.n_clad > 0):
            raise ValueError("need n_core > n_clad > 0")
        if not (self.core_width > 0 and self.wavelength > 0):
            raise ValueError("core_width and wavelength must be positive")
        check_finite(self, "core_width", "n_core", "n_clad", "wavelength")
        if not (self.n_core < 1e154 and math.isfinite(self.v_number)):  # v_number squares n_core
            raise ValueError("need n_core < 1e154 and a finite V = k (core_width / 2) sqrt(n_core^2 - "
                             "n_clad^2)")

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def v_number(self) -> float:
        half = self.core_width / 2.0
        return self.k * half * math.sqrt(self.n_core ** 2 - self.n_clad ** 2)


@dataclass(frozen=True, eq=False)
class GuidedMode:
    """A solved eigenmode: index, propagation constant, sampled profile.

    grid is (x_min, dx, count); profile[i] is the amplitude at
    x_min + i * dx, normalized so the trapezoid integral of |psi|^2 is 1.
    Mode m has exactly m sign changes inside the core.
    """

    index: int
    beta: float
    profile: np.ndarray
    grid: tuple[float, float, int]

    def __post_init__(self):
        profile = np.array(self.profile)
        if not (math.isfinite(self.beta) and np.all(np.isfinite(profile))):
            raise ValueError("mode beta and profile must be finite")
        profile.setflags(write=False)
        object.__setattr__(self, "profile", profile)

    @property
    def x(self) -> np.ndarray:
        x_min, dx, count = self.grid
        return x_min + dx * np.arange(count)


def check_core_sampling(core_width: float, grid: tuple[float, float, int],
                        min_steps: int = MIN_POINTS_ACROSS_CORE) -> None:
    """Raise ValueError unless the grid (x_min, dx, count) puts min_steps steps across a core
    centered at x = 0 and reaches CORE_MARGIN of its half-width on both sides (to 1e-12)."""
    x_min, dx, count = grid
    if not min_steps * dx <= core_width * (1 + 1e-12):
        raise ValueError(f"the grid puts fewer than {min_steps} points across the core")
    margin, x_max = CORE_MARGIN * core_width / 2.0, x_min + dx * (count - 1)
    if not margin <= min(-x_min, x_max) * (1 + 1e-12):
        raise ValueError(f"core exceeds grid: need |x| up to {margin:g} m inside [{x_min:g}, {x_max:g}]")


def default_grid(core_width: float, span_factor: float = DEFAULT_SPAN_FACTOR,
                 points: int = DEFAULT_GRID_POINTS) -> tuple[float, float, int]:
    """(x_min, dx, count) of points samples over span_factor core widths, centered on the core;
    check_core_sampling needs (points - 1) / span_factor >= 16 and span_factor >= 1.05."""
    span = span_factor * core_width
    grid = (-span / 2.0, span / max(points - 1, 1), points)  # points < 2 reach no cladding
    check_core_sampling(core_width, grid)
    return grid


@functools.lru_cache(maxsize=16)
def _solved(spec: SlabSpec, count: int) -> tuple[tuple[int, float, float, float], ...]:
    """(m, u, v, beta) of the guided modes of branches 0 .. count - 1, bisected as arrays."""
    v_number, half, modes = spec.v_number, spec.core_width / 2.0, []
    if v_number < MIN_NORMALIZED_FREQUENCY:
        return ()

    def residual(u, odd):
        v = np.sqrt(np.maximum(v_number ** 2 - u ** 2, 0.0))
        sin, cos = np.sin(u), np.cos(u)
        return np.where(odd, u * cos + v * sin, u * sin - v * cos)

    m = np.arange(count)
    odd, lo, hi = m % 2 == 1, m * math.pi / 2.0, np.minimum((m + 1) * math.pi / 2.0, v_number)
    lo, hi = lo + 1e-14 * np.maximum(1.0, lo), hi - 1e-14 * np.maximum(1.0, hi)
    f_lo, f_hi = residual(lo, odd), residual(hi, odd)
    roots = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))  # NaN: still open
    open_ = np.flatnonzero(np.isnan(roots) & ((f_lo > 0) != (f_hi > 0)))  # a lost bracket keeps NaN
    lo, hi, odd, up = lo[open_], hi[open_], odd[open_], f_lo[open_] > 0  # f_lo keeps its sign
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid, odd)
        done = (mid == lo) | (mid == hi) | (f_mid == 0.0)  # adjacent floats, or an exact zero
        same = (f_mid > 0) == up
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        close = ~done & (hi - lo <= 1e-16 * np.maximum(1.0, hi))
        roots[open_[done]], roots[open_[close]] = mid[done], 0.5 * (lo[close] + hi[close])
        keep = ~(done | close)
        open_, lo, hi, odd, up = open_[keep], lo[keep], hi[keep], odd[keep], up[keep]
        if not open_.size:
            break
    roots[open_] = 0.5 * (lo + hi)
    for m, u in enumerate(roots.tolist()):
        v = math.sqrt(max(v_number ** 2 - u ** 2, 0.0))
        beta = math.sqrt((spec.k * spec.n_core) ** 2 - (u / half) ** 2)
        if not spec.k * spec.n_clad < beta < spec.k * spec.n_core:
            if (m + 1) * math.pi / 2.0 < v_number:  # below the top: a skip would renumber the modes
                raise ValueError(f"mode {m}'s beta rounds out of (k n_clad, k n_core): the index "
                                 "contrast is below float64's resolution of beta")
            break  # the top mode, at its cut-off (NaN) or within rounding of it, is not guided
        modes.append((m, u, v, beta))
    return tuple(modes)


def _dispersion(spec: SlabSpec, count: float) -> tuple[tuple[int, float, float, float], ...]:
    """(m, u, v, beta) of the first count guided TE modes, or of all if fewer, by descending beta."""
    # the slab's branches are the m with m pi / 2 < V; at least 2 are solved, so that a slab whose
    # two modes are read one at a time, by delta_beta or a delays run, is solved once
    v_number = spec.v_number
    branches = math.ceil(2.0 * v_number / math.pi)  # corrected where 2V / pi rounds across an integer
    branches += int(branches * math.pi / 2.0 < v_number) - int((branches - 1) * math.pi / 2.0 >= v_number)
    return _solved(spec, min(max(count, 2), branches))[:min(count, branches)]


def solve_slab_te_modes(spec: SlabSpec, grid: tuple[float, float, int] | None = None,
                        count: float = math.inf) -> list[GuidedMode]:
    """The first count guided TE modes of a symmetric slab (all by default), by descending beta.

    The profiles are sampled on grid (x_min, dx, points), or on default_grid(core_width).
    Returns an empty list below normalized frequency 1e-6, and raises ValueError if a beta
    below the top mode's is not resolvable in float64.  Each returned beta satisfies the
    dispersion relation to residual below 1e-12 and lies strictly inside (k n_clad, k n_core).
    """
    x_min, dx, points = default_grid(spec.core_width) if grid is None else grid
    x = x_min + dx * np.arange(points)
    half = spec.core_width / 2.0
    inside = np.abs(x) <= half
    modes: list[GuidedMode] = []
    for m, u, v, beta in _dispersion(spec, count):
        profile = np.empty(points, dtype=np.float64)
        tail = np.exp(-(v / half) * (np.abs(x[~inside]) - half))
        if m % 2 == 0:
            profile[inside] = np.cos((u / half) * x[inside])
            profile[~inside] = math.cos(u) * tail
        else:
            profile[inside] = np.sin((u / half) * x[inside])
            profile[~inside] = math.sin(u) * np.sign(x[~inside]) * tail
        norm = math.sqrt(float(np.trapezoid(np.abs(profile) ** 2, dx=dx)))
        modes.append(GuidedMode(index=m, beta=beta, profile=profile / norm, grid=(x_min, dx, points)))
    return modes


def group_delay(spec: SlabSpec, mode_index: int, length, dk_rel: float = 1e-4):
    """Group delay tau = (L/c) dbeta/dk via a central difference at k(1 +- dk_rel); an array of
    lengths gives one delay each.  Second-order convergent in the relative step.  Raises when
    the requested mode is not guided at either perturbed wavenumber, whatever the length.
    """
    if not (dk_rel > 0 and mode_index >= 0):
        raise ValueError(f"need dk_rel > 0 and mode_index >= 0, got {dk_rel!r} and {mode_index!r}")
    betas = []
    for sign in (+1.0, -1.0):
        modes = _dispersion(replace(spec, wavelength=2.0 * math.pi / (spec.k * (1.0 + sign * dk_rel))),
                            mode_index + 1)
        if mode_index >= len(modes):
            raise ValueError(f"mode {mode_index} near cutoff: not guided at the perturbed "
                             "wavenumber k (1 +- dk_rel); move away from cutoff or reduce dk_rel")
        betas.append(modes[mode_index][3])
    return length / SPEED_OF_LIGHT * ((betas[0] - betas[1]) / (2.0 * spec.k * dk_rel))


def delta_beta(spec: SlabSpec) -> float:
    """beta_1 - beta_0 of the first two guided modes.

    Negative by the solver's descending-beta convention; the decoherence
    rates consume only its magnitude (even) or sign (odd) explicitly.
    """
    modes = _dispersion(spec, 2)
    if len(modes) < 2:
        raise ValueError(f"need at least 2 guided modes, found {len(modes)}")
    return modes[1][3] - modes[0][3]


def export_mode_csv(mode: GuidedMode, destination) -> None:
    """Write a mode profile as CSV with columns (x_m, re, im)."""
    profile = np.asarray(mode.profile, dtype=np.complex128)
    rows = zip(mode.x.tolist(), profile.real.tolist(), profile.imag.tolist())
    write_csv(destination, ("x_m", "re", "im"), rows)
