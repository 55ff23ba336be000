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

Both residual forms are continuous with opposite signs at the branch ends,
so plain bisection brackets every root with no spurious solutions.  The
bracket is shrunk by 1e-14 relative at each end; a top branch whose root then
falls outside it lies within rounding of u = V, a mode at its cut-off, and
counts as not guided.  The propagation constant is
beta = sqrt((k n_co)^2 - kappa^2), strictly between k n_cl and k n_co.

Each slab's dispersion relation is solved once and cached; beta, delta_beta
and the group delays read that one solve.  Group delays are computed from the
numerical dispersion beta(k) with a central difference; material dispersion
is ignored (n independent of k), so only geometric dispersion is captured.

Mode profiles are sampled from the solve on a uniform grid (default 2048
points spanning 6x the core width, at least 16 points across the core) and
normalized so that the trapezoid integral of |psi|^2 is exactly 1.
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
    "DEFAULT_GRID_POINTS",
    "DEFAULT_SPAN_FACTOR",
]

DEFAULT_GRID_POINTS = 2048
DEFAULT_SPAN_FACTOR = 6.0
#: a sampled core needs at least this many grid steps across it.
MIN_POINTS_ACROSS_CORE = 16
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
        if self.n_core >= 1e154:  # v_number squares n_core; float64 overflows above 1.8e308
            raise ValueError("need n_core < 1e154, so that its square is a finite float64")
        if not (self.core_width > 0 and self.wavelength > 0):
            raise ValueError("core_width and wavelength must be positive")
        check_finite(self, "core_width", "n_core", "n_clad", "wavelength")

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


def _branch_residual(m: int, u: np.ndarray, v_number: float):
    v = np.sqrt(np.maximum(v_number ** 2 - u ** 2, 0.0))
    if m % 2 == 0:
        return u * np.sin(u) - v * np.cos(u)
    return u * np.cos(u) + v * np.sin(u)


def _solve_branch(m: int, v_number: float) -> float | None:
    """The root u of branch m, or None if it lies within rounding of the cut-off u = V."""
    lo = m * math.pi / 2.0
    hi = min((m + 1) * math.pi / 2.0, v_number)
    lo += 1e-14 * max(1.0, lo)
    hi -= 1e-14 * max(1.0, hi)
    f_lo = float(_branch_residual(m, np.array(lo), v_number))
    f_hi = float(_branch_residual(m, np.array(hi), v_number))
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
        f_mid = float(_branch_residual(m, np.array(mid), v_number))
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def default_grid(core_width: float, span_factor: float = DEFAULT_SPAN_FACTOR,
                 points: int = DEFAULT_GRID_POINTS) -> tuple[float, float, int]:
    """(x_min, dx, count) of points samples over span_factor core widths, centered on the core.

    Raises ValueError unless the core holds (points - 1) / span_factor >=
    MIN_POINTS_ACROSS_CORE grid steps: a coarser profile may miss the core.
    """
    if not span_factor > 0 or points < 2:
        raise ValueError("need span_factor > 0 and points >= 2")
    if points - 1 < MIN_POINTS_ACROSS_CORE * span_factor:  # integers: exactly 16 steps pass
        raise ValueError(f"the grid puts fewer than {MIN_POINTS_ACROSS_CORE} points across the "
                         f"core; need (grid_points - 1) / span_factor >= {MIN_POINTS_ACROSS_CORE}")
    span = span_factor * core_width
    return (-span / 2.0, span / (points - 1), points)


@functools.lru_cache(maxsize=16)
def _dispersion(spec: SlabSpec) -> tuple[tuple[int, float, float, float], ...]:
    """(m, u, v, beta) of each guided TE mode, by descending beta."""
    # cached: delta_beta and group_delay ask for the same few slabs again and again
    v_number = spec.v_number
    if v_number < MIN_NORMALIZED_FREQUENCY:
        return ()
    half, modes, m = spec.core_width / 2.0, [], 0
    while m * math.pi / 2.0 < v_number:
        u = _solve_branch(m, v_number)
        if u is None:  # a mode at its cut-off is not guided, and no higher branch exists
            break
        v = math.sqrt(max(v_number ** 2 - u ** 2, 0.0))
        beta = math.sqrt((spec.k * spec.n_core) ** 2 - (u / half) ** 2)
        if spec.k * spec.n_clad < beta < spec.k * spec.n_core:
            modes.append((m, u, v, beta))
        m += 1
    return tuple(modes)


def solve_slab_te_modes(spec: SlabSpec, grid: tuple[float, float, int] | None = None) -> list[GuidedMode]:
    """All guided TE modes of a symmetric slab, sorted by descending beta.

    The profiles are sampled on grid (x_min, dx, count), or on
    default_grid(core_width).  Returns an empty list when the guide cannot hold
    a numerically resolvable mode (normalized frequency below 1e-6).  Each
    returned beta satisfies the dispersion relation to residual below 1e-12
    and lies strictly inside (k n_clad, k n_core).
    """
    x_min, dx, count = default_grid(spec.core_width) if grid is None else grid
    x = x_min + dx * np.arange(count)
    half = spec.core_width / 2.0
    inside = np.abs(x) <= half
    modes: list[GuidedMode] = []
    for m, u, v, beta in _dispersion(spec):
        profile = np.empty(count, dtype=np.float64)
        tail = np.exp(-(v / half) * (np.abs(x[~inside]) - half))
        if m % 2 == 0:
            profile[inside] = np.cos((u / half) * x[inside])
            profile[~inside] = math.cos(u) * tail
        else:
            profile[inside] = np.sin((u / half) * x[inside])
            profile[~inside] = math.sin(u) * np.sign(x[~inside]) * tail
        norm = math.sqrt(float(np.trapezoid(np.abs(profile) ** 2, dx=dx)))
        modes.append(GuidedMode(index=m, beta=beta, profile=profile / norm, grid=(x_min, dx, count)))
    return modes


def group_delay(spec: SlabSpec, mode_index: int, length: float,
                dk_rel: float = 1e-4) -> float:
    """Group delay tau = (L/c) dbeta/dk via a central difference at k(1 +- dk_rel).

    Second-order convergent in the relative step.  Raises when the requested
    mode is not guided at either perturbed wavenumber, whatever the length.
    """
    if not dk_rel > 0:
        raise ValueError("dk_rel must be positive")
    betas = []
    for sign in (+1.0, -1.0):
        modes = _dispersion(replace(spec, wavelength=2.0 * math.pi / (spec.k * (1.0 + sign * dk_rel))))
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
    modes = _dispersion(spec)
    if len(modes) < 2:
        raise ValueError(f"need at least 2 guided modes, found {len(modes)}")
    return modes[1][3] - modes[0][3]


def export_mode_csv(mode: GuidedMode, destination) -> None:
    """Write a mode profile as CSV with columns (x_m, re, im)."""
    profile = np.asarray(mode.profile, dtype=np.complex128)
    rows = zip(mode.x.tolist(), profile.real.tolist(), profile.imag.tolist())
    write_csv(destination, ("x_m", "re", "im"), rows)
