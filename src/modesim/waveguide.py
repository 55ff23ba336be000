"""Guided transverse eigenmodes of symmetric slab and parabolic-index guides.

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
propagation constant is beta = sqrt((k n_co)^2 - kappa^2), strictly between
k n_cl and k n_co.

Parabolic-index guides
----------------------
A profile with n0^2 - n^2(x) = g x^2 maps onto a harmonic oscillator whose
eigenmodes are Hermite-Gauss profiles with equally spaced dimensionless
eigenvalues w_n = (n + 1/2) sqrt(g)/k and beta_n = k sqrt(n0^2 - 2 w_n).

Group delays are computed from the numerical dispersion beta(k) with a
central difference; material dispersion is ignored (n independent of k), so
only geometric dispersion is captured.

Mode profiles are sampled on a uniform grid (default 2048 points spanning
6x the core width) and normalized so that the trapezoid integral of |psi|^2
is exactly 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import speed_of_light

from ._io import write_csv

__all__ = [
    "SlabSpec",
    "ParabolicSpec",
    "GuidedMode",
    "solve_slab_te_modes",
    "parabolic_modes",
    "mode_overlap",
    "group_delay",
    "delta_beta",
    "dispersion_residual",
    "export_mode_csv",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_SPAN_FACTOR",
]

DEFAULT_GRID_POINTS = 2048
DEFAULT_SPAN_FACTOR = 6.0
#: below this normalized frequency the guiding is unresolvable in float64.
MIN_NORMALIZED_FREQUENCY = 1e-6


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
        if self.core_width <= 0 or self.wavelength <= 0:
            raise ValueError("core_width and wavelength must be positive")

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def v_number(self) -> float:
        half = self.core_width / 2.0
        return self.k * half * math.sqrt(self.n_core ** 2 - self.n_clad ** 2)


@dataclass(frozen=True)
class ParabolicSpec:
    """Parabolic-index profile n0^2 - n^2(x) = gradient * x^2 (gradient in 1/m^2)."""

    n0: float
    gradient: float
    wavelength: float

    def __post_init__(self):
        if self.n0 <= 0 or self.gradient <= 0 or self.wavelength <= 0:
            raise ValueError("n0, gradient and wavelength must be positive")

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.wavelength


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


def _solve_branch(m: int, v_number: float) -> float:
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


def dispersion_residual(spec: SlabSpec, beta: float, mode_index: int) -> float:
    """Normalized slab dispersion-relation residual at a candidate beta."""
    half = spec.core_width / 2.0
    u = half * math.sqrt(max((spec.k * spec.n_core) ** 2 - beta ** 2, 0.0))
    return float(_branch_residual(mode_index, np.array(u), spec.v_number))


def _default_grid(core_width: float, grid: tuple[float, float, int] | None,
                  span_factor: float, points: int) -> tuple[float, float, int]:
    if grid is not None:
        return grid
    if not span_factor > 0 or points < 2:
        raise ValueError("need span_factor > 0 and points >= 2")
    span = span_factor * core_width
    return (-span / 2.0, span / (points - 1), points)


def _normalized(profile: np.ndarray, dx: float) -> np.ndarray:
    norm = math.sqrt(float(np.trapezoid(np.abs(profile) ** 2, dx=dx)))
    return profile / norm


def solve_slab_te_modes(spec: SlabSpec, grid: tuple[float, float, int] | None = None,
                        span_factor: float = DEFAULT_SPAN_FACTOR,
                        points: int = DEFAULT_GRID_POINTS) -> list[GuidedMode]:
    """All guided TE modes of a symmetric slab, sorted by descending beta.

    Returns an empty list when the guide cannot hold a numerically
    resolvable mode (normalized frequency below 1e-6).  Each returned beta
    satisfies the dispersion relation to residual below 1e-12 and lies
    strictly inside (k n_clad, k n_core).
    """
    v_number = spec.v_number
    if v_number < MIN_NORMALIZED_FREQUENCY:
        return []
    half = spec.core_width / 2.0
    x_min, dx, count = _default_grid(spec.core_width, grid, span_factor, points)
    x = x_min + dx * np.arange(count)
    modes: list[GuidedMode] = []
    m = 0
    while m * math.pi / 2.0 < v_number:
        u = _solve_branch(m, v_number)
        v = math.sqrt(max(v_number ** 2 - u ** 2, 0.0))
        kappa = u / half
        decay = v / half
        beta = math.sqrt((spec.k * spec.n_core) ** 2 - kappa ** 2)
        if not (spec.k * spec.n_clad < beta < spec.k * spec.n_core):
            m += 1
            continue
        inside = np.abs(x) <= half
        profile = np.empty(count, dtype=np.float64)
        tail = np.exp(-decay * (np.abs(x[~inside]) - half))
        if m % 2 == 0:
            profile[inside] = np.cos(kappa * x[inside])
            profile[~inside] = math.cos(u) * tail
        else:
            profile[inside] = np.sin(kappa * x[inside])
            profile[~inside] = math.sin(u) * np.sign(x[~inside]) * tail
        modes.append(GuidedMode(index=m, beta=beta, profile=_normalized(profile, dx),
                                grid=(x_min, dx, count)))
        m += 1
    return modes


def parabolic_modes(spec: ParabolicSpec, count: int,
                    grid: tuple[float, float, int] | None = None,
                    points: int = DEFAULT_GRID_POINTS) -> list[GuidedMode]:
    """The first `count` Hermite-Gauss modes of a parabolic-index guide."""
    if count < 1:
        raise ValueError("count must be at least 1")
    k = spec.k
    omega_step = math.sqrt(spec.gradient) / k
    top_omega = (count - 1 + 0.5) * omega_step
    if top_omega >= spec.n0 ** 2 / 2.0:
        raise ValueError(
            f"mode not guided: eigenvalue {top_omega:g} >= n0^2/2 = {spec.n0 ** 2 / 2.0:g}"
        )
    alpha = math.sqrt(k * math.sqrt(spec.gradient))  # 1/m, Gaussian width scale
    if grid is None:
        y_max = math.sqrt(2.0 * count + 1.0) + 6.0
        x_max = y_max / alpha
        grid = (-x_max, 2.0 * x_max / (points - 1), points)
    x_min, dx, n_points = grid
    x = x_min + dx * np.arange(n_points)
    y = alpha * x
    envelope = np.exp(-0.5 * y * y)
    h_prev = np.ones_like(y)
    h_curr = 2.0 * y
    modes: list[GuidedMode] = []
    for n in range(count):
        hermite = h_prev if n == 0 else h_curr
        omega_n = (n + 0.5) * omega_step
        beta = k * math.sqrt(spec.n0 ** 2 - 2.0 * omega_n)
        modes.append(GuidedMode(index=n, beta=beta,
                                profile=_normalized(hermite * envelope, dx),
                                grid=grid))
        if n >= 1:
            # H_{n+1} = 2 y H_n - 2 n H_{n-1}
            h_prev, h_curr = h_curr, 2.0 * y * h_curr - 2.0 * n * h_prev
    return modes


def mode_overlap(a: GuidedMode, b: GuidedMode) -> complex:
    """Trapezoid overlap integral <a|b> on the shared grid."""
    if a.grid != b.grid:
        raise ValueError("modes live on different grids")
    dx = a.grid[1]
    return complex(np.trapezoid(np.conj(a.profile) * b.profile, dx=dx))


def group_delay(spec: SlabSpec, mode_index: int, length: float,
                dk_rel: float = 1e-4) -> float:
    """Group delay tau = (L/c) dbeta/dk via a central difference at k(1 +- dk_rel).

    Second-order convergent in the relative step.  Raises when the requested
    mode is not guided at either perturbed wavenumber.
    """
    if length == 0.0:
        return 0.0
    if dk_rel <= 0:
        raise ValueError("dk_rel must be positive")
    betas = []
    for sign in (+1.0, -1.0):
        k_pert = spec.k * (1.0 + sign * dk_rel)
        pert = SlabSpec(spec.core_width, spec.n_core, spec.n_clad,
                        2.0 * math.pi / k_pert)
        modes = solve_slab_te_modes(pert, points=8)  # profiles unused
        if mode_index >= len(modes):
            raise ValueError(
                f"mode {mode_index} near cutoff at perturbed wavenumber, reduce dk_rel"
            )
        betas.append(modes[mode_index].beta)
    derivative = (betas[0] - betas[1]) / (2.0 * spec.k * dk_rel)
    return length / speed_of_light * derivative


def delta_beta(spec: SlabSpec) -> float:
    """beta_1 - beta_0 of the first two guided modes.

    Negative by the solver's descending-beta convention; the decoherence
    rates consume only its magnitude (even) or sign (odd) explicitly.
    """
    modes = solve_slab_te_modes(spec, points=8)
    if len(modes) < 2:
        raise ValueError(f"need at least 2 guided modes, found {len(modes)}")
    return modes[1].beta - modes[0].beta


def export_mode_csv(mode: GuidedMode, destination) -> None:
    """Write a mode profile as CSV with columns (x_m, re, im)."""
    profile = np.asarray(mode.profile, dtype=np.complex128)
    rows = zip(mode.x.tolist(), profile.real.tolist(), profile.imag.tolist())
    write_csv(destination, ("x_m", "re", "im"), rows)
