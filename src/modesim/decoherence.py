"""Density-matrix evolution through random dual-mode waveguides.

Two routes are provided and checked against each other:

* the closed-form map: populations relax toward equal weights at rate
  2 gamma while the coherence rho01 is multiplied by
  exp([i (dbeta + kappa) - gamma] L), with (gamma, kappa) from
  :mod:`modesim.stochastic`;

* a per-realization Liouville integrator: each realization of the random
  coupling f(z) drives the 2x2 Hamiltonian

      H(z) = [[0, K f(z)], [conj(K) f(z), dbeta]]

  and the state is conjugated by the exact matrix exponential over each dz
  step, so trace and purity are conserved per realization.  Ensemble
  averaging the realizations reproduces the closed-form decay within Monte
  Carlo error in the regime dbeta >> gamma, kappa.

Free evolution (f = 0) advances rho01 by exp(+i dbeta z), which fixes the
sign convention used throughout.

Step unitaries are composed as SU(2) quaternions (scalar w and vector part
v, with U = w I - i v.sigma); this is algebraically identical to 2x2 matrix
products but runs on real arrays.  The checkpoints of a scan cut a path into
segments, whose step quaternions fill one block, a row per segment, padded
with identity quaternions.  Every row is reduced pairwise (a balanced tree,
which keeps rounding growth logarithmic) in one pass per tree level; the
identity padding is exact, so each segment gets the bits of its own tree.
ensemble_scan, the one Monte Carlo entry point, runs on this reducer.

Ensemble reductions use compensated (fsum) summation per matrix entry, so
the mean is independent of scheduling order at the 1e-13 level demanded of
parallel runs.  Realization i always uses seed = base_seed + i; seeds 2k and
2k + 1 share one transform in :func:`modesim.stochastic.sample_path`, so each
parallel task runs a whole seed pair.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ._io import write_csv
from .states import DensityMatrix, bell_state, density_of, product_state
from .stochastic import PerturbationModel, RateConstants, pair_seed, rates, sample_path

__all__ = [
    "EvolutionParams",
    "DecoherenceScan",
    "analytic_single_rail",
    "ensemble_scan",
    "fit_decay_rate",
    "two_rail_evolve",
    "export_scan_csv",
    "MIN_STEPS_PER_BEAT",
]

#: ensemble_scan takes dz <= (2 pi / |dbeta|) / MIN_STEPS_PER_BEAT, then snaps it to whole steps.
MIN_STEPS_PER_BEAT = 16

_IDENTITY = (1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EvolutionParams:
    """Mode-beat rate, decoherence rates, and propagation length (meters)."""

    delta_beta: float
    rates: RateConstants
    length: float

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")


def _apply_single_rail(entries: np.ndarray, delta_beta: float, gamma: float,
                       kappa: float, length: float) -> np.ndarray:
    """Closed-form map extended linearly to the leading 2x2 axes of an array."""
    relax = math.exp(-2.0 * gamma * length)
    phase = np.exp((1j * (delta_beta + kappa) - gamma) * length)
    out = np.empty(entries.shape, dtype=np.complex128)
    out[0, 0] = 0.5 * ((1 + relax) * entries[0, 0] + (1 - relax) * entries[1, 1])
    out[1, 1] = 0.5 * ((1 - relax) * entries[0, 0] + (1 + relax) * entries[1, 1])
    out[0, 1] = entries[0, 1] * phase
    out[1, 0] = entries[1, 0] * np.conj(phase)
    return out


def analytic_single_rail(rho0: DensityMatrix, params: EvolutionParams) -> DensityMatrix:
    """Closed-form single-rail decoherence map applied to rho0."""
    if rho0.rails != 1:
        raise ValueError("analytic_single_rail expects a single-rail 2x2 state")
    out = _apply_single_rail(rho0.matrix, params.delta_beta, params.rates.gamma,
                             params.rates.kappa, params.length)
    return DensityMatrix(out)


def _step_quaternions(values: np.ndarray, dz: float, delta_beta: float,
                      k_ab: complex) -> np.ndarray:
    """Per-step SU(2) components (w, x, y, z) of exp(-i H dz), stacked on a new leading axis.

    The traceless part of H is Re(c) sx - Im(c) sy - (dbeta/2) sz with
    c = k_ab f; the global phase exp(-i dbeta dz / 2) is dropped because the
    state is conjugated by U and never sees it.
    """
    half = delta_beta / 2.0
    c_re = values * k_ab.real
    c_im = values * k_ab.imag
    radius = np.sqrt(half * half + c_re * c_re + c_im * c_im)
    theta = radius * dz
    q = np.empty((4,) + values.shape)
    np.cos(theta, out=q[0])
    # sin(theta)/radius, continuous at radius -> 0
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(radius > 0.0, np.sin(theta) / np.where(radius > 0.0, radius, 1.0), dz)
    np.multiply(scale, c_re, out=q[1])
    np.multiply(scale, -c_im, out=q[2])
    np.multiply(scale, -half, out=q[3])
    return q


def _segment_index(marks: list[int]) -> np.ndarray:
    """Step indices of the segments [0, m0), [m0, m1), ... as rows; -1 past a segment's end."""
    starts = np.array([0] + marks[:-1])[:, None]
    ends = np.array(marks)[:, None]
    index = starts + np.arange(int((ends - starts).max()))
    index[index >= ends] = -1
    return index


def _segment_products(q: np.ndarray) -> np.ndarray:
    """Ordered SU(2) products q[:, s, n-1] * ... * q[:, s, 0] of each row s of a (4, S, n) block.

    All rows are reduced pairwise (a balanced tree), one level at a time.  Rows
    are padded with identity quaternions; pairing a row's odd last element
    with the identity returns it unchanged (1 * a and a + 0 are exact), so
    each row gets the same bits as its own unpadded tree.
    """
    while q.shape[2] > 1:
        if q.shape[2] % 2:
            q = np.concatenate((q, np.empty(q.shape[:2] + (1,))), axis=2)
            q[:, :, -1] = np.array(_IDENTITY)[:, None]
        w1, x1, y1, z1 = q[:, :, 0::2]
        w2, x2, y2, z2 = q[:, :, 1::2]
        q = np.empty((4,) + w1.shape)
        np.subtract(w2 * w1, x2 * x1 + y2 * y1 + z2 * z1, out=q[0])
        np.add(w2 * x1 + w1 * x2, y2 * z1 - z2 * y1, out=q[1])
        np.add(w2 * y1 + w1 * y2, z2 * x1 - x2 * z1, out=q[2])
        np.add(w2 * z1 + w1 * z2, x2 * y1 - y2 * x1, out=q[3])
    return q[:, :, 0]


def _quaternion_compose(a, b):
    """SU(2) product a * b of two scalar quaternions (a applied after b)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - (ax * bx + ay * by + az * bz),
        aw * bx + bw * ax + (ay * bz - az * by),
        aw * by + bw * ay + (az * bx - ax * bz),
        aw * bz + bw * az + (ax * by - ay * bx),
    )


def _quaternion_to_matrix(q) -> np.ndarray:
    w, x, y, z = q
    # renormalize: products of exact unitaries, so any norm drift is rounding
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    return np.array(
        [[w - 1j * z, -y - 1j * x],
         [y - 1j * x, w + 1j * z]],
        dtype=np.complex128,
    )


def _conjugations(rho: np.ndarray, values: np.ndarray, dz: float, delta_beta: float,
                  k_ab: complex, index: np.ndarray) -> np.ndarray:
    """rho conjugated by the path unitary up to the end of each segment of index."""
    block = _step_quaternions(values[index], dz, delta_beta, k_ab)
    block[:, index < 0] = np.array(_IDENTITY)[:, None]
    segments = _segment_products(block)
    snapshots = np.empty((index.shape[0], 2, 2), dtype=np.complex128)
    cumulative = _IDENTITY
    for idx, segment in enumerate(segments.T.tolist()):
        cumulative = _quaternion_compose(segment, cumulative)
        unitary = _quaternion_to_matrix(cumulative)
        snapshots[idx] = unitary @ rho @ unitary.conj().T
    return snapshots


def _compensated_mean(stack: np.ndarray) -> np.ndarray:
    """Order-insensitive mean over axis 0 of a stack of complex arrays."""
    n = stack.shape[0]
    entries = stack.reshape(n, -1).T
    return np.array([complex(math.fsum(e.real), math.fsum(e.imag)) / n
                     for e in entries]).reshape(stack.shape[1:])


@dataclass(frozen=True, eq=False)
class DecoherenceScan:
    """Ensemble means over a grid of propagation lengths.

    lengths: checkpoint lengths (snapped to whole steps so the free-evolution
    phase of the Monte Carlo and the analytic map match exactly).
    mean: (n_L, 2, 2) ensemble means; stderr: per-entry standard errors
    sqrt((Var Re + Var Im) / n); analytic: the closed-form counterpart.
    """

    lengths: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    analytic: np.ndarray
    n_realizations: int


def ensemble_scan(rho0: DensityMatrix, model: PerturbationModel, delta_beta: float,
                  length_max: float, n_lengths: int, n_realizations: int,
                  base_seed: int, n_jobs: int = 1) -> DecoherenceScan:
    """Monte Carlo ensemble means at n_lengths checkpoints up to length_max.

    One path per realization covers the full length; checkpoints reuse its
    prefix products, so the scan costs the same as a single full-length run.
    """
    if rho0.rails != 1:
        raise ValueError("ensemble_scan expects a single-rail 2x2 state")
    if n_lengths < 2 or n_realizations < 1:
        raise ValueError("need n_lengths >= 2 and n_realizations >= 1")
    dz = model.corr_length / 8.0
    if delta_beta != 0.0:
        dz = min(dz, (2.0 * math.pi / abs(delta_beta)) / MIN_STEPS_PER_BEAT)
    total = max(n_lengths, int(round(length_max / dz)))
    dz = length_max / total
    marks = sorted({max(1, int(round(total * (j + 1) / n_lengths))) for j in range(n_lengths)})
    lengths = np.array([m * dz for m in marks])
    rate_consts = rates(model, delta_beta)
    index = _segment_index(marks)
    k_ab = complex(model.k_ab)

    def one(i: int) -> np.ndarray:
        path = sample_path(model, dz, marks[-1], base_seed + i)
        return _conjugations(rho0.matrix, path.values, dz, delta_beta, k_ab, index)

    if n_jobs > 1:
        # one task per seed pair, run in order on one thread, so each pair is drawn once
        pairs = [list(group) for _, group in
                 groupby(range(n_realizations), key=lambda i: pair_seed(base_seed + i))]
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            batches = list(pool.map(lambda pair: [one(i) for i in pair], pairs))
        stack = np.array([snapshots for batch in batches for snapshots in batch])
    else:
        stack = np.array([one(i) for i in range(n_realizations)])

    mean = _compensated_mean(stack)
    var = np.var(stack.real, axis=0) + np.var(stack.imag, axis=0)
    stderr = np.sqrt(var / n_realizations)

    analytic = np.empty_like(mean)
    for j, length in enumerate(lengths):
        analytic[j] = _apply_single_rail(rho0.matrix, delta_beta,
                                         rate_consts.gamma, rate_consts.kappa, length)
    return DecoherenceScan(lengths=lengths, mean=mean, stderr=stderr,
                           analytic=analytic, n_realizations=n_realizations)


def fit_decay_rate(scan: DecoherenceScan) -> float:
    """Weighted least-squares decay rate of |mean rho01| versus length.

    Fits log |rho01(L)| = a - gamma_fit L with weights from the Monte Carlo
    standard errors; returns gamma_fit.
    """
    mag = np.abs(scan.mean[:, 0, 1])
    if np.any(mag <= 0):
        raise ValueError("vanishing coherence; cannot fit a decay rate")
    y = np.log(mag)
    rel = np.maximum(scan.stderr[:, 0, 1] / mag, 1e-15)
    weights = 1.0 / rel ** 2
    design = np.column_stack([np.ones_like(scan.lengths), scan.lengths])
    lhs = design.T @ (design * weights[:, None])
    rhs = design.T @ (weights * y)
    coeffs = np.linalg.solve(lhs, rhs)
    return float(-coeffs[1])


def _two_rail_closed_form(state: str, params: EvolutionParams) -> np.ndarray:
    gamma = params.rates.gamma
    kappa = params.rates.kappa
    length = params.length
    single = np.exp((1j * (params.delta_beta + kappa) - gamma) * length)
    double = np.exp(2.0 * (1j * (params.delta_beta + kappa) - gamma) * length)
    relax = math.exp(-2.0 * gamma * length)
    if state == "phi_plus":
        out = np.zeros((4, 4), dtype=np.complex128)
        out[0, 0] = out[3, 3] = 0.5
        out[0, 3] = 0.5 * double
        out[3, 0] = 0.5 * np.conj(double)
        return out
    out = 0.25 * np.array(
        [
            [1.0, single, single, double],
            [np.conj(single), 1.0, relax, single],
            [np.conj(single), relax, 1.0, single],
            [np.conj(double), np.conj(single), np.conj(single), 1.0],
        ],
        dtype=np.complex128,
    )
    return out


def _two_rail_channel(state: str, params: EvolutionParams) -> np.ndarray:
    pure = bell_state("phi", "+") if state == "phi_plus" else product_state()
    args = (params.delta_beta, params.rates.gamma, params.rates.kappa, params.length)
    # axes (c, t, c', t') of control and target rails; each map acts on the leading pair
    tensor = density_of(pure).matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    tensor = _apply_single_rail(tensor, *args).transpose(2, 3, 0, 1)
    return _apply_single_rail(tensor, *args).transpose(2, 0, 3, 1).reshape(4, 4)


def two_rail_evolve(state: str, params: EvolutionParams, mode: str = "closed_form") -> DensityMatrix:
    """Evolve a two-rail input ("phi_plus" or "product") through matched rails.

    Both rails share the same statistics and length and are statistically
    independent.  mode "closed_form" returns the published two-rail matrices
    verbatim; mode "channel_composition" applies the single-rail map to each
    rail independently.  The two agree exactly for the product state; for the
    entangled state the closed form keeps its populations frozen while the
    composed channel populates the cross terms |01>, |10> at order
    (1 - exp(-2 gamma L)).  Both definitions are preserved deliberately.
    """
    if state not in ("phi_plus", "product"):
        raise ValueError(f"state must be 'phi_plus' or 'product', got {state!r}")
    if mode == "closed_form":
        return DensityMatrix(_two_rail_closed_form(state, params))
    if mode == "channel_composition":
        return DensityMatrix(_two_rail_channel(state, params))
    raise ValueError(f"mode must be 'closed_form' or 'channel_composition', got {mode!r}")


def export_scan_csv(scan: DecoherenceScan, destination) -> None:
    """Write a decoherence scan as CSV.

    Columns: L_m, re_rho01, im_rho01, purity, analytic_re, analytic_im.
    """
    rows = []
    for j, length in enumerate(scan.lengths):
        mean = scan.mean[j]
        pur = float(np.trace(mean @ mean).real)
        rows.append((
            float(length),
            float(mean[0, 1].real),
            float(mean[0, 1].imag),
            pur,
            float(scan.analytic[j][0, 1].real),
            float(scan.analytic[j][0, 1].imag),
        ))
    write_csv(destination,
              ("L_m", "re_rho01", "im_rho01", "purity", "analytic_re", "analytic_im"),
              rows)
