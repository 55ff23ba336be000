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
ensemble_scan, the one Monte Carlo entry point, runs on this reducer.  Each
seed pair of a scan is reduced in one workspace, built after the pair's
transform and freed before the next pair's: the path values, copied into their
rows a segment slice at a time, two buffers that the tree levels (the block
first) take in turn, and the products' intermediates.  The scan writes its
checkpoint states into one (realizations, checkpoints, 2, 2) stack, its only
per-realization array.

Realization i always uses seed = base_seed + i and writes only row i of the
stack, so the thread count and the schedule cannot move a bit of the result;
the mean sums each matrix entry with correctly rounded (fsum) summation.
Seeds 2k and 2k + 1 share one transform in
:func:`modesim.stochastic.sample_path`, so each pull loop takes a whole seed
pair.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ._io import write_csv
from .states import DensityMatrix
from .stochastic import (MAX_DZ_FRACTION, PerturbationModel, RateConstants, check_sample_grid,
                         pair_seed, rates, sample_path)

__all__ = [
    "EvolutionParams",
    "DecoherenceScan",
    "analytic_single_rail",
    "ensemble_scan",
    "ensemble_steps",
    "fit_decay_rate",
    "two_rail_evolve",
    "export_scan_csv",
    "MIN_STEPS_PER_BEAT",
    "TWO_RAIL_STATES",
]

#: ensemble_scan takes dz <= (2 pi / |dbeta|) / MIN_STEPS_PER_BEAT, then snaps it to whole steps.
MIN_STEPS_PER_BEAT = 16

#: the two-rail inputs two_rail_evolve decoheres.
TWO_RAIL_STATES = ("phi_plus", "product")

_IDENTITY = (1.0, 0.0, 0.0, 0.0)
_IDENTITY_COLUMN = np.array(_IDENTITY)[:, None, None]


@dataclass(frozen=True)
class EvolutionParams:
    """Mode-beat rate, decoherence rates, and propagation length (meters)."""

    delta_beta: float
    rates: RateConstants
    length: float

    def __post_init__(self):
        if not self.length >= 0:
            raise ValueError("length must be nonnegative")
        if not math.isfinite(2.0 * (self.delta_beta + self.rates.kappa) * self.length):
            raise ValueError("phase overflow: 2 (delta_beta + kappa) length is not finite")


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


class _Workspace:
    """One seed pair's buffers for the two realizations of a scan's segments [0, m0), [m0, m1), ...

    steps is the (4, S, W) step block, W the longest segment: row s holds
    segment s's step quaternions, then identity quaternions.  Tree level 0 (the
    block) and every even level live in buffer A, every odd level in buffer B,
    so each level is written over the one two below it.  A level of odd width
    above 1 has a spare column, which its last element pairs with; the other
    levels of its buffer write over it, so _segment_products sets it to the
    identity before it reads the level.  values holds the path cells of the
    block, and scratch the three partial products of a quaternion product: the
    values are done with before the tree needs its scratch, so they share
    storage.  All of it is one allocation: with glibc, separate arrays left the
    FFT scratch of sample_path faulting in fresh pages on every transform.  The
    scan frees it, and the pair's last path, before the next pair's transform,
    whose scratch then takes its pages: a pull loop peaks in the larger of the
    two phases, not in their sum.
    """

    def __init__(self, marks: list[int]):
        self.bounds = list(zip([0] + marks[:-1], marks))
        segments, width = len(marks), max(end - start for start, end in self.bounds)
        self.positive = np.empty((segments, width), dtype=bool)
        self.widths = [width]
        while self.widths[-1] > 1:
            self.widths.append((self.widths[-1] + 1) // 2)
        padded = [w + w % 2 if w > 1 else w for w in self.widths]
        half = segments * ((width + 1) // 2)
        sizes = [max(segments * width, 3 * half)] + [4 * segments * p for p in padded[:2]]
        region, *buffers = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])  # one allocation
        self.values = region[:segments * width].reshape(segments, width)
        self.scratch = region[:3 * half].reshape(3, half)
        self.levels = [buffers[k % 2][:4 * segments * p].reshape(4, segments, p)
                       for k, p in enumerate(padded)]
        self.steps = self.levels[0][:, :, :width]


def _step_quaternions(work: _Workspace, dz: float, delta_beta: float,
                      k_ab: complex) -> np.ndarray:
    """Per-step SU(2) components (w, x, y, z) of exp(-i H dz) of work.values, into work.steps.

    The traceless part of H is Re(c) sx - Im(c) sy - (dbeta/2) sz with
    c = k_ab f; the global phase exp(-i dbeta dz / 2) is dropped because the
    state is conjugated by U and never sees it.
    """
    half = delta_beta / 2.0
    q = work.steps
    values = radius = work.values  # radius overwrites the values once c_re and c_im hold them
    c_re, c_im, theta = q[1], q[2], q[3]  # each is scaled into its own component in place
    np.multiply(values, k_ab.real, out=c_re)
    np.multiply(values, k_ab.imag, out=c_im)
    # radius = sqrt(half * half + c_re * c_re + c_im * c_im)
    np.add(half * half, np.multiply(c_re, c_re, out=radius), out=radius)
    np.add(radius, np.multiply(c_im, c_im, out=theta), out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(radius, dz, out=theta)
    np.cos(theta, out=q[0])
    # scale = sin(theta)/radius, continuous at radius -> 0
    positive = np.greater(radius, 0.0, out=work.positive)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.sin(theta, out=theta)
        np.divide(scale, radius, out=scale, where=positive)
    np.copyto(scale, dz, where=np.logical_not(positive, out=positive))
    np.multiply(scale, c_re, out=q[1])
    np.multiply(scale, np.negative(c_im, out=c_im), out=q[2])
    np.multiply(scale, -half, out=q[3])
    return q


def _segment_products(work: _Workspace) -> np.ndarray:
    """Ordered SU(2) products q[:, s, n-1] * ... * q[:, s, 0] of each row s of work.steps.

    All rows are reduced pairwise (a balanced tree), one level at a time.  Rows
    are padded with identity quaternions; pairing a row's odd last element
    with the identity returns it unchanged (1 * a and a + 0 are exact), so
    each row gets the same bits as its own unpadded tree.
    """
    q = work.levels[0]
    for level, width in zip(work.levels[1:], work.widths):
        q[:, :, width:] = _IDENTITY_COLUMN  # the spare column, which the buffer's other levels write
        first, second = q[:, :, 0::2], q[:, :, 1::2]
        out = level[:, :, :first.shape[2]]
        a, b, c = (part[:out[0].size].reshape(out[0].shape) for part in work.scratch)
        w1, w2 = first[0], second[0]
        # w = w2 w1 - ((x2 x1 + y2 y1) + z2 z1)
        np.add(np.multiply(second[1], first[1], out=a), np.multiply(second[2], first[2], out=b), out=a)
        np.add(a, np.multiply(second[3], first[3], out=b), out=a)
        np.subtract(np.multiply(w2, w1, out=b), a, out=out[0])
        # component k of (v, p, r) = (x, y, z), (y, z, x), (z, x, y): (w2 v1 + w1 v2) + (p2 r1 - r2 p1)
        for k, p, r in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            np.add(np.multiply(w2, first[k], out=a), np.multiply(w1, second[k], out=b), out=a)
            np.subtract(np.multiply(second[p], first[r], out=b),
                        np.multiply(second[r], first[p], out=c), out=b)
            np.add(a, b, out=out[k])
        q = level
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


def _conjugations(rho: np.ndarray, path: np.ndarray, dz: float, delta_beta: float,
                  k_ab: complex, work: _Workspace, out: np.ndarray) -> None:
    """rho conjugated by the path unitary up to the end of each segment of work, into out."""
    for row, (start, end) in zip(work.values, work.bounds):
        row[:end - start] = path[start:end]
        row[end - start:] = 0.0  # any finite value: these cells' steps become identities
    q = _step_quaternions(work, dz, delta_beta, k_ab)
    for s, (start, end) in enumerate(work.bounds):
        q[:, s, end - start:] = _IDENTITY_COLUMN[:, 0]
    segments = _segment_products(work)
    cumulative = _IDENTITY
    for idx, segment in enumerate(segments.T.tolist()):
        cumulative = _quaternion_compose(segment, cumulative)
        unitary = _quaternion_to_matrix(cumulative)
        out[idx] = unitary @ rho @ unitary.conj().T


def _compensated_mean(stack: np.ndarray) -> np.ndarray:
    """Mean over axis 0 of a stack of complex arrays, each part's sum correctly rounded."""
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


def ensemble_steps(model: PerturbationModel, delta_beta: float, length_max: float, n_lengths: int,
                   n_realizations: int) -> int:
    """The step count of ensemble_scan: dz resolves D/8 and the beat, then snaps to length_max,
    where it must pass sample_path's checks.  Raises ValueError on the scan's sizes too."""
    if n_lengths < 2 or n_realizations < 1:
        raise ValueError("need n_lengths >= 2 and n_realizations >= 1")
    dz = model.corr_length * MAX_DZ_FRACTION
    if delta_beta != 0.0:
        dz = min(dz, (2.0 * math.pi / abs(delta_beta)) / MIN_STEPS_PER_BEAT)
    steps = length_max / dz
    if not math.isfinite(steps):
        raise ValueError(f"length_max={length_max:g} m is not a finite number of {dz:g} m steps")
    total = max(n_lengths, int(round(steps)))
    check_sample_grid(model, length_max / total, total)
    return total


def ensemble_scan(rho0: DensityMatrix, model: PerturbationModel, delta_beta: float,
                  length_max: float, n_lengths: int, n_realizations: int,
                  base_seed: int, n_jobs: int = 1) -> DecoherenceScan:
    """Monte Carlo ensemble means at n_lengths checkpoints up to length_max.

    One path per realization covers the full length; checkpoints reuse its
    prefix products, so the scan costs the same as a single full-length run.
    """
    if rho0.rails != 1:
        raise ValueError("ensemble_scan expects a single-rail 2x2 state")
    total = ensemble_steps(model, delta_beta, length_max, n_lengths, n_realizations)
    dz = length_max / total
    marks = sorted({max(1, int(round(total * (j + 1) / n_lengths))) for j in range(n_lengths)})
    lengths = np.array([m * dz for m in marks])
    rate_consts = rates(model, delta_beta)
    k_ab = complex(model.k_ab)
    stack = np.empty((n_realizations, len(marks), 2, 2), dtype=np.complex128)
    pairs = (list(group) for _, group in
             groupby(range(n_realizations), key=lambda i: pair_seed(base_seed + i)))
    lock = threading.Lock()  # a generator may not be advanced from two threads at once
    errors: list[BaseException] = []

    def pull() -> None:  # takes seed pairs until none is left; a pair runs in order on one thread
        try:
            while True:
                with lock:
                    pair = next(pairs, None)
                if pair is None:
                    return
                work = None  # the last pair's, freed before this pair's transform takes its pages
                for i in pair:
                    values = sample_path(model, dz, marks[-1], base_seed + i)
                    if work is None:  # built after the pair's transform, shared by its two paths
                        work = _Workspace(marks)
                    _conjugations(rho0.matrix, values, dz, delta_beta, k_ab, work, stack[i])
                    del values  # freed before the next path, or the next pair's transform
        except BaseException as exc:  # Ctrl-C too: it reaches the calling thread's loop
            errors.append(exc)
        finally:  # a loop that stops leaves the others no pair to take
            with lock:
                pairs.close()

    loops = [threading.Thread(target=pull) for _ in range(n_jobs - 1)]
    for loop in loops:
        loop.start()
    pull()  # the calling thread's own loop, which Ctrl-C interrupts
    for loop in loops:
        loop.join()
    if errors:
        raise errors[0]

    mean = _compensated_mean(stack)
    stderr = np.sqrt((np.var(stack.real, axis=0) + np.var(stack.imag, axis=0)) / n_realizations)

    analytic = np.array([_apply_single_rail(rho0.matrix, delta_beta, rate_consts.gamma,
                                            rate_consts.kappa, length) for length in lengths])
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


def two_rail_evolve(state: str, params: EvolutionParams) -> DensityMatrix:
    """Evolve a two-rail input, one of TWO_RAIL_STATES, through matched rails.

    Both rails share the same statistics and length and are statistically
    independent.  Returns the published two-rail matrices verbatim.  For the
    product state they equal the single-rail map applied to each rail; for the
    entangled state they keep the populations frozen, where composing the
    single-rail maps would populate the cross terms |01>, |10> at order
    (1 - exp(-2 gamma L)).
    """
    if state not in TWO_RAIL_STATES:
        raise ValueError(f"state must be one of {TWO_RAIL_STATES}, got {state!r}")
    gamma, kappa, length = params.rates.gamma, params.rates.kappa, params.length
    single = np.exp((1j * (params.delta_beta + kappa) - gamma) * length)
    double = np.exp(2.0 * (1j * (params.delta_beta + kappa) - gamma) * length)
    relax = math.exp(-2.0 * gamma * length)
    if state == "phi_plus":
        out = np.zeros((4, 4), dtype=np.complex128)
        out[0, 0] = out[3, 3] = 0.5
        out[0, 3] = 0.5 * double
        out[3, 0] = 0.5 * np.conj(double)
        return DensityMatrix(out)
    return DensityMatrix(0.25 * np.array(
        [
            [1.0, single, single, double],
            [np.conj(single), 1.0, relax, single],
            [np.conj(single), relax, 1.0, single],
            [np.conj(double), np.conj(single), np.conj(single), 1.0],
        ],
        dtype=np.complex128,
    ))


def export_scan_csv(scan: DecoherenceScan, destination) -> None:
    """Write a decoherence scan as CSV.

    Columns: L_m, re_rho01, im_rho01, purity, analytic_re, analytic_im.
    """
    rows = [(float(length), float(mean[0, 1].real), float(mean[0, 1].imag),
             float(np.trace(mean @ mean).real), float(analytic[0, 1].real),
             float(analytic[0, 1].imag))
            for length, mean, analytic in zip(scan.lengths, scan.mean, scan.analytic)]
    write_csv(destination,
              ("L_m", "re_rho01", "im_rho01", "purity", "analytic_re", "analytic_im"),
              rows)
