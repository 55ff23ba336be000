"""Random-waveguide perturbation statistics.

A deformed waveguide couples its guided modes through a coupling coefficient
proportional to a stationary zero-mean Gaussian process f(z) with
autocovariance

    <f(z) f(z - u)> = sigma^2 exp(-(u / D)^2)

where D is the correlation length.  This module samples realizations of
f(z) by circulant embedding (exact target covariance on the grid) and
evaluates the closed-form decoherence rates

    gamma = sqrt(pi) sigma^2 D exp(-(D dbeta / 2)^2) |K|^2
    kappa = 2 sigma^2 D F(D dbeta / 2) |K|^2

with F the Dawson function, valid in the weak-coupling regime where the
mode-beat rate dbeta dominates both rates.  F is summed in 40-digit decimal
arithmetic and correctly rounded to float64.

Reproducibility: seeds s and s ^ 1 share one draw of numpy's PCG64
generator default_rng(pair_seed(s)), pair_seed(s) = s & ~1.  The even
seed's path is the real part of its transform (the path earlier versions
drew from default_rng(s)), the odd seed's the independent imaginary part
(Dietrich & Newsam, SIAM J. Sci. Comput. 18, 1088, 1997).
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from ._errors import NumericalError, check_finite

__all__ = [
    "PerturbationModel",
    "RateConstants",
    "check_sample_grid",
    "pair_seed",
    "sample_path",
    "rates",
]

#: dz must resolve the correlation length at least this finely.
MAX_DZ_FRACTION = 1.0 / 8.0
#: the sampled window must decorrelate: count * dz >= this many D.
MIN_WINDOW_CORRELATION_LENGTHS = 20.0
#: validity margin for the closed-form rates: |dbeta| >= 100 max(gamma, |kappa|).
REGIME_MARGIN = 100.0


@dataclass(frozen=True)
class PerturbationModel:
    """Statistics of the waveguide deformation and its coupling strength.

    sigma is the RMS amplitude of f(z), corr_length the Gaussian correlation
    length D in meters, and k_ab the z-independent coupling strength (1/m per
    unit f).  k_ab may be complex; the closed-form rates use only |k_ab|^2.
    """

    sigma: float
    corr_length: float
    k_ab: complex

    def __post_init__(self):
        if not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")
        if not self.corr_length > 0:
            raise ValueError("corr_length must be positive")
        check_finite(self, "sigma", "corr_length", "k_ab")


@dataclass(frozen=True)
class RateConstants:
    """Decoherence rate gamma and coherent rate shift kappa, both 1/m.

    regime_ok records whether the closed forms are trustworthy, i.e. whether
    the mode beat dominates: |dbeta| >= 100 max(gamma, |kappa|).
    """

    gamma: float
    kappa: float
    regime_ok: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.kappa)):
            raise ValueError(f"rates must be finite, got gamma={self.gamma!r}, kappa={self.kappa!r}")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


@functools.lru_cache(maxsize=8)
def _embedding_scale(sigma: float, corr_length: float, dz: float, count: int) -> np.ndarray:
    """sqrt(eigenvalues / size) of the circulant embedding of count samples, size the least
    power of 2 >= 2 (count - 1).  On every grid that check_sample_grid accepts (dz <= D/8,
    window >= 20 D) it is positive semidefinite to rounding, so no larger one is tried."""
    # cached: an ensemble draws thousands of paths from one embedding
    size = 1 << max(1, int(math.ceil(math.log2(2 * (count - 1)))))
    lag = np.minimum(np.arange(size), np.arange(size, 0, -1)) * dz  # min(j, size - j) dz
    first_row = np.zeros(size, dtype=np.complex128)  # the complex input fft casts a real row to
    first_row.real = sigma * sigma * np.exp(-((lag / corr_length) ** 2))
    del lag  # freed before the transform's own scratch is taken
    eig = np.fft.fft(first_row, out=first_row).real
    if not eig.min() >= -1e-12 * eig.max():
        raise NumericalError("circulant embedding not positive semidefinite")
    scale = np.sqrt(np.clip(eig, 0.0, None) / size)
    scale.setflags(write=False)
    return scale


#: one-entry memo per thread: the key and the transform of the last seed pair
_last_pair = threading.local()
#: held around _embedding_scale, so that concurrent loops that miss its cache build it once
_embedding_lock = threading.Lock()


def pair_seed(seed: int) -> int:
    """Seed of the draw that seed shares with seed ^ 1."""
    return seed & ~1


def _pair_transform(scale: np.ndarray, count: int, seed: int) -> np.ndarray:
    """First count entries of the FFT of scale-weighted complex normals from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    spectrum = np.empty(scale.shape[0], dtype=np.complex128)
    draws = np.empty(scale.shape[0])  # one row at a time: the stream of standard_normal((2, n))
    for part in (spectrum.real, spectrum.imag):
        np.multiply(scale, rng.standard_normal(out=draws), out=part)
    del draws  # freed before the transform's own scratch is taken
    return np.fft.fft(spectrum, out=spectrum)[:count].copy()


def check_sample_grid(model: PerturbationModel, dz: float, count: int) -> None:
    """Raise ValueError unless count samples dz apart resolve D and span a window of 20 D."""
    if not 0 < dz < math.inf or count < 2:  # a NaN dz would pass every check below
        raise ValueError(f"need finite dz > 0 and count >= 2, got dz={dz!r}, count={count!r}")
    if dz > model.corr_length * MAX_DZ_FRACTION * (1 + 1e-12):
        raise ValueError(
            f"dz={dz:g} does not resolve the correlation length; need dz <= D/8 = "
            f"{model.corr_length * MAX_DZ_FRACTION:g}"
        )
    if count * dz < MIN_WINDOW_CORRELATION_LENGTHS * model.corr_length * (1 - 1e-12):
        raise ValueError(
            f"window count*dz={count * dz:g} too short; need >= 20 D = "
            f"{MIN_WINDOW_CORRELATION_LENGTHS * model.corr_length:g}"
        )


def sample_path(model: PerturbationModel, dz: float, count: int, seed: int) -> np.ndarray:
    """One realization of f(z) with the Gaussian autocovariance, at z_i = i * dz for i < count.

    Uses circulant embedding: the covariance is embedded in a circulant
    matrix whose FFT gives its eigenvalues, and one FFT of scaled complex
    white noise returns two independent Gaussian vectors, its real and
    imaginary parts, each with exactly the target covariance on the grid;
    the even seed of a pair takes the real part.  Each thread keeps its last
    pair's transform.  Deterministic for fixed (model, dz, count, seed).
    Returns a read-only contiguous float64 array of its own.
    """
    check_sample_grid(model, dz, count)
    if model.sigma == 0.0:
        values = np.zeros(count)
    else:
        pair = pair_seed(seed)
        key = (model.sigma, model.corr_length, dz, count, pair)
        if getattr(_last_pair, "key", None) != key:
            _last_pair.key = _last_pair.transform = None  # freed before the next pair is drawn
            with _embedding_lock:
                scale = _embedding_scale(model.sigma, model.corr_length, dz, count)
            _last_pair.transform = _pair_transform(scale, count, pair)
            _last_pair.key = key
        transform = _last_pair.transform
        values = np.array(transform.imag if seed & 1 else transform.real)  # a copy of its own
    values.setflags(write=False)
    return values


#: digits of _dawson's sums: float64 needs 17, the rest absorbs the rounding of up to 330 terms
_DAWSON_DIGITS = 40
#: from here on the asymptotic series is used; its smallest term, ~exp(-x^2), is below 1e-62
_DAWSON_ASYMPTOTIC_X = 12.0


def _dawson(x: float) -> float:
    """Dawson's integral F(x) = exp(-x^2) int_0^x exp(t^2) dt, correctly rounded to float64.

    Below |x| = 12: exp(-x^2) sum_n x^(2n+1) / (n! (2n+1)), all terms positive;
    above: the asymptotic series (1/2x) sum_k (2k-1)!! / (2x^2)^k.  F is odd and
    F(+-inf) = +-0.
    """
    if math.isinf(x):
        return math.copysign(0.0, x)
    if x == 0.0 or math.isnan(x):  # a zero keeps its sign
        return x
    return math.copysign(_dawson_positive(abs(x)), x)


@functools.lru_cache(maxsize=64)
def _dawson_positive(x: float) -> float:
    # cached by x > 0 (a cache would not tell -0.0 from 0.0): one sum costs up to about 0.4 ms
    import decimal  # deferred: runs that compute no rate skip its 0.3 MB of resident memory
    with decimal.localcontext(decimal.Context(prec=_DAWSON_DIGITS)):
        d = decimal.Decimal(x)  # exact
        xx = d * d
        if x < _DAWSON_ASYMPTOTIC_X:
            power = total = d  # the n = 0 term
            n = 0
            while True:  # the terms fall past n ~ x^2 < 144; converged within 330
                n += 1
                power = power * xx / n  # x^(2n+1) / n!
                grown = total + power / (2 * n + 1)
                if grown == total:
                    return float((-xx).exp() * total)
                total = grown
        term = total = 1 / (2 * d)
        k = 0
        while True:  # the terms fall below 1e-40 of the sum within 41
            k += 1
            term = term * (2 * k - 1) / (2 * xx)
            grown = total + term
            if grown == total:
                return float(total)
            total = grown


def rates(model: PerturbationModel, delta_beta: float) -> RateConstants:
    """Closed-form decoherence rates for a given mode-beat rate delta_beta.

    kappa is evaluated through the Dawson function F: the imaginary-argument
    error function in the textbook expression reduces to
    kappa = 2 sigma^2 D F(D dbeta / 2) |K|^2 exactly.  gamma is even and
    monotonically decreasing in |dbeta|; kappa is odd.
    """
    x = model.corr_length * delta_beta / 2.0
    try:
        coupling_sq = abs(model.k_ab) ** 2
        gamma = math.sqrt(math.pi) * model.sigma ** 2 * model.corr_length * math.exp(-x * x) * coupling_sq
        kappa = 2.0 * model.sigma ** 2 * model.corr_length * _dawson(x) * coupling_sq
    except OverflowError as exc:  # sigma^2 or |k_ab|^2 beyond float range
        raise ValueError(f"rates must be finite, but gamma and kappa overflow at sigma="
                         f"{model.sigma!r}, k_ab={model.k_ab!r}") from exc
    strongest = max(gamma, abs(kappa))
    regime_ok = strongest == 0.0 or abs(delta_beta) >= REGIME_MARGIN * strongest
    return RateConstants(gamma=gamma, kappa=kappa, regime_ok=regime_ok)
