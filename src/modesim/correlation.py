"""Two-rail correlation measurements: Bell correlation, CHSH, group delays.

The normalized correlation of the two analyzers is

    E(theta1, theta2) = <(I1+ - I1-)(I2+ - I2-)> / <(I1+ + I1-)(I2+ + I2-)>

whose denominator is Tr rho at every setting (I+ + I- = 1): one division, no
check (DensityMatrix holds Tr rho to 1e-12).  One einsum contracts the state
with a stack of D = I+ - I- per axis; E, CHSH and the Bell surface read it.

CHSH, |E(t1,t2) - E(t1,t2') + E(t1',t2') + E(t1',t2)|, reaches 2 sqrt(2) for
the maximally entangled state and stays <= 2 for the product state.  On a
grid, with s = E[i] + E[j] and d = E[i] - E[j], B[i,j,k,l] = s[k] - d[l], so
max |B| over (k, l) is max(max s - min d, max d - min s) bit for bit (rounding
is monotone).  chsh_scan reduces s and d over k for fixed-size blocks of i,
with no loop over i: O(n^3) time and O(n^2) memory.  D(theta) = cos 2theta X +
sin 2theta Y sweeps the Bloch xy plane, so the exact optimum is the planar
Horodecki bound 2 ||T||_F, T the xy correlation block (PLA 200, 340 (1995)).

Group delays diag(tau0, tau1): their covariance, Delta^2 (p11 - p_c(1) p_t(1)) on
rho's diagonal p with Delta = tau1 - tau0 exact, tells entangled from product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .analyzer import intensity_split_operator
from .states import DensityMatrix

__all__ = [
    "ChshAngles",
    "DelayPair",
    "correlation_E",
    "chsh_B",
    "chsh_scan",
    "chsh_optimum",
    "delay_covariance",
    "export_bell_csv",
    "export_chsh_csv",
]


@dataclass(frozen=True)
class ChshAngles:
    """The four analyzer settings (theta1, theta1p, theta2, theta2p)."""

    theta1: float
    theta1p: float
    theta2: float
    theta2p: float


@dataclass(frozen=True)
class DelayPair:
    """Group delays of TE0 and TE1 over the measured length, in seconds (floats or arrays)."""

    tau0: float
    tau1: float

    def __post_init__(self):
        if not np.all(np.abs(np.subtract(self.tau1, self.tau0)) < 1e154):  # NaN fails too
            raise ValueError("need |tau1 - tau0| < 1e154 s, so that delay_covariance's square is finite")


def _correlation_table(rho4: DensityMatrix, thetas1, thetas2) -> np.ndarray:
    """E[i, k] = Tr rho (D(thetas1[i]) (x) D(thetas2[k])) / Tr rho for every setting pair."""
    if rho4.rails != 2:
        raise ValueError("correlations need a two-rail 4x4 state")
    diff1, diff2 = intensity_split_operator(thetas1), intensity_split_operator(thetas2)
    # rho[(a,b),(c,d)] against (D1 (x) D2)[(c,d),(a,b)] = D1[c,a] D2[d,b]
    table = np.einsum("abcd,ica,kdb->ik", rho4.matrix.reshape(2, 2, 2, 2), diff1, diff2).real
    return table / np.trace(rho4.matrix).real


def correlation_E(rho4: DensityMatrix, theta1: float, theta2: float) -> float:
    """Normalized two-analyzer correlation of a two-rail state."""
    return float(_correlation_table(rho4, [theta1], [theta2])[0, 0])


def chsh_B(rho4: DensityMatrix, angles: ChshAngles) -> float:
    """|B| of the four-setting CHSH combination for the given state."""
    (e11, e12), (e21, e22) = _correlation_table(
        rho4, [angles.theta1, angles.theta1p], [angles.theta2, angles.theta2p])
    return abs(float(e11 - e12 + e22 + e21))


def chsh_scan(rho4: DensityMatrix, grid_n: int) -> tuple[float, ChshAngles]:
    """Exhaustive maximum of |B| over a uniform 4D grid of angles in [0, pi).

    Returns the maximum and its angles; ties go to the lexicographically
    smallest (theta1, theta1p, theta2, theta2p) index, however the scan runs.
    """
    if grid_n < 8:
        raise ValueError("grid_n must be at least 8")
    thetas = np.arange(grid_n) * math.pi / grid_n
    cols = _correlation_table(rho4, thetas, thetas).T.copy()  # cols[k, i] = E[i, k]
    row = np.empty((grid_n, grid_n))  # row[i, j] = max |B| over (k, l)
    step = max(1, 2 ** 17 // grid_n ** 2)  # i rows per block of 2^17 floats (1 MB), at least one
    for lo in range(0, grid_n, step):
        block = cols[:, lo:lo + step, None]
        cube = block + cols[:, None, :]  # s[k, i, j]
        s_max, s_min = cube.max(axis=0), cube.min(axis=0)
        d = np.subtract(block, cols[:, None, :], out=cube)  # d[l, i, j], in s's memory
        row[lo:lo + step] = np.maximum(s_max - d.min(axis=0), d.max(axis=0) - s_min)
    i, j = divmod(int(np.argmax(row)), grid_n)
    s, d = cols[:, i] + cols[:, j], cols[:, i] - cols[:, j]
    k, l = np.unravel_index(int(np.argmax(np.abs(s[:, None] - d[None, :]))), (grid_n, grid_n))
    return float(row[i, j]), ChshAngles(float(thetas[i]), float(thetas[j]),
                                        float(thetas[k]), float(thetas[l]))


def chsh_optimum(rho4: DensityMatrix) -> float:
    """Exact CHSH optimum 2 ||T||_F; T is the table at {0, pi/4}, where D is sigma_x, sigma_y."""
    xy = [0.0, math.pi / 4]
    return 2.0 * float(np.linalg.norm(_correlation_table(rho4, xy, xy)))


def delay_covariance(rho4: DensityMatrix, delays: DelayPair):
    """Covariance of the two rails' delays diag(tau0, tau1): Delta^2 (p11 - p_c(1) p_t(1)).

    p is rho's diagonal over |ct>, p_c(1) = p10 + p11 and p_t(1) = p01 + p11; the
    delays are diagonal, and a covariance ignores their common shift tau0.  Delta =
    tau1 - tau0 is exact for tau1 / tau0 in [1/2, 2] (Sterbenz's lemma; a slab's two
    modes give about 1.0006), so phi_plus gives Delta^2 / 4 with one rounding and the
    product state exactly 0.  Array delays give one covariance per entry.
    """
    if rho4.rails != 2:
        raise ValueError("delay_covariance expects a two-rail 4x4 state")
    p = np.diag(rho4.matrix).real.tolist()
    delta = delays.tau1 - delays.tau0
    return delta * delta * (p[3] - (p[2] + p[3]) * (p[1] + p[3]))


def export_bell_csv(rho4: DensityMatrix, thetas1, thetas2, destination) -> None:
    """Write a correlation surface as CSV with columns (theta1, theta2, E)."""
    table = _correlation_table(rho4, thetas1, thetas2).tolist()
    rows = [(float(t1), float(t2), value)
            for t1, values in zip(thetas1, table) for t2, value in zip(thetas2, values)]
    write_csv(destination, ("theta1", "theta2", "E"), rows)


def export_chsh_csv(value: float, angles: ChshAngles, destination) -> None:
    """Write one CHSH row (theta1, theta1p, theta2, theta2p, B) as CSV."""
    write_csv(destination, ("theta1", "theta1p", "theta2", "theta2p", "B"),
              [(angles.theta1, angles.theta1p, angles.theta2, angles.theta2p, float(value))])
