"""Two-rail correlation measurements: Bell correlation, CHSH, group delays.

The normalized correlation of the two analyzers is

    E(theta1, theta2) = <(I1+ - I1-)(I2+ - I2-)> / <(I1+ + I1-)(I2+ + I2-)>

whose denominator is Tr rho at every setting (I+ + I- = 1): one division, no
check (DensityMatrix holds Tr rho to 1e-12).  One einsum contracts the state
with one stack of D = I+ - I- on both axes; E, CHSH and the Bell surface read it.

CHSH, |E(t1,t2) - E(t1,t2') + E(t1',t2') + E(t1',t2)|, reaches 2 sqrt(2) for
the maximally entangled state and stays <= 2 for the product state.  On a
grid, with s = E[i] + E[j] and d = E[i] - E[j], B[i,j,k,l] = s[k] - d[l], so
max |B| over (k, l) is max(max s - min d, max d - min s) bit for bit (rounding
is monotone), first reached at the first k where max(s[k] - min d, max d - s[k])
equals it, then at the first l where |s[k] - d[l]| does.  D(theta) =
cos 2theta X + sin 2theta Y sweeps the Bloch xy plane, so E[i, k] = u_i^T T v_k,
u and v = (cos 2theta, sin 2theta) and T the xy correlation block, and the exact
optimum is the planar Horodecki bound 2 ||T||_F (PLA 200, 340 (1995)).
chsh_scan takes O(n^2) time and memory: over k, s is a sinusoid whose phase is
the angle of T^T (u_i + u_j) = 2 cos(theta_i - theta_j) T^T e(theta_i + theta_j),
a function of i + j (d likewise, a quarter turn on), so the grid points
bracketing the phase and its opposite hold the computed s's max and min bit for
bit while its amplitude exceeds 1e-14 n^2 ||T|| (README).  Pairs with
u_j = -u_i, and sums whose |T^T e| is under 5e-15 n^3 of the largest, take
their whole rows; i = j needs neither, its d is exactly 0, nor a table of zeros.

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


def _correlation_table(rho4: DensityMatrix, thetas) -> np.ndarray:
    """E[i, k] = Tr rho (D(thetas[i]) (x) D(thetas[k])) / Tr rho for every setting pair."""
    if rho4.rails != 2:
        raise ValueError("correlations need a two-rail 4x4 state")
    diff = intensity_split_operator(thetas)
    # rho[(a,b),(c,d)] against (D_i (x) D_k)[(c,d),(a,b)] = D_i[c,a] D_k[d,b]
    table = np.einsum("abcd,ica,kdb->ik", rho4.matrix.reshape(2, 2, 2, 2), diff, diff).real
    return table / np.trace(rho4.matrix).real


def correlation_E(rho4: DensityMatrix, theta1: float, theta2: float) -> float:
    """Normalized two-analyzer correlation of a two-rail state."""
    return float(_correlation_table(rho4, [theta1, theta2])[0, 1])


def chsh_B(rho4: DensityMatrix, angles: ChshAngles) -> float:
    """|B| of the four-setting CHSH combination for the given state."""
    (e11, e12), (e21, e22) = _correlation_table(
        rho4, [angles.theta1, angles.theta1p, angles.theta2, angles.theta2p])[:2, 2:]
    return abs(float(e11 - e12 + e22 + e21))


def _scan_rows(table: np.ndarray) -> np.ndarray:
    """row[i, j] = max |B| over (k, l) of the grid's table E[i, k], bit for bit, in O(n^2)."""
    n = len(table)
    z = np.exp(1j * math.pi / n * np.arange(2 * n))  # e(theta_i + theta_j) at m = i + j; z[::2] is u
    w = table @ z[::2].real + 1j * (table @ z[::2].imag)  # (n / 2) T^T u_i, as complex numbers
    az, bz = (z[::2].conj() @ w) * z, (z[::2] @ w) * z.conj()
    g = np.stack([az + bz, 1j * (az - bz)])  # T^T e(.) at each m: the direction of s, then of d
    first = np.floor(np.angle(g)[:, None] * (n / (2 * math.pi)) + [[0.0], [n / 2]])  # below phi, phi + pi
    picks = (first[:, :, None] + [[0.0], [1.0]]).astype(np.intp).reshape(8, 2 * n) % n
    flat, j = table.ravel(), np.arange(n)
    row = np.empty((n, n))
    step = max(1, 2 ** 11 // n)  # theta1 rows per block of 8 candidates a pair: 2^14 floats, 128 KB
    for lo in range(0, n, step):
        i = np.arange(lo, min(lo + step, n))[:, None]
        cols = np.take(picks, i + j, axis=1)  # cols[q, i, j]: the candidates of sum i + j
        ei, ej = np.take(flat, cols + n * i), np.take(flat, cols + n * j)  # E[i, .], E[j, .]
        s, d = ei[:4] + ej[:4], ei[4:] - ej[4:]
        row[lo:lo + step] = np.maximum(s.max(0) - d.min(0), d.max(0) - s.min(0))
    amp = np.abs(g)  # whole rows: j = i + n/2 (u_j = -u_i), and the pairs of near-zero sums
    near = (amp <= 5e-15 * n ** 3 * amp.max()).any(axis=0) & table.any()  # a zero table needs none
    fi, fj = np.nonzero(near[j[:, None] + j] | (j == (j[:, None] + n // 2) % n))
    step = max(1, 2 ** 16 // n)  # pairs per 2^16 floats of whole rows
    for lo in range(0, len(fi), step):
        i, j = fi[lo:lo + step], fj[lo:lo + step]
        s, d = table[i] + table[j], table[i] - table[j]
        row[i, j] = np.maximum(s.max(1) - d.min(1), d.max(1) - s.min(1))
    return row


def chsh_scan(rho4: DensityMatrix, grid_n: int) -> tuple[float, ChshAngles]:
    """Exhaustive maximum of |B| over a uniform 4D grid of angles in [0, pi).

    Returns the maximum and its angles; ties go to the lexicographically
    smallest (theta1, theta1p, theta2, theta2p) index, however the scan runs.
    """
    if grid_n < 8:
        raise ValueError("grid_n must be at least 8")
    thetas = np.arange(grid_n) * math.pi / grid_n
    table = _correlation_table(rho4, thetas)
    row = _scan_rows(table)
    i, j = divmod(int(np.argmax(row)), grid_n)
    s, d = table[i] + table[j], table[i] - table[j]
    k = int(np.argmax(np.maximum(s - d.min(), d.max() - s) == row[i, j]))  # first k, then first l
    l = int(np.argmax(np.abs(s[k] - d) == row[i, j]))
    return float(row[i, j]), ChshAngles(float(thetas[i]), float(thetas[j]),
                                        float(thetas[k]), float(thetas[l]))


def chsh_optimum(rho4: DensityMatrix) -> float:
    """Exact CHSH optimum 2 ||T||_F; T is the table at {0, pi/4}, where D is sigma_x, sigma_y."""
    return 2.0 * float(np.linalg.norm(_correlation_table(rho4, [0.0, math.pi / 4])))


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


def export_bell_csv(rho4: DensityMatrix, thetas, destination) -> None:
    """Write a correlation surface as CSV (theta1, theta2, E), one theta1 row at a time."""
    table, angles = _correlation_table(rho4, thetas), [float(t) for t in thetas]
    rows = ((t1, t2, e) for t1, es in zip(angles, table) for t2, e in zip(angles, es.tolist()))
    write_csv(destination, ("theta1", "theta2", "E"), rows)


def export_chsh_csv(value: float, angles: ChshAngles, destination) -> None:
    """Write one CHSH row (theta1, theta1p, theta2, theta2p, B) as CSV."""
    write_csv(destination, ("theta1", "theta1p", "theta2", "theta2p", "B"),
              [(angles.theta1, angles.theta1p, angles.theta2, angles.theta2p, float(value))])
