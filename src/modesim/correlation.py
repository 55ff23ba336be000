"""Two-rail correlation measurements: Bell correlation, CHSH, group delays.

The normalized correlation of the two analyzers is

    E(theta1, theta2) = <(I1+ - I1-)(I2+ - I2-)> / <(I1+ + I1-)(I2+ + I2-)>

whose denominator is Tr rho at every setting (I+ + I- = 1): one division, no
check (DensityMatrix holds Tr rho to 1e-12).  One einsum contracts the state
with D = I+ - I- of every setting pair; E, CHSH and the Bell surface read it.

CHSH, |E(t1,t2) - E(t1,t2') + E(t1',t2') + E(t1',t2)|, reaches 2 sqrt(2) for
the maximally entangled state and stays <= 2 for the product state.  On a
grid, with s = E[i] + E[j] and d = E[i] - E[j], B[i,j,k,l] = s[k] - d[l], so
max |B| over (k, l) is max(max s - min d, max d - min s) bit for bit (rounding
is monotone): O(n^3) time and O(n^2) memory.  D(theta) = cos 2theta X +
sin 2theta Y sweeps the Bloch xy plane, so the exact optimum is the planar
Horodecki bound 2 ||T||_F, T the xy correlation block (PLA 200, 340 (1995)).

Group delays diag(tau0, tau1): their covariance tells entangled from product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .analyzer import intensity_split_operator
from .states import DensityMatrix, partial_trace

__all__ = [
    "ChshAngles",
    "DelayPair",
    "rail_embed",
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
    """Group delays of TE0 and TE1 over the measured length, in seconds."""

    tau0: float
    tau1: float


def rail_embed(op: np.ndarray, rail: str) -> np.ndarray:
    """Embed a single-rail operator into the two-rail space.

    rail "c" gives op (x) I (control is the left tensor factor), rail "t"
    gives I (x) op.
    """
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    if rail == "c":
        return np.kron(op, np.eye(2, dtype=np.complex128))
    if rail == "t":
        return np.kron(np.eye(2, dtype=np.complex128), op)
    raise ValueError(f"rail must be 'c' or 't', got {rail!r}")


def _correlation_table(rho4: DensityMatrix, thetas1, thetas2) -> np.ndarray:
    """E[i, k] = Tr rho (D(thetas1[i]) (x) D(thetas2[k])) / Tr rho for every setting pair."""
    if rho4.rails != 2:
        raise ValueError("correlations need a two-rail 4x4 state")
    diff1 = np.stack([intensity_split_operator(float(t)) for t in thetas1])
    diff2 = np.stack([intensity_split_operator(float(t)) for t in thetas2])
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
    table = _correlation_table(rho4, thetas, thetas)
    best, best_ij = -1.0, (0, 0)
    for i in range(grid_n):
        s, d = table[i] + table, table[i] - table  # s[j, k], d[j, l]
        row = np.maximum(s.max(axis=1) - d.min(axis=1), d.max(axis=1) - s.min(axis=1))
        j = int(np.argmax(row))
        if row[j] > best:
            best, best_ij = float(row[j]), (i, j)
    i, j = best_ij
    s, d = table[i] + table[j], table[i] - table[j]
    k, l = np.unravel_index(int(np.argmax(np.abs(s[:, None] - d[None, :]))), (grid_n, grid_n))
    return best, ChshAngles(float(thetas[i]), float(thetas[j]), float(thetas[k]), float(thetas[l]))


def chsh_optimum(rho4: DensityMatrix) -> float:
    """Exact CHSH optimum 2 ||T||_F; T is the table at {0, pi/4}, where D is sigma_x, sigma_y."""
    xy = [0.0, math.pi / 4]
    return 2.0 * float(np.linalg.norm(_correlation_table(rho4, xy, xy)))


def delay_covariance(rho4: DensityMatrix, delays: DelayPair) -> float:
    """Covariance <tau_c tau_t> - <tau_c><tau_t> of the two rails' delays.

    The single-rail delay operator is diag(tau0, tau1); the means are taken
    from the partial traces of the state.
    """
    if rho4.rails != 2:
        raise ValueError("delay_covariance expects a two-rail 4x4 state")
    tau_op = np.diag([delays.tau0, delays.tau1]).astype(np.complex128)
    joint = rail_embed(tau_op, "c") @ rail_embed(tau_op, "t")
    mean_joint = float(np.trace(rho4.matrix @ joint).real)
    mean_c = float(np.trace(partial_trace(rho4, "c").matrix @ tau_op).real)
    mean_t = float(np.trace(partial_trace(rho4, "t").matrix @ tau_op).real)
    return mean_joint - mean_c * mean_t


def export_bell_csv(rho4: DensityMatrix, thetas1, thetas2, destination) -> None:
    """Write a correlation surface as CSV with columns (theta1, theta2, E)."""
    table = _correlation_table(rho4, thetas1, thetas2).tolist()
    rows = [(float(t1), float(t2), value)
            for t1, values in zip(thetas1, table) for t2, value in zip(thetas2, values)]
    write_csv(destination, ("theta1", "theta2", "E"), rows)


def export_chsh_csv(entries, destination) -> None:
    """Write CHSH rows (theta1, theta1p, theta2, theta2p, B) as CSV."""
    rows = [
        (angles.theta1, angles.theta1p, angles.theta2, angles.theta2p, float(value))
        for value, angles in entries
    ]
    write_csv(destination, ("theta1", "theta1p", "theta2", "theta2p", "B"), rows)
