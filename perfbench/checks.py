"""Output checks: each workload's physics, plus finiteness of every output.

The checks recompute what they can without modesim: the closed-form rates,
the decohered two-rail states, the CHSH optimum and the grid maximum.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.special import dawsn

from workloads import (
    CHSH_GRID_N, CHSH_STATES, DECOHERE_REALIZATIONS, FIG2_DELTA_N, NX, RASTER_ROWS,
    SNAPSHOT_EVERY,
)

SIGMA, CORR_LENGTH, K_AB, DELTA_BETA = 0.05, 100e-6, 500.0, 2.0e4
CHSH_LENGTH = 2.0


def digests(outs: dict[str, Path]) -> dict[str, str]:
    """SHA-256 of every output file, keyed by subdirectory/file name."""
    return {f"{key}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for key, out in outs.items() for path in sorted(out.iterdir())}


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def finite_problems(outs: dict[str, Path]) -> list[str]:
    """Every number in every CSV, raster and manifest must be finite."""
    problems = []
    for out in outs.values():
        for path in sorted(out.iterdir()):
            if path.suffix == ".csv":
                with path.open(newline="") as handle:
                    for row in list(csv.reader(handle))[1:]:
                        for cell in row:
                            try:
                                value = float(cell)
                            except ValueError:
                                continue
                            if not math.isfinite(value):
                                problems.append(f"{path.name}: non-finite value {cell}")
                                break
            elif path.suffix == ".bin":
                if not np.isfinite(np.frombuffer(path.read_bytes(), "<f8", offset=32)).all():
                    problems.append(f"{path.name}: non-finite intensity")
            elif path.suffix == ".json":
                try:
                    json.loads(path.read_text(), parse_constant=_reject_constant)
                except ValueError as exc:
                    problems.append(f"{path.name}: {exc}")
    return problems


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def _rates() -> tuple[float, float]:
    """Closed-form gamma and kappa: sqrt(pi) s^2 D e^{-x^2} K^2, 2 s^2 D F(x) K^2."""
    x = CORR_LENGTH * DELTA_BETA / 2.0
    scale = SIGMA ** 2 * CORR_LENGTH * K_AB ** 2
    return math.sqrt(math.pi) * scale * math.exp(-x * x), 2.0 * scale * float(dawsn(x))


def _fitted_gamma(scan) -> float:
    """Weighted least-squares slope of -log|rho01| against length (criterion 05)."""
    magnitude = np.abs(scan.mean[:, 0, 1])
    weights = (magnitude / np.maximum(scan.stderr[:, 0, 1], 1e-15 * magnitude)) ** 2
    design = np.column_stack([np.ones_like(scan.lengths), scan.lengths])
    coeffs = np.linalg.solve(design.T @ (design * weights[:, None]),
                             design.T @ (weights * np.log(magnitude)))
    return float(-coeffs[1])


def _check_decohere(outs, captured) -> list[str]:
    scans = captured.get("decoherence.ensemble_scan", [])
    if len(scans) != 1:
        return [f"expected one ensemble scan, saw {len(scans)}"]
    scan = scans[0]
    problems = []
    table = _table(outs["decohere"] / "decohere.csv")
    if table.shape != (20, 6) or abs(table[-1, 0] - 0.8192) > 1e-12:
        return [f"decohere.csv has shape {table.shape}, expected 20 lengths up to 0.8192 m"]
    if scan.n_realizations != DECOHERE_REALIZATIONS:
        problems.append(f"scan used {scan.n_realizations} realizations")
    if not (np.array_equal(table[:, 1], scan.mean[:, 0, 1].real)
            and np.array_equal(table[:, 2], scan.mean[:, 0, 1].imag)):
        problems.append("decohere.csv does not hold the ensemble mean")
    gamma, _ = _rates()
    fitted = _fitted_gamma(scan)
    if abs(fitted - gamma) >= 0.10 * gamma:
        problems.append(f"fitted gamma {fitted:.5e} is not within 10% of {gamma:.5e}")
    mid = len(scan.lengths) // 2
    worst = float((np.abs(scan.mean[mid] - scan.analytic[mid])
                   / np.maximum(scan.stderr[mid], 1e-300)).max())
    if worst >= 3.0:
        problems.append(f"mid-length mean is {worst:.2f} SE from the closed form")
    return problems


def _check_straight(outs, captured) -> list[str]:
    problems = []
    out = outs["bpm"]
    drift = _manifest(out)["derived"]["power_drift"]
    if not abs(drift) < 1e-6:
        problems.append(f"manifest power_drift {drift:g} is not below 1e-6")
    raster = (out / "raster.bin").read_bytes()
    nx, nz, dx, dz = struct.unpack("<qqdd", raster[:32])
    if (nx, nz, len(raster)) != (NX, RASTER_ROWS, 32 + 8 * NX * RASTER_ROWS):
        return problems + [f"raster holds {nz} x {nx} in {len(raster)} bytes"]
    if abs(dx - 96e-6 / (NX - 1)) > 1e-12 * dx or abs(dz - SNAPSHOT_EVERY * 0.5e-6) > 1e-12 * dz:
        problems.append(f"raster header dx={dx!r} dz={dz!r}")
    intensity = np.frombuffer(raster, "<f8", offset=32).reshape(nz, nx)
    power = intensity.sum(axis=1) * dx
    if not abs(power[-1] / power[0] - 1.0) < 1e-6:
        problems.append(f"raster power drifts by {power[-1] / power[0] - 1.0:g}")
    field = _table(out / "field_final.csv")
    if field.shape != (NX, 4) or not np.array_equal(field[:, 3], intensity[-1]):
        problems.append("field_final.csv intensity differs from the last raster row")
    return problems


def _check_splitter(outs, captured) -> list[str]:
    table = _table(outs["fig2"] / "fig2.csv")
    if table.shape != (len(FIG2_DELTA_N), 5) or tuple(table[:, 0]) != FIG2_DELTA_N:
        return [f"fig2.csv rows {table[:, 0].tolist()} differ from {list(FIG2_DELTA_N)}"]
    problems = []
    left, right, theta = table[:, 1], table[:, 2], table[:, 4]
    if ((table[:, 1:3] < 0) | (table[:, 1:3] > 1)).any():
        problems.append("a branch power lies outside [0, 1]")
    if np.abs(left + right - 1.0).max() > 1e-12:
        problems.append("branch powers do not sum to 1")
    if len({round(r, 6) for r in right}) != len(right):
        problems.append("branch ratios are not distinct")
    ordered = np.diff(right[np.argsort(theta, kind="stable")])
    if not ((ordered > 0).all() or (ordered < 0).all()):
        problems.append("right-branch power is not monotone in the controller angle")
    return problems


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])


def _axis(theta: np.ndarray) -> np.ndarray:
    """Analyzer direction (cos 2t, sin 2t): I+ - I- is cos 2t sx + sin 2t sy."""
    return np.stack([np.cos(2 * theta), np.sin(2 * theta)], axis=-1)


def _decohered_state(state: str) -> np.ndarray:
    """The closed-form two-rail state after CHSH_LENGTH on both rails."""
    gamma, kappa = _rates()
    coherence = np.exp((1j * (DELTA_BETA + kappa) - gamma) * CHSH_LENGTH)
    if state == "phi_plus":
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        rho[0, 3] = 0.5 * coherence ** 2
        rho[3, 0] = np.conj(rho[0, 3])
        return rho
    rail = 0.5 * np.array([[1.0, coherence], [np.conj(coherence), 1.0]])
    return np.kron(rail, rail)


def _check_chsh(outs, captured) -> list[str]:
    problems = []
    thetas = np.arange(CHSH_GRID_N) * math.pi / CHSH_GRID_N
    for state in CHSH_STATES:
        out = outs[state]
        row = _table(out / "chsh_scan.csv")
        if row.shape != (1, 5):
            problems.append(f"{state}: chsh_scan.csv has shape {row.shape}")
            continue
        t1, t1p, t2, t2p, value = map(float, row[0])
        if _manifest(out)["derived"]["max_abs_B"] != value:
            problems.append(f"{state}: manifest max_abs_B differs from the CSV")
        rho = _decohered_state(state)
        # E(t1, t2) = a(t1)^T T a(t2), with T the xy block of the correlation tensor
        block = np.array([[np.trace(rho @ np.kron(p, q)).real for q in (_SX, _SY)]
                          for p in (_SX, _SY)])
        exact = 2.0 * math.sqrt(float(np.sum(np.linalg.svd(block, compute_uv=False) ** 2)))
        if value > exact + 1e-12:
            problems.append(f"{state}: grid maximum {value!r} exceeds the optimum {exact!r}")
        if state == "product" and value > 2.0 + 1e-9:
            problems.append(f"product state violates CHSH: {value!r}")
        e = _axis(np.array([t1, t1p])) @ block @ _axis(np.array([t2, t2p])).T
        at_angles = float(abs(e[0, 0] - e[0, 1] + e[1, 1] + e[1, 0]))
        corr = _axis(thetas) @ block @ _axis(thetas).T
        # B[i,j,k,l] = S[i,j,k] - D[i,j,l]: the n^4 maximum from two n^3 tables
        s = corr[:, None, :] + corr[None, :, :]
        d = corr[:, None, :] - corr[None, :, :]
        grid_max = float(max((s.max(axis=2) - d.min(axis=2)).max(),
                             (d.max(axis=2) - s.min(axis=2)).max()))
        if abs(value - at_angles) > 1e-12 or abs(value - grid_max) > 1e-12:
            problems.append(f"{state}: B={value!r}, but {at_angles!r} at its angles and "
                            f"{grid_max!r} over the grid")
    return problems


CHECKS = {
    "decohere_long": _check_decohere,
    "bpm_splitter": _check_splitter,
    "bpm_straight": _check_straight,
    "chsh_grid": _check_chsh,
}
