"""Two-mode state algebra: pure states and density matrices.

The two guided modes TE0 and TE1 of a dual-mode waveguide form a two-level
basis.  Two waveguides (a control and a target rail) give the 4-dimensional
basis {|00>, |01>, |10>, |11>} with the control rail as the left Kronecker
factor, so |01> means TE0 in the control rail and TE1 in the target rail.

Operators are plain complex ndarrays of matching dimension; states and
density matrices are immutable dataclasses validated at construction.
Global phase of a pure state is not canonicalized; observables never
depend on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PureState",
    "DensityMatrix",
    "superpose",
    "density_of",
    "bell_state",
    "product_state",
    "expectation",
    "purity",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PURITY_CEILING = 1.0 + 1e-12
NORMALIZATION_TOL = 1e-12


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized coefficient vector over the mode basis (1 or 2 rails)."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=np.complex128)
        if coeffs.shape not in ((2,), (4,)):
            raise ValueError(f"state must have 2 or 4 components, got shape {coeffs.shape}")
        norm_sq = float(np.vdot(coeffs, coeffs).real)
        if not abs(norm_sq - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"state not normalized: sum |c|^2 = {norm_sq!r}")
        object.__setattr__(self, "coefficients", _freeze(coeffs))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over the mode basis.

    Validation tolerances: Hermiticity and trace within 1e-12, eigenvalues
    above -1e-10 (floating error accumulated by channel composition must not
    hard-fail physical states), purity at most 1 + 1e-12.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        if mat.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"density matrix must be 2x2 or 4x4, got shape {mat.shape}")
        herm_defect = float(np.abs(mat - mat.conj().T).max())
        if not herm_defect <= HERMITICITY_TOL:  # a NaN entry fails here, before eigvalsh
            raise ValueError(f"matrix not Hermitian (defect {herm_defect:.3e})")
        trace = complex(np.trace(mat))
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace must be 1, got {trace!r}")
        min_eig = float(np.linalg.eigvalsh(mat).min())
        if not min_eig >= EIGENVALUE_FLOOR:
            raise ValueError(f"matrix not positive semidefinite (min eigenvalue {min_eig:.3e})")
        pur = float(np.trace(mat @ mat).real)
        if not pur <= PURITY_CEILING:
            raise ValueError(f"purity {pur!r} exceeds 1")
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def rails(self) -> int:
        return 1 if self.matrix.shape[0] == 2 else 2


def superpose(c0: complex, c1: complex) -> PureState:
    """Normalized single-rail superposition c0|TE0> + c1|TE1>."""
    norm = math.hypot(abs(c0), abs(c1))
    if norm == 0.0:
        raise ValueError("null state: (c0, c1) must not both be zero")
    return PureState(np.array([c0, c1], dtype=np.complex128) / norm)


def density_of(state: PureState) -> DensityMatrix:
    """Rank-1 projector |s><s| of a pure state."""
    coeffs = state.coefficients
    return DensityMatrix(np.outer(coeffs, coeffs.conj()))


_BELL_COMPONENTS = {
    ("phi", "+"): ((0, 3), (1.0, 1.0)),
    ("phi", "-"): ((0, 3), (1.0, -1.0)),
    ("psi", "+"): ((1, 2), (1.0, 1.0)),
    ("psi", "-"): ((1, 2), (1.0, -1.0)),
}


def bell_state(family: str, sign: str) -> PureState:
    """Maximally mode-entangled two-rail state.

    family "phi" pairs |00> with |11>, family "psi" pairs |01> with |10>;
    sign "+" or "-" selects the relative sign of the second component.
    """
    key = (family.lower(), sign)
    if key not in _BELL_COMPONENTS:
        raise ValueError(f"unknown Bell state {family!r}, {sign!r}")
    (i, j), (si, sj) = _BELL_COMPONENTS[key]
    coeffs = np.zeros(4, dtype=np.complex128)
    coeffs[i] = si / math.sqrt(2.0)
    coeffs[j] = sj / math.sqrt(2.0)
    return PureState(coeffs)


def product_state() -> PureState:
    """Separable two-rail state with both rails in (|TE0> + |TE1>)/sqrt(2)."""
    return PureState(np.full(4, 0.5, dtype=np.complex128))


def expectation(rho: DensityMatrix, operator: np.ndarray) -> complex:
    """Tr(rho Q); real to within 1e-12 when Q is Hermitian."""
    op = np.asarray(operator, dtype=np.complex128)
    if op.shape != rho.matrix.shape:
        raise ValueError(f"operator shape {op.shape} does not match state shape {rho.matrix.shape}")
    return complex(np.trace(rho.matrix @ op))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
    return float(np.trace(rho.matrix @ rho.matrix).real)
