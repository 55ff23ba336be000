"""Phase controller and Y-splitter measurement algebra for one rail.

An ideal adiabatic Y-splitter maps the symmetric combination
|+> = (|TE0> + |TE1>)/sqrt(2) into one branch and the antisymmetric
|-> = (|TE0> - |TE1>)/sqrt(2) into the other.  A phase controller ahead of
the splitter imparts a differential phase 2*theta between the modes, giving
the branch projectors

    I+(theta) = P(theta)^dag |+><+| P(theta) = 1/2 [[1, e^{-2i theta}],
                                                    [e^{+2i theta}, 1]]

and I-(theta) with the off-diagonal signs flipped.  Convention: the
controller P(theta) = diag(e^{+i theta}, e^{-i theta}) advances TE0 and
retards TE1, so that the measured intensity difference of a decohered
equal superposition is exp(-gamma L) cos[2 theta + (dbeta + kappa) L].
theta is the half-angle of the total differential phase 2*theta.

The splitter is lossless here ("the projectors are exact"); the physical
splitter including radiation loss lives in :mod:`modesim.bpm`.
"""
from __future__ import annotations

import numpy as np

from .decoherence import EvolutionParams, analytic_single_rail
from .states import density_of, expectation, superpose

__all__ = [
    "analyzer_projectors",
    "intensity_split_operator",
    "intensity_difference_evolved",
]


def analyzer_projectors(theta) -> tuple[np.ndarray, np.ndarray]:
    """Branch projectors (I+, I-) of the phase controller plus Y-splitter.

    Each is Hermitian and idempotent, I+ + I- is the identity, and
    I+- (theta) = P(theta)^dag |+-><+-| P(theta) holds entrywise.  A 1-D array of
    theta gives (n, 2, 2) stacks, equal bit for bit to each angle's 2x2 matrices.
    """
    off = np.exp(-2j * np.asarray(theta, dtype=np.float64))
    one = np.ones_like(off)
    plus = 0.5 * np.stack([one, off, np.conj(off), one], axis=-1).reshape(off.shape + (2, 2))
    minus = 0.5 * np.stack([one, -off, -np.conj(off), one], axis=-1).reshape(off.shape + (2, 2))
    return plus, minus


def intensity_split_operator(theta) -> np.ndarray:
    """The intensity-difference observable I+(theta) - I-(theta), exactly
    [[0, e^{-2i theta}], [e^{+2i theta}, 0]]; a stack for a 1-D array of theta."""
    plus, minus = analyzer_projectors(theta)
    return plus - minus


def intensity_difference_evolved(c0: complex, c1: complex, params: EvolutionParams,
                                 theta: float) -> float:
    """Intensity difference <I+ - I-> for an input superposition after a
    random waveguide of length L and an analyzer at angle theta.

    Evaluated through the operator route: the input coherence is evolved by
    the closed-form map and traced against I+(theta) - I-(theta).  The result
    equals the closed form

        e^{-gamma L} [c0 conj(c1) e^{i (dbeta + kappa) L} e^{2 i theta} + c.c.]

    which reduces to e^{-gamma L} cos[2 theta + (dbeta + kappa) L] for an
    equal superposition.
    """
    if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > 1e-12:
        raise ValueError("input coefficients must satisfy |c0|^2 + |c1|^2 = 1")
    rho0 = density_of(superpose(c0, c1))
    evolved = analytic_single_rail(rho0, params)
    return float(expectation(evolved, intensity_split_operator(theta)).real)
