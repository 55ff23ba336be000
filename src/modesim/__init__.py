"""Classical simulation of mode-entangled states in dual-mode waveguides.

Subsystems: mode-basis state algebra (:mod:`modesim.states`), the slab
mode solver (:mod:`modesim.waveguide`), random-perturbation
statistics and decoherence rates (:mod:`modesim.stochastic`), closed-form
and Monte Carlo density-matrix evolution (:mod:`modesim.decoherence`), the
phase-controller/Y-splitter measurement algebra (:mod:`modesim.analyzer`),
two-rail Bell/CHSH and group-delay correlations (:mod:`modesim.correlation`),
a Crank-Nicolson beam-propagation engine (:mod:`modesim.bpm`), and a
scripted experiment runner (:mod:`modesim.cli`).
"""

from ._errors import NumericalError
from .analyzer import analyzer_projectors, intensity_difference_evolved
from .correlation import ChshAngles, DelayPair, chsh_B, chsh_optimum, chsh_scan, correlation_E, delay_covariance
from .decoherence import (
    DecoherenceScan,
    EvolutionParams,
    analytic_single_rail,
    ensemble_scan,
    two_rail_evolve,
)
from .states import (
    DensityMatrix,
    PureState,
    bell_state,
    density_of,
    expectation,
    product_state,
    purity,
    superpose,
)
from .stochastic import PerturbationModel, RateConstants, rates, sample_path
from .waveguide import GuidedMode, SlabSpec, delta_beta, group_delay, solve_slab_te_modes

__version__ = "0.1.0"
