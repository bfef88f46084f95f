"""Dephasing qubit correlations under bang-bang dynamical decoupling.

Reduced units throughout: times in 1/omega_c, frequencies in omega_c.
"""

__version__ = "0.1.0"

from .correlations import (BellDiagonalState, CorrelationTrajectory, NoiseSide,
                           classical_correlations, concurrence, correlation_bits,
                           decoherence_factor, discord, mutual_information,
                           trajectory)
from .phase import (PhaseDiagram, Regime, RegimeLabel, boundary_curve, classify,
                    invariant_discord_value, min_decoherence_factor,
                    phase_diagram, transition_time)
from .pulses import (PulsedDecoherence, PulseSchedule, controlled_gamma,
                     controlled_gamma_oracle, default_time_grid, periodic_schedule)
from .spectral import (DEFAULT_QUADRATURE, ConvergenceError, OhmicSpectrum,
                       QuadratureConfig, filter_function_sq, gamma0,
                       gamma0_quadrature, gamma0_rate, recoherence_onset,
                       spectral_density)

__all__ = [
    "BellDiagonalState", "ConvergenceError", "CorrelationTrajectory",
    "DEFAULT_QUADRATURE", "NoiseSide", "OhmicSpectrum", "PhaseDiagram",
    "PulseSchedule", "PulsedDecoherence", "QuadratureConfig", "Regime",
    "RegimeLabel", "boundary_curve", "classical_correlations", "classify",
    "concurrence", "controlled_gamma", "controlled_gamma_oracle",
    "correlation_bits", "decoherence_factor", "default_time_grid", "discord",
    "filter_function_sq", "gamma0", "gamma0_quadrature", "gamma0_rate",
    "invariant_discord_value", "min_decoherence_factor", "mutual_information",
    "periodic_schedule", "phase_diagram", "recoherence_onset",
    "spectral_density", "trajectory", "transition_time",
]
