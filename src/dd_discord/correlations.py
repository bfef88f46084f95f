"""Correlation measures for one-parameter Bell-diagonal states under dephasing.

The state family mixes two Bell projectors with weights (1 +/- c)/2.
Local pure dephasing leaves the populations alone and multiplies the two
coherences by a decoherence factor, e^-gamma when one qubit sees the
bath or e^-2*gamma when both do. Every correlation measure then reduces
to closed functions of c and the factor, built from the single map

    correlation_bits(x) = (1+x)/2 log2(1+x) + (1-x)/2 log2(1-x),

and classical correlations freeze at correlation_bits(c) exactly while
the factor stays at or above |c|. That is the regime of time-invariant
discord; once the factor dips below |c| the roles swap suddenly.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .pulses import PulsedDecoherence, default_time_grid

_LN2 = math.log(2.0)


class NoiseSide(Enum):
    """Which qubits see the bath; the value is the exponent multiplier."""

    ONE_SIDED = 1
    TWO_SIDED = 2


@dataclass(frozen=True)
class BellDiagonalState:
    """Bell-projector mixture with weights (1 +/- c)/2; needs |c| < 1."""

    c: float

    def __post_init__(self):
        if not abs(self.c) < 1.0:
            raise ValueError(f"c must satisfy |c| < 1, got {self.c}")


def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def correlation_bits(x):
    """(1+x)/2 log2(1+x) + (1-x)/2 log2(1-x), with 0 log 0 = 0.

    Equals 1 - H2((1+x)/2) in bits: the information carried by a
    correlation amplitude x. Even in x; 0 at x = 0; 1 as |x| -> 1.
    For |x| < 1/2 the two terms cancel to O(x^2), so there it takes the
    equal form log1p(-x^2) + 2x artanh(x), which keeps relative accuracy.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0):   # also refuses NaN
        raise ValueError(f"x must lie in [-1, 1], got {x}")
    out = np.asarray(_xlogx(1.0 + x) + _xlogx(1.0 - x))
    small = np.abs(x) < 0.5
    xs = x[small]
    out[small] = np.log1p(-xs * xs) + 2.0 * xs * np.arctanh(xs)
    return _scalar_or_array(out / (2.0 * _LN2))


def _xlogx(y):
    """y log y with 0 log 0 = 0, without a divide-by-zero warning at y = 0."""
    return y * np.log(np.where(y == 0.0, 1.0, y))


def _check_factor(factor):
    f = np.asarray(factor, dtype=float)
    if not np.all((0.0 <= f) & (f <= 1.0)):
        raise ValueError(f"factor must lie in [0, 1], got {factor}")
    return f


def decoherence_factor(gamma_value, side):
    """Coherence attenuation e^-gamma (one-sided) or e^-2*gamma (two-sided).

    Takes a scalar or an array of exponents; a scalar gives a float.
    """
    g = np.asarray(gamma_value, dtype=float)
    if not np.all(g >= 0.0):   # also refuses NaN
        raise ValueError(f"gamma_value must be nonnegative, got {gamma_value}")
    # the product overflows only where exp() underflows to 0 anyway
    with np.errstate(over="ignore"):
        return _scalar_or_array(np.exp(-side.value * g))


def mutual_information(state, factor):
    """Total correlations in bits at the given decoherence factor(s)."""
    return correlation_bits(state.c) + correlation_bits(_check_factor(factor))


def classical_correlations(state, factor):
    """Classical correlations in bits, correlation_bits(max(factor, |c|))."""
    return correlation_bits(np.maximum(_check_factor(factor), abs(state.c)))


def discord(state, factor):
    """Quantum discord in bits: mutual information minus the classical part.

    Taken as correlation_bits(min(factor, |c|)), the difference without its
    cancellation: correlation_bits(c) while factor >= |c|, else of factor.
    """
    return correlation_bits(np.minimum(_check_factor(factor), abs(state.c)))


def concurrence(state, gamma_value):
    """Entanglement under one-sided dephasing, directly off the exponent(s).

    (1/2) max{0, |f(1-c)| - 1 - c, |f(1+c)| - 1 + c} with f = e^-gamma;
    clips to zero (sudden death) once f < (1-c)/(1+c).
    """
    c = state.c
    f = np.asarray(decoherence_factor(gamma_value, NoiseSide.ONE_SIDED))
    return _scalar_or_array(0.5 * np.maximum(0.0, np.maximum(
        np.abs(f * (1.0 - c)) - 1.0 - c,
        np.abs(f * (1.0 + c)) - 1.0 + c)))


@dataclass(frozen=True)
class CorrelationTrajectory:
    """Aligned time series of the exponent, factor, and correlation measures.

    concurrence is None under two-sided noise, where this state family
    admits no closed concurrence expression here.
    """

    times: np.ndarray
    gamma: np.ndarray
    factor: np.ndarray
    mutual_info: np.ndarray
    classical: np.ndarray
    discord: np.ndarray
    concurrence: Optional[np.ndarray]


def trajectory(spec, sched, state, side, grid=None):
    """Evaluate all correlation measures along a time grid.

    grid defaults to the schedule's sampling grid (uniform step plus
    both sides of each pulse instant); its times must lie inside
    [0, horizon], and the columns follow the grid's order.
    """
    if grid is None:
        grid = default_time_grid(sched)
    times = np.asarray(grid, dtype=float)
    if times.size == 0:
        raise ValueError("grid must be nonempty")
    gam = PulsedDecoherence(spec, sched).gamma_grid(times)
    fac = decoherence_factor(gam, side)
    conc = concurrence(state, gam) if side is NoiseSide.ONE_SIDED else None
    return CorrelationTrajectory(
        times, gam, fac, mutual_information(state, fac),
        classical_correlations(state, fac), discord(state, fac), conc)
