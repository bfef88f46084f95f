"""Regime classification: time-invariant discord versus sudden transition.

For a fixed bath, schedule, and noise side the classification problem
collapses to one scalar per Ohmicity value: the minimum of the
decoherence factor over the evolution window. States with c at or below
that minimum keep their discord pinned at correlation_bits(c) for the
whole window; every other state hits a sudden transition at the first
time the factor crosses c from above.

The factor is piecewise smooth with kinks only at pulse instants, so
minima and crossings are located on the sampling grid (which contains
both sides of every instant) and refined inside the bracketing interval:
golden-section for the minimum, bisection for the crossing.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .correlations import BellDiagonalState, NoiseSide, correlation_bits, decoherence_factor
from .pulses import PulsedDecoherence, default_time_grid, schedule_for
from .spectral import OhmicSpectrum

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_XTOL = 1e-4       # time resolution of the minimum search
_CROSSING_XTOL = 1e-6     # time resolution of the transition time
_TINY = float(np.finfo(float).tiny)   # factor floor: exp() may underflow to 0


class Regime(Enum):
    TIME_INVARIANT = "time-invariant"
    SUDDEN_TRANSITION = "sudden-transition"


@dataclass(frozen=True)
class RegimeLabel:
    """Regime of one (s, c) cell; transition_time present iff sudden."""

    regime: "Regime"
    transition_time: Optional[float] = None

    def __post_init__(self):
        has_time = self.transition_time is not None
        if has_time != (self.regime is Regime.SUDDEN_TRANSITION):
            raise ValueError(
                "transition_time must be present exactly for sudden transitions")


@dataclass(frozen=True)
class PhaseDiagram:
    """Regime labels over an (s, c) grid; labels[i][j] is (s_grid[i], c_grid[j])."""

    s_grid: tuple
    c_grid: tuple
    labels: tuple
    min_factors: tuple     # per-s minimum decoherence factor
    side: NoiseSide
    pulse_interval: Optional[float]
    horizon: float


def _golden_min(f, a, b, xtol):
    """Golden-section minimum of f on [a, b] to x resolution xtol."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


class _FactorProfile:
    """Factor samples on the default grid, with refinement helpers."""

    def __init__(self, spec, schedule, side, horizon=None):
        if horizon is None:
            horizon = schedule.horizon
        if not 0.0 < horizon <= schedule.horizon:
            raise ValueError(
                f"horizon must lie in (0, {schedule.horizon}], got {horizon}")
        self.evaluator = PulsedDecoherence(spec, schedule)
        self.side = side
        grid = default_time_grid(schedule)
        self.grid = grid[grid <= horizon]
        self.factors = np.maximum(
            decoherence_factor(self.evaluator.gamma_grid(self.grid), side), _TINY)

    def factor_at(self, tau):
        # the one scalar copy of the factor formula: refinement makes ~70k
        # calls per map, and a 0-d numpy round trip adds 5-8 us to each
        return max(math.exp(-self.side.value * self.evaluator.gamma(tau)), _TINY)

    @cached_property
    def refined_min(self):
        """(time, factor) of the golden-section minimum around the grid minimum."""
        i = int(np.argmin(self.factors))
        lo = float(self.grid[max(i - 1, 0)])
        hi = float(self.grid[min(i + 1, self.grid.size - 1)])
        if hi > lo:
            return _golden_min(self.factor_at, lo, hi, _REFINE_XTOL)
        return lo, float(self.factors[i])

    @cached_property
    def min_factor(self):
        return min(float(self.factors.min()), self.refined_min[1])

    def first_crossing(self, c):
        """Earliest time with factor < c, or None if there is none."""
        below = np.nonzero(self.factors < c)[0]
        if below.size:
            i = int(below[0])
            # factor(0) = 1 > c, so the first sub-c sample is never at index 0
            lo, hi = float(self.grid[i - 1]), float(self.grid[i])
        else:
            x, fx = self.refined_min
            if fx >= c:
                return None
            # grid samples all sit at or above c but the refined dip is below
            i = int(np.searchsorted(self.grid, x))
            lo, hi = float(self.grid[max(i - 1, 0)]), x
        while hi - lo > _CROSSING_XTOL:
            mid = 0.5 * (lo + hi)
            if self.factor_at(mid) < c:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


def min_decoherence_factor(spec, sched, side, horizon=None):
    """Minimum of the decoherence factor over [0, horizon].

    Grid scan over the default sampling grid followed by golden-section
    refinement in the bracketing interval, to time resolution 1e-4.
    """
    return _FactorProfile(spec, sched, side, horizon).min_factor


def classify(state, min_factor):
    """Regime of a state given the minimum factor of its evolution.

    Time-invariant iff c <= min_factor; the boundary case counts as
    invariant because discord is then pinned for the entire window.
    """
    c = state.c
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c must lie in [0, 1), got {c}")
    if not 0.0 < min_factor <= 1.0:
        raise ValueError(f"min_factor must lie in (0, 1], got {min_factor}")
    if c <= min_factor:
        return Regime.TIME_INVARIANT
    return Regime.SUDDEN_TRANSITION


def transition_time(spec, sched, state, side, horizon=None):
    """Earliest time the factor drops below c; None when none exists.

    Grid scan plus bisection to time resolution 1e-6. Consistent with
    classify: returns None exactly for time-invariant states.
    """
    return _label(_FactorProfile(spec, sched, side, horizon), state.c).transition_time


def _label(profile, c):
    """Regime label of state parameter c under one factor profile."""
    if classify(BellDiagonalState(c), profile.min_factor) is Regime.TIME_INVARIANT:
        return RegimeLabel(Regime.TIME_INVARIANT)
    return RegimeLabel(Regime.SUDDEN_TRANSITION, profile.first_crossing(c))


def _phase_row(args):
    """One diagram row: (min_factor, labels over c_grid) at a single s."""
    s, c_grid, pulse_interval, side, horizon = args
    profile = _FactorProfile(OhmicSpectrum(s), schedule_for(pulse_interval, horizon), side)
    return profile.min_factor, tuple(_label(profile, c) for c in c_grid)


def _run_rows(tasks, workers):
    if workers is not None and workers > 1:
        # imported here: serial runs should not pay for the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_phase_row, tasks))
    return [_phase_row(t) for t in tasks]


def phase_diagram(s_grid, c_grid, pulse_interval, side, horizon=25.0,
                  workers=None):
    """Classify every (s, c) grid cell for one schedule and noise side.

    Rows (fixed s) are independent and may be computed concurrently;
    results are always assembled in grid order, so the diagram is
    deterministic for any worker count. pulse_interval None means free
    evolution over the same window.
    """
    s_vals = tuple(float(s) for s in s_grid)
    c_vals = tuple(float(c) for c in c_grid)
    if any(not 0.0 < s for s in s_vals):
        raise ValueError("s_grid values must be > 0")
    if any(not 0.0 <= c < 1.0 for c in c_vals):
        raise ValueError("c_grid values must lie in [0, 1)")
    tasks = [(s, c_vals, pulse_interval, side, horizon) for s in s_vals]
    rows = _run_rows(tasks, workers)
    return PhaseDiagram(
        s_grid=s_vals,
        c_grid=c_vals,
        labels=tuple(r[1] for r in rows),
        min_factors=tuple(r[0] for r in rows),
        side=side,
        pulse_interval=pulse_interval,
        horizon=horizon,
    )


def boundary_curve(s_grid, pulse_interval, side, horizon=25.0, workers=None):
    """Critical c as a function of s: the per-s minimum decoherence factor.

    States with c at or below the curve stay time-invariant for this
    schedule and noise side. Returns a list of (s, min_factor) pairs: the
    min_factors of a phase diagram with no c values.
    """
    diagram = phase_diagram(s_grid, (), pulse_interval, side, horizon, workers)
    return list(zip(diagram.s_grid, diagram.min_factors))


def invariant_discord_value(state):
    """Discord plateau value in the time-invariant regime.

    Depends on the state parameter only: correlation_bits(c).
    """
    return correlation_bits(state.c)
