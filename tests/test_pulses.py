from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dd_discord import pulses
from dd_discord import (
    OhmicSpectrum,
    PulseSchedule,
    controlled_gamma,
    controlled_gamma_oracle,
    default_time_grid,
    filter_function_sq,
    gamma0,
    periodic_schedule,
)
from dd_discord.pulses import PulsedDecoherence
from oracles import naive_controlled_gamma

FROZEN_ECHO_AT_TWO = 0.5815754049028404  # 2*ln2 - ln5/2, marginal spectrum


def test_periodic_schedule_counts():
    sched = periodic_schedule(0.3, 25.0)
    assert len(sched) == 83
    assert abs(sched.instants[-1] - 24.9) < 1e-12
    assert abs(sched.instants[0] - 0.3) < 1e-15

    sched = periodic_schedule(3.0, 25.0)
    assert len(sched) == 8
    assert sched.instants[-1] == 24.0

    assert len(periodic_schedule(30.0, 25.0)) == 0


def test_periodic_schedule_exact_multiple():
    # the last pulse may land exactly on the horizon
    sched = periodic_schedule(5.0, 25.0)
    assert len(sched) == 5
    assert sched.instants[-1] == 25.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        PulseSchedule((1.0, 1.0), 5.0)
    with pytest.raises(ValueError):
        PulseSchedule((2.0, 1.0), 5.0)
    with pytest.raises(ValueError):
        PulseSchedule((0.0, 1.0), 5.0)
    with pytest.raises(ValueError):
        PulseSchedule((1.0, 6.0), 5.0)
    with pytest.raises(ValueError):
        PulseSchedule((), 0.0)
    with pytest.raises(ValueError):
        periodic_schedule(-0.5, 25.0)
    # refused before a pulse is built: 3e300 of them would never finish
    for horizon in (1e300, 0.3 * (pulses.MAX_POINTS + 2)):
        with pytest.raises(ValueError, match="horizon"):
            periodic_schedule(0.3, horizon)


def test_pulses_before_uses_open_interval():
    sched = PulseSchedule((1.0, 2.0, 3.0), 10.0)
    assert sched.pulses_before(0.5) == 0
    # a query sitting exactly on a pulse does not count that pulse
    assert sched.pulses_before(2.0) == 1
    assert sched.pulses_before(2.5) == 2
    assert sched.pulses_before(10.0) == 3


def test_free_schedule_reduces_to_free_exponent():
    spec = OhmicSpectrum(1.7)
    free = PulseSchedule((), 30.0)
    for tau in (0.0, 0.4, 2.0, 17.0, 30.0):
        assert controlled_gamma(spec, free, tau) == gamma0(spec, tau)


def test_single_pulse_echo_identity():
    """One pulse at t1 gives 2*G(t1) + 2*G(tau-t1) - G(tau) past the pulse."""
    spec = OhmicSpectrum(1.0)
    sched = PulseSchedule((1.0,), 10.0)
    for tau in (1.3, 2.0, 5.0, 10.0):
        expected = (2.0 * gamma0(spec, 1.0)
                    + 2.0 * gamma0(spec, tau - 1.0)
                    - gamma0(spec, tau))
        assert abs(controlled_gamma(spec, sched, tau) - expected) < 1e-12
    assert abs(controlled_gamma(spec, sched, 2.0) - FROZEN_ECHO_AT_TWO) < 1e-12


@pytest.mark.parametrize("s", [0.5, 1.0, 4.0])
def test_continuity_at_pulse_instants(s):
    spec = OhmicSpectrum(s)
    sched = periodic_schedule(0.7, 10.0)
    for t in sched.instants[:6]:
        left = controlled_gamma(spec, sched, t)
        right = controlled_gamma(spec, sched, np.nextafter(t, np.inf))
        assert abs(left - right) < 1e-10


def test_matches_naive_double_sum():
    spec = OhmicSpectrum(2.2)
    instants = (0.4, 0.9, 1.3, 2.2, 3.0)
    sched = PulseSchedule(instants, 6.0)
    g0 = lambda t: gamma0(spec, t)
    for tau in (0.2, 0.4, 0.65, 1.0, 1.9, 2.6, 3.7, 5.2, 6.0):
        expected = naive_controlled_gamma(g0, instants, tau)
        got = controlled_gamma(spec, sched, tau)
        assert abs(got - max(expected, 0.0)) < 1e-12


def test_grid_evaluation_matches_scalar():
    spec = OhmicSpectrum(4.0)
    dense = periodic_schedule(0.05, 12.0)
    cases = ((periodic_schedule(1.0, 12.0), np.linspace(0.0, 12.0, 301)),
             (dense, default_time_grid(dense)))
    for sched, taus in cases:
        engine = PulsedDecoherence(spec, sched)
        grid = engine.gamma_grid(taus)
        for idx in range(0, taus.size, 23):
            assert abs(grid[idx] - engine.gamma(float(taus[idx]))) < 1e-13


def _phase_count(sched, grid):
    """Distinct phases tau - t_n over grid points after at least one pulse."""
    inst = np.asarray(sched.instants)
    counts = np.searchsorted(inst, grid, side="left")
    past = counts > 0
    return np.unique(grid[past] - inst[counts[past] - 1]).size


@pytest.mark.parametrize("dt", [0.05, 0.3, 0.7])
@pytest.mark.parametrize("s", [0.1, 1.0, 4.0, 6.0])
def test_periodic_grid_matches_naive_double_sum(s, dt):
    spec = OhmicSpectrum(s)
    sched = periodic_schedule(dt, 25.0)
    grid = default_time_grid(sched)
    got = PulsedDecoherence(spec, sched).gamma_grid(grid)
    g0 = lru_cache(maxsize=None)(lambda t: gamma0(spec, t))
    # O(n^2) per point: sample the dense grid sparsely, the others densely
    picks = np.linspace(1, grid.size - 1, 7 if dt < 0.1 else 60).astype(int)
    expected = [max(naive_controlled_gamma(g0, sched.instants, float(grid[i])), 0.0)
                for i in picks]
    assert_allclose(got[picks], expected, rtol=1e-12, atol=1e-9)


def test_nonrepeating_phases_still_take_the_phase_route():
    # at dt = 0.3 almost every grid point has a phase of its own, so the
    # shared-phase table has almost one row per point
    sched = periodic_schedule(0.3, 25.0)
    grid = default_time_grid(sched)
    assert _phase_count(sched, grid) > 0.9 * grid.size
    assert PulsedDecoherence(OhmicSpectrum(1.0), sched)._periodic


@pytest.mark.parametrize("dt", [0.05, 0.3])
@pytest.mark.parametrize("s", [0.1, 1.0, 4.0, 6.0])
def test_periodic_route_matches_general_sum(s, dt, monkeypatch):
    spec = OhmicSpectrum(s)
    sched = periodic_schedule(dt, 25.0)
    grid = default_time_grid(sched)
    fast = PulsedDecoherence(spec, sched)
    assert fast._periodic
    monkeypatch.setattr(pulses, "_is_periodic", lambda instants: False)
    general = PulsedDecoherence(spec, sched)
    assert not general._periodic
    assert_allclose(fast.gamma_grid(grid), general.gamma_grid(grid), rtol=0.0, atol=1e-9)
    for tau in grid[::997]:
        assert abs(fast.gamma(tau) - general.gamma(tau)) < 1e-9


def test_periodic_work_is_linear(monkeypatch):
    evaluated = []

    def counting_gamma0(spec, tau):
        evaluated.append(np.size(tau))
        return gamma0(spec, tau)

    monkeypatch.setattr(pulses, "gamma0", counting_gamma0)
    sched = periodic_schedule(0.05, 25.0)
    grid = default_time_grid(sched)
    assert _phase_count(sched, grid) < 250
    engine = PulsedDecoherence(OhmicSpectrum(2.5), sched)
    assert sum(evaluated) <= 2 * len(sched)          # static sums: O(N), not O(N^2)
    evaluated.clear()
    engine.gamma_grid(grid)
    # grid points + distinct phases x pulses, against ~2.65M for the plain sum
    assert sum(evaluated) <= 250_000
    evaluated.clear()
    engine.gamma(24.97)
    assert sum(evaluated) <= len(sched) + 1


@pytest.mark.parametrize("s", [0.5, 4.0])
def test_closed_sum_agrees_with_filter_integral(s):
    spec = OhmicSpectrum(s)
    sched = periodic_schedule(1.0, 25.0)
    eps = 1e-6
    for tau in (0.5, 1.0, 1.5 + eps, 7.3, 25.0):
        closed = controlled_gamma(spec, sched, tau)
        integral = controlled_gamma_oracle(spec, sched, tau)
        assert abs(closed - integral) < 1e-8


def test_controlled_gamma_nonnegative():
    for s in (0.5, 1.0, 3.0):
        spec = OhmicSpectrum(s)
        for dt in (0.3, 1.0, 3.0):
            sched = periodic_schedule(dt, 25.0)
            taus = np.linspace(0.0, 25.0, 400)
            vals = PulsedDecoherence(spec, sched).gamma_grid(taus)
            assert np.all(vals >= 0.0)


def test_domain_errors():
    spec = OhmicSpectrum(1.0)
    sched = periodic_schedule(1.0, 10.0)
    with pytest.raises(ValueError):
        controlled_gamma(spec, sched, -0.1)
    with pytest.raises(ValueError):
        controlled_gamma(spec, sched, 10.5)


def test_filter_function_reference_values():
    # no pulses: |1 - e^{iz}|^2, equal to 4 at z=pi
    assert abs(filter_function_sq((), 1.0, np.pi) - 4.0) < 1e-14
    assert filter_function_sq((), 1.0, 0.0) == 0.0

    # one midpoint pulse: |1 - 2e^{iz/2} + e^{iz}|^2 = 4(1-cos(z/2))^2
    for z in np.linspace(0.0, 12.0, 25):
        got = filter_function_sq((0.5,), 1.0, z)
        expected = 4.0 * (1.0 - np.cos(0.5 * z)) ** 2
        assert abs(got - expected) < 1e-12


def test_filter_function_vanishes_at_origin():
    sched = periodic_schedule(0.4, 3.0)
    for n in range(1, len(sched) + 1):
        prefix = sched.instants[:n]
        tau = prefix[-1] + 0.2
        assert abs(filter_function_sq(prefix, tau, 0.0)) < 1e-12


def test_filter_function_validation():
    with pytest.raises(ValueError):
        filter_function_sq((0.5, 1.5), 1.0, 1.0)  # pulse beyond tau
    with pytest.raises(ValueError):
        filter_function_sq((0.0,), 1.0, 1.0)
    with pytest.raises(ValueError):
        filter_function_sq((0.5,), 1.0, -1.0)


def test_default_time_grid_structure():
    sched = periodic_schedule(1.0, 5.0)
    grid = default_time_grid(sched)
    assert grid[0] == 0.0
    assert grid[-1] == 5.0
    assert np.all(np.diff(grid) > 0.0)
    for t in sched.instants[:-1]:
        assert t in grid
        assert np.nextafter(t, np.inf) in grid
    # sampling resolves the shortest inter-pulse gap
    assert np.max(np.diff(grid)) <= 0.05 + 1e-12


def test_default_time_grid_custom_step():
    sched = PulseSchedule((), 2.0)
    grid = default_time_grid(sched, step=0.5)
    assert_allclose(grid, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        default_time_grid(sched, step=-1.0)
    with pytest.raises(ValueError, match="time_step"):
        default_time_grid(PulseSchedule((), 1e9))
