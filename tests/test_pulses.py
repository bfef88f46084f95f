import warnings
from bisect import bisect_left
from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dd_discord import pulses, spectral
from dd_discord import (
    ConvergenceError,
    OhmicSpectrum,
    PulseSchedule,
    QuadratureConfig,
    controlled_gamma,
    controlled_gamma_oracle,
    default_time_grid,
    filter_function_sq,
    gamma0,
    gamma0_quadrature,
    periodic_schedule,
)
from dd_discord.pulses import PulsedDecoherence
from oracles import (general_controlled_gamma, mp_controlled_exponent, naive_controlled_gamma,
                     naive_filter_sq, scipy_filter_integral)
from test_refusals import refusal_tests

FROZEN_ECHO_AT_TWO = 0.5815754049028404  # 2*ln2 - ln5/2, marginal spectrum
# a dense, a coarse, two whose smallest double gap sits an ulp below dt, and 10^6 pulses
SCHEDULE_DTS = (0.05, 0.3, 0.32, 0.7, 25.0 / 999_999)
globals().update(refusal_tests(__name__))   # this module's rows of the library refusal table


def test_periodic_schedule_counts():
    sched = periodic_schedule(0.3, 25.0)
    assert len(sched) == 83
    assert abs(sched.instants[-1] - 24.9) < 1e-12
    assert abs(sched.instants[0] - 0.3) < 1e-15

    sched = periodic_schedule(3.0, 25.0)
    assert len(sched) == 8
    assert sched.instants[-1] == 24.0

    assert len(periodic_schedule(30.0, 25.0)) == 0

    assert sched.interval == 3.0
    # no pulses: free evolution, with no interval, in every form alike
    free = (periodic_schedule(30.0, 25.0), periodic_schedule(None, 25.0),
            PulseSchedule((), 25.0), PulseSchedule(None, 25.0), PulseSchedule(30.0, 25))
    for form in free:
        assert form == free[0] and hash(form) == hash(free[0])
        assert form.interval is None and len(form) == 0 and form.instants.size == 0

    # the instants are the doubles n * dt, as many as fit the horizon
    for dt in SCHEDULE_DTS:
        sched = periodic_schedule(dt, 25.0)
        want = [n * dt for n in range(1, len(sched) + 1)]
        assert want[-1] <= 25.0 < (len(sched) + 1) * dt
        assert sched.instants.tolist() == want
        assert not sched.instants.flags.writeable
    assert len(sched) == 999_999


def test_periodic_schedule_exact_multiple():
    # the last pulse may land exactly on the horizon
    sched = periodic_schedule(5.0, 25.0)
    assert len(sched) == 5
    assert sched.instants[-1] == 25.0


@pytest.mark.parametrize("dt,count", [
    (0.025025025025025027, 999),   # 25 / dt = 998.9999999999999: floor lands one short
    (0.6410256410256411, 38),      # 25 / dt rounds up to 39.0, but 39 dt overshoots 25
])
def test_periodic_schedule_count_at_a_rounded_quotient(dt, count):
    sched = periodic_schedule(dt, 25.0)
    assert len(sched) == count
    assert sched.instants[-1] <= 25.0 < (count + 1) * dt


def test_pulses_before_uses_open_interval():
    sched = periodic_schedule(1.0, 10.0)
    assert sched.pulses_before(0.5) == 0
    # a query sitting exactly on a pulse does not count that pulse
    assert sched.pulses_before(2.0) == 1
    assert sched.pulses_before(2.5) == 2
    assert sched.pulses_before(10.0) == 9
    # bisect_left over the list of n * dt: at the instants, both their
    # neighbouring doubles, 0 and the horizon (every 9,973rd pulse of 10^6)
    for dt in SCHEDULE_DTS:
        sched = periodic_schedule(dt, 25.0)
        want = [n * dt for n in range(1, len(sched) + 1)]
        picks = want[::9973] + want[-1:] if len(want) > 10_000 else want
        taus = [0.0, 25.0] + [x for t in picks
                              for x in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf))]
        for tau in taus:
            assert sched.pulses_before(tau) == bisect_left(want, tau)


def test_free_schedule_reduces_to_free_exponent():
    spec = OhmicSpectrum(1.7)
    free = periodic_schedule(None, 30.0)
    for tau in (0.0, 0.4, 2.0, 17.0, 30.0):
        assert controlled_gamma(spec, free, tau) == gamma0(spec, tau)


def test_single_pulse_echo_identity():
    """One pulse at t1 gives 2*G(t1) + 2*G(tau-t1) - G(tau) past the pulse.

    Up to the second pulse, which sits at the horizon 2 t1 and counts only
    past it.
    """
    spec = OhmicSpectrum(1.0)
    for t1, taus in ((1.0, (1.3, 2.0)), (5.0, (5.3, 7.0, 10.0))):
        sched = periodic_schedule(t1, 2.0 * t1)
        for tau in taus:
            expected = (2.0 * gamma0(spec, t1)
                        + 2.0 * gamma0(spec, tau - t1)
                        - gamma0(spec, tau))
            assert abs(controlled_gamma(spec, sched, tau) - expected) < 1e-12
    sched = periodic_schedule(1.0, 2.0)
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
    sched = periodic_schedule(0.4, 6.0)
    g0 = lambda t: gamma0(spec, t)
    for tau in (0.2, 0.4, 0.65, 1.0, 1.9, 2.6, 3.7, 5.2, 6.0):
        expected = naive_controlled_gamma(g0, sched.instants, tau)
        got = controlled_gamma(spec, sched, tau)
        assert abs(got - max(expected, 0.0)) < 1e-12


def test_grid_evaluation_matches_scalar():
    # the scalar exponent is the grid's double, bit for bit, on every branch
    dense = periodic_schedule(0.05, 12.0)
    uniform = np.linspace(0.0, 12.0, 301)
    cases = ((periodic_schedule(0.3, 12.0), uniform), (dense, default_time_grid(dense)),
             (periodic_schedule(None, 12.0), uniform), (dense, np.empty(0)))
    for s in (0.1, 4.0):
        for sched, taus in cases:
            engine = PulsedDecoherence(OhmicSpectrum(s), sched)
            grid = engine.gamma_grid(taus)
            assert grid.dtype == float and grid.shape == taus.shape
            assert [engine.gamma(float(tau)) for tau in taus] == grid.tolist()


def test_grid_evaluation_takes_any_order():
    sched = periodic_schedule(0.3, 25.0)
    engine = PulsedDecoherence(OhmicSpectrum(2.5), sched)
    taus = default_time_grid(sched)
    shuffle = np.random.default_rng(5).permutation(taus.size)
    # the sorted result permuted back, bit for bit
    assert np.array_equal(engine.gamma_grid(taus[shuffle]), engine.gamma_grid(taus)[shuffle])
    # duplicates and a descending run are fine too
    both = np.concatenate([taus[::-1], taus[:40]])
    assert np.array_equal(engine.gamma_grid(both),
                          np.concatenate([engine.gamma_grid(taus)[::-1], engine.gamma_grid(taus[:40])]))


def test_scalar_exponent_near_overflow_leaks_no_warning():
    # near s = 172 the pulse sums overflow: each call either returns a finite
    # exponent or raises ConvergenceError, and no RuntimeWarning escapes
    sched = periodic_schedule(0.3, 25.0)
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in np.linspace(171.8, 172.6, 9):
            for tau in np.linspace(0.1, 25.0, 20):
                try:
                    value = controlled_gamma(OhmicSpectrum(float(s)), sched, float(tau))
                except ConvergenceError:
                    outcomes.add("error")
                else:
                    assert np.isfinite(value)
                    outcomes.add("finite")
    assert outcomes == {"error", "finite"}


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


@pytest.mark.parametrize("dt", [0.05, 0.3])
@pytest.mark.parametrize("s", [0.1, 1.0, 4.0, 6.0])
def test_periodic_route_matches_general_sum(s, dt):
    # shared phases and one pulse's gap sums against the expansion for
    # arbitrary instants (every pair difference), at every grid point
    spec = OhmicSpectrum(s)
    sched = periodic_schedule(dt, 25.0)
    grid = default_time_grid(sched)
    engine = PulsedDecoherence(spec, sched)
    general = general_controlled_gamma(lambda t: gamma0(spec, t), sched.instants, grid)
    assert_allclose(engine.gamma_grid(grid), general, rtol=0.0, atol=1e-9)
    for i in range(0, grid.size, 997):
        assert abs(engine.gamma(grid[i]) - general[i]) < 1e-9


def test_nonrepeating_phases_still_take_the_phase_route(spy):
    # at dt = 0.3 almost every grid point has a phase of its own: the
    # evaluation still groups them, into a table of almost one row per point
    tables = spy(PulsedDecoherence, "_phase_sums", lambda distinct, **_: distinct.size)
    sched = periodic_schedule(0.3, 25.0)
    grid = default_time_grid(sched)
    PulsedDecoherence(OhmicSpectrum(2.5), sched).gamma_grid(grid)
    assert len(tables) == 1 and tables[0] > 0.9 * grid.size


def test_periodic_work_is_linear(spy):
    evaluated = spy(pulses, "_closed_forms", lambda tau, rows, **_: np.broadcast(tau, rows).size)
    sched = periodic_schedule(0.05, 25.0)
    grid = default_time_grid(sched)
    assert _phase_count(sched, grid) < 250
    engine = PulsedDecoherence(OhmicSpectrum(2.5), sched)
    assert sum(evaluated) <= 2 * len(sched)          # static sums: O(N), not O(N^2)
    evaluated.clear()
    engine.gamma_grid(grid)
    # grid points + distinct phases x pulses, against ~2.65M for the plain sum
    assert grid.size <= sum(evaluated) <= 250_000
    evaluated.clear()
    engine.gamma(24.97)
    assert sum(evaluated) <= len(sched) + 1


def test_free_grid_builds_no_phase_table(monkeypatch, spy):
    # no point has a pulse behind it: the exponent is gamma0 of the grid, one call
    evaluated = spy(pulses, "_closed_forms", lambda tau, rows, **_: np.broadcast(tau, rows).size)
    monkeypatch.setattr(PulsedDecoherence, "_phase_sums",
                        lambda *args: pytest.fail("free evolution grouped its phases"))
    sched = periodic_schedule(None, 25.0)
    grid = default_time_grid(sched)
    engine = PulsedDecoherence(OhmicSpectrum(2.5), sched)
    evaluated.clear()
    engine.gamma_grid(grid)
    assert evaluated == [grid.size]


def test_phase_table_holds_only_the_keys_points_use(monkeypatch, spy):
    # 15 rows, every point in row 0: the table evaluates row 0's keys alone,
    # at most (largest pulse count + 1) terms each, the head terms included
    spectra = tuple(OhmicSpectrum(s) for s in np.linspace(0.5, 4.0, 15))
    sched = periodic_schedule(0.3, 25.0)
    engine = PulsedDecoherence(spectra, sched)
    taus = np.linspace(5.05, 24.95, 10)
    counts = np.searchsorted(sched.instants, taus)
    evaluated = spy(pulses, "_closed_forms", lambda tau, rows, **_: np.broadcast(tau, rows).size)
    got = engine._evaluate(counts, taus - engine._starts[counts])[0]
    assert sum(evaluated) <= taus.size * (counts.max() + 1)
    monkeypatch.undo()
    assert_allclose(got, PulsedDecoherence(spectra[0], sched).gamma_grid(taus), rtol=0.0, atol=0.0)


@pytest.mark.parametrize("s", [0.5, 4.0])
def test_closed_sum_agrees_with_filter_integral(s):
    spec = OhmicSpectrum(s)
    sched = periodic_schedule(1.0, 25.0)
    eps = 1e-6
    for tau in (0.5, 1.0, 1.5 + eps, 7.3, 25.0):
        closed = controlled_gamma(spec, sched, tau)
        integral = controlled_gamma_oracle(spec, sched, tau)
        assert abs(closed - integral) < 1e-8


@pytest.mark.parametrize("dt", [None, 0.3, 1.0])
@pytest.mark.parametrize("s", [0.1, 0.7, 1.6, 3.4, 6.0])
def test_oracles_match_scipy_reference(s, dt):
    # the package's Gauss-Legendre rule against scipy's adaptive quad
    spec = OhmicSpectrum(s)
    sched = periodic_schedule(dt, 12.5)
    for tau in (0.7, 4.1, 11.3):
        prefix = sched.instants[:sched.pulses_before(tau)]
        want = scipy_filter_integral(s, prefix, tau)
        assert abs(controlled_gamma_oracle(spec, sched, tau) - want) < 1e-10
        if dt is None:
            assert abs(gamma0_quadrature(spec, tau) - want) < 1e-10


@pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 3.0, 6.0])
def test_dense_pulse_oracle_matches_mpmath(s):
    # up to 499 pulses at dt 0.05: the filter-function quadrature against the 30-digit signed sum
    spec, sched = OhmicSpectrum(s), periodic_schedule(0.05, 25.0)
    for tau in (0.07, 4.97, 12.51, 24.97):
        want = float(mp_controlled_exponent(s, 0.05, tau)[0])
        assert abs(controlled_gamma_oracle(spec, sched, tau) - want) < 1e-11


def test_oracle_bisects_panels_to_a_tight_tolerance(spy):
    # at rel_tol 1e-13 the first pass misses the bound: three rounds of
    # bisection, each over more panels, reach it
    panels = spy(spectral, "_panel_sums", lambda lo, **_: lo.size)
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15)
    got = controlled_gamma_oracle(OhmicSpectrum(0.1), periodic_schedule(0.3, 25.0), 7.3, cfg)
    assert len(panels) == 4 and panels == sorted(set(panels))
    assert abs(got / 0.012920663553636427 - 1.0) <= 1e-14
    assert abs(got / float(mp_controlled_exponent(0.1, 0.3, 7.3, dps=40)[0]) - 1.0) <= 2e-12


def test_controlled_gamma_nonnegative():
    for s in (0.5, 1.0, 3.0):
        spec = OhmicSpectrum(s)
        for dt in (0.3, 1.0, 3.0):
            sched = periodic_schedule(dt, 25.0)
            taus = np.linspace(0.0, 25.0, 400)
            vals = PulsedDecoherence(spec, sched).gamma_grid(taus)
            assert np.all(vals >= 0.0)


def test_filter_function_reference_values():
    # no pulses: |1 - e^{iz}|^2, equal to 4 at z=pi
    assert abs(filter_function_sq(0, None, 1.0, np.pi) - 4.0) < 1e-14
    assert filter_function_sq(0, None, 1.0, 0.0) == 0.0
    # 2(1 - cos z) at any tau, tau = 0 included, with no warning
    z = np.linspace(0.0, 12.0, 25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (0.0, 1.0):
            assert_allclose(filter_function_sq(0, None, tau, z), 2.0 * (1.0 - np.cos(z)),
                            rtol=0.0, atol=1e-14)

    # one midpoint pulse: |1 - 2e^{iz/2} + e^{iz}|^2 = 4(1-cos(z/2))^2
    for z in np.linspace(0.0, 12.0, 25):
        got = filter_function_sq(1, 0.5, 1.0, z)
        expected = 4.0 * (1.0 - np.cos(0.5 * z)) ** 2
        assert abs(got - expected) < 1e-12


def test_filter_function_vanishes_at_origin():
    sched = periodic_schedule(0.4, 3.0)
    for n in range(1, len(sched) + 1):
        tau = sched.instants[n - 1] + 0.2
        assert abs(filter_function_sq(n, sched.interval, tau, 0.0)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 41, 499], ids=["n0", "n1", "n2", "n41", "n499"])
def test_filter_function_matches_pulse_by_pulse_sum(n):
    # the periodic closed form, at its resonances z t_1 / tau = (2j+1) pi
    # (exactly at j = 0, where sin(psi) = 0), 1e-9 off them and at random z
    t_1, tau = 2.0 ** -9, 1.0
    instants = periodic_schedule(t_1, tau).instants[:n]
    odd = (2 * np.arange(12) + 1) * np.pi
    theta = np.concatenate((odd, odd + 1e-9, odd - 1e-9))
    z = np.concatenate((theta * (tau / t_1), np.random.default_rng(8).uniform(0.0, 2000.0, 200)))
    want = np.array([naive_filter_sq(instants, tau, x) for x in z])
    envelope = (2 * len(instants) + 2) ** 2
    assert np.max(np.abs(filter_function_sq(n, t_1, tau, z) - want)) <= 1e-12 * envelope


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


def test_default_time_grid_keeps_the_smallest_double_gap():
    # at dt 0.32 and 0.064 the smallest gap of the double instants sits an
    # ulp below dt and sets the step; a step of dt / 20 would give 1,719
    # points at dt 0.32 and move every one
    for dt, points, first in ((0.32, 1720, 25.0 / 1563), (0.064, 8594, 25.0 / 7813)):
        sched = periodic_schedule(dt, 25.0)
        assert np.diff(sched.instants, prepend=0.0).min() < dt
        grid = default_time_grid(sched)
        assert grid.size == points and grid[1] == first


def test_default_time_grid_custom_step():
    sched = periodic_schedule(None, 2.0)
    grid = default_time_grid(sched, step=0.5)
    assert_allclose(grid, [0.0, 0.5, 1.0, 1.5, 2.0])
