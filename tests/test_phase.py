import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from dd_discord import phase, pulses
from dd_discord import (
    BellDiagonalState,
    NoiseSide,
    OhmicSpectrum,
    PhaseDiagram,
    Regime,
    RegimeLabel,
    boundary_curve,
    classify,
    controlled_gamma,
    decoherence_factor,
    default_time_grid,
    discord,
    gamma0,
    invariant_discord_value,
    min_decoherence_factor,
    periodic_schedule,
    phase_diagram,
    transition_time,
)

from oracles import (mp_controlled_exponent, mp_first_crossing, mp_max_exponent, mp_newton,
                     naive_controlled_gamma)

FREE_25 = periodic_schedule(None, 25.0)


def _rows_per_block(monkeypatch, dt, rows):
    """Set the block budget to the scan points of that many rows of dt's map."""
    scan = phase._scan(periodic_schedule(dt, 25.0))
    monkeypatch.setattr(phase, "_BLOCK_POINTS", rows * scan[1].size)


def _scalar_factor(spec, sched, side):
    return lambda tau: decoherence_factor(controlled_gamma(spec, sched, float(tau)), side)


def _scalar_bisection(factor, c, lo, hi, xtol=1e-6):
    """Crossing of factor below c inside [lo, hi], one scalar time per step."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if factor(mid) < c:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_min_factor_super_ohmic_free():
    # s=4 free evolution: exponent peaks at 5/2, both qubits noisy
    got = min_decoherence_factor(OhmicSpectrum(4.0), FREE_25, NoiseSide.TWO_SIDED)
    assert abs(got - np.exp(-5.0)) < 1e-9


def test_min_factor_marginal_free():
    # s=1 one-sided: monotone exponent, minimum sits at the horizon
    got = min_decoherence_factor(OhmicSpectrum(1.0), FREE_25, NoiseSide.ONE_SIDED)
    assert abs(got - 626.0 ** -0.5) < 1e-12


def test_min_factor_vanishing_window():
    for s in (0.5, 1.0, 4.0):
        spec = OhmicSpectrum(s)
        tiny = periodic_schedule(None, 1e-4)
        assert min_decoherence_factor(spec, tiny, NoiseSide.TWO_SIDED) > 0.999999


def test_min_factor_zeno_regime():
    # rapid pulsing freezes the bath: factor stays near one
    spec = OhmicSpectrum(1.0)
    fast = min_decoherence_factor(spec, periodic_schedule(0.05, 25.0),
                                  NoiseSide.TWO_SIDED)
    assert fast > 0.9
    mid = min_decoherence_factor(spec, periodic_schedule(0.2, 25.0),
                                 NoiseSide.TWO_SIDED)
    slow = min_decoherence_factor(spec, periodic_schedule(0.8, 25.0),
                                  NoiseSide.TWO_SIDED)
    assert fast > mid > slow


def test_classify_threshold_and_boundary():
    assert classify(BellDiagonalState(0.0), 0.3) is Regime.TIME_INVARIANT
    assert classify(BellDiagonalState(0.5), 0.006738) is Regime.SUDDEN_TRANSITION
    # equality counts as invariant: the factor never drops strictly below c
    assert classify(BellDiagonalState(0.5), 0.5) is Regime.TIME_INVARIANT
    assert classify(BellDiagonalState(0.5001), 0.5) is Regime.SUDDEN_TRANSITION


def test_classify_monotone_in_c():
    mf = 0.37
    flipped = False
    for c in np.linspace(0.0, 0.99, 100):
        sudden = classify(BellDiagonalState(float(c)), mf) is Regime.SUDDEN_TRANSITION
        if flipped:
            assert sudden
        flipped = flipped or sudden
    assert flipped


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(BellDiagonalState(0.5), 0.0)
    with pytest.raises(ValueError):
        classify(BellDiagonalState(0.5), 1.5)


@pytest.mark.parametrize("dt", [None, 0.3])
def test_sign_of_c_does_not_change_the_regime(dt):
    # discord depends on |c| only, and so do the label and the transition time
    spec, sched, side = OhmicSpectrum(1.3), periodic_schedule(dt, 25.0), NoiseSide.ONE_SIDED
    mf = min_decoherence_factor(spec, sched, side)
    cs = [0.0, 0.5 * mf, 0.35, 0.7, 0.97]
    diagram = phase_diagram([1.3], cs + [-c for c in cs], dt, side)
    assert diagram.labels[0][:len(cs)] == diagram.labels[0][len(cs):]
    for c in cs:
        assert classify(BellDiagonalState(-c), mf) is classify(BellDiagonalState(c), mf)
        assert (transition_time(spec, sched, BellDiagonalState(-c), side)
                == transition_time(spec, sched, BellDiagonalState(c), side))
    assert any(label.transition_time for label in diagram.labels[0])


def test_transition_time_marginal_free():
    spec = OhmicSpectrum(1.0)
    state = BellDiagonalState(0.5)
    # one-sided: (1+t^2)^{-1/2} = 1/2 at t = sqrt(3)
    got = transition_time(spec, FREE_25, state, NoiseSide.ONE_SIDED)
    assert abs(got - np.sqrt(3.0)) < 1e-6
    # two-sided: (1+t^2)^{-1} = 1/2 at t = 1
    got = transition_time(spec, FREE_25, state, NoiseSide.TWO_SIDED)
    assert abs(got - 1.0) < 1e-6


def test_transition_time_absent_cases():
    spec = OhmicSpectrum(1.0)
    assert transition_time(spec, FREE_25, BellDiagonalState(0.0),
                           NoiseSide.TWO_SIDED) is None
    # tight pulsing keeps the factor above c=0.5 for the whole window
    sched = periodic_schedule(0.3, 25.0)
    assert transition_time(OhmicSpectrum(1.01), sched, BellDiagonalState(0.5),
                           NoiseSide.ONE_SIDED) is None


@pytest.mark.parametrize("s,interval,side,c", [
    (1.0, None, NoiseSide.ONE_SIDED, 0.5),
    (1.0, None, NoiseSide.TWO_SIDED, 0.5),
    (2.0, None, NoiseSide.TWO_SIDED, 0.3),
    (4.0, 3.0, NoiseSide.ONE_SIDED, 0.5),
    (0.5, 1.0, NoiseSide.TWO_SIDED, 0.95),
])
def test_transition_time_straddles_crossing(s, interval, side, c):
    spec = OhmicSpectrum(s)
    sched = periodic_schedule(interval, 25.0)
    tbar = transition_time(spec, sched, BellDiagonalState(c), side)
    assert tbar is not None
    assert 0.0 < tbar <= 25.0
    eps = 1e-4
    before = decoherence_factor(controlled_gamma(spec, sched, tbar - eps), side)
    after = decoherence_factor(controlled_gamma(spec, sched, tbar + eps), side)
    assert before >= c - 1e-9
    assert after < c + 1e-9


def test_transition_absent_iff_invariant():
    spec = OhmicSpectrum(3.0)
    sched = periodic_schedule(1.0, 25.0)
    side = NoiseSide.TWO_SIDED
    mf = min_decoherence_factor(spec, sched, side)
    c_grid = np.linspace(0.0, 0.99, 34)
    diagram = phase_diagram([3.0], c_grid, 1.0, side)
    for c, label in zip(c_grid, diagram.labels[0]):
        state = BellDiagonalState(float(c))
        tbar = transition_time(spec, sched, state, side)
        # the one-cell query and the diagram row label the same way
        assert tbar == label.transition_time
        if classify(state, mf) is Regime.TIME_INVARIANT:
            assert tbar is None
        else:
            assert tbar is not None


@pytest.mark.parametrize("dt", [None, 0.3, 0.05])
@pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 4.0, 5.9])
def test_row_crossings_match_scalar_bisection(s, dt):
    # reference: scan the sampling grid, then bisect from the first sub-c
    # sample one scalar exponent at a time; s > 2 has non-monotone factors.
    # The scan is one gamma_grid call, the scalar exponent's doubles.
    spec = OhmicSpectrum(s)
    sched = periodic_schedule(dt, 25.0)
    grid = default_time_grid(sched)
    gammas = pulses.PulsedDecoherence(spec, sched).gamma_grid(grid)
    assert [controlled_gamma(spec, sched, float(t)) for t in grid[::50]] == gammas[::50].tolist()
    c_grid = np.linspace(0.02, 0.98, 17)
    for side in NoiseSide:
        factors = decoherence_factor(gammas, side)
        factor = _scalar_factor(spec, sched, side)
        row = phase_diagram([s], c_grid, dt, side).labels[0]
        for c, label in zip(c_grid, row):
            below = np.nonzero(factors < c)[0]
            if not below.size:
                assert label.regime is Regime.TIME_INVARIANT
                continue
            i = int(below[0])
            expected = _scalar_bisection(factor, c, grid[i - 1], grid[i])
            assert label.regime is Regime.SUDDEN_TRANSITION
            assert abs(label.transition_time - expected) <= 2e-6


def test_crossing_between_grid_and_refined_minimum():
    # a c between the refined minimum and the grid minimum crosses no grid
    # sample; the bracket then ends at the refined minimum
    spec = OhmicSpectrum(3.3)
    side = NoiseSide.TWO_SIDED
    grid = default_time_grid(FREE_25)
    factor = _scalar_factor(spec, FREE_25, side)
    factors = np.array([factor(t) for t in grid])
    refined = min_decoherence_factor(spec, FREE_25, side)
    assert refined < factors.min() - 1e-9
    c = 0.5 * (refined + factors.min())
    label = phase_diagram([3.3], [c], None, side).labels[0][0]
    assert label.regime is Regime.SUDDEN_TRANSITION
    # reference: a fine scalar scan over the cells around the grid minimum
    i = int(np.argmin(factors))
    fine = np.linspace(grid[i - 1], grid[i + 1], 2001)
    first = next(j for j, t in enumerate(fine) if factor(t) < c)
    expected = _scalar_bisection(factor, c, fine[first - 1], fine[first])
    assert abs(label.transition_time - expected) <= 2e-6
    assert transition_time(spec, FREE_25, BellDiagonalState(c), side) == label.transition_time


@pytest.mark.parametrize("s,dt,side,want", [
    (4.0, None, NoiseSide.TWO_SIDED, 1.0),       # the peak tan(pi/4), where gamma = 5/2
    (0.3, None, NoiseSide.ONE_SIDED, 25.0),      # the window end
    (4.0, 0.3, NoiseSide.ONE_SIDED, 24.9),       # the last pulse
    # peaks tan(pi/s) between scan samples: the time of a solved peak
    (3.0, None, NoiseSide.TWO_SIDED, pytest.approx(math.tan(math.pi / 3.0), rel=0.0, abs=1e-14)),
    (5.0, None, NoiseSide.ONE_SIDED, pytest.approx(math.tan(math.pi / 5.0), rel=0.0, abs=1e-14)),
])
def test_c_an_ulp_above_the_minimum_crosses_at_the_maximum(s, dt, side, want, spy):
    # |c| at the rounding edge of min_factor settles at no cell: the time is
    # that of the exponent's maximum
    spec, sched = OhmicSpectrum(s), periodic_schedule(dt, 25.0)
    calls = spy(phase._FactorProfile, "_argmax_time")
    mf = min_decoherence_factor(spec, sched, side)
    if (s, side) == (4.0, NoiseSide.TWO_SIDED):
        assert mf == math.exp(-5.0)
    state = BellDiagonalState(float(np.nextafter(mf, 1.0)))
    assert classify(state, mf) is Regime.SUDDEN_TRANSITION
    got = transition_time(spec, sched, state, side)
    assert got == want
    label = phase_diagram([s], [state.c], dt, side).labels[0][0]
    assert label == RegimeLabel(Regime.SUDDEN_TRANSITION, got)
    assert len(calls) == 2


@pytest.mark.parametrize("s,dt,tau", [(0.3, 0.3, 2.05), (2.5, 0.3, 0.9), (1.0, None, 3.3),
                                       (5.9, 0.05, 0.42)])
def test_mpmath_reference_matches_naive_sum(s, dt, tau):
    # the reference groups the pairwise gaps by length; the naive sum does not
    sched = periodic_schedule(dt, 25.0)
    want = naive_controlled_gamma(lambda t: gamma0(OhmicSpectrum(s), t), sched.instants, tau)
    assert abs(float(mp_controlled_exponent(s, dt, tau)[0]) - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize("dt", [None, 0.3, 0.05])
@pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 4.0, 5.9])
@pytest.mark.parametrize("side", list(NoiseSide))
def test_min_factor_and_crossings_match_mpmath(s, dt, side):
    mf = min_decoherence_factor(OhmicSpectrum(s), periodic_schedule(dt, 25.0), side)
    cs = mf + (1.0 - mf) * np.array([1e-6, 0.03, 0.3, 0.7, 0.97])
    levels = -np.log(cs) / side.value
    row = phase_diagram([s], cs, dt, side).labels[0]
    want = mpmath.exp(-side.value * mp_max_exponent(s, dt, 25.0))
    if want < np.finfo(float).tiny:   # the factor's floor
        assert mf == np.finfo(float).tiny
    else:
        assert abs(mf / float(want) - 1.0) <= 1e-12
    for label, level in zip(row, levels):
        t_mp = mp_first_crossing(s, dt, 25.0, level)
        assert label.regime is Regime.SUDDEN_TRANSITION
        t = label.transition_time
        g = mp_controlled_exponent(s, dt, t)[0]
        assert abs(g - level) <= 1e-11 * max(1.0, level)
        if dt != 0.05 and abs(mp_controlled_exponent(s, dt, t_mp)[1]) >= 1e-3:
            assert abs(t - t_mp) <= 1e-9


@pytest.mark.parametrize("s,c,dt,side", [
    (5.952123146757807, 0.8120388751920551, 0.05, NoiseSide.TWO_SIDED),
    (4.485141619103272, 0.8115270842663066, 0.3, NoiseSide.ONE_SIDED),
])
def test_transition_before_the_first_pulse_matches_mpmath(s, c, dt, side):
    # crossings of gamma0 alone whose 12-digit prints sit at a rounding edge
    # (roots 0.01779631241464958 and 0.09152674507494995)
    t = phase_diagram([s], [c], dt, side).labels[0][0].transition_time
    assert 0.0 < t < dt
    with mpmath.workdps(60):
        level = -mpmath.log(mpmath.mpf(c)) / side.value

        def excess(x):
            g, rate, _ = mp_controlled_exponent(s, None, x, dps=60)
            return g - level, rate

        root = mp_newton(excess, 0.0, dt, dps=60)
        assert abs(t / root - 1) <= 2e-12


@pytest.mark.parametrize("s,bound", [(20.0, 1e-15), (30.0, phase._MIN_WIDTH)], ids=["20", "30"])
def test_free_transition_at_high_s_matches_mpmath(s, bound):
    # one-sided, c = 0.5: gamma0 reaches log 2 near tau = 7.5e-10 (s = 20)
    # and 7.2e-17 (s = 30), where its closed form once cancelled to a few
    # digits; cells narrower than _MIN_WIDTH max(1, t) are not split
    t = transition_time(OhmicSpectrum(s), FREE_25, BellDiagonalState(0.5), NoiseSide.ONE_SIDED)
    with mpmath.workdps(80):
        def excess(x):
            g, rate, _ = mp_controlled_exponent(s, None, x, dps=80)
            return g - mpmath.log(2), rate

        assert abs(t - mp_newton(excess, 0.0, 1e-6, dps=80)) <= bound


def test_row_refinement_work(monkeypatch, spy):
    # per block of rows: one scan call, then vectorised Newton steps shared by
    # the block's c values (and its peaks); no scalar exponent at all. The
    # budget splits each map into blocks of 4 rows.
    # Measured on these maps: at most 6 kernel calls per pulsed block and 11
    # per free block.
    def block(self, **_):   # one evaluator per block
        return self.spec

    evaluator = pulses.PulsedDecoherence
    for dt, most, blocks in ((0.3, 6, 3), (None, 12, 3)):
        _rows_per_block(monkeypatch, dt, 4)
        scalar, kernel = spy(evaluator, "gamma", block), spy(evaluator, "_evaluate", block)
        diagram = phase_diagram(np.linspace(0.1, 6.0, 12), np.linspace(0.0, 0.99, 50), dt,
                                NoiseSide.ONE_SIDED)
        monkeypatch.undo()
        sudden = sum(label.regime is Regime.SUDDEN_TRANSITION
                     for row in diagram.labels for label in row)
        assert sudden > 200
        assert not scalar
        kernel = Counter(kernel)
        assert len(kernel) == blocks
        assert max(kernel.values()) <= most
        assert sum(kernel.values()) <= most * blocks


@pytest.mark.parametrize("dt, rows, one_step", [
    *(pytest.param(dt, rows, False, id=f"{dt}-{name}")
      for dt in (None, 0.3, 0.05) for rows, name in ((7, "budget"), (3, "small-budget"))),
    *(pytest.param(dt, 3, True, id=f"{dt}-small-budget-one-step") for dt in (None, 0.3)),
])
@pytest.mark.parametrize("side", list(NoiseSide))
def test_block_rows_equal_rows_alone(side, dt, rows, one_step, monkeypatch, spy):
    # a row of a block gets the very doubles it gets alone: labels, minimum
    # and transition times; a budget of 7 rows' scan points splits the 8
    # rows into blocks of 7 and 1, a small budget of 3 rows into 3, 3 and 2.
    # One scan step per branch leaves the refinement all the work: about
    # 100 to 1,000 cell splits and 8 to 42 private passes per map.
    if one_step:
        monkeypatch.setattr(phase, "_SCAN_STEP", math.inf)
        monkeypatch.setattr(phase, "_SCAN_MIN_STEPS", 1)
    _rows_per_block(monkeypatch, dt, rows)
    s_grid, c_grid = np.linspace(0.1, 6.0, 8), np.linspace(0.0, 0.99, 23)
    blocks = spy(phase, "_FactorProfile", lambda s_values, **_: len(s_values))
    diagram = phase_diagram(s_grid, c_grid, dt, side)
    assert max(blocks) > 1
    assert len(blocks) > 1
    for s, labels, min_factor in zip(s_grid, diagram.labels, diagram.min_factors):
        alone = phase_diagram((s,), c_grid, dt, side)
        assert alone.min_factors == (min_factor,)
        assert alone.labels == (labels,)
    assert any(label.regime is Regime.SUDDEN_TRANSITION for row in diagram.labels for label in row)


def test_block_memory_and_work(spy):
    # on the benchmark's maps no evaluation is larger than 10,500 points
    # (measured: at most 7,839, within a block's 8,000 scan points), and the
    # free map takes a few calls per block, not per row
    sizes = spy(pulses, "_closed_forms", lambda tau, rows, **_: np.broadcast(tau, rows).size)
    c_grid = np.linspace(0.0, 0.999, 50)
    for dt, side, rows in ((0.3, NoiseSide.ONE_SIDED, 60), (None, NoiseSide.ONE_SIDED, 60),
                           (0.05, NoiseSide.TWO_SIDED, 20)):
        sizes.clear()
        phase_diagram(np.linspace(0.1, 6.0, rows), c_grid, dt, side)
        assert max(sizes) <= 10_500
        if dt is None:
            assert len(sizes) <= 60


def test_scan_evaluates_each_closed_form_once(monkeypatch, spy):
    # a block's scan evaluates each closed form once per (row, phase, pulse
    # count): m + 1 phases of the period and the window end, after 0 .. N
    # pulses; the head term of every sample is one of them
    sched = periodic_schedule(0.3, 25.0)
    m, pulses_n = phase._SCAN_MIN_STEPS, len(sched)   # 0.3 / _SCAN_STEP is fewer steps
    scans, evaluate = {}, pulses.PulsedDecoherence._evaluate
    evaluated = spy(pulses, "_closed_forms", lambda tau, rows, **_: np.broadcast(tau, rows).size)

    def first_evaluation(self, *args, **kwargs):   # a block's first is its scan
        evaluated.clear()
        out = evaluate(self, *args, **kwargs)
        scans.setdefault(self.spec, sum(evaluated))
        return out

    monkeypatch.setattr(pulses.PulsedDecoherence, "_evaluate", first_evaluation)
    _rows_per_block(monkeypatch, 0.3, 4)
    phase_diagram(np.linspace(0.1, 6.0, 12), np.linspace(0.0, 0.99, 50), 0.3,
                  NoiseSide.ONE_SIDED)
    assert len(scans) == 3
    for spec, points in scans.items():
        assert points <= len(spec) * (m + 2) * (pulses_n + 1)


def test_scan_refinement_work_is_bounded(spy):
    # the scan is dense enough that the certificate seldom splits a cell: a
    # sparser one stays correct but refines cell by cell, one private pass
    # per c value at a time. Measured on these maps: at most 2 splits and no
    # private pass per map (one step of 1.0 per branch: up to 560 and 104)
    splits = spy(phase._FactorProfile, "_split")
    private = spy(phase._FactorProfile, "_crossings", lambda private, **_: private)
    for dt in (0.05, 0.3, 1.0, None):
        for side in NoiseSide:
            splits.clear()
            private.clear()
            phase_diagram(np.linspace(0.1, 6.0, 12), np.linspace(0.0, 0.99, 25), dt, side)
            assert len(splits) <= 4, (dt, side)
            assert sum(private) <= 2, (dt, side)


@pytest.mark.parametrize("dt", [None, 0.3, 0.05, 1.7])
def test_one_step_scan_is_certified(dt, monkeypatch):
    # one scan step per branch leaves the certificate all the work: it must
    # split its way to the labels, minima and times of the fine scan, and a
    # single-c query must still print its row's time
    s_grid, c_grid = [0.3, 1.0, 2.5, 4.0, 5.9], np.linspace(0.0, 0.99, 23)
    for side in NoiseSide:
        fine = phase_diagram(s_grid, c_grid, dt, side)
        monkeypatch.setattr(phase, "_SCAN_STEP", math.inf)
        monkeypatch.setattr(phase, "_SCAN_MIN_STEPS", 1)
        coarse = phase_diagram(s_grid, c_grid, dt, side)
        alone = [[transition_time(OhmicSpectrum(s), periodic_schedule(dt, 25.0),
                                  BellDiagonalState(c), side)
                  for c in c_grid[::4]] for s in s_grid]
        monkeypatch.undo()
        assert_allclose(coarse.min_factors, fine.min_factors, rtol=1e-12, atol=0.0)
        for row_fine, row_coarse, row_alone in zip(fine.labels, coarse.labels, alone):
            assert [label.transition_time for label in row_coarse[::4]] == row_alone
            for a, b in zip(row_fine, row_coarse):
                assert a.regime is b.regime
                if a.transition_time is not None:
                    assert abs(a.transition_time - b.transition_time) <= 1e-12


def test_newton_out_of_steps_returns_its_last_iterate(monkeypatch):
    # two steps solve x = 1/4 but not x^3 = 2, whose zero slope at the start
    # forces a bisection: that solve returns its last iterate, unmoved
    monkeypatch.setattr(phase, "_NEWTON_STEPS", 2)

    def evaluate(x, k):
        return np.where(k == 0, x - 0.25, x ** 3 - 2.0), np.where(k == 0, 1.0, 3.0 * x * x)

    lo, hi = np.zeros(2), np.array([1.0, 2.0])
    roots, values, moved = phase._newton(evaluate, lo, hi, lo.copy(), hi, np.array([0.0, 12.0]))
    assert np.all((lo <= roots) & (roots <= hi))
    assert roots[0] == 0.25 and moved[0] == 0.25   # one step from its last evaluation, at 0
    assert abs(roots[1] ** 3 - 2.0) > 0.1 and moved[1] == 0.0
    # the unconverged solve's values are those at its root
    assert [v[1] for v in values] == [w[0] for w in evaluate(roots[1:], np.ones(1))]


def test_off_grid_horizon_includes_the_window_end():
    # 10.049 is no multiple of the scan step: the last sample is the window end
    spec, side, end = OhmicSpectrum(1.0), NoiseSide.ONE_SIDED, 10.049
    window = periodic_schedule(None, end)
    mf = min_decoherence_factor(spec, window, side)
    assert abs(mf - math.exp(-gamma0(spec, end))) <= 1e-12 * mf
    # a c between the factor at the window end and 0.05 earlier is crossed
    c = 0.5 * (mf + math.exp(-gamma0(spec, end - 0.05)))
    tbar = transition_time(spec, window, BellDiagonalState(c), side)
    assert tbar is not None and end - 0.05 < tbar < end


def test_invariant_discord_value():
    assert invariant_discord_value(BellDiagonalState(0.0)) == 0.0
    assert abs(invariant_discord_value(BellDiagonalState(0.5))
               - 0.18872187554086714) < 1e-14
    assert invariant_discord_value(BellDiagonalState(1.0 - 1e-12)) > 0.999999
    # plateau value agrees with the undamped discord
    state = BellDiagonalState(0.5)
    assert abs(invariant_discord_value(state) - discord(state, 1.0)) < 1e-15


def test_regime_label_validation():
    RegimeLabel(Regime.TIME_INVARIANT)
    RegimeLabel(Regime.SUDDEN_TRANSITION, 1.3)
    with pytest.raises(ValueError):
        RegimeLabel(Regime.TIME_INVARIANT, 1.0)
    with pytest.raises(ValueError):
        RegimeLabel(Regime.SUDDEN_TRANSITION)


def test_phase_diagram_structure():
    s_grid = np.linspace(0.5, 4.0, 6)
    c_grid = np.linspace(0.0, 0.99, 8)
    diagram = phase_diagram(s_grid, c_grid, 1.0, NoiseSide.TWO_SIDED)
    assert isinstance(diagram, PhaseDiagram)
    assert len(diagram.labels) == 6
    assert all(len(row) == 8 for row in diagram.labels)
    assert diagram.pulse_interval == 1.0
    for i, row in enumerate(diagram.labels):
        mf = diagram.min_factors[i]
        assert 0.0 < mf <= 1.0
        seen_sudden = False
        for j, label in enumerate(row):
            expected = classify(BellDiagonalState(diagram.c_grid[j]), mf)
            assert label.regime is expected
            if label.regime is Regime.SUDDEN_TRANSITION:
                seen_sudden = True
                assert 0.0 < label.transition_time <= diagram.horizon
            else:
                assert not seen_sudden  # monotone in c
                assert label.transition_time is None


def test_phase_diagram_zero_c_column():
    diagram = phase_diagram([0.5, 1.0, 3.0], [0.0], None, NoiseSide.TWO_SIDED)
    for row in diagram.labels:
        assert row[0].regime is Regime.TIME_INVARIANT


def test_phase_diagram_one_sided_contains_two_sided():
    s_grid = np.linspace(0.5, 5.0, 7)
    c_grid = np.linspace(0.0, 0.99, 9)
    one = phase_diagram(s_grid, c_grid, 0.5, NoiseSide.ONE_SIDED)
    two = phase_diagram(s_grid, c_grid, 0.5, NoiseSide.TWO_SIDED)
    for row_one, row_two in zip(one.labels, two.labels):
        for label_one, label_two in zip(row_one, row_two):
            if label_two.regime is Regime.TIME_INVARIANT:
                assert label_one.regime is Regime.TIME_INVARIANT


def test_phase_diagram_validation():
    with pytest.raises(ValueError):
        phase_diagram([0.0, 1.0], [0.0], None, NoiseSide.ONE_SIDED)
    with pytest.raises(ValueError):
        phase_diagram([1.0], [0.5, 1.0], None, NoiseSide.ONE_SIDED)
    # an endless window is refused by the size checks, before any integer conversion
    for dt in (None, 0.3):
        with pytest.raises(ValueError, match="more than the limit"):
            phase_diagram([1.0], [0.5], dt, NoiseSide.ONE_SIDED, horizon=math.inf)


def test_phase_diagram_worker_count_is_invisible():
    s_grid = [0.5, 1.0, 2.0, 4.0]
    c_grid = [0.0, 0.3, 0.6, 0.9]
    serial = phase_diagram(s_grid, c_grid, 0.7, NoiseSide.TWO_SIDED)
    parallel = phase_diagram(s_grid, c_grid, 0.7, NoiseSide.TWO_SIDED, workers=3)
    assert serial.labels == parallel.labels
    assert serial.min_factors == parallel.min_factors


def test_boundary_curve_matches_min_factor():
    s_grid = [0.5, 1.0, 2.5, 4.0]
    curve = boundary_curve(s_grid, 1.0, NoiseSide.TWO_SIDED)
    assert [s for s, _ in curve] == s_grid
    diagram = phase_diagram(s_grid, (), 1.0, NoiseSide.TWO_SIDED)
    assert [mf for _, mf in curve] == list(diagram.min_factors)
    for s, mf in curve:
        direct = min_decoherence_factor(
            OhmicSpectrum(s), periodic_schedule(1.0, 25.0), NoiseSide.TWO_SIDED)
        assert mf == direct


def test_boundary_free_evolution_closed_forms():
    from dd_discord import gamma0
    curve = dict(boundary_curve([0.5, 1.0, 1.5, 2.0, 3.0, 4.0], None,
                                NoiseSide.ONE_SIDED))
    for s in (0.5, 1.0, 1.5, 2.0):
        # exponent still rising at the horizon, so the minimum sits there
        expected = np.exp(-gamma0(OhmicSpectrum(s), 25.0))
        assert abs(curve[s] - expected) < 1e-12
    for s in (3.0, 4.0):
        # recoherence: the dip is at the first stationary point instead
        expected = np.exp(-gamma0(OhmicSpectrum(s), np.tan(np.pi / s)))
        assert abs(curve[s] - expected) < 1e-6
