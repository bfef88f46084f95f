import numpy as np
import pytest

from dd_discord import (
    BellDiagonalState,
    NoiseSide,
    OhmicSpectrum,
    PhaseDiagram,
    PulseSchedule,
    Regime,
    RegimeLabel,
    boundary_curve,
    classify,
    controlled_gamma,
    decoherence_factor,
    discord,
    invariant_discord_value,
    min_decoherence_factor,
    periodic_schedule,
    phase_diagram,
    transition_time,
)

FREE_25 = PulseSchedule((), 25.0)


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
        tiny = PulseSchedule((), 1e-4)
        assert min_decoherence_factor(spec, tiny, NoiseSide.TWO_SIDED) > 0.999999
        # restricting the horizon of a longer schedule behaves the same
        got = min_decoherence_factor(spec, FREE_25, NoiseSide.TWO_SIDED,
                                     horizon=1e-4)
        assert got > 0.999999


def test_min_factor_horizon_validation():
    spec = OhmicSpectrum(1.0)
    with pytest.raises(ValueError):
        min_decoherence_factor(spec, FREE_25, NoiseSide.ONE_SIDED, horizon=26.0)
    with pytest.raises(ValueError):
        min_decoherence_factor(spec, FREE_25, NoiseSide.ONE_SIDED, horizon=0.0)


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
        classify(BellDiagonalState(-0.1), 0.5)
    with pytest.raises(ValueError):
        classify(BellDiagonalState(0.5), 0.0)
    with pytest.raises(ValueError):
        classify(BellDiagonalState(0.5), 1.5)


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
    sched = PulseSchedule((), 25.0) if interval is None else periodic_schedule(interval, 25.0)
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
